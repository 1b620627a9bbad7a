#include "stream/l0_sampler.h"

namespace dcs {

int L0LevelCount(int64_t universe) {
  DCS_CHECK_GE(universe, 1);
  return 3 + std::bit_width(static_cast<uint64_t>(universe - 1));
}

std::optional<L0Sample> L0Bucket::Recover(uint64_t check_seed) const {
  if (sum == 0) return std::nullopt;
  const int64_t signed_weighted = static_cast<int64_t>(weighted);
  // INT64_MIN / −1 overflows (SIGFPE on x86); its quotient 2^63 is no index.
  if (sum == -1 && signed_weighted == INT64_MIN) return std::nullopt;
  if (signed_weighted % sum != 0) return std::nullopt;
  const int64_t index = signed_weighted / sum;
  if (index < 0) return std::nullopt;
  // Verify: a 1-sparse vector v·e_i has check v·g(i).
  if (check != static_cast<uint64_t>(sum) *
                   Hash64(static_cast<uint64_t>(index), check_seed)) {
    return std::nullopt;
  }
  return L0Sample{index, sum};
}

void L0MergeBuckets(std::span<L0Bucket> into, std::span<const L0Bucket> from) {
  DCS_CHECK_EQ(into.size(), from.size());
  for (size_t j = 0; j < into.size(); ++j) into[j].Merge(from[j]);
}

std::optional<L0Sample> L0SampleRow(std::span<const L0Bucket> row,
                                    uint64_t check_seed) {
  // Deepest (sparsest) levels first: the first recoverable level wins.
  // `level` is the suffix sum row[j..], i.e. level j's bucket.
  L0Bucket level;
  for (size_t j = row.size(); j-- > 0;) {
    level.Merge(row[j]);
    const std::optional<L0Sample> sample = level.Recover(check_seed);
    if (sample.has_value()) return sample;
  }
  return std::nullopt;
}

bool L0RowIsZero(std::span<const L0Bucket> row) {
  for (const L0Bucket& bucket : row) {
    if (!bucket.IsZero()) return false;
  }
  return true;
}

L0Sampler::L0Sampler(int64_t universe, uint64_t seed)
    : universe_(universe),
      seed_(seed),
      check_seed_(L0CheckSeed(seed)),
      levels_(static_cast<size_t>(L0LevelCount(universe))) {}

void L0Sampler::Update(int64_t index, int64_t delta) {
  DCS_CHECK_GE(index, 0);
  DCS_CHECK_LT(index, universe_);
  if (delta == 0) return;
  const int deepest = L0DeepestLevel(index, seed_, levels());
  levels_[static_cast<size_t>(deepest)].Add(
      index, delta, Hash64(static_cast<uint64_t>(index), check_seed_));
}

void L0Sampler::MergeFrom(const L0Sampler& other) {
  DCS_CHECK_EQ(universe_, other.universe_);
  DCS_CHECK_EQ(seed_, other.seed_);
  L0MergeBuckets(levels_, other.levels_);
}

std::optional<L0Sample> L0Sampler::Sample() const {
  return L0SampleRow(levels_, check_seed_);
}

bool L0Sampler::AppearsZero() const { return L0RowIsZero(levels_); }

}  // namespace dcs
