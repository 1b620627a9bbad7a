// ℓ₀-sampling over dynamic integer vectors.
//
// Substrate for the AGM graph sketches [AGM12] — the linear-measurement
// graph sketching result the paper's introduction builds its database
// motivation on. An ℓ₀-sampler maintains O(log U) linear measurements of a
// dynamic vector a ∈ ℤ^U under coordinate updates a_i += Δ (insertions and
// deletions), and can report some coordinate with a_i ≠ 0 with constant
// success probability.
//
// Construction: level j keeps the coordinates whose level hash (the
// trailing zeros of Hash64(i, seed)) is at least j, so it subsamples with
// probability 2^{-j}, and answers with a 1-sparse recovery bucket
//   (sum, weighted, check) = (Σ a_i, Σ a_i·i, Σ a_i·g(i))
// over the kept coordinates, the last two wrapping mod 2^64. g is a
// second seeded 64-bit mixer (Hash64 under a salted seed). A level that is
// exactly 1-sparse reproduces its coordinate as i = weighted/sum and
// verifies it with check == sum·g(i); DESIGN.md §12 bounds the chance that
// a bucket holding more than one coordinate passes. g must not be affine:
// with g(i) = α·i + β every vector whose weighted/sum lands on an index
// would pass. Queries scan levels from the sparsest.
//
// Storage is exact-level: bucket j of a row holds only the coordinates
// whose deepest level is exactly j, so an update adds into one bucket.
// Level j's bucket is the suffix sum of buckets j..deepest; readers
// (L0SampleRow, the AGM digest) rebuild it with a running sum while they
// scan down from the deepest level. The map between the two layouts is
// linear and invertible, so a row is zero in one iff it is zero in the
// other.
//
// Everything is linear in the vector, so samplers over disjoint updates
// merge by adding their buckets — the property the AGM sketch exploits.
//
// The state is plain data: one sampler is a row of L0Buckets, one per
// level, and the functions below act on a row. AgmConnectivitySketch keeps
// all its rows in one flat array; L0Sampler owns a single row for
// standalone use.

#ifndef DCS_STREAM_L0_SAMPLER_H_
#define DCS_STREAM_L0_SAMPLER_H_

#include <bit>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "util/check.h"

namespace dcs {

// A recovered nonzero coordinate.
struct L0Sample {
  int64_t index = 0;
  int64_t value = 0;  // the (nonzero) coordinate value
};

// The seeded 64-bit mixer (splitmix64 finalizer) behind the level and the
// check hashes.
inline uint64_t Hash64(uint64_t x, uint64_t seed) {
  x += seed + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// The seed of a sampler's check hash g(i) = Hash64(i, L0CheckSeed(seed)).
inline uint64_t L0CheckSeed(uint64_t seed) {
  return Hash64(seed, 0xc4ec5a17c4ec5a17ULL);
}

// Number of levels of a sampler over [0, universe): 3 + ⌈log2 universe⌉.
int L0LevelCount(int64_t universe);

// The deepest level of a `levels`-level sampler that keeps `index`.
inline int L0DeepestLevel(int64_t index, uint64_t seed, int levels) {
  const uint64_t h = Hash64(static_cast<uint64_t>(index), seed);
  const int trailing = h == 0 ? 64 : std::countr_zero(h);
  return trailing < levels - 1 ? trailing : levels - 1;
}

// One bucket: exact 1-sparse recovery over the coordinates it holds.
struct L0Bucket {
  int64_t sum = 0;        // Σ a_i
  uint64_t weighted = 0;  // Σ a_i·i mod 2^64
  uint64_t check = 0;     // Σ a_i·g(i) mod 2^64

  // a_i += delta, where `check_hash` is g(i).
  void Add(int64_t index, int64_t delta, uint64_t check_hash) {
    sum += delta;
    weighted += static_cast<uint64_t>(delta) * static_cast<uint64_t>(index);
    check += static_cast<uint64_t>(delta) * check_hash;
  }

  void Merge(const L0Bucket& other) {
    sum += other.sum;
    weighted += other.weighted;
    check += other.check;
  }

  // True if no updates survive (the zero vector, whp).
  bool IsZero() const { return sum == 0 && weighted == 0 && check == 0; }

  // If the residual vector is exactly 1-sparse, returns it (whp correct:
  // verified against g = Hash64(·, check_seed)). Otherwise nullopt. A
  // coordinate with |a_i·i| ≥ 2^63 is not recovered.
  std::optional<L0Sample> Recover(uint64_t check_seed) const;
};

// into[j] += from[j] for every j: merges one row, or a whole sketch.
void L0MergeBuckets(std::span<L0Bucket> into, std::span<const L0Bucket> from);

// Some nonzero coordinate from the deepest recoverable level of one
// sampler's exact-level row (levels rebuilt as suffix sums), or nullopt.
std::optional<L0Sample> L0SampleRow(std::span<const L0Bucket> row,
                                    uint64_t check_seed);

// True iff every bucket of the row reads zero (equivalently, every level).
bool L0RowIsZero(std::span<const L0Bucket> row);

// An owning single-row sampler.
class L0Sampler {
 public:
  // Samples over coordinate universe [0, universe). The seed fixes both
  // the level hash and the check hash; samplers must share a seed (and
  // universe) to be mergeable.
  L0Sampler(int64_t universe, uint64_t seed);

  void Update(int64_t index, int64_t delta);
  void MergeFrom(const L0Sampler& other);

  // Some nonzero coordinate of the maintained vector, or nullopt if the
  // vector is zero or sampling failed at every level (constant failure
  // probability for nonzero vectors).
  std::optional<L0Sample> Sample() const;

  // True iff every level reads zero (so the vector is zero whp).
  bool AppearsZero() const;

  int levels() const { return static_cast<int>(levels_.size()); }

 private:
  int64_t universe_;
  uint64_t seed_;
  uint64_t check_seed_;
  std::vector<L0Bucket> levels_;
};

}  // namespace dcs

#endif  // DCS_STREAM_L0_SAMPLER_H_
