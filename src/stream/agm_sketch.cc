#include "stream/agm_sketch.h"

#include <algorithm>
#include <span>
#include <string>
#include <utility>

#include "graph/connectivity.h"
#include "mincut/stoer_wagner.h"
#include "util/union_find.h"

namespace dcs {
namespace {

int DefaultRounds(int n) {
  int rounds = 2;
  while ((1 << (rounds - 2)) < n) ++rounds;
  return rounds;
}

}  // namespace

AgmConnectivitySketch::AgmConnectivitySketch(int num_vertices, int rounds,
                                             uint64_t seed)
    : num_vertices_(num_vertices),
      rounds_(rounds > 0 ? rounds : DefaultRounds(num_vertices)),
      seed_(seed) {
  DCS_CHECK_GE(num_vertices, 1);
  levels_ = L0LevelCount(static_cast<int64_t>(num_vertices_) * num_vertices_);
  for (int r = 0; r < rounds_; ++r) {
    // All samplers of one round share a seed (mergeable); rounds differ.
    const uint64_t round_seed = seed_ * 1000003ULL + static_cast<uint64_t>(r);
    round_seeds_.push_back(round_seed);
    check_seeds_.push_back(L0CheckSeed(round_seed));
  }
  buckets_.resize(RowOffset(rounds_, 0));
}

void AgmConnectivitySketch::Update(VertexId u, VertexId v, int64_t delta) {
  DCS_CHECK(u >= 0 && u < num_vertices_);
  DCS_CHECK(v >= 0 && v < num_vertices_);
  DCS_CHECK_NE(u, v);
  if (u > v) std::swap(u, v);
  const int64_t coordinate = static_cast<int64_t>(u) * num_vertices_ + v;
  // The streaming hot path: per round, one level hash and one check hash,
  // then a +delta/−delta add into the deepest-level bucket of both rows.
  for (int r = 0; r < rounds_; ++r) {
    const size_t round = static_cast<size_t>(r);
    const size_t deepest = static_cast<size_t>(
        L0DeepestLevel(coordinate, round_seeds_[round], levels_));
    const uint64_t check_hash =
        Hash64(static_cast<uint64_t>(coordinate), check_seeds_[round]);
    buckets_[RowOffset(r, u) + deepest].Add(coordinate, delta, check_hash);
    buckets_[RowOffset(r, v) + deepest].Add(coordinate, -delta, check_hash);
  }
}

void AgmConnectivitySketch::UpdateRow(VertexId row, VertexId other,
                                      int64_t delta) {
  DCS_CHECK(row >= 0 && row < num_vertices_);
  DCS_CHECK(other >= 0 && other < num_vertices_);
  DCS_CHECK_NE(row, other);
  const VertexId lo = std::min(row, other);
  const VertexId hi = std::max(row, other);
  const int64_t coordinate = static_cast<int64_t>(lo) * num_vertices_ + hi;
  const int64_t signed_delta = row == lo ? delta : -delta;
  // Update's per-round work, restricted to one of the two rows.
  for (int r = 0; r < rounds_; ++r) {
    const size_t round = static_cast<size_t>(r);
    const size_t deepest = static_cast<size_t>(
        L0DeepestLevel(coordinate, round_seeds_[round], levels_));
    buckets_[RowOffset(r, row) + deepest].Add(
        coordinate, signed_delta,
        Hash64(static_cast<uint64_t>(coordinate), check_seeds_[round]));
  }
}

void AgmConnectivitySketch::AddEdge(VertexId u, VertexId v) {
  Update(u, v, +1);
}

void AgmConnectivitySketch::RemoveEdge(VertexId u, VertexId v) {
  Update(u, v, -1);
}

void AgmConnectivitySketch::MergeFrom(const AgmConnectivitySketch& other) {
  const Status status = TryMergeFrom(other);
  DCS_CHECK(status.ok());
}

Status AgmConnectivitySketch::TryMergeFrom(
    const AgmConnectivitySketch& other) {
  if (num_vertices_ != other.num_vertices_) {
    return InvalidArgumentError(
        "cannot merge AGM sketches over different vertex counts (" +
        std::to_string(num_vertices_) + " vs " +
        std::to_string(other.num_vertices_) + ")");
  }
  if (rounds_ != other.rounds_) {
    return InvalidArgumentError(
        "cannot merge AGM sketches with different round counts (" +
        std::to_string(rounds_) + " vs " + std::to_string(other.rounds_) +
        ")");
  }
  if (seed_ != other.seed_) {
    return InvalidArgumentError(
        "cannot merge AGM sketches built from different seeds (" +
        std::to_string(seed_) + " vs " + std::to_string(other.seed_) + ")");
  }
  L0MergeBuckets(buckets_, other.buckets_);
  return OkStatus();
}

uint64_t AgmConnectivitySketch::Digest() const {
  constexpr uint64_t kOffset = 14695981039346656037ULL;  // FNV-1a offset
  constexpr uint64_t kPrime = 1099511628211ULL;
  uint64_t digest = kOffset;
  const auto fold = [&digest](uint64_t word) {
    digest = (digest ^ word) * kPrime;
  };
  fold(static_cast<uint64_t>(num_vertices_));
  fold(static_cast<uint64_t>(rounds_));
  fold(seed_);
  // Fold each row's levels 0, 1, … as suffix sums of its exact-level
  // buckets: the words a sketch that adds into every level ≤ deepest
  // would hold.
  const size_t levels = static_cast<size_t>(levels_);
  std::vector<L0Bucket> suffix(levels);
  for (size_t row = 0; row < buckets_.size(); row += levels) {
    L0Bucket level;
    for (size_t j = levels; j-- > 0;) {
      level.Merge(buckets_[row + j]);
      suffix[j] = level;
    }
    for (const L0Bucket& bucket : suffix) {
      fold(static_cast<uint64_t>(bucket.sum));
      fold(bucket.weighted);
      fold(bucket.check);
    }
  }
  return digest;
}

bool AgmConnectivitySketch::RoundSumsAreZero() const {
  const size_t levels = static_cast<size_t>(levels_);
  std::vector<L0Bucket> total(levels);
  for (int r = 0; r < rounds_; ++r) {
    std::fill(total.begin(), total.end(), L0Bucket{});
    for (int v = 0; v < num_vertices_; ++v) {
      L0MergeBuckets(total, std::span<const L0Bucket>(
                                &buckets_[RowOffset(r, v)], levels));
    }
    if (!L0RowIsZero(total)) return false;
  }
  return true;
}

std::vector<Edge> AgmConnectivitySketch::SpanningForest() const& {
  return AgmConnectivitySketch(*this).SpanningForest();
}

std::vector<Edge> AgmConnectivitySketch::SpanningForest() && {
  const int n = num_vertices_;
  const size_t levels = static_cast<size_t>(levels_);
  UnionFind components(n);
  auto find = [&components](int v) { return components.Find(v); };

  // Per-component merged samplers, in place: once components merge, the
  // (r, root) row holds the round-r sampler summed over root's component.
  const auto row = [levels, this](int r, int v) {
    return std::span<L0Bucket>(&buckets_[RowOffset(r, v)], levels);
  };
  std::vector<Edge> forest;
  for (int r = 0; r < rounds_; ++r) {
    const uint64_t check_seed = check_seeds_[static_cast<size_t>(r)];
    // Collect one candidate outgoing edge per component root.
    std::vector<std::pair<VertexId, VertexId>> candidates;
    for (int v = 0; v < n; ++v) {
      if (find(v) != v) continue;
      const std::optional<L0Sample> sample = L0SampleRow(row(r, v), check_seed);
      if (!sample.has_value()) continue;
      const VertexId u = static_cast<VertexId>(sample->index / n);
      const VertexId w = static_cast<VertexId>(sample->index % n);
      if (u < 0 || u >= n || w < 0 || w >= n || u == w) continue;
      candidates.emplace_back(u, w);
    }
    bool merged_any = false;
    for (const auto& [u, w] : candidates) {
      const int root_u = find(u);
      const int root_w = find(w);
      if (root_u == root_w) continue;
      // Union: merge w's component into u's and combine the samplers of
      // every later round (this round's rows are not read again). The
      // directed union keeps root_u as the representative, matching where
      // the merged samplers live.
      components.UnionInto(root_w, root_u);
      for (int rr = r + 1; rr < rounds_; ++rr) {
        L0MergeBuckets(row(rr, root_u), row(rr, root_w));
      }
      forest.push_back(Edge{u, w, 1.0});
      merged_any = true;
    }
    if (!merged_any && r > 0) {
      // Components stopped merging: either done or every boundary sampler
      // failed this round; later rounds are fresh, so keep going only if
      // some component still looks non-isolated.
      bool any_boundary = false;
      for (int v = 0; v < n && !any_boundary; ++v) {
        if (find(v) == v && !L0RowIsZero(row(r, v))) any_boundary = true;
      }
      if (!any_boundary) break;
    }
  }
  return forest;
}

int AgmConnectivitySketch::CountComponents() const {
  return num_vertices_ - static_cast<int>(SpanningForest().size());
}

bool AgmConnectivitySketch::IsConnected() const {
  return CountComponents() == 1;
}

int64_t AgmConnectivitySketch::SizeInBits() const {
  return MeasurementCount() * 64;
}

int64_t AgmConnectivitySketch::MeasurementCount() const {
  return 3 * static_cast<int64_t>(buckets_.size());
}

AgmKConnectivitySketch::AgmKConnectivitySketch(int num_vertices, int k,
                                               int rounds, uint64_t seed)
    : num_vertices_(num_vertices) {
  DCS_CHECK_GE(k, 1);
  layers_.reserve(static_cast<size_t>(k));
  for (int layer = 0; layer < k; ++layer) {
    // Independent seeds per layer; rounds shared.
    layers_.emplace_back(num_vertices, rounds,
                         seed + 0x9e3779b9ULL * static_cast<uint64_t>(layer + 1));
  }
}

void AgmKConnectivitySketch::AddEdge(VertexId u, VertexId v) {
  for (AgmConnectivitySketch& layer : layers_) layer.AddEdge(u, v);
}

void AgmKConnectivitySketch::RemoveEdge(VertexId u, VertexId v) {
  for (AgmConnectivitySketch& layer : layers_) layer.RemoveEdge(u, v);
}

void AgmKConnectivitySketch::UpdateRow(VertexId row, VertexId other,
                                       int64_t delta) {
  for (AgmConnectivitySketch& layer : layers_) {
    layer.UpdateRow(row, other, delta);
  }
}

void AgmKConnectivitySketch::MergeFrom(const AgmKConnectivitySketch& other) {
  const Status status = TryMergeFrom(other);
  DCS_CHECK(status.ok());
}

Status AgmKConnectivitySketch::TryMergeFrom(
    const AgmKConnectivitySketch& other) {
  if (num_vertices_ != other.num_vertices_) {
    return InvalidArgumentError(
        "cannot merge k-connectivity sketches over different vertex counts "
        "(" +
        std::to_string(num_vertices_) + " vs " +
        std::to_string(other.num_vertices_) + ")");
  }
  if (layers_.size() != other.layers_.size()) {
    return InvalidArgumentError(
        "cannot merge k-connectivity sketches with different k (" +
        std::to_string(layers_.size()) + " vs " +
        std::to_string(other.layers_.size()) + ")");
  }
  // Validate every layer before mutating any: a failed merge must not leave
  // this sketch half-merged.
  for (size_t layer = 0; layer < layers_.size(); ++layer) {
    if (layers_[layer].rounds() != other.layers_[layer].rounds()) {
      return InvalidArgumentError(
          "cannot merge k-connectivity sketches with different round "
          "counts in layer " +
          std::to_string(layer));
    }
  }
  for (size_t layer = 0; layer < layers_.size(); ++layer) {
    DCS_RETURN_IF_ERROR(layers_[layer].TryMergeFrom(other.layers_[layer]));
  }
  return OkStatus();
}

uint64_t AgmKConnectivitySketch::Digest() const {
  constexpr uint64_t kPrime = 1099511628211ULL;
  uint64_t digest = 0x6b636f6e6e556565ULL;  // distinct k-sketch offset
  for (const AgmConnectivitySketch& layer : layers_) {
    digest = (digest ^ layer.Digest()) * kPrime;
  }
  return digest;
}

UndirectedGraph AgmKConnectivitySketch::Certificate() const& {
  return AgmKConnectivitySketch(*this).Certificate();
}

UndirectedGraph AgmKConnectivitySketch::Certificate() && {
  UndirectedGraph certificate(num_vertices_);
  // Forests peeled from earlier layers are deleted from all later layers.
  for (size_t layer = 0; layer < layers_.size(); ++layer) {
    const std::vector<Edge> forest = std::move(layers_[layer]).SpanningForest();
    for (const Edge& e : forest) {
      certificate.AddEdge(e.src, e.dst, 1.0);
      for (size_t later = layer + 1; later < layers_.size(); ++later) {
        layers_[later].RemoveEdge(e.src, e.dst);
      }
    }
  }
  return certificate;
}

double AgmKConnectivitySketch::MinCutUpToK() const {
  return CertificateMinCut(Certificate());
}

double AgmKConnectivitySketch::CertificateMinCut(
    const UndirectedGraph& certificate) {
  if (certificate.num_edges() == 0) return 0;
  if (!IsConnected(certificate)) return 0;
  return StoerWagnerMinCut(certificate).value;
}

int64_t AgmKConnectivitySketch::SizeInBits() const {
  int64_t total = 0;
  for (const AgmConnectivitySketch& layer : layers_) {
    total += layer.SizeInBits();
  }
  return total;
}

AgmConnectivitySketch SketchGraph(const UndirectedGraph& graph, int rounds,
                                  uint64_t seed) {
  AgmConnectivitySketch sketch(graph.num_vertices(), rounds, seed);
  for (const Edge& e : graph.edges()) {
    DCS_CHECK_EQ(e.weight, 1.0);
    sketch.AddEdge(e.src, e.dst);
  }
  return sketch;
}

}  // namespace dcs
