// ℓ₀-samplers and the AGM connectivity sketch: exact 1-sparse recovery,
// sampling correctness under insertions/deletions, linearity/mergeability,
// and Boruvka spanning-forest extraction.

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "graph/connectivity.h"
#include "graph/generators.h"
#include "mincut/stoer_wagner.h"
#include "gtest/gtest.h"
#include "stream/agm_sketch.h"
#include "stream/binary_stream.h"
#include "stream/l0_sampler.h"
#include "util/random.h"

namespace dcs {
namespace {

// One 1-sparse recovery bucket with its check seed: the L0Bucket form of a
// lone sampler level.
struct CheckedBucket {
  explicit CheckedBucket(uint64_t check_seed) : check_seed(check_seed) {}
  void Update(int64_t index, int64_t delta) {
    bucket.Add(index, delta, Hash64(static_cast<uint64_t>(index), check_seed));
  }
  void MergeFrom(const CheckedBucket& other) { bucket.Merge(other.bucket); }
  bool IsZero() const { return bucket.IsZero(); }
  std::optional<L0Sample> Recover() const { return bucket.Recover(check_seed); }

  uint64_t check_seed;
  L0Bucket bucket;
};

TEST(OneSparseRecoveryTest, RecoversSingleCoordinate) {
  CheckedBucket recovery(12345);
  recovery.Update(42, 7);
  const auto sample = recovery.Recover();
  ASSERT_TRUE(sample.has_value());
  EXPECT_EQ(sample->index, 42);
  EXPECT_EQ(sample->value, 7);
}

TEST(OneSparseRecoveryTest, NegativeValue) {
  CheckedBucket recovery(999);
  recovery.Update(5, -3);
  const auto sample = recovery.Recover();
  ASSERT_TRUE(sample.has_value());
  EXPECT_EQ(sample->index, 5);
  EXPECT_EQ(sample->value, -3);
}

TEST(OneSparseRecoveryTest, CancellationYieldsZero) {
  CheckedBucket recovery(54321);
  recovery.Update(10, 4);
  recovery.Update(10, -4);
  EXPECT_TRUE(recovery.IsZero());
  EXPECT_FALSE(recovery.Recover().has_value());
}

TEST(OneSparseRecoveryTest, RejectsTwoSparseVectors) {
  CheckedBucket recovery(77777);
  recovery.Update(3, 1);
  recovery.Update(9, 1);
  EXPECT_FALSE(recovery.Recover().has_value());
  EXPECT_FALSE(recovery.IsZero());
}

TEST(OneSparseRecoveryTest, RejectsManySparseVectors) {
  CheckedBucket recovery(31337);
  for (int i = 0; i < 50; ++i) recovery.Update(i * 3, 1 + (i % 5));
  EXPECT_FALSE(recovery.Recover().has_value());
}

TEST(OneSparseRecoveryTest, MergeCancelsAcrossInstances) {
  CheckedBucket a(2024);
  CheckedBucket b(2024);
  a.Update(8, 5);
  a.Update(15, 2);
  b.Update(15, -2);
  a.MergeFrom(b);
  const auto sample = a.Recover();
  ASSERT_TRUE(sample.has_value());
  EXPECT_EQ(sample->index, 8);
  EXPECT_EQ(sample->value, 5);
}

TEST(L0SamplerTest, SamplesTheOnlyCoordinate) {
  L0Sampler sampler(1000, 7);
  sampler.Update(123, 9);
  const auto sample = sampler.Sample();
  ASSERT_TRUE(sample.has_value());
  EXPECT_EQ(sample->index, 123);
  EXPECT_EQ(sample->value, 9);
}

TEST(L0SamplerTest, ZeroVectorSamplesNothing) {
  L0Sampler sampler(64, 3);
  EXPECT_TRUE(sampler.AppearsZero());
  EXPECT_FALSE(sampler.Sample().has_value());
  sampler.Update(10, 2);
  sampler.Update(10, -2);
  EXPECT_TRUE(sampler.AppearsZero());
  EXPECT_FALSE(sampler.Sample().has_value());
}

TEST(L0SamplerTest, ReturnsOnlyRealCoordinates) {
  // Whatever the sampler returns must be a coordinate that is actually
  // nonzero with its true value.
  Rng rng(11);
  int successes = 0;
  for (int trial = 0; trial < 50; ++trial) {
    L0Sampler sampler(5000, 100 + trial);
    std::map<int64_t, int64_t> truth;
    for (int u = 0; u < 40; ++u) {
      const int64_t index = static_cast<int64_t>(rng.UniformInt(5000));
      const int64_t delta = rng.UniformInRange(-3, 3);
      if (delta == 0) continue;
      truth[index] += delta;
      sampler.Update(index, delta);
    }
    const auto sample = sampler.Sample();
    if (!sample.has_value()) continue;
    ++successes;
    ASSERT_TRUE(truth.count(sample->index)) << "trial " << trial;
    EXPECT_EQ(truth[sample->index], sample->value) << "trial " << trial;
  }
  // ℓ₀-sampling succeeds with constant probability; expect a majority.
  EXPECT_GE(successes, 25);
}

TEST(L0SamplerTest, MergeEqualsCombinedStream) {
  L0Sampler a(256, 42);
  L0Sampler b(256, 42);
  L0Sampler combined(256, 42);
  a.Update(7, 2);
  combined.Update(7, 2);
  b.Update(91, 5);
  combined.Update(91, 5);
  b.Update(7, -2);
  combined.Update(7, -2);
  a.MergeFrom(b);
  const auto from_merge = a.Sample();
  const auto from_stream = combined.Sample();
  ASSERT_TRUE(from_merge.has_value());
  ASSERT_TRUE(from_stream.has_value());
  EXPECT_EQ(from_merge->index, from_stream->index);
  EXPECT_EQ(from_merge->value, from_stream->value);
  EXPECT_EQ(from_merge->index, 91);
}

// --- Check soundness: the hashed check must reject every bucket that is
// not exactly 1-sparse, including the shapes an affine check accepts. ---

// Σ a_i·g(i) for an affine g(i) = alpha·i + beta equals
// sum·g(weighted/sum) for every vector, so these traps would pass it.
bool AffineCheckAccepts(const std::vector<std::pair<int64_t, int64_t>>& vector,
                        uint64_t alpha, uint64_t beta) {
  uint64_t check = 0;
  int64_t sum = 0;
  int64_t weighted = 0;
  for (const auto& [index, value] : vector) {
    check += static_cast<uint64_t>(value) *
             (alpha * static_cast<uint64_t>(index) + beta);
    sum += value;
    weighted += value * index;
  }
  if (sum == 0 || weighted % sum != 0) return false;
  const uint64_t index = static_cast<uint64_t>(weighted / sum);
  return check == static_cast<uint64_t>(sum) * (alpha * index + beta);
}

TEST(L0CheckTest, RejectsLinearTraps) {
  constexpr int64_t kUniverse = int64_t{1} << 18;
  Rng rng(5);
  for (uint64_t seed = 0; seed < 1000; ++seed) {
    // e_{j−d} + e_{j+d}: weighted/sum = j, an in-range index.
    const int64_t d = 1 + static_cast<int64_t>(rng.UniformInt(1000));
    const int64_t j =
        d + static_cast<int64_t>(rng.UniformInt(
                static_cast<uint64_t>(kUniverse - 2 * d)));
    // 2·e_a − e_b: weighted/sum = 2a − b, an in-range index.
    const int64_t b = static_cast<int64_t>(rng.UniformInt(kUniverse / 2));
    const int64_t a = b + 1 + static_cast<int64_t>(rng.UniformInt(1000));
    const std::vector<std::vector<std::pair<int64_t, int64_t>>> traps = {
        {{j - d, 1}, {j + d, 1}}, {{a, 2}, {b, -1}}};
    for (const auto& trap : traps) {
      ASSERT_TRUE(AffineCheckAccepts(trap, rng.Next() | 1, rng.Next()));
      CheckedBucket bucket(seed);
      for (const auto& [index, value] : trap) bucket.Update(index, value);
      EXPECT_FALSE(bucket.Recover().has_value())
          << "seed " << seed << " accepted a " << trap.size()
          << "-sparse trap";
    }
  }
}

TEST(L0CheckTest, RandomSparseVectorsNeverFalselyRecover) {
  // 10^5 random k-sparse vectors, k in [2, 64], values in ±1..±3: a bucket
  // holding all of one must never recover, and whatever the sampler
  // returns must be a true coordinate with its true value.
  constexpr int64_t kUniverse = int64_t{1} << 18;
  constexpr int kVectors = 100000;
  Rng rng(17);
  int false_positives = 0;
  int wrong_samples = 0;
  int sampled = 0;
  for (int trial = 0; trial < kVectors; ++trial) {
    const uint64_t seed = 1000 + static_cast<uint64_t>(trial);
    const int k = static_cast<int>(rng.UniformInRange(2, 64));
    std::map<int64_t, int64_t> truth;
    while (static_cast<int>(truth.size()) < k) {
      const int64_t index = static_cast<int64_t>(rng.UniformInt(kUniverse));
      const int64_t magnitude = rng.UniformInRange(1, 3);
      truth.emplace(index, rng.Bernoulli(0.5) ? magnitude : -magnitude);
    }
    CheckedBucket bucket(seed);
    L0Sampler sampler(kUniverse, seed);
    for (const auto& [index, value] : truth) {
      bucket.Update(index, value);
      sampler.Update(index, value);
    }
    if (bucket.Recover().has_value()) ++false_positives;
    const std::optional<L0Sample> sample = sampler.Sample();
    if (!sample.has_value()) continue;
    ++sampled;
    const auto it = truth.find(sample->index);
    if (it == truth.end() || it->second != sample->value) ++wrong_samples;
  }
  EXPECT_EQ(false_positives, 0);
  EXPECT_EQ(wrong_samples, 0);
  EXPECT_GE(sampled, kVectors / 2);
}

TEST(L0CheckTest, MinimumOverMinusOneDoesNotTrap) {
  // a_0 = 1, a_{2^62} = −2 leaves level 0 with sum −1 and weighted
  // −2^63 = INT64_MIN, whose signed division by −1 overflows (SIGFPE on
  // x86). Recovery must reject that level instead.
  constexpr int64_t kUniverse = INT64_MAX;
  constexpr int64_t kFar = int64_t{1} << 62;
  const int levels = L0LevelCount(kUniverse);
  int reached_level_zero = 0;
  for (uint64_t seed = 0; seed < 64; ++seed) {
    L0Sampler sampler(kUniverse, seed);
    sampler.Update(0, 1);
    sampler.Update(kFar, -2);
    const std::optional<L0Sample> sample = sampler.Sample();
    if (L0DeepestLevel(0, seed, levels) == 0 &&
        L0DeepestLevel(kFar, seed, levels) == 0) {
      // Every level above 0 is empty: only the trapping level is left.
      ++reached_level_zero;
      EXPECT_FALSE(sample.has_value()) << "seed " << seed;
    } else if (sample.has_value()) {
      EXPECT_TRUE((sample->index == 0 && sample->value == 1) ||
                  (sample->index == kFar && sample->value == -2))
          << "seed " << seed;
    }
  }
  EXPECT_GT(reached_level_zero, 0);
}

// --- Exact-level storage: the sampler stores each coordinate at its
// deepest level only and rebuilds level j as a suffix sum. It must answer
// exactly like the cumulative layout, where an update adds into every
// level 0..deepest and a query reads the levels as stored. ---

class CumulativeReferenceSampler {
 public:
  CumulativeReferenceSampler(int64_t universe, uint64_t seed)
      : seed_(seed),
        check_seed_(L0CheckSeed(seed)),
        levels_(static_cast<size_t>(L0LevelCount(universe))) {}

  void Update(int64_t index, int64_t delta) {
    if (delta == 0) return;
    const int deepest =
        L0DeepestLevel(index, seed_, static_cast<int>(levels_.size()));
    const uint64_t check_hash =
        Hash64(static_cast<uint64_t>(index), check_seed_);
    for (int j = 0; j <= deepest; ++j) {
      levels_[static_cast<size_t>(j)].Add(index, delta, check_hash);
    }
  }

  void MergeFrom(const CumulativeReferenceSampler& other) {
    for (size_t j = 0; j < levels_.size(); ++j) {
      levels_[j].Merge(other.levels_[j]);
    }
  }

  std::optional<L0Sample> Sample() const {
    for (size_t j = levels_.size(); j-- > 0;) {
      const std::optional<L0Sample> sample = levels_[j].Recover(check_seed_);
      if (sample.has_value()) return sample;
    }
    return std::nullopt;
  }

  bool AppearsZero() const {
    return std::all_of(levels_.begin(), levels_.end(),
                       [](const L0Bucket& level) { return level.IsZero(); });
  }

 private:
  uint64_t seed_;
  uint64_t check_seed_;
  std::vector<L0Bucket> levels_;
};

TEST(L0SamplerTest, ExactLevelMatchesCumulativeReference) {
  // 2·10^4 random sparse vectors with mixed signs, each split over two
  // samplers that are then merged; some coordinates cancel to zero, some
  // vectors vanish entirely.
  constexpr int kVectors = 20000;
  const int64_t universes[] = {16, 1000, int64_t{1} << 18, int64_t{1} << 40};
  Rng rng(23);
  int sampled = 0;
  int zero = 0;
  for (int trial = 0; trial < kVectors; ++trial) {
    const int64_t universe = universes[rng.UniformInt(4)];
    const uint64_t seed = rng.Next();
    L0Sampler a(universe, seed);
    L0Sampler b(universe, seed);
    CumulativeReferenceSampler ref_a(universe, seed);
    CumulativeReferenceSampler ref_b(universe, seed);
    const int updates = static_cast<int>(rng.UniformInRange(0, 24));
    std::vector<std::pair<int64_t, int64_t>> applied;
    for (int u = 0; u < updates; ++u) {
      int64_t index = static_cast<int64_t>(
          rng.UniformInt(static_cast<uint64_t>(universe)));
      int64_t delta = rng.UniformInRange(-3, 3);
      if (!applied.empty() && rng.Bernoulli(0.3)) {
        // Cancel an earlier update, possibly through the other sampler.
        std::tie(index, delta) = applied[rng.UniformInt(applied.size())];
        delta = -delta;
      }
      applied.emplace_back(index, delta);
      if (rng.Bernoulli(0.5)) {
        a.Update(index, delta);
        ref_a.Update(index, delta);
      } else {
        b.Update(index, delta);
        ref_b.Update(index, delta);
      }
    }
    a.MergeFrom(b);
    ref_a.MergeFrom(ref_b);
    const std::optional<L0Sample> got = a.Sample();
    const std::optional<L0Sample> want = ref_a.Sample();
    ASSERT_EQ(got.has_value(), want.has_value()) << "trial " << trial;
    if (got.has_value()) {
      ++sampled;
      EXPECT_EQ(got->index, want->index) << "trial " << trial;
      EXPECT_EQ(got->value, want->value) << "trial " << trial;
    }
    ASSERT_EQ(a.AppearsZero(), ref_a.AppearsZero()) << "trial " << trial;
    if (a.AppearsZero()) ++zero;
  }
  EXPECT_GT(sampled, kVectors / 2);
  EXPECT_GT(zero, 100);
}

TEST(AgmSketchTest, PathGraphSpanningForest) {
  AgmConnectivitySketch sketch(8, 0, 1);
  for (int v = 0; v + 1 < 8; ++v) sketch.AddEdge(v, v + 1);
  const std::vector<Edge> forest = sketch.SpanningForest();
  EXPECT_EQ(forest.size(), 7u);
  EXPECT_TRUE(sketch.IsConnected());
}

TEST(AgmSketchTest, ForestEdgesAreRealEdges) {
  Rng rng(2);
  const UndirectedGraph g =
      RandomUndirectedGraph(24, 0.2, 1.0, 1.0, true, rng);
  std::set<std::pair<int, int>> edge_set;
  for (const Edge& e : g.edges()) edge_set.insert({e.src, e.dst});
  const AgmConnectivitySketch sketch = SketchGraph(g, 0, 7);
  for (const Edge& e : sketch.SpanningForest()) {
    const auto key = e.src < e.dst ? std::make_pair(e.src, e.dst)
                                   : std::make_pair(e.dst, e.src);
    EXPECT_TRUE(edge_set.count(key))
        << "forest edge " << e.src << "-" << e.dst << " not in graph";
  }
}

TEST(AgmSketchTest, CountsComponents) {
  // Two disjoint triangles plus two isolated vertices: 4 components.
  AgmConnectivitySketch sketch(8, 0, 3);
  sketch.AddEdge(0, 1);
  sketch.AddEdge(1, 2);
  sketch.AddEdge(0, 2);
  sketch.AddEdge(3, 4);
  sketch.AddEdge(4, 5);
  sketch.AddEdge(3, 5);
  EXPECT_EQ(sketch.CountComponents(), 4);
  EXPECT_FALSE(sketch.IsConnected());
}

TEST(AgmSketchTest, DeletionsDisconnect) {
  // A path 0-1-2-3; delete the middle edge: two components.
  AgmConnectivitySketch sketch(4, 0, 5);
  sketch.AddEdge(0, 1);
  sketch.AddEdge(1, 2);
  sketch.AddEdge(2, 3);
  EXPECT_TRUE(sketch.IsConnected());
  sketch.RemoveEdge(1, 2);
  EXPECT_EQ(sketch.CountComponents(), 2);
}

TEST(AgmSketchTest, DeletionsRerouteThroughSurvivingEdges) {
  // A cycle survives any single deletion.
  AgmConnectivitySketch sketch(6, 0, 9);
  for (int v = 0; v < 6; ++v) sketch.AddEdge(v, (v + 1) % 6);
  sketch.RemoveEdge(2, 3);
  EXPECT_TRUE(sketch.IsConnected());
}

TEST(AgmSketchTest, MergeAcrossServersMatchesWholeGraph) {
  // Linearity: sketching two edge-disjoint halves on "servers" and merging
  // equals sketching the whole graph.
  Rng rng(4);
  const UndirectedGraph g =
      RandomUndirectedGraph(20, 0.25, 1.0, 1.0, true, rng);
  AgmConnectivitySketch server_a(20, 6, 11);
  AgmConnectivitySketch server_b(20, 6, 11);
  for (size_t i = 0; i < g.edges().size(); ++i) {
    const Edge& e = g.edges()[i];
    if (i % 2 == 0) {
      server_a.AddEdge(e.src, e.dst);
    } else {
      server_b.AddEdge(e.src, e.dst);
    }
  }
  server_a.MergeFrom(server_b);
  EXPECT_EQ(server_a.CountComponents(), CountComponents(g));
}

TEST(AgmSketchTest, RandomGraphComponentCountsMatch) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(seed);
    const UndirectedGraph g =
        RandomUndirectedGraph(30, 0.06, 1.0, 1.0, false, rng);
    const AgmConnectivitySketch sketch = SketchGraph(g, 0, 100 + seed);
    EXPECT_EQ(sketch.CountComponents(), CountComponents(g))
        << "seed " << seed;
  }
}

TEST(AgmSketchTest, SizeIsPolylogPerVertex) {
  const AgmConnectivitySketch small(32, 0, 1);
  const AgmConnectivitySketch large(256, 0, 1);
  // Size per vertex grows polylogarithmically: less than 8x for an 8x
  // larger graph (it is O(log^2 n) words per vertex).
  const double small_per_vertex =
      static_cast<double>(small.SizeInBits()) / 32;
  const double large_per_vertex =
      static_cast<double>(large.SizeInBits()) / 256;
  EXPECT_LT(large_per_vertex, 3 * small_per_vertex);
  EXPECT_GT(large.MeasurementCount(), 0);
}

TEST(AgmSketchTest, ParallelEdgesAreTolerated) {
  AgmConnectivitySketch sketch(3, 0, 13);
  sketch.AddEdge(0, 1);
  sketch.AddEdge(0, 1);  // multiplicity 2
  sketch.AddEdge(1, 2);
  EXPECT_TRUE(sketch.IsConnected());
  sketch.RemoveEdge(0, 1);  // multiplicity back to 1
  EXPECT_TRUE(sketch.IsConnected());
}

TEST(AgmKConnectivityTest, CertificatePreservesSmallCuts) {
  // Dumbbell with 2 bridges, k = 4 > 2: the certificate must keep the
  // bridge cut at exactly 2.
  const UndirectedGraph g = DumbbellGraph(8, 2);
  AgmKConnectivitySketch sketch(16, 4, 0, 21);
  for (const Edge& e : g.edges()) sketch.AddEdge(e.src, e.dst);
  const UndirectedGraph certificate = sketch.Certificate();
  EXPECT_DOUBLE_EQ(StoerWagnerMinCut(certificate).value, 2.0);
  EXPECT_DOUBLE_EQ(sketch.MinCutUpToK(), 2.0);
  // At most k forests: k(n-1) edges.
  EXPECT_LE(certificate.num_edges(), 4 * 15);
}

TEST(AgmKConnectivityTest, SaturatesBetweenKAndTruth) {
  // K_10 has min cut 9 > k = 3: the certificate's min cut lands in
  // [k, true] — at least 3 (each of the 3 forests crosses every cut) and
  // at most 9 (the certificate is a subgraph).
  const UndirectedGraph g = CompleteGraph(10, 1.0);
  AgmKConnectivitySketch sketch(10, 3, 0, 22);
  for (const Edge& e : g.edges()) sketch.AddEdge(e.src, e.dst);
  const double estimate = sketch.MinCutUpToK();
  EXPECT_GE(estimate, 3.0);
  EXPECT_LE(estimate, 9.0);
}

TEST(AgmKConnectivityTest, MatchesOfflineSparseCertificateBound) {
  Rng rng(23);
  const UndirectedGraph g =
      RandomUndirectedGraph(20, 0.3, 1.0, 1.0, true, rng);
  const double true_mincut = StoerWagnerMinCut(g).value;
  AgmKConnectivitySketch sketch(20, 6, 0, 24);
  for (const Edge& e : g.edges()) sketch.AddEdge(e.src, e.dst);
  const double estimate = sketch.MinCutUpToK();
  // Never above the truth (subgraph); equals it whp when below k = 6.
  EXPECT_LE(estimate, true_mincut + 1e-9);
  if (true_mincut < 6.0) {
    EXPECT_NEAR(estimate, true_mincut, 1.0);
  }
}

TEST(AgmKConnectivityTest, TracksDeletions) {
  // A 3-bridge dumbbell loses one bridge: min cut 3 → 2.
  const UndirectedGraph g = DumbbellGraph(6, 3);
  AgmKConnectivitySketch sketch(12, 5, 0, 25);
  for (const Edge& e : g.edges()) sketch.AddEdge(e.src, e.dst);
  EXPECT_DOUBLE_EQ(sketch.MinCutUpToK(), 3.0);
  sketch.RemoveEdge(0, 6);  // bridge 0
  EXPECT_DOUBLE_EQ(sketch.MinCutUpToK(), 2.0);
}

TEST(AgmKConnectivityTest, MergeAcrossServers) {
  const UndirectedGraph g = DumbbellGraph(6, 2);
  AgmKConnectivitySketch a(12, 4, 0, 26);
  AgmKConnectivitySketch b(12, 4, 0, 26);
  for (size_t i = 0; i < g.edges().size(); ++i) {
    const Edge& e = g.edges()[i];
    (i % 2 == 0 ? a : b).AddEdge(e.src, e.dst);
  }
  a.MergeFrom(b);
  EXPECT_DOUBLE_EQ(a.MinCutUpToK(), 2.0);
}

// --- TryMergeFrom: incompatible sketches surface Status, never abort. ---

TEST(AgmSketchMergeTest, TryMergeFromRejectsVertexCountMismatch) {
  AgmConnectivitySketch a(16, 4, 7);
  const AgmConnectivitySketch b(17, 4, 7);
  const Status status = a.TryMergeFrom(b);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(AgmSketchMergeTest, TryMergeFromRejectsRoundsMismatch) {
  AgmConnectivitySketch a(16, 4, 7);
  const AgmConnectivitySketch b(16, 5, 7);
  EXPECT_EQ(a.TryMergeFrom(b).code(), StatusCode::kInvalidArgument);
}

TEST(AgmSketchMergeTest, TryMergeFromRejectsSeedMismatch) {
  AgmConnectivitySketch a(16, 4, 7);
  const AgmConnectivitySketch b(16, 4, 8);
  EXPECT_EQ(a.TryMergeFrom(b).code(), StatusCode::kInvalidArgument);
}

TEST(AgmSketchMergeTest, TryMergeFromOkMatchesMergeFrom) {
  AgmConnectivitySketch via_try(8, 3, 9);
  AgmConnectivitySketch via_abort(8, 3, 9);
  AgmConnectivitySketch other(8, 3, 9);
  via_try.AddEdge(0, 1);
  via_abort.AddEdge(0, 1);
  other.AddEdge(1, 2);
  ASSERT_TRUE(via_try.TryMergeFrom(other).ok());
  via_abort.MergeFrom(other);
  EXPECT_EQ(via_try.Digest(), via_abort.Digest());
}

TEST(AgmSketchMergeTest, KSketchTryMergeFromRejectsMismatch) {
  AgmKConnectivitySketch a(16, 3, 4, 7);
  EXPECT_EQ(a.TryMergeFrom(AgmKConnectivitySketch(17, 3, 4, 7)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(a.TryMergeFrom(AgmKConnectivitySketch(16, 2, 4, 7)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(a.TryMergeFrom(AgmKConnectivitySketch(16, 3, 5, 7)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(a.TryMergeFrom(AgmKConnectivitySketch(16, 3, 4, 8)).code(),
            StatusCode::kInvalidArgument);
}

TEST(AgmSketchMergeTest, KSketchFailedMergeLeavesStateUntouched) {
  // Compatibility is validated across all layers before any layer is
  // mutated, so a rejected merge cannot leave the sketch half-merged.
  AgmKConnectivitySketch a(16, 3, 4, 7);
  a.AddEdge(0, 1);
  const uint64_t before = a.Digest();
  AgmKConnectivitySketch mismatched(16, 3, 4, 8);
  mismatched.AddEdge(2, 3);
  ASSERT_FALSE(a.TryMergeFrom(mismatched).ok());
  EXPECT_EQ(a.Digest(), before);
}

// --- Digests: equal state ⇔ equal digest (up to hash collisions). ---

TEST(AgmSketchDigestTest, InsertionOrderDoesNotChangeDigest) {
  const UndirectedGraph g = DumbbellGraph(8, 2);
  AgmConnectivitySketch forward(16, 4, 11);
  AgmConnectivitySketch backward(16, 4, 11);
  for (const Edge& e : g.edges()) forward.AddEdge(e.src, e.dst);
  for (size_t i = g.edges().size(); i-- > 0;) {
    backward.AddEdge(g.edges()[i].src, g.edges()[i].dst);
  }
  EXPECT_EQ(forward.Digest(), backward.Digest());
}

TEST(AgmSketchDigestTest, InsertDeleteCancelsToEmptyDigest) {
  AgmConnectivitySketch sketch(16, 4, 11);
  const uint64_t empty = sketch.Digest();
  sketch.AddEdge(3, 9);
  EXPECT_NE(sketch.Digest(), empty);
  sketch.RemoveEdge(3, 9);
  EXPECT_EQ(sketch.Digest(), empty);
}

TEST(AgmSketchDigestTest, DigestCoversIdentity) {
  // Same (empty) measurement state, different identity: digests differ.
  EXPECT_NE(AgmConnectivitySketch(16, 4, 11).Digest(),
            AgmConnectivitySketch(16, 4, 12).Digest());
  EXPECT_NE(AgmConnectivitySketch(16, 4, 11).Digest(),
            AgmConnectivitySketch(16, 5, 11).Digest());
}

TEST(AgmSketchDigestTest, GoldenDigestsOfSeededStreams) {
  // Digests of three seeded streams as computed by the cumulative layout
  // (every level 0..deepest written). The exact-level storage changed the
  // representation, not the digest.
  struct Golden {
    uint64_t seed;
    uint64_t connectivity;
    uint64_t k_connectivity;
  };
  const Golden goldens[] = {
      {1, 0xc8c60ea32470a068ULL, 0x7bb3c5cac8cc2a8dULL},
      {7, 0x75589d66fdfd2b30ULL, 0x5faa2aaf1c103f33ULL},
      {42, 0x7a0cfa7b0bdb8dbfULL, 0x0de457ca2165a6c6ULL},
  };
  for (const Golden& golden : goldens) {
    Rng rng(golden.seed);
    const std::vector<EdgeUpdate> stream =
        RandomUpdateStream(200, 20000, 0.3, rng);
    AgmConnectivitySketch sketch(200, 0, golden.seed);
    AgmKConnectivitySketch ksketch(200, 3, 0, golden.seed);
    for (const EdgeUpdate& update : stream) {
      if (update.is_delete) {
        sketch.RemoveEdge(update.u, update.v);
        ksketch.RemoveEdge(update.u, update.v);
      } else {
        sketch.AddEdge(update.u, update.v);
        ksketch.AddEdge(update.u, update.v);
      }
    }
    EXPECT_EQ(sketch.Digest(), golden.connectivity) << "seed " << golden.seed;
    EXPECT_EQ(ksketch.Digest(), golden.k_connectivity)
        << "seed " << golden.seed;
  }
}

// --- Merge under deletion: edge-disjoint sharded maintenance with
// interleaved inserts/deletes merges bit-identically to serial. ---

TEST(AgmSketchMergeTest, ShardedMergeUnderDeletionMatchesSerial) {
  Rng rng(31);
  const int n = 48;
  AgmConnectivitySketch serial(n, 5, 13);
  AgmConnectivitySketch shard_a(n, 5, 13);
  AgmConnectivitySketch shard_b(n, 5, 13);
  // Random inserts with interleaved deletes of live edges; shards are
  // edge-disjoint (by canonical lower endpoint parity).
  std::vector<std::pair<VertexId, VertexId>> live;
  for (int step = 0; step < 400; ++step) {
    if (!live.empty() && rng.Bernoulli(0.3)) {
      const size_t pick = static_cast<size_t>(rng.UniformInt(live.size()));
      const auto [u, v] = live[pick];
      live[pick] = live.back();
      live.pop_back();
      serial.RemoveEdge(u, v);
      (std::min(u, v) % 2 == 0 ? shard_a : shard_b).RemoveEdge(u, v);
    } else {
      const VertexId u = static_cast<VertexId>(rng.UniformInt(n));
      VertexId v = static_cast<VertexId>(rng.UniformInt(n - 1));
      if (v >= u) ++v;
      live.emplace_back(u, v);
      serial.AddEdge(u, v);
      (std::min(u, v) % 2 == 0 ? shard_a : shard_b).AddEdge(u, v);
    }
  }
  ASSERT_TRUE(shard_a.TryMergeFrom(shard_b).ok());
  EXPECT_EQ(shard_a.Digest(), serial.Digest());
}

TEST(AgmKConnectivityTest, ShardedMergeUnderDeletionMatchesSerial) {
  const UndirectedGraph g = DumbbellGraph(10, 3);
  AgmKConnectivitySketch serial(20, 4, 0, 17);
  AgmKConnectivitySketch shard_a(20, 4, 0, 17);
  AgmKConnectivitySketch shard_b(20, 4, 0, 17);
  for (size_t i = 0; i < g.edges().size(); ++i) {
    const Edge& e = g.edges()[i];
    serial.AddEdge(e.src, e.dst);
    (i % 2 == 0 ? shard_a : shard_b).AddEdge(e.src, e.dst);
  }
  serial.RemoveEdge(0, 10);
  shard_a.RemoveEdge(0, 10);
  ASSERT_TRUE(shard_a.TryMergeFrom(shard_b).ok());
  EXPECT_EQ(shard_a.Digest(), serial.Digest());
  EXPECT_DOUBLE_EQ(shard_a.MinCutUpToK(), serial.MinCutUpToK());
}

// --- Row-restricted updates: the two halves of an update, applied in
// any order and interleaved with other halves, are that update. ---

TEST(AgmSketchRowUpdateTest, HalvesEqualWholeUpdates) {
  Rng rng(37);
  const int n = 60;
  const std::vector<EdgeUpdate> stream = RandomUpdateStream(n, 3000, 0.3, rng);
  AgmConnectivitySketch whole(n, 5, 41);
  AgmConnectivitySketch halves(n, 5, 41);
  AgmKConnectivitySketch kwhole(n, 2, 5, 41);
  AgmKConnectivitySketch khalves(n, 2, 5, 41);
  for (const EdgeUpdate& update : stream) {
    if (update.is_delete) {
      whole.RemoveEdge(update.u, update.v);
      kwhole.RemoveEdge(update.u, update.v);
    } else {
      whole.AddEdge(update.u, update.v);
      kwhole.AddEdge(update.u, update.v);
    }
  }
  // Every higher-endpoint half first, then every lower-endpoint half in
  // reverse: the sum is the same.
  for (const EdgeUpdate& update : stream) {
    const int64_t delta = update.is_delete ? -1 : 1;
    halves.UpdateRow(std::max(update.u, update.v),
                     std::min(update.u, update.v), delta);
    khalves.UpdateRow(std::max(update.u, update.v),
                      std::min(update.u, update.v), delta);
  }
  for (size_t i = stream.size(); i-- > 0;) {
    const EdgeUpdate& update = stream[i];
    const int64_t delta = update.is_delete ? -1 : 1;
    halves.UpdateRow(std::min(update.u, update.v),
                     std::max(update.u, update.v), delta);
    khalves.UpdateRow(std::min(update.u, update.v),
                      std::max(update.u, update.v), delta);
  }
  EXPECT_EQ(halves.Digest(), whole.Digest());
  EXPECT_EQ(khalves.Digest(), kwhole.Digest());
}

TEST(AgmSketchRowUpdateTest, RoundSumsExposeALoneHalf) {
  AgmConnectivitySketch sketch(16, 4, 43);
  EXPECT_TRUE(sketch.RoundSumsAreZero());
  sketch.AddEdge(3, 9);
  sketch.AddEdge(9, 12);
  sketch.RemoveEdge(3, 9);
  EXPECT_TRUE(sketch.RoundSumsAreZero());
  sketch.UpdateRow(5, 2, 1);
  EXPECT_FALSE(sketch.RoundSumsAreZero());
  sketch.UpdateRow(2, 5, 1);
  EXPECT_TRUE(sketch.RoundSumsAreZero());
}

// FNV-1a over an edge list's endpoints, in order.
uint64_t EdgeListHash(const std::vector<Edge>& edges) {
  uint64_t hash = 14695981039346656037ULL;
  for (const Edge& e : edges) {
    hash = (hash ^ static_cast<uint64_t>(e.src)) * 1099511628211ULL;
    hash = (hash ^ static_cast<uint64_t>(e.dst)) * 1099511628211ULL;
  }
  return hash;
}

TEST(AgmSketchExtractionTest, GoldenForestsOfSeededStreams) {
  // Forests and k = 3 certificates of the GoldenDigestsOfSeededStreams
  // streams, as extracted when every extraction copied the sketch. The
  // rvalue overloads extract in place and must give the same edges in the
  // same order.
  struct Golden {
    uint64_t seed;
    uint64_t forest;
    uint64_t certificate;
  };
  const Golden goldens[] = {
      {1, 0x6966eab146f14acfULL, 0x0a5ff4c43118c05fULL},
      {7, 0xecef2524e660fec0ULL, 0xa592bae4392f4de3ULL},
      {42, 0x93468279c1ace92cULL, 0x35c424718141f52fULL},
  };
  for (const Golden& golden : goldens) {
    Rng rng(golden.seed);
    const std::vector<EdgeUpdate> stream =
        RandomUpdateStream(200, 20000, 0.3, rng);
    AgmConnectivitySketch sketch(200, 0, golden.seed);
    AgmKConnectivitySketch ksketch(200, 3, 0, golden.seed);
    for (const EdgeUpdate& update : stream) {
      if (update.is_delete) {
        sketch.RemoveEdge(update.u, update.v);
        ksketch.RemoveEdge(update.u, update.v);
      } else {
        sketch.AddEdge(update.u, update.v);
        ksketch.AddEdge(update.u, update.v);
      }
    }
    const uint64_t digest = sketch.Digest();
    const uint64_t kdigest = ksketch.Digest();
    EXPECT_EQ(EdgeListHash(sketch.SpanningForest()), golden.forest)
        << "seed " << golden.seed;
    const UndirectedGraph certificate = ksketch.Certificate();
    EXPECT_EQ(EdgeListHash(certificate.edges()), golden.certificate)
        << "seed " << golden.seed;
    // The const overloads leave the sketches intact.
    EXPECT_EQ(sketch.Digest(), digest);
    EXPECT_EQ(ksketch.Digest(), kdigest);
    EXPECT_EQ(AgmKConnectivitySketch::CertificateMinCut(certificate),
              ksketch.MinCutUpToK());
    EXPECT_EQ(EdgeListHash(std::move(sketch).SpanningForest()),
              golden.forest)
        << "seed " << golden.seed;
    EXPECT_EQ(EdgeListHash(std::move(ksketch).Certificate().edges()),
              golden.certificate)
        << "seed " << golden.seed;
  }
}

// --- Regression: RemoveEdge of a never-inserted edge silently corrupts
// the raw sketch. The sketch is linear, so nothing aborts — the vector
// coordinate just goes negative and every query downstream is answered
// against a graph that never existed. This is exactly why the streaming
// ingestor validates deletes at admission (kFailedPrecondition) instead
// of letting them reach a sketch (see ingest_test.cc). ---

TEST(AgmSketchRegressionTest, RemoveNeverInsertedEdgeCorruptsRawSketch) {
  AgmConnectivitySketch sketch(16, 4, 19);
  const uint64_t clean = sketch.Digest();
  sketch.RemoveEdge(2, 7);  // never inserted: state is now corrupt...
  EXPECT_NE(sketch.Digest(), clean);
  sketch.AddEdge(2, 7);  // ...but linearity means a later insert cancels it
  EXPECT_EQ(sketch.Digest(), clean);
}

}  // namespace
}  // namespace dcs
