// Concurrent streaming ingestion with snapshot-consistent queries.
//
// The AGM sketches (stream/agm_sketch.h) are linear, so edge updates from
// many producers can be applied in any order, and each endpoint's half of
// an update touches only that vertex's rows. StreamIngestor turns that
// algebra into a pipeline around one sketch:
//
//  * producers Push() inserts/deletes from any number of threads;
//  * each update is admitted into one of num_shards fixed-capacity
//    *gutters* (admission shard = min(u, v) % num_shards, so shards are
//    edge-disjoint and each keeps the delete ledger of its edges), and a
//    full gutter is flushed by the producer that filled it;
//  * the sketch's vertex rows are split into num_shards contiguous
//    *stripes*, each with its own mutex. A flush splits every update of
//    its batch into two endpoint halves (+e into row lo, −e into row hi;
//    AgmConnectivitySketch::UpdateRow), sorts the halves by stripe, and
//    applies each stripe's halves under that stripe's mutex, starting at
//    the stripe numbered like its shard so concurrent flushes work on
//    different stripes;
//  * Barrier() drains every gutter over the ThreadPool, copies the sketch
//    once behind a *seal gate* that every in-flight batch apply holds
//    shared (so a seal never sees half of an edge; the gate prefers the
//    seal, so flushes cannot starve it), and extracts an immutable
//    StreamSnapshot from that copy under a monotonically increasing epoch
//    number. A seal does no merge;
//  * queries run against the last sealed snapshot while ingestion
//    continues (snapshot-at-batch-boundary consistency): snapshot() hands
//    out a shared_ptr to frozen state, and EpochCutOracle() adapts it to
//    the CutQueryService registration path.
//
// Because every sketch transition is a commutative addition, the final
// sketch — and therefore every snapshot digest — is bit-identical for any
// producer count, thread count, shard count, gutter size, and flush
// interleaving. Tests and bench_stream assert exactly that.
//
// Admission is also where deletions are validated: each shard tracks the
// live multiplicity of its edges (buffered updates included), and a delete
// of an edge that was never inserted is rejected with kFailedPrecondition
// *before* it can reach the sketch. (A raw RemoveEdge of a never-inserted
// edge silently corrupts the linear measurements — see
// stream_test.cc RemoveNeverInsertedEdgeCorruptsRawSketch.)
//
// Lock order: gutter mutex → seal gate → stripe mutex. A flush takes the
// gate (shared) before it releases its gutter and holds at most one
// stripe mutex at a time; a seal takes only the gate (exclusive). No
// thread ever holds two gutter mutexes.

#ifndef DCS_STREAM_INGEST_H_
#define DCS_STREAM_INGEST_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "graph/types.h"
#include "graph/ugraph.h"
#include "lowerbound/cut_oracle.h"
#include "stream/agm_sketch.h"
#include "stream/binary_stream.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/writer_preferring_mutex.h"

namespace dcs {

struct StreamIngestorOptions {
  // Edge-disjoint admission shards (gutters and delete ledgers) and, as
  // many, contiguous row stripes of the one sketch (>= 1; stripes beyond
  // the vertex count stay empty). More shards reduce producer contention;
  // the sealed result is bit-identical regardless.
  int num_shards = 4;
  // Updates buffered per shard before the admitting producer flushes the
  // gutter into the sketch (>= 1).
  int gutter_capacity = 256;
  // Threads used by Barrier() to drain gutters (>= 1).
  int num_threads = 1;
  // Boruvka rounds per connectivity sketch; 0 = the sketch default.
  int rounds = 0;
  // k > 0 maintains an AgmKConnectivitySketch (sparse cut certificate,
  // min-cut-up-to-k, EpochCutOracle); k == 0 maintains a plain
  // AgmConnectivitySketch (connectivity/forest only).
  int k = 0;
  // Sketch seed.
  uint64_t seed = 1;
};

// Immutable state sealed by one Barrier() call. Queries against a snapshot
// are stable no matter how much ingestion happens afterwards.
struct StreamSnapshot {
  // Monotonically increasing: 0 for the empty pre-ingestion snapshot
  // sealed at construction, +1 per Barrier().
  int64_t epoch = 0;
  // Updates included in this snapshot.
  int64_t updates_applied = 0;
  // Digest of the sealed sketch (AgmConnectivitySketch::Digest /
  // AgmKConnectivitySketch::Digest): the bit-identity witness.
  uint64_t digest = 0;

  // Connectivity view (whp correct; see AgmConnectivitySketch).
  std::vector<Edge> forest;
  int components = 0;
  bool connected = false;

  // k > 0 only: the k-forest sparse certificate and its global min cut
  // (exact below k, else a value in [k, true min cut]).
  std::optional<UndirectedGraph> certificate;
  double min_cut_up_to_k = 0.0;
};

class StreamIngestor {
 public:
  explicit StreamIngestor(int num_vertices,
                          StreamIngestorOptions options = {});

  StreamIngestor(const StreamIngestor&) = delete;
  StreamIngestor& operator=(const StreamIngestor&) = delete;

  int num_vertices() const { return num_vertices_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }
  const StreamIngestorOptions& options() const { return options_; }

  // Admits one update. Thread-safe; any number of concurrent callers.
  //   kInvalidArgument  — endpoint out of [0, n) or a self-loop;
  //   kFailedPrecondition — delete of an edge with live multiplicity 0;
  //   kUnavailable      — the ingestor is draining (Shutdown in progress).
  // Rejected updates leave every sketch and gutter untouched.
  Status Push(const EdgeUpdate& update);
  Status PushInsert(VertexId u, VertexId v);
  Status PushDelete(VertexId u, VertexId v);

  // Drains all gutters (ThreadPool-parallel), copies the sketch, and seals
  // a new snapshot from the copy. Returns the new epoch number. Updates pushed
  // concurrently with a Barrier land in either this epoch or the next
  // (snapshot-at-batch-boundary consistency); updates admitted before
  // Barrier() is called are always included. Thread-safe; concurrent
  // barriers serialize.
  StatusOr<int64_t> Barrier();

  // The last sealed snapshot (never null). Cheap; safe concurrently with
  // Push and Barrier.
  std::shared_ptr<const StreamSnapshot> snapshot() const;

  // Epoch of the last sealed snapshot.
  int64_t epoch() const { return snapshot()->epoch; }

  // Drain-then-stop (the SIGTERM path): stops admitting (subsequent Push
  // returns kUnavailable), seals every already-accepted update into a final
  // Barrier() epoch, and joins the thread pool. Every update accepted
  // before or during the call is either included in the returned epoch or
  // was rejected with a non-OK Push status — never silently lost. Returns
  // the final epoch. Safe to call concurrently with producers; calling it
  // again seals another (empty-delta) epoch serially.
  StatusOr<int64_t> Shutdown();

  // True once Shutdown has begun; new pushes are being rejected.
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  // Total updates admitted (including still-buffered ones).
  int64_t updates_accepted() const {
    return updates_accepted_.load(std::memory_order_relaxed);
  }

  // A cut oracle over the *current* sealed certificate: each query reads
  // the latest snapshot, so answers move only at epoch boundaries. Register
  // with CutQueryService as cacheable=false (answers change per epoch).
  // Requires options.k > 0 (no certificate is maintained otherwise).
  CutOracle EpochCutOracle() const;

  // Test hook: with k == 0, every seal (the construction-time one
  // included) passes its private sketch copy to `observer` before
  // extracting the snapshot from it. Set before any concurrent use.
  void SetSealObserverForTesting(
      std::function<void(const AgmConnectivitySketch&)> observer) {
    seal_observer_ = std::move(observer);
  }

 private:
  // Live multiplicity per edge: an open-addressed table keyed by the packed
  // edge (lo << 32) | hi, never 0 because hi ≥ 1, so key 0 marks an empty
  // slot. Power-of-two capacity, linear probing from a multiplicative
  // hash, growth at load ½. An edge whose count reaches 0 is erased by
  // backward shift (no tombstones), so the table holds only live edges.
  class EdgeLedger {
   public:
    EdgeLedger();
    void Insert(uint64_t key);
    // Decrements key's count; false (and no change) if the edge is not live.
    bool Remove(uint64_t key);

   private:
    struct Slot {
      uint64_t key = 0;
      int64_t count = 0;
    };
    size_t Home(uint64_t key) const {
      return static_cast<size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift_);
    }
    // The slot holding `key`, or the empty slot that ends its probe chain.
    size_t Find(uint64_t key) const;
    void Grow();

    std::vector<Slot> slots_;
    int shift_;  // 64 − log2(capacity)
    size_t live_ = 0;
  };

  // Admission state. gutter_mutex also guards `live`: per-edge live
  // multiplicity counting every admitted update (buffered or applied),
  // the ledger that rejects negative-going deletes. It holds only edges
  // with a nonzero count.
  struct Shard {
    std::mutex gutter_mutex;
    std::vector<EdgeUpdate> gutter;
    EdgeLedger live;
  };

  // A row stripe's mutex: it guards the sketch rows of the stripe's
  // vertices (every round, every layer). One per cache line.
  struct alignas(64) Stripe {
    std::mutex mutex;
  };

  // The stripe holding vertex v's rows.
  size_t StripeOf(VertexId v) const {
    return static_cast<size_t>(v / stripe_rows_);
  }

  // Swaps shard `s`'s gutter out and applies it. Entered with the gutter
  // locked; takes the seal gate shared before releasing the gutter, so a
  // seal cannot fall between the swap and the apply.
  void FlushLocked(size_t s, std::unique_lock<std::mutex>& gutter_lock);

  // Applies a drained batch of shard `s` to the sketch, stripe by stripe
  // from stripe s on. The caller holds the seal gate shared.
  void ApplyBatch(size_t s, const std::vector<EdgeUpdate>& batch);

  // Drains shard `s`'s gutter into the sketch.
  void FlushShard(size_t s);

  // Copies the sketch under the exclusive seal gate and extracts a
  // snapshot (everything but the epoch number) from the copy.
  std::shared_ptr<StreamSnapshot> Seal();

  int num_vertices_;
  StreamIngestorOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Vertex v's rows are in stripe v / stripe_rows_ = ⌈n / num_shards⌉.
  int stripe_rows_ = 1;
  std::vector<Stripe> stripes_;
  // Held shared by every batch apply and exclusively by a seal's copy.
  // Writer-preferring: a waiting seal holds off new applies, so a steady
  // stream of flushes cannot starve it.
  WriterPreferringSharedMutex seal_gate_;
  // The one sketch: exactly one is engaged (by options.k). Applying an
  // update half adds into one exact-level bucket of its row per round
  // (agm_sketch.h).
  std::optional<AgmConnectivitySketch> sketch_;
  std::optional<AgmKConnectivitySketch> ksketch_;
  // Updates whose two halves are both in the sketch.
  std::atomic<int64_t> updates_applied_{0};
  std::function<void(const AgmConnectivitySketch&)> seal_observer_;
  ThreadPool pool_;
  std::atomic<int64_t> updates_accepted_{0};
  // Set (before the final flush) by Shutdown; re-checked inside each
  // shard's gutter_mutex so every Push is strictly ordered against the
  // drain barrier: admitted before it (and flushed) or rejected after it.
  std::atomic<bool> draining_{false};

  // Serializes Barrier() calls (also makes ParallelFor single-caller).
  std::mutex barrier_mutex_;

  // Guards snapshot_ swaps; epoch lives inside the snapshot.
  mutable std::mutex snapshot_mutex_;
  std::shared_ptr<const StreamSnapshot> snapshot_;
};

// Replays every update of `reader` into `ingestor`, sealing an epoch every
// `updates_per_epoch` updates (0 = single final epoch). Stops at the first
// failed update or barrier. Returns the number of updates applied.
StatusOr<int64_t> ReplayStream(BinaryStreamReader& reader,
                               StreamIngestor& ingestor,
                               int64_t updates_per_epoch);

}  // namespace dcs

#endif  // DCS_STREAM_INGEST_H_
