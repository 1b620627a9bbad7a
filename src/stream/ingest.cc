#include "stream/ingest.h"

#include <algorithm>
#include <shared_mutex>
#include <string>
#include <utility>

#include "util/union_find.h"

namespace dcs {
namespace {

// Packs a canonical edge {lo, hi} (0 ≤ lo < hi) into the shard ledger key.
uint64_t EdgeKey(VertexId lo, VertexId hi) {
  return (static_cast<uint64_t>(lo) << 32) | static_cast<uint64_t>(hi);
}

constexpr int kLedgerInitialLog2 = 4;

// A spanning forest of `graph` plus the implied component count.
void ForestOf(const UndirectedGraph& graph, std::vector<Edge>& forest,
              int& components) {
  UnionFind uf(graph.num_vertices());
  forest.clear();
  for (const Edge& e : graph.edges()) {
    if (uf.Union(e.src, e.dst)) forest.push_back(e);
  }
  components = graph.num_vertices() - static_cast<int>(forest.size());
}

}  // namespace

StreamIngestor::EdgeLedger::EdgeLedger()
    : slots_(size_t{1} << kLedgerInitialLog2),
      shift_(64 - kLedgerInitialLog2) {}

size_t StreamIngestor::EdgeLedger::Find(uint64_t key) const {
  const size_t mask = slots_.size() - 1;
  size_t i = Home(key);
  while (slots_[i].key != key && slots_[i].key != 0) i = (i + 1) & mask;
  return i;
}

void StreamIngestor::EdgeLedger::Insert(uint64_t key) {
  Slot& slot = slots_[Find(key)];
  if (slot.key != 0) {
    ++slot.count;
    return;
  }
  slot = Slot{key, 1};
  if (2 * ++live_ > slots_.size()) Grow();
}

bool StreamIngestor::EdgeLedger::Remove(uint64_t key) {
  size_t hole = Find(key);
  if (slots_[hole].key == 0) return false;
  if (--slots_[hole].count > 0) return true;
  // Backward shift: pull each later member of the probe run whose home is
  // not cyclically in (hole, j] into the hole, so every remaining key stays
  // reachable from its home without tombstones.
  const size_t mask = slots_.size() - 1;
  for (size_t j = (hole + 1) & mask; slots_[j].key != 0; j = (j + 1) & mask) {
    if (((j - Home(slots_[j].key)) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = Slot{};
  --live_;
  return true;
}

void StreamIngestor::EdgeLedger::Grow() {
  std::vector<Slot> old(slots_.size() * 2);
  old.swap(slots_);
  --shift_;
  for (const Slot& slot : old) {
    if (slot.key != 0) slots_[Find(slot.key)] = slot;
  }
}

StreamIngestor::StreamIngestor(int num_vertices, StreamIngestorOptions options)
    : num_vertices_(num_vertices),
      options_(options),
      pool_(std::max(1, options.num_threads)) {
  DCS_CHECK_GE(num_vertices, 2);
  DCS_CHECK_GE(options.num_shards, 1);
  DCS_CHECK_GE(options.gutter_capacity, 1);
  DCS_CHECK_GE(options.num_threads, 1);
  DCS_CHECK_GE(options.rounds, 0);
  DCS_CHECK_GE(options.k, 0);
  const size_t num_shards = static_cast<size_t>(options.num_shards);
  shards_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->gutter.reserve(static_cast<size_t>(options.gutter_capacity));
    shards_.push_back(std::move(shard));
  }
  stripe_rows_ = (num_vertices + options.num_shards - 1) / options.num_shards;
  stripes_ = std::vector<Stripe>(num_shards);
  if (options.k == 0) {
    sketch_.emplace(num_vertices, options.rounds, options.seed);
  } else {
    ksketch_.emplace(num_vertices, options.k, options.rounds, options.seed);
  }
  // Seal the empty epoch-0 snapshot so queries are well-defined before the
  // first Barrier().
  snapshot_ = Seal();
}

Status StreamIngestor::Push(const EdgeUpdate& update) {
  if (update.u < 0 || update.u >= num_vertices_ || update.v < 0 ||
      update.v >= num_vertices_) {
    return InvalidArgumentError(
        "update endpoint out of range [0, " + std::to_string(num_vertices_) +
        "): " + std::to_string(update.u) + " -- " + std::to_string(update.v));
  }
  if (update.u == update.v) {
    return InvalidArgumentError("update is a self-loop at vertex " +
                                std::to_string(update.u));
  }
  const VertexId lo = std::min(update.u, update.v);
  const VertexId hi = std::max(update.u, update.v);
  const size_t s = static_cast<size_t>(lo % num_shards());
  Shard& shard = *shards_[s];
  {
    std::unique_lock<std::mutex> lock(shard.gutter_mutex);
    // Checked under the gutter mutex: Shutdown's final flush takes this
    // mutex after setting draining_, so a Push either precedes that flush
    // (accepted and sealed) or observes the flag (rejected). No accepted
    // update can slip past the final epoch.
    if (draining_.load(std::memory_order_acquire)) {
      return UnavailableError("ingestor is draining: update rejected");
    }
    const uint64_t key = EdgeKey(lo, hi);
    if (!update.is_delete) {
      shard.live.Insert(key);
    } else if (!shard.live.Remove(key)) {
      return FailedPreconditionError(
          "delete of edge " + std::to_string(lo) + " -- " +
          std::to_string(hi) +
          " with live multiplicity 0 (never inserted or already deleted)");
    }
    shard.gutter.push_back(EdgeUpdate{lo, hi, update.is_delete});
    // The gutter is released before the (per-update-cost) apply, so
    // admission on this shard resumes immediately.
    if (static_cast<int>(shard.gutter.size()) >= options_.gutter_capacity) {
      FlushLocked(s, lock);
    }
  }
  updates_accepted_.fetch_add(1, std::memory_order_relaxed);
  return OkStatus();
}

Status StreamIngestor::PushInsert(VertexId u, VertexId v) {
  return Push(EdgeUpdate{u, v, false});
}

Status StreamIngestor::PushDelete(VertexId u, VertexId v) {
  return Push(EdgeUpdate{u, v, true});
}

void StreamIngestor::FlushLocked(size_t s,
                                 std::unique_lock<std::mutex>& gutter_lock) {
  Shard& shard = *shards_[s];
  std::vector<EdgeUpdate> batch;
  batch.swap(shard.gutter);
  shard.gutter.reserve(static_cast<size_t>(options_.gutter_capacity));
  std::shared_lock<WriterPreferringSharedMutex> gate(seal_gate_);
  gutter_lock.unlock();
  ApplyBatch(s, batch);
}

void StreamIngestor::ApplyBatch(size_t s,
                                const std::vector<EdgeUpdate>& batch) {
  // One endpoint's half of an update (UpdateRow's arguments).
  struct Half {
    VertexId row;
    VertexId other;
    int64_t delta;
  };
  // Counting sort of the 2·|batch| halves by stripe: stripe t's halves
  // are halves[begin[t], begin[t + 1]).
  const size_t num_stripes = stripes_.size();
  std::vector<size_t> begin(num_stripes + 1, 0);
  for (const EdgeUpdate& update : batch) {
    ++begin[StripeOf(update.u) + 1];
    ++begin[StripeOf(update.v) + 1];
  }
  for (size_t t = 0; t < num_stripes; ++t) begin[t + 1] += begin[t];
  std::vector<Half> halves(2 * batch.size());
  std::vector<size_t> next(begin.begin(), begin.end() - 1);
  for (const EdgeUpdate& update : batch) {
    const int64_t delta = update.is_delete ? -1 : 1;
    halves[next[StripeOf(update.u)]++] = Half{update.u, update.v, delta};
    halves[next[StripeOf(update.v)]++] = Half{update.v, update.u, delta};
  }
  for (size_t i = 0; i < num_stripes; ++i) {
    const size_t t = (s + i) % num_stripes;
    if (begin[t] == begin[t + 1]) continue;
    std::lock_guard<std::mutex> lock(stripes_[t].mutex);
    for (size_t h = begin[t]; h < begin[t + 1]; ++h) {
      const Half& half = halves[h];
      if (sketch_.has_value()) {
        sketch_->UpdateRow(half.row, half.other, half.delta);
      } else {
        ksketch_->UpdateRow(half.row, half.other, half.delta);
      }
    }
  }
  updates_applied_.fetch_add(static_cast<int64_t>(batch.size()));
}

void StreamIngestor::FlushShard(size_t s) {
  std::unique_lock<std::mutex> lock(shards_[s]->gutter_mutex);
  if (!shards_[s]->gutter.empty()) FlushLocked(s, lock);
}

std::shared_ptr<StreamSnapshot> StreamIngestor::Seal() {
  auto snapshot = std::make_shared<StreamSnapshot>();
  // The one copy of a seal: taken while no batch is mid-apply, so it holds
  // whole updates only. Extraction then runs in place on it while
  // producers resume.
  const auto copy_sealed = [this, &snapshot](const auto& sketch) {
    std::lock_guard<WriterPreferringSharedMutex> gate(seal_gate_);
    snapshot->updates_applied = updates_applied_.load();
    return sketch;
  };
  if (sketch_.has_value()) {
    AgmConnectivitySketch sealed = copy_sealed(*sketch_);
    if (seal_observer_) seal_observer_(sealed);
    snapshot->digest = sealed.Digest();
    snapshot->forest = std::move(sealed).SpanningForest();
    // A forest is acyclic, so components = n − |forest|.
    snapshot->components =
        num_vertices_ - static_cast<int>(snapshot->forest.size());
  } else {
    AgmKConnectivitySketch sealed = copy_sealed(*ksketch_);
    snapshot->digest = sealed.Digest();
    snapshot->certificate = std::move(sealed).Certificate();
    snapshot->min_cut_up_to_k =
        AgmKConnectivitySketch::CertificateMinCut(*snapshot->certificate);
    ForestOf(*snapshot->certificate, snapshot->forest, snapshot->components);
  }
  snapshot->connected = snapshot->components == 1;
  return snapshot;
}

StatusOr<int64_t> StreamIngestor::Barrier() {
  std::lock_guard<std::mutex> barrier_lock(barrier_mutex_);
  pool_.ParallelFor(num_shards(), [this](int64_t s) {
    FlushShard(static_cast<size_t>(s));
  });
  std::shared_ptr<StreamSnapshot> snapshot = Seal();
  std::lock_guard<std::mutex> snapshot_lock(snapshot_mutex_);
  snapshot->epoch = snapshot_->epoch + 1;
  snapshot_ = std::move(snapshot);
  return snapshot_->epoch;
}

StatusOr<int64_t> StreamIngestor::Shutdown() {
  // Order matters: the flag goes up first, then the final barrier's
  // FlushShard walks every gutter mutex. Any Push that was admitted under
  // a gutter mutex before the flush reached it is in that gutter (or
  // mid-apply under the seal gate, which Seal waits out); any Push after
  // sees draining_ and is rejected.
  draining_.store(true, std::memory_order_release);
  DCS_ASSIGN_OR_RETURN(const int64_t epoch, Barrier());
  pool_.Shutdown();
  return epoch;
}

std::shared_ptr<const StreamSnapshot> StreamIngestor::snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  return snapshot_;
}

CutOracle StreamIngestor::EpochCutOracle() const {
  DCS_CHECK_GT(options_.k, 0);
  return CutOracle([this](const VertexSet& side) -> double {
    const std::shared_ptr<const StreamSnapshot> snap = snapshot();
    return snap->certificate->CutWeight(side);
  });
}

StatusOr<int64_t> ReplayStream(BinaryStreamReader& reader,
                               StreamIngestor& ingestor,
                               int64_t updates_per_epoch) {
  DCS_CHECK_GE(updates_per_epoch, 0);
  int64_t applied = 0;
  int64_t since_barrier = 0;
  while (!reader.AtEnd()) {
    DCS_ASSIGN_OR_RETURN(const EdgeUpdate update, reader.Next());
    DCS_RETURN_IF_ERROR(ingestor.Push(update));
    ++applied;
    if (updates_per_epoch > 0 && ++since_barrier >= updates_per_epoch) {
      DCS_RETURN_IF_ERROR(ingestor.Barrier().status());
      since_barrier = 0;
    }
  }
  DCS_RETURN_IF_ERROR(ingestor.Barrier().status());
  return applied;
}

}  // namespace dcs
