// The worker side of the multi-process serving tier (DESIGN.md §14).
//
// A ClusterWorker hosts `num_shards` single-threaded CutQueryService
// instances. Each request runs on the thread that received it, under its
// shard's mutex:
//
//   accept thread ──► connection thread ──admit──► shard mutex ──► shard's
//   (one per client)  (decode request)   (count)   (one at a time)  service
//
// Admission control: a shard admits the request it is running plus at
// most `queue_capacity` waiting behind it; past that a request is refused
// at once with kResourceExhausted — the worker never buffers unboundedly,
// and overload is a fast, explicit signal the client must respect (the
// cluster client deliberately does NOT fail over on it; see
// cluster_client.h). The shard mutex also serializes registration
// against queries, so the CutQueryService contract ("register before
// serving") holds per shard by construction.
//
// Object ids returned to clients encode the shard: id = local * S + shard.
// Registrations round-robin across shards; queries route by id % S.
//
// Shutdown is drain-then-stop (the SIGTERM path): RequestStop() is
// async-signal-safe (one atomic store); Serve() then stops accepting,
// lets every connection thread finish its in-flight request, and persists
// the store. A client mid-request gets its answer; a request that arrives
// once the drain has begun gets kUnavailable ("worker draining").
//
// Every response carries the worker's instance token (drawn at
// construction from pid + monotonic clock), so a client can detect that a
// respawned process replaced the one holding its registrations.

#ifndef DCS_SERVE_CLUSTER_H_
#define DCS_SERVE_CLUSTER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "graph/digraph.h"
#include "serve/cut_query_service.h"
#include "serve/transport.h"
#include "serve/wire.h"
#include "store/sketch_store.h"
#include "util/status.h"

namespace dcs {

struct ClusterWorkerOptions {
  int num_shards = 2;        // CutQueryService instances (>= 1)
  // Per shard: requests that may wait behind the one running (>= 1).
  int queue_capacity = 64;
  int io_timeout_ms = 5000;  // per-message deadline on connections
  int accept_timeout_ms = 100;  // stop-flag polling cadence
  // Test seam: sleep this long inside each executed request, so admission
  // tests can fill a shard deterministically. 0 in production.
  int execution_delay_ms = 0;
  // Cold/warm tiers (DESIGN.md §15). Empty = in-memory only (the
  // pre-store behavior). Non-empty: registered graphs persist to a
  // SketchStore in this directory, Create() warm-loads every persisted
  // object (reproducing the original id assignment) plus the hottest
  // cache entries from the previous incarnation's drain snapshot, and
  // Serve()'s drain seals the open segment and dumps the cache.
  std::string store_dir;
  // Cache entries persisted at drain (0 disables the snapshot).
  int64_t warm_cache_entries = 4096;

  void Check() const;
};

class ClusterWorker {
 public:
  // Binds and listens immediately (so the spawner can connect as soon as
  // the constructor returns); Serve() runs the accept loop.
  static StatusOr<std::unique_ptr<ClusterWorker>> Create(
      const Endpoint& endpoint, ClusterWorkerOptions options);

  ~ClusterWorker();

  ClusterWorker(const ClusterWorker&) = delete;
  ClusterWorker& operator=(const ClusterWorker&) = delete;

  // Accept loop: runs until RequestStop(), then drains (in-flight requests
  // answered, connection threads finished, store persisted) and returns.
  Status Serve();

  // Async-signal-safe stop request (one relaxed atomic store); Serve()
  // observes it within accept_timeout_ms.
  void RequestStop() noexcept {
    stop_.store(true, std::memory_order_relaxed);
  }

  // The bound endpoint (reports the real port when created with port 0).
  const Endpoint& endpoint() const { return listener_.local_endpoint(); }
  uint64_t token() const { return token_; }

  // Executes one already-decoded request against the owning shard on the
  // calling thread. Connection threads call it per request; tests call it
  // directly to bypass the socket. Thread-safe.
  RpcResponse Execute(const RpcRequest& request);

  // Objects live on this worker (warm-loaded + freshly registered).
  int64_t num_registered() const;
  // Cache entries across every shard (warm-restart observability).
  int64_t cache_entries() const;
  // Objects warm-loaded from the store at Create (0 without a store).
  int64_t warm_loaded_objects() const { return warm_loaded_objects_; }

 private:
  struct Shard {
    // Held while a request runs: one request at a time per shard.
    std::mutex mutex;
    // Requests admitted to this shard: the running one plus those waiting
    // for `mutex`. Admission refuses past queue_capacity + 1.
    std::atomic<int> admitted{0};
    std::unique_ptr<CutQueryService> service;
    // Graphs live here because CutQueryService::RegisterGraph keeps a
    // reference; deque never reallocates element storage.
    std::deque<DirectedGraph> graphs;
    // Envelope checksum of graphs[i] (the kReattach identity check).
    std::deque<uint32_t> checksums;
  };

  ClusterWorker(Listener listener, ClusterWorkerOptions options);

  // Replays every persisted object into the shards (ascending global id
  // reproduces the round-robin assignment: id k -> shard k % S, local
  // k / S) and reloads the drain cache snapshot. Runs before Serve(), so
  // no synchronization against queries is needed.
  Status WarmLoadFromStore();
  // Drain-side of the warm tier: dump the hottest cache entries and seal
  // the open segment.
  Status PersistOnDrain();

  void HandleConnection(Connection connection);
  // Joins the finished connection threads, or every one when `all`. The
  // accept loop reaps on each pass, so a finished thread's stack is freed
  // within one accept poll rather than at the drain.
  void ReapConnections(bool all);
  // Runs an admitted request; the caller holds the shard's mutex.
  RpcResponse ExecuteOnShard(int shard_index, const RpcRequest& request);

  ClusterWorkerOptions options_;
  Listener listener_;
  uint64_t token_ = 0;
  std::atomic<bool> stop_{false};
  std::unique_ptr<SketchStore> store_;  // null without --store-dir
  int64_t warm_loaded_objects_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Execute holds it shared; the drain takes it exclusively, so no request
  // still runs when PersistOnDrain seals the store.
  std::shared_mutex drain_gate_;
  // Held across a registration. registrations_ counts the successful
  // ones, so it is also the next global id.
  std::mutex registration_mutex_;
  int64_t registrations_ = 0;
  // One per accepted connection. Only the thread running Serve() (and,
  // after it returns, the destructor) touches the list.
  struct ConnectionThread {
    std::thread thread;
    std::atomic<bool> done{false};  // set as the thread's last act
  };
  std::list<ConnectionThread> connections_;
};

}  // namespace dcs

#endif  // DCS_SERVE_CLUSTER_H_
