// The chaos-soak load driver (DESIGN.md §14): spawns real dcs_server
// worker processes, drives mixed query traffic from concurrent client
// threads through the replication/failover client, SIGKILLs random
// workers mid-batch at a configured rate (respawning and repairing them),
// and checks every completed answer bit-for-bit against a single-process
// CutQueryService running the identical code path.
//
// Drives the `dcs cluster` CLI subcommand, whose chaos gate
// (scripts/run_chaos.sh) requires wrong_bits to be 0.
//
// The bit-identity invariant holds because registration is *replicated*:
// each worker holds the whole graph, deserialization preserves edge order
// and raw IEEE weights, and every replica answers through the same
// ExactCutOracle traversal — so it does not matter which replica survives
// to answer. Losses must surface only as kUnavailable (all replicas of an
// object gone / worker draining) or kResourceExhausted (admission
// control); any other outcome of a completed call that differs from the
// oracle by a single bit is counted in wrong_bits and fails the soak.

#ifndef DCS_SERVE_LOAD_DRIVER_H_
#define DCS_SERVE_LOAD_DRIVER_H_

#include <cstdint>
#include <string>

#include "serve/cluster.h"
#include "util/status.h"

namespace dcs {

struct ClusterLoadOptions {
  std::string server_binary;  // path to dcs_server
  std::string socket_dir;     // existing directory for unix sockets
  int num_workers = 4;
  int replication = 2;
  int num_client_threads = 2;
  int batches_per_thread = 40;
  int batch_size = 8;
  // Chaos: each kill_interval_ms tick SIGKILLs one random worker with
  // this probability; the corpse is reaped, respawned after
  // respawn_delay_ms, and clients repair onto the fresh incarnation.
  double kill_rate = 0;
  int kill_interval_ms = 25;
  int respawn_delay_ms = 10;
  // The served graph (deterministic multigraph from `seed`).
  int num_vertices = 48;
  int num_edges = 320;
  uint64_t seed = 1;
  ClusterWorkerOptions worker;
  // Non-empty: worker w runs with --store-dir <store_root>/worker<w>, so a
  // SIGKILLed worker's respawn warm-loads its registrations from disk and
  // clients reattach instead of re-sending graphs. (worker.store_dir
  // itself is ignored here — every worker needs its own directory.)
  std::string store_root;

  void Check() const;
};

struct ClusterLoadReport {
  int64_t batches_ok = 0;
  int64_t batches_unavailable = 0;
  int64_t batches_resource_exhausted = 0;
  int64_t batches_other_error = 0;
  // Completed answers whose doubles differed from the single-process
  // oracle. The soak invariant is wrong_bits == 0 at every kill rate.
  int64_t wrong_bits = 0;
  bool answers_bit_identical() const { return wrong_bits == 0; }
  int64_t kills = 0;
  int64_t respawns = 0;
  // Replicas repaired via the store-backed reattach fast path (0 without
  // store_root).
  int64_t reattaches = 0;
  double elapsed_seconds = 0;
  double qps = 0;  // completed (OK) queries per second
  int64_t latency_p50_us = 0;  // per-batch round-trip, completed calls
  int64_t latency_p99_us = 0;
};

// Runs the full soak: spawn, load, kill/respawn/repair, drain, reap.
// Worker processes never outlive the call (SIGTERM then SIGKILL).
StatusOr<ClusterLoadReport> RunClusterLoad(const ClusterLoadOptions& options);

}  // namespace dcs

#endif  // DCS_SERVE_LOAD_DRIVER_H_
