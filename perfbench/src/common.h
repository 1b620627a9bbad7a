// Shared plumbing for the repository benchmark: command-line arguments,
// the result every workload returns, latency statistics, scratch
// directories, worker processes, and the machine fingerprint.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/types.h"
#include "serve/cluster.h"
#include "serve/transport.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/status.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Small inputs and one set-up pass: the benchmark's own tests.
  bool smoke = false;
  // Test seam: perturb one expected answer so the correctness check must
  // fire (the run then exits non-zero and prints no result).
  bool break_check = false;
  // The dcs_server binary (the build's own unless a test overrides it).
  std::string server_binary;
};

// Relative to the checkout root, where run.py starts the binary: scratch
// directories (sockets, worker stores) live under kScratchRoot while a run
// is live; the result file and the span dump are written to kOutputDir.
inline constexpr char kScratchRoot[] = ".bench_build/scratch";
inline constexpr char kOutputDir[] = ".bench_build/results";

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What a workload reports. A failed correctness check is not a Result: the
// workload returns a non-OK Status and the run prints no numbers.
struct Result {
  int64_t attempted = 0;
  int64_t failed = 0;
  // Printed in the result line with --trace 0 (BENCHMARK.json end_to_end).
  std::vector<Metric> end_to_end;
  // Printed in the result line with --trace 1 (BENCHMARK.json per_layer).
  std::vector<Metric> per_layer;
  // Human-readable extras: the workload's own metric names, tail
  // percentiles, sample counts, and the input digest.
  std::vector<std::string> notes;
};

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Linear-interpolation percentile, p in [0, 100]; 0 for no samples.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

// The highest percentile that leaves at least ten samples beyond it,
// 100 * (1 - 10 / samples), capped at p99 and floored at p50. It moves
// smoothly with the sample count, so runs of slightly different length
// read the same part of the distribution.
struct Tail {
  double value = 0;
  double percentile = 50;
  int64_t samples = 0;
};
Tail TailOf(const std::vector<double>& values);

// Peak resident set of this process, and of the largest reaped child, in
// MiB (getrusage; no /proc reads).
double SelfPeakRssMb();
double LargestChildPeakRssMb();

// A fresh directory under `root`, removed with everything in it on
// destruction.
class ScratchDir {
 public:
  static dcs::StatusOr<ScratchDir> Create(const std::string& root);
  ScratchDir() = default;
  ScratchDir(ScratchDir&& other) noexcept;
  ScratchDir& operator=(ScratchDir&& other) noexcept;
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  ~ScratchDir();

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// A dcs_server child. Spawned with PR_SET_PDEATHSIG so it cannot outlive
// the benchmark even if the benchmark is killed; the destructor SIGKILLs
// and reaps a child that is still running.
class Worker {
 public:
  Worker() = default;
  Worker(Worker&& other) noexcept;
  Worker& operator=(Worker&& other) noexcept;
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;
  ~Worker();

  // fork/execs `binary --listen <endpoint> ...` and waits until it answers
  // a ping. On any failure the child (if any) is killed and reaped.
  static dcs::StatusOr<Worker> Spawn(const std::string& binary,
                                     const dcs::Endpoint& endpoint,
                                     const dcs::ClusterWorkerOptions& options,
                                     int ready_timeout_ms);

  // SIGTERM (drain: the worker seals its store) and wait for exit.
  dcs::Status Drain();
  // SIGKILL and reap; a no-op when not running.
  void Kill();

  bool running() const { return pid_ > 0; }

 private:
  pid_t pid_ = -1;
};

// CPU model, core count, SIMD dispatch path, compiler and build type.
std::string MachineFingerprint();

// A random cut side over n vertices: each vertex joins with probability
// 1/2; vertex 0 is always in and vertex 1 always out, so the side is a
// proper nonempty subset.
dcs::VertexSet RandomSide(int n, dcs::Rng& rng);

// Bitwise equality of two answer vectors (the bit-identity contract).
bool SameBits(const std::vector<double>& a, const std::vector<double>& b);

// Change of a registry counter between two snapshots (0 when absent).
int64_t CounterDelta(const dcs::metrics::MetricsSnapshot& before,
                     const dcs::metrics::MetricsSnapshot& after,
                     const std::string& name);
// Mean of a registry distribution over the window, in the distribution's
// own unit; 0 when nothing was recorded.
double DistributionMeanDelta(const dcs::metrics::MetricsSnapshot& before,
                             const dcs::metrics::MetricsSnapshot& after,
                             const std::string& name);

// Deterministic 64-bit mix, for input digests.
uint64_t MixDigest(uint64_t digest, uint64_t value);

// Writes `text` to `path`, creating parent directories.
dcs::Status WriteTextFile(const std::string& path, const std::string& text);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
