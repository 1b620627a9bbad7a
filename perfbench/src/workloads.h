// The four workloads (README.md). Each one builds its inputs from
// args.seed, sets up several times (setup_s is the median), measures for
// args.seconds, and checks every answer it times. With args.trace the run
// splits its time between an untraced half and a traced half and reports
// per-layer metrics; without, it reports end-to-end metrics only.
//
// A failed correctness check, a failed spawn or any other error returns a
// non-OK Status; the caller then prints no numbers.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "common.h"
#include "trace.h"
#include "util/status.h"

namespace perfbench {

dcs::StatusOr<Result> RunClusterWarm(const Args& args, Tracer& tracer);
dcs::StatusOr<Result> RunRegisterRestart(const Args& args, Tracer& tracer);
dcs::StatusOr<Result> RunSketchCold(const Args& args, Tracer& tracer);
dcs::StatusOr<Result> RunIngest(const Args& args, Tracer& tracer);

// One completed blocking call of a workload: where it ended on the
// workload's measurement clock (seconds of measured time since the phase
// began), how long it took, and how many operations it completed.
struct OpSample {
  double clock_s = 0;
  double latency_us = 0;
  double ops = 0;
};

std::vector<double> LatenciesUs(const std::vector<OpSample>& samples);

// The end-to-end metrics every workload reports (BENCHMARK.json
// end_to_end). "op" is the workload's blocking call: a query batch
// (cluster_warm, sketch_cold), one RegisterReplicated (register_restart),
// one seal = Barrier() + snapshot read (ingest).
struct EndToEnd {
  double setup_s = 0;
  std::vector<OpSample> samples;
  double peak_rss_mb = 0;
};

// The workload's own names for ops_per_s, op_p50_us and op_tail_us,
// printed beside them; latencies are printed in `latency_unit`.
struct Aliases {
  std::string ops_per_s;
  std::string op_p50;
  std::string op_tail;
  std::string latency_unit = "us";
};

// Splits the samples, in clock order, into up to ten windows of at least
// 20 samples each and reports the median over windows of each window's
// throughput and median latency: a burst of interference then moves one
// window, not the result. The tail (TailOf over the whole run) goes to the
// per-layer metrics as op_tail_us: it is printed and reported, not gated.
void AddEndToEnd(EndToEnd e2e, const Aliases& aliases, Result& result);

// The share of time tracing adds, from the same call timed in the untraced
// and the traced half of a run (medians).
double TraceOverheadPct(double untraced_median, double traced_median);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
