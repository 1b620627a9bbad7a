// perfbench — the repository benchmark (see README.md in this directory).
//
//   perfbench --workload cluster_warm|sketch_cold|register_restart|ingest
//             --seed N --seconds S --trace 0|1 [--smoke]
//
// Human-readable lines go to stdout first (machine fingerprint, every
// metric with its unit, the workloads' own metric names); the last line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones. A failed check prints no result and exits 1; a usage
// error exits 2.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common.h"
#include "sketch/backend_registry.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

const std::vector<std::pair<std::string, std::string>>& EndToEndNames() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"setup_s", "s"},
      {"ops_per_s", "1/s"},
      {"op_p50_us", "us"},
      {"peak_rss_mb", "MB"},
  };
  return names;
}

// Every per-layer metric, in report order. A workload sets the ones whose
// layer it exercises; the rest read 0 (that layer did no work).
std::vector<std::pair<std::string, std::string>> PerLayerNames() {
  std::vector<std::pair<std::string, std::string>> names = {
      {"op_tail_us", "us"},
      {"wire.encode_request_us", "us"},
      {"wire.decode_request_us", "us"},
      {"wire.encode_response_us", "us"},
      {"wire.decode_response_us", "us"},
      {"wire.request_bytes", "bytes"},
      {"wire.response_bytes", "bytes"},
      {"transport.send_recv_us", "us"},
      {"transport.bulk_mb_per_s", "MB/s"},
      {"cluster.rpc_us", "us"},
      {"cluster.unaccounted_us", "us"},
      {"client.failovers", "count"},
      {"client.resource_exhausted", "count"},
      {"client.repair_ms", "ms"},
      {"client.reattached", "count"},
      {"worker.ready_ms", "ms"},
      {"service.answer_batch_us", "us"},
      {"cache.hit_ratio", "ratio"},
      {"cache.lookups", "count"},
  };
  for (const char* prefix : {"sketch.build_ms.", "sketch.query_ns.",
                             "sketch.size_bits."}) {
    const std::string p = prefix;
    const std::string unit = p == "sketch.build_ms." ? "ms"
                             : p == "sketch.query_ns." ? "ns"
                                                       : "bits";
    for (const dcs::BackendInfo& backend : dcs::RegisteredBackends()) {
      names.emplace_back(p + backend.name, unit);
    }
  }
  const std::vector<std::pair<std::string, std::string>> rest = {
      {"serialization.graph_encode_us", "us"},
      {"serialization.graph_decode_us", "us"},
      {"store.put_us", "us"},
      {"store.put_tail_us", "us"},
      {"store.seal_ms", "ms"},
      {"store.bytes_written", "bytes"},
      {"store.open_ms", "ms"},
      {"agm.add_edge_ns", "ns"},
      {"ingest.push_ns", "ns"},
      {"ingest.barrier_ms", "ms"},
      {"ingest.snapshot_read_us", "us"},
      {"ingest.scaling", "ratio"},
      {"threadpool.loop_ms", "ms"},
      {"trace.overhead_pct", "%"},
      {"trace.spans", "count"},
      {"error_rate", "ratio"},
  };
  names.insert(names.end(), rest.begin(), rest.end());
  return names;
}

[[noreturn]] void Usage(const std::string& message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "cluster_warm|sketch_cold|register_restart|ingest --seed N "
               "--seconds S --trace 0|1 [--smoke]\n",
               message.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  args.server_binary = PERFBENCH_SERVER_PATH;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (flag == "--break-check") {
      args.break_check = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') Usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args.seconds > 0) ||
          args.seconds > 600) {
        Usage("bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--server") {
      args.server_binary = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  return args;
}

std::string FormatNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const std::map<std::string,
                 std::function<dcs::StatusOr<Result>(const Args&, Tracer&)>>
      workloads = {{"cluster_warm", RunClusterWarm},
                   {"sketch_cold", RunSketchCold},
                   {"register_restart", RunRegisterRestart},
                   {"ingest", RunIngest}};
  const auto found = workloads.find(args.workload);
  if (found == workloads.end()) Usage("unknown workload " + args.workload);

  const std::string fingerprint = MachineFingerprint();
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d%s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, args.smoke ? " smoke" : "");
  std::printf("perfbench: machine %s\n", fingerprint.c_str());
  std::fflush(stdout);

  Tracer tracer;
  dcs::StatusOr<Result> outcome = found->second(args, tracer);
  if (!outcome.ok()) {
    std::fprintf(stderr, "perfbench: %s FAILED: %s\n", args.workload.c_str(),
                 outcome.status().ToString().c_str());
    return 1;
  }
  Result& result = *outcome;
  if (result.attempted < 1) {
    std::fprintf(stderr, "perfbench: %s attempted no operations\n",
                 args.workload.c_str());
    return 1;
  }
  result.per_layer.push_back(
      {"error_rate",
       static_cast<double>(result.failed) /
           static_cast<double>(result.attempted),
       "ratio"});
  result.per_layer.push_back(
      {"trace.spans", static_cast<double>(tracer.num_spans()), "count"});

  // Canonical metric lists: end-to-end must all be present; per-layer
  // metrics a workload did not set read 0.
  std::map<std::string, double> e2e_values;
  for (const Metric& m : result.end_to_end) e2e_values[m.name] = m.value;
  std::map<std::string, double> layer_values;
  for (const Metric& m : result.per_layer) layer_values[m.name] = m.value;
  std::vector<Metric> e2e;
  for (const auto& [name, unit] : EndToEndNames()) {
    const auto it = e2e_values.find(name);
    if (it == e2e_values.end() || !std::isfinite(it->second) ||
        it->second <= 0) {
      std::fprintf(stderr, "perfbench: end-to-end metric %s missing or not "
                   "positive\n", name.c_str());
      return 1;
    }
    e2e.push_back({name, it->second, unit});
  }
  std::vector<Metric> layers;
  std::set<std::string> known;
  for (const auto& [name, unit] : PerLayerNames()) {
    known.insert(name);
    const auto it = layer_values.find(name);
    const double value = it == layer_values.end() ? 0.0 : it->second;
    layers.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
  for (const auto& [name, value] : layer_values) {
    if (known.count(name) == 0) {
      std::fprintf(stderr, "perfbench: unlisted per-layer metric %s\n",
                   name.c_str());
      return 1;
    }
  }

  std::printf("perfbench: inputs and checks\n");
  for (const std::string& note : result.notes) {
    std::printf("  %s\n", note.c_str());
  }
  std::printf("  attempted=%lld failed=%lld error_rate=%.6g\n",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed),
              static_cast<double>(result.failed) /
                  static_cast<double>(result.attempted));
  const std::vector<Metric>& reported = args.trace ? layers : e2e;
  std::printf("perfbench: %s metrics\n",
              args.trace ? "per-layer (traced run)" : "end-to-end");
  for (const Metric& m : reported) {
    std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }

  std::string metrics_json;
  for (const Metric& m : reported) {
    if (!metrics_json.empty()) metrics_json += ", ";
    metrics_json += "\"" + m.name + "\": {\"value\": " +
                    FormatNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  const std::string line =
      "{\"correct\": true, \"attempted\": " +
      std::to_string(result.attempted) +
      ", \"failed\": " + std::to_string(result.failed) +
      ", \"metrics\": {" + metrics_json + "}}";

  // The result file keeps the fingerprint and the notes beside the numbers.
  const auto quote = [](const std::string& text) {
    std::string quoted = "\"";
    for (const char c : text) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    return quoted + "\"";
  };
  const std::string stem = std::string(kOutputDir) + "/" + args.workload +
                           "-seed" + std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0");
  std::string notes;
  for (const std::string& note : result.notes) {
    notes += (notes.empty() ? "" : ", ") + quote(note);
  }
  const std::string record = "{\"fingerprint\": " + quote(fingerprint) +
                             ", \"notes\": [" + notes +
                             "], \"result\": " + line + "}\n";
  dcs::Status written = WriteTextFile(stem + ".json", record);
  if (written.ok() && args.trace) {
    written = tracer.WriteJsonLines(stem + ".spans.jsonl");
  }
  if (!written.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("%s\n", line.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
