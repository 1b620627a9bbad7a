// sketch_cold: an in-process CutQueryService over every registered
// sparsifier backend, answering batches of fresh random sides, so every
// query misses the cache and the backend oracles plus the thread pool carry
// the work (README.md).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "graph/zoo.h"
#include "serve/cut_query_service.h"
#include "sketch/backend_registry.h"
#include "trace.h"
#include "util/metrics.h"
#include "workloads.h"

namespace perfbench {
namespace {

using dcs::Status;
using dcs::StatusOr;

struct ColdParams {
  // power_law at this size has about 3K edges, layered_bipartite 8K.
  int power_law_n = 512;
  int bipartite_n = 128;
  double beta = 4.0;
  double epsilon = 0.2;
  int batch = 256;
  // Every check_every-th batch is re-answered by the num_threads=1
  // reference service and compared bit for bit (outside the timed call).
  int check_every = 8;
  int probe_sides = 256;  // single-thread query_ns probe per sketch
  int setups = 5;
};

struct Object {
  std::string backend;
  int n = 0;
  std::unique_ptr<dcs::DirectedCutSketch> sketch;
  int64_t id = 0;            // in the served (multi-thread) service
  int64_t reference_id = 0;  // in the num_threads=1 reference
};

struct ColdState {
  std::vector<Object> objects;
  std::unique_ptr<dcs::CutQueryService> service;
  std::unique_ptr<dcs::CutQueryService> reference;
  std::map<std::string, double> build_ms;  // per backend, both instances
  std::string description;
  uint64_t digest = 0;
};

// One per core, at most 4.
int ServiceThreads() {
  return std::clamp(static_cast<int>(std::thread::hardware_concurrency()), 1,
                    4);
}

StatusOr<std::unique_ptr<ColdState>> SetUpCold(const Args& args,
                                               const ColdParams& params) {
  auto state = std::make_unique<ColdState>();
  dcs::CutQueryServiceOptions served;
  served.num_threads = ServiceThreads();
  state->service = std::make_unique<dcs::CutQueryService>(served);
  dcs::CutQueryServiceOptions serial;
  serial.num_threads = 1;
  serial.enable_cache = false;
  state->reference = std::make_unique<dcs::CutQueryService>(serial);

  const std::vector<std::pair<dcs::ZooFamily, int>> instances = {
      {dcs::ZooFamily::kPowerLaw, params.power_law_n},
      {dcs::ZooFamily::kLayeredBipartite, params.bipartite_n}};
  for (size_t i = 0; i < instances.size(); ++i) {
    dcs::ZooOptions zoo;
    zoo.n = instances[i].second;
    zoo.beta = params.beta;
    zoo.seed = dcs::SubtaskSeed(args.seed, static_cast<int64_t>(i) + 1);
    const dcs::DirectedGraph graph =
        dcs::MakeZooInstance(instances[i].first, zoo).graph;
    state->digest = MixDigest(state->digest,
                              static_cast<uint64_t>(graph.num_edges()));
    for (const dcs::Edge& e : graph.edges()) {
      state->digest = MixDigest(
          state->digest, static_cast<uint64_t>(e.src) * 65536 + e.dst);
    }
    state->description +=
        std::string(state->description.empty() ? "" : ", ") +
        dcs::ZooFamilyName(instances[i].first) +
        " n=" + std::to_string(graph.num_vertices()) +
        " m=" + std::to_string(graph.num_edges());
    for (const dcs::BackendInfo& backend : dcs::RegisteredBackends()) {
      dcs::BackendOptions options;
      options.epsilon = params.epsilon;
      options.beta = params.beta;
      options.seed = dcs::SubtaskSeed(args.seed, 10 + static_cast<int64_t>(
                                                          state->objects
                                                              .size()));
      Object object;
      object.backend = backend.name;
      object.n = graph.num_vertices();
      const auto start = Clock::now();
      DCS_ASSIGN_OR_RETURN(object.sketch, dcs::BuildBackendSketch(
                                              backend.name, graph, options));
      state->build_ms[backend.name] += SecondsSince(start) * 1000.0;
      object.id = state->service->RegisterSketch(*object.sketch);
      object.reference_id = state->reference->RegisterSketch(*object.sketch);
      state->objects.push_back(std::move(object));
    }
  }
  return state;
}

struct ColdPhase {
  std::vector<OpSample> samples;
  std::vector<size_t> object_of;  // object index per sample
  int64_t queries = 0;
  int64_t checked_batches = 0;
  double timed_s = 0;
};

std::vector<dcs::CutQueryService::Query> FreshBatch(
    const ColdParams& params, const Object& object, int64_t id,
    uint64_t seed) {
  dcs::Rng rng(seed);
  std::vector<dcs::CutQueryService::Query> queries;
  queries.reserve(static_cast<size_t>(params.batch));
  for (int i = 0; i < params.batch; ++i) {
    queries.push_back({id, RandomSide(object.n, rng)});
  }
  return queries;
}

// Closed loop on one caller thread: the served service fans each batch out
// over its pool; the next batch starts when the answer is back.
StatusOr<ColdPhase> RunColdPhase(const Args& args, const ColdParams& params,
                                 ColdState& state, double seconds, int phase,
                                 SpanBuffer* spans) {
  ColdPhase out;
  const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
  for (int64_t b = 0; Clock::now() < deadline; ++b) {
    const size_t index = static_cast<size_t>(b) % state.objects.size();
    const Object& object = state.objects[index];
    const uint64_t seed =
        dcs::SubtaskSeed(args.seed, (int64_t{phase + 1} << 40) + b);
    const auto queries = FreshBatch(params, object, object.id, seed);
    const int64_t request = (int64_t{phase + 1} << 32) | b;
    const auto t0 = Clock::now();
    std::vector<double> values;
    {
      ScopedSpan span(spans, "service.answer_batch", request);
      values = state.service->AnswerBatch(queries);
    }
    const double s = SecondsSince(t0);
    out.timed_s += s;
    out.samples.push_back({out.timed_s, s * 1e6,
                           static_cast<double>(params.batch)});
    out.object_of.push_back(index);
    out.queries += params.batch;
    if (b % params.check_every == 0) {
      if (args.break_check && b == 0) {
        values[0] = std::nextafter(values[0], 1e300);
      }
      const std::vector<double> want = state.reference->AnswerBatch(
          FreshBatch(params, object, object.reference_id, seed));
      if (!SameBits(values, want)) {
        return dcs::InternalError(
            "correctness check failed: sketch_cold batch on backend " +
            object.backend + " differs from the num_threads=1 service");
      }
      ++out.checked_batches;
    }
  }
  return out;
}

// Tracing overhead on AnswerBatch, compared object by object so the mix of
// backends in each half cancels out.
double ColdOverheadPct(const ColdPhase& plain, const ColdPhase& traced) {
  std::map<size_t, std::vector<double>> plain_us, traced_us;
  for (size_t i = 0; i < plain.samples.size(); ++i) {
    plain_us[plain.object_of[i]].push_back(plain.samples[i].latency_us);
  }
  for (size_t i = 0; i < traced.samples.size(); ++i) {
    traced_us[traced.object_of[i]].push_back(traced.samples[i].latency_us);
  }
  std::vector<double> per_object;
  for (const auto& [index, us] : traced_us) {
    const auto it = plain_us.find(index);
    if (it == plain_us.end()) continue;
    per_object.push_back(TraceOverheadPct(Median(it->second), Median(us)));
  }
  return Median(per_object);
}

// A span name that outlives every span recorded under it.
const char* StableName(const std::string& name) {
  static std::set<std::string> names;
  return names.insert(name).first->c_str();
}

}  // namespace

StatusOr<Result> RunSketchCold(const Args& args, Tracer& tracer) {
  ColdParams params;
  if (args.smoke) {
    params.power_law_n = 64;
    params.bipartite_n = 32;
    params.batch = 32;
    params.check_every = 1;
    params.probe_sides = 16;
    params.setups = 1;
  }
  std::vector<double> setup_s;
  std::map<std::string, std::vector<double>> build_ms;
  std::unique_ptr<ColdState> state;
  for (int i = 0; i < params.setups; ++i) {
    state.reset();
    const auto start = Clock::now();
    DCS_ASSIGN_OR_RETURN(state, SetUpCold(args, params));
    setup_s.push_back(SecondsSince(start));
    for (const auto& [backend, ms] : state->build_ms) {
      build_ms[backend].push_back(ms);
    }
  }

  Result result;
  char digest[64];
  std::snprintf(digest, sizeof(digest), "inputs_digest=%016llx",
                static_cast<unsigned long long>(state->digest));
  result.notes.push_back(digest);
  result.notes.push_back("instances: " + state->description + "; " +
                         std::to_string(state->objects.size()) +
                         " backend sketches, batch " +
                         std::to_string(params.batch) + ", " +
                         std::to_string(ServiceThreads()) + " threads");

  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  DCS_ASSIGN_OR_RETURN(const ColdPhase plain,
                       RunColdPhase(args, params, *state, untraced_s, 0,
                                    nullptr));
  ColdPhase traced;
  if (args.trace) {
    SpanBuffer& spans = tracer.NewBuffer();
    const auto before = dcs::metrics::Registry::Get().Snapshot();
    DCS_ASSIGN_OR_RETURN(traced, RunColdPhase(args, params, *state,
                                              args.seconds / 2, 1, &spans));
    const auto after = dcs::metrics::Registry::Get().Snapshot();
    const int64_t hits = CounterDelta(before, after, "serve.cache.hits");
    const int64_t misses = CounterDelta(before, after, "serve.cache.misses");

    // Single-thread oracle cost and exact size of every backend.
    std::map<std::string, double> query_ns_total, queries, size_bits;
    int64_t probe = int64_t{1} << 50;
    for (const Object& object : state->objects) {
      dcs::Rng rng(dcs::SubtaskSeed(args.seed, ++probe));
      std::vector<dcs::VertexSet> sides;
      for (int i = 0; i < params.probe_sides; ++i) {
        sides.push_back(RandomSide(object.n, rng));
      }
      double sink = 0;
      spans.Open(StableName("sketch.query." + object.backend), probe);
      for (const dcs::VertexSet& side : sides) {
        sink += object.sketch->EstimateCut(side);
      }
      query_ns_total[object.backend] += spans.Close() * 1000.0;
      queries[object.backend] += static_cast<double>(sides.size());
      size_bits[object.backend] +=
          static_cast<double>(object.sketch->SizeInBits());
      if (!std::isfinite(sink)) {
        return dcs::InternalError("a backend answered a non-finite cut");
      }
    }
    for (const auto& [backend, ms] : build_ms) {
      result.per_layer.push_back(
          {"sketch.build_ms." + backend, Median(ms), "ms"});
      result.per_layer.push_back({"sketch.query_ns." + backend,
                                  query_ns_total[backend] / queries[backend],
                                  "ns"});
      result.per_layer.push_back(
          {"sketch.size_bits." + backend, size_bits[backend], "bits"});
    }
    result.per_layer.insert(
        result.per_layer.end(),
        {{"service.answer_batch_us",
          Median(tracer.Durations("service.answer_batch")), "us"},
         {"cache.hit_ratio",
          hits + misses == 0 ? 0.0
                             : static_cast<double>(hits) /
                                   static_cast<double>(hits + misses),
          "ratio"},
         {"cache.lookups", static_cast<double>(hits + misses), "count"},
         {"threadpool.loop_ms",
          DistributionMeanDelta(before, after,
                                "threadpool.loop.duration_ns") /
              1e6,
          "ms"},
         {"trace.overhead_pct", ColdOverheadPct(plain, traced), "%"}});
  }
  result.attempted = plain.queries + traced.queries;
  result.notes.push_back(
      "checked " + std::to_string(plain.checked_batches +
                                  traced.checked_batches) +
      " batches bit for bit against the num_threads=1 service");

  EndToEnd e2e;
  e2e.setup_s = Median(setup_s);
  e2e.samples = plain.samples;
  e2e.peak_rss_mb = SelfPeakRssMb();
  AddEndToEnd(e2e, {"query_qps", "query_p50_us", "query_p99_us"}, result);
  return result;
}

}  // namespace perfbench
