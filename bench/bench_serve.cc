// Experiment SERVE — the batched cut-query serving layer.
//
// Three sections:
//   A: AnswerBatch on a repeated-subset workload, cold cache vs warm cache
//      — the memoization win, with the bit-identity check (a warm answer
//      must equal the cold one exactly).
//   B: for-each decode through the service (DecodeForEachBits) cold vs
//      warm, checked bit-for-bit against the per-bit session path.
//   C: batch thread scaling on a seeded (never-cached) oracle — every
//      query computes, so the sweep measures sharded execution, with the
//      identical-across-thread-counts check.
//
// Results are printed as tables and written to BENCH_serve.json (override
// with --out FILE). --threads N caps the thread sweep.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "json_writer.h"
#include "lowerbound/foreach_encoding.h"
#include "serve/cut_query_service.h"
#include "serve/decoder_batch.h"
#include "table.h"
#include "util/random.h"

namespace dcs {

using bench::F;
using bench::I;
using bench::PrintBanner;
using bench::PrintRow;
using bench::PrintRule;

double MsSince(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

struct CacheRecord {
  int n = 0;
  int64_t edges = 0;
  int batch = 0;
  int distinct = 0;
  double ms_cold = 0;
  double ms_warm = 0;
  bool identical = false;
  double speedup() const { return ms_warm > 0 ? ms_cold / ms_warm : 0; }
};

std::vector<CacheRecord> SectionWarmVsCold() {
  PrintBanner("SERVE/A",
              "AnswerBatch on repeated subsets: cold cache vs warm cache");
  PrintRow({"n", "edges", "batch", "distinct", "cold(ms)", "warm(ms)",
            "speedup", "identical"});
  PrintRule(8);
  std::vector<CacheRecord> records;
  for (const int n : {128, 256, 512}) {
    Rng rng(101 + static_cast<uint64_t>(n));
    const DirectedGraph graph = RandomBalancedDigraph(n, 0.3, 2.0, rng);
    CacheRecord record;
    record.n = n;
    record.edges = graph.num_edges();
    record.distinct = 64;
    record.batch = 2048;

    // The cold baseline is a cache-disabled service: with the cache on,
    // even the first batch is mostly warm (2048 queries over 64 sides hit
    // within the batch), which would understate the memoization win.
    CutQueryServiceOptions no_cache;
    no_cache.enable_cache = false;
    CutQueryService cold_service(no_cache);
    CutQueryService warm_service;
    const auto cold_object = cold_service.RegisterGraph(graph);
    const auto warm_object = warm_service.RegisterGraph(graph);
    std::vector<VertexSet> sides;
    while (static_cast<int>(sides.size()) < record.distinct) {
      VertexSet side(static_cast<size_t>(n));
      for (auto& bit : side) bit = static_cast<uint8_t>(rng.Next() & 1);
      if (IsProperCutSide(side)) sides.push_back(std::move(side));
    }
    std::vector<CutQueryService::Query> cold_batch, warm_batch;
    for (int i = 0; i < record.batch; ++i) {
      const VertexSet& side = sides[static_cast<size_t>(i) % sides.size()];
      cold_batch.push_back({cold_object, side});
      warm_batch.push_back({warm_object, side});
    }

    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<double> cold = cold_service.AnswerBatch(cold_batch);
    record.ms_cold = MsSince(t0);

    warm_service.AnswerBatch(warm_batch);  // prime the cache
    // Best-of-3 passes of 5 reps: the perf gate tracks ms_warm, and a
    // single pass on a shared core is exposed to scheduler steal.
    constexpr int kWarmReps = 5;
    constexpr int kPasses = 3;
    std::vector<double> warm;
    record.ms_warm = std::numeric_limits<double>::infinity();
    for (int pass = 0; pass < kPasses; ++pass) {
      const auto t1 = std::chrono::steady_clock::now();
      for (int rep = 0; rep < kWarmReps; ++rep) {
        warm = warm_service.AnswerBatch(warm_batch);
      }
      record.ms_warm = std::min(record.ms_warm, MsSince(t1) / kWarmReps);
    }
    record.identical = warm == cold;

    PrintRow({I(record.n), I(record.edges), I(record.batch),
              I(record.distinct), F(record.ms_cold, 3), F(record.ms_warm, 3),
              F(record.speedup(), 1), record.identical ? "yes" : "NO"});
    records.push_back(record);
  }
  std::printf(
      "(a cached answer is still a logical query — the cache changes how\n"
      " many queries reach the backend, never the count or the bits)\n");
  return records;
}

struct DecodeRecord {
  int n = 0;
  int64_t bits = 0;
  double ms_cold = 0;
  double ms_warm = 0;
  bool matches_sessions = false;
  double speedup() const { return ms_warm > 0 ? ms_cold / ms_warm : 0; }
};

DecodeRecord SectionForEachDecode() {
  PrintBanner("SERVE/B",
              "For-each decode through the service: one batched call per "
              "sweep, cold vs warm");
  ForEachLowerBoundParams params;
  params.inv_epsilon = 16;
  params.sqrt_beta = 2;
  params.num_layers = 2;
  Rng rng(77);
  const std::vector<int8_t> s =
      rng.RandomSignString(static_cast<int>(params.total_bits()));
  const auto encoding = ForEachEncoder(params).Encode(s);
  const ForEachDecoder decoder(params);

  DecodeRecord record;
  record.n = params.num_vertices();
  record.bits = params.total_bits();
  std::vector<int64_t> qs;
  for (int64_t q = 0; q < params.total_bits(); ++q) qs.push_back(q);

  CutQueryService service;
  const auto object = service.RegisterGraph(encoding.graph);
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<int8_t> cold =
      DecodeForEachBits(decoder, qs, service, object);
  record.ms_cold = MsSince(t0);
  // Best-of-3 for gate stability; warm decodes are cache hits, so every
  // pass returns the same bits.
  std::vector<int8_t> warm;
  record.ms_warm = std::numeric_limits<double>::infinity();
  for (int pass = 0; pass < 3; ++pass) {
    const auto t1 = std::chrono::steady_clock::now();
    warm = DecodeForEachBits(decoder, qs, service, object);
    record.ms_warm = std::min(record.ms_warm, MsSince(t1));
  }

  // Reference: the per-bit incremental-session path.
  const CutOracle oracle = ExactCutOracle(encoding.graph);
  record.matches_sessions = warm == cold;
  for (size_t i = 0; i < qs.size() && record.matches_sessions; ++i) {
    record.matches_sessions =
        cold[i] == decoder.DecodeBit(qs[static_cast<int64_t>(i)], oracle);
  }

  PrintRow({"n", "bits", "cold(ms)", "warm(ms)", "speedup", "match"});
  PrintRule(6);
  PrintRow({I(record.n), I(record.bits), F(record.ms_cold, 3),
            F(record.ms_warm, 3), F(record.speedup(), 1),
            record.matches_sessions ? "yes" : "NO"});
  return record;
}

struct ThreadRecord {
  int threads = 0;
  double ms = 0;
  bool ran = false;                 // false ⇒ skipped (oversubscribed)
  bool answers_identical = false;   // vs the threads=1 baseline
};

struct ScalingResult {
  int batch = 0;
  int hardware_concurrency = 0;
  bool identical = true;
  bool truncated = false;  // some sweep points exceeded the hardware
  std::vector<ThreadRecord> records;
};

ScalingResult SectionThreadScaling(int max_threads) {
  PrintBanner("SERVE/C",
              "Batch thread scaling on a seeded oracle (nothing cacheable; "
              "every query computes)");
  Rng rng(55);
  const DirectedGraph graph = RandomBalancedDigraph(256, 0.3, 2.0, rng);
  const SeededCutOracleFactory factory = [](const DirectedGraph& g,
                                            Rng& oracle_rng) -> CutOracle {
    return NoisyCutOracle(g, 0.01, oracle_rng);
  };
  ScalingResult result;
  result.batch = 4096;
  result.hardware_concurrency = bench::HardwareConcurrencyOrOne();

  PrintRow({"threads", "time(ms)", "speedup", "identical"});
  PrintRule(4);
  std::vector<double> serial_answers;
  double ms_serial = 0;
  for (int threads = 1; threads <= max_threads; threads *= 2) {
    if (threads > result.hardware_concurrency) {
      // Oversubscribed points measure scheduler noise, not scaling; skip
      // them rather than record numbers a perf gate would trust.
      ThreadRecord skipped;
      skipped.threads = threads;
      result.truncated = true;
      result.records.push_back(skipped);
      PrintRow({I(threads), "skipped", "-", "-"});
      continue;
    }
    CutQueryServiceOptions options;
    options.num_threads = threads;
    CutQueryService service(options);
    const auto object = service.RegisterSeededOracle(graph, factory, 4242);
    Rng batch_rng(9);
    std::vector<CutQueryService::Query> batch;
    for (int i = 0; i < result.batch; ++i) {
      VertexSet side(256);
      do {
        for (auto& bit : side) {
          bit = static_cast<uint8_t>(batch_rng.Next() & 1);
        }
      } while (!IsProperCutSide(side));
      batch.push_back({object, std::move(side)});
    }
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<double> answers = service.AnswerBatch(batch);
    ThreadRecord record;
    record.threads = threads;
    record.ms = MsSince(t0);
    record.ran = true;
    if (threads == 1) {
      ms_serial = record.ms;
      serial_answers = answers;
      record.answers_identical = true;
    } else {
      record.answers_identical = answers == serial_answers;
      if (!record.answers_identical) result.identical = false;
    }
    PrintRow({I(threads), F(record.ms, 1),
              F(record.ms > 0 ? ms_serial / record.ms : 0, 2),
              record.answers_identical ? "yes" : "NO"});
    result.records.push_back(record);
  }
  std::printf("answers identical across thread counts: %s\n",
              result.identical ? "yes" : "NO (BUG)");
  if (result.truncated) {
    std::printf(
        "sweep truncated: hardware_concurrency=%d < max requested threads "
        "(oversubscribed points skipped)\n",
        result.hardware_concurrency);
  }
  return result;
}

void WriteJson(const std::string& path,
               const std::vector<CacheRecord>& cache_records,
               const DecodeRecord& decode_record,
               const ScalingResult& scaling) {
  JsonValue root = JsonValue::MakeObject();
  JsonValue cache_json = JsonValue::MakeArray();
  for (const CacheRecord& r : cache_records) {
    JsonValue entry = JsonValue::MakeObject();
    entry.Set("n", r.n);
    entry.Set("edges", r.edges);
    entry.Set("batch", r.batch);
    entry.Set("distinct_sides", r.distinct);
    entry.Set("ms_cold", r.ms_cold);
    entry.Set("ms_warm", r.ms_warm);
    entry.Set("speedup", r.speedup());
    entry.Set("identical", r.identical);
    cache_json.Append(std::move(entry));
  }
  root.Set("warm_vs_cold", std::move(cache_json));
  JsonValue decode_json = JsonValue::MakeObject();
  decode_json.Set("n", decode_record.n);
  decode_json.Set("bits", decode_record.bits);
  decode_json.Set("ms_cold", decode_record.ms_cold);
  decode_json.Set("ms_warm", decode_record.ms_warm);
  decode_json.Set("speedup", decode_record.speedup());
  decode_json.Set("matches_sessions", decode_record.matches_sessions);
  root.Set("foreach_decode", std::move(decode_json));
  JsonValue scaling_json = JsonValue::MakeObject();
  scaling_json.Set("batch", scaling.batch);
  scaling_json.Set("answers_identical", scaling.identical);
  scaling_json.Set("hardware_concurrency", scaling.hardware_concurrency);
  scaling_json.Set("truncated", scaling.truncated);
  JsonValue sweep = JsonValue::MakeArray();
  for (const ThreadRecord& r : scaling.records) {
    JsonValue entry = JsonValue::MakeObject();
    entry.Set("threads", r.threads);
    entry.Set("ms", r.ms);
    entry.Set("ran", r.ran);
    entry.Set("answers_identical", r.answers_identical);
    sweep.Append(std::move(entry));
  }
  scaling_json.Set("sweep", std::move(sweep));
  root.Set("thread_scaling", std::move(scaling_json));
  bench::WriteBenchJson(path, std::move(root));
}

}  // namespace dcs

int main(int argc, char** argv) {
  int threads = dcs::bench::ConsumeThreadsFlag(&argc, argv);
  if (threads == 1) {
    // Default sweep ceiling: what the machine actually has, capped at 8.
    // On a single-core machine that is 1 — the section refuses to time
    // oversubscribed points, so requesting more would only print skips.
    const int hw = dcs::bench::HardwareConcurrencyOrOne();
    threads = hw > 8 ? 8 : hw;
  }
  const std::string out_path =
      dcs::bench::ConsumeOutFlag(&argc, argv, "BENCH_serve.json");
  const auto cache_records = dcs::SectionWarmVsCold();
  const auto decode_record = dcs::SectionForEachDecode();
  const auto scaling = dcs::SectionThreadScaling(threads);
  dcs::WriteJson(out_path, cache_records, decode_record, scaling);
  return 0;
}
