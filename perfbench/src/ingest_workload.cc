// ingest: an in-process StreamIngestor fed by concurrent inserters, sealed
// with Barrier() every fixed number of updates and read back after each
// seal (README.md). No serve or store code runs.

#include <algorithm>
#include <barrier>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "stream/agm_sketch.h"
#include "stream/binary_stream.h"
#include "stream/ingest.h"
#include "trace.h"
#include "util/metrics.h"
#include "workloads.h"

namespace perfbench {
namespace {

using dcs::Status;
using dcs::StatusOr;

struct IngestParams {
  int n = 512;
  int shards = 8;
  int rounds = 4;  // Boruvka rounds, as bench_stream
  double delete_fraction = 0.2;
  // One episode replays the stream into a fresh ingestor, sealing every
  // seal_every updates.
  int64_t episode = int64_t{1} << 19;
  int64_t seal_every = int64_t{1} << 15;
  int64_t add_edge_probe = int64_t{1} << 16;
  int setups = 5;
};

// One inserter in the measured loop: it then times the update path and
// the barrier rather than lock contention among producers, which swings
// with every other process on the machine. ingest.scaling reports how
// throughput scales from one inserter to MaxInserters().
constexpr int kInserters = 1;

// One per core, at most 4: the scaling probe's inserters and the
// Barrier() threads.
int MaxInserters() {
  return std::clamp(static_cast<int>(std::thread::hardware_concurrency()), 1,
                    4);
}

dcs::StreamIngestorOptions IngestorOptions(const IngestParams& params) {
  dcs::StreamIngestorOptions options;
  options.num_shards = params.shards;
  options.num_threads = MaxInserters();
  options.rounds = params.rounds;
  return options;
}

// slices[r][t]: the updates inserter t pushes in seal round r. An edge
// always goes to the same inserter, so a delete follows its insert.
using Partition = std::vector<std::vector<std::vector<dcs::EdgeUpdate>>>;

struct IngestState {
  std::vector<dcs::EdgeUpdate> stream;
  std::vector<uint64_t> digests;  // serial reference digest after round r
  Partition partition;            // for kInserters
  uint64_t digest = 0;
};

Partition PartitionStream(const IngestParams& params,
                          const std::vector<dcs::EdgeUpdate>& stream,
                          int inserters) {
  const size_t rounds =
      static_cast<size_t>(params.episode / params.seal_every);
  Partition partition(rounds,
                      std::vector<std::vector<dcs::EdgeUpdate>>(
                          static_cast<size_t>(inserters)));
  for (size_t i = 0; i < stream.size(); ++i) {
    const dcs::EdgeUpdate& u = stream[i];
    const uint64_t key = MixDigest(std::min(u.u, u.v), std::max(u.u, u.v));
    partition[i / static_cast<size_t>(params.seal_every)]
             [key % static_cast<uint64_t>(inserters)]
                 .push_back(u);
  }
  return partition;
}

std::unique_ptr<IngestState> SetUpIngest(const Args& args,
                                         const IngestParams& params) {
  auto state = std::make_unique<IngestState>();
  dcs::Rng rng(dcs::SubtaskSeed(args.seed, 4));
  state->stream = dcs::RandomUpdateStream(params.n, params.episode,
                                          params.delete_fraction, rng);
  const dcs::StreamIngestorOptions options = IngestorOptions(params);
  dcs::AgmConnectivitySketch reference(params.n, options.rounds,
                                       options.seed);
  for (size_t i = 0; i < state->stream.size(); ++i) {
    const dcs::EdgeUpdate& u = state->stream[i];
    state->digest = MixDigest(state->digest,
                              (static_cast<uint64_t>(u.u) << 33) |
                                  (static_cast<uint64_t>(u.v) << 1) |
                                  (u.is_delete ? 1 : 0));
    if (u.is_delete) {
      reference.RemoveEdge(u.u, u.v);
    } else {
      reference.AddEdge(u.u, u.v);
    }
    if ((i + 1) % static_cast<size_t>(params.seal_every) == 0) {
      state->digests.push_back(reference.Digest());
    }
  }
  state->partition = PartitionStream(params, state->stream, kInserters);
  return state;
}

struct IngestPhase {
  int64_t updates = 0;
  int64_t failed = 0;
  double timed_s = 0;  // push + seal time of every round
  std::vector<OpSample> samples;  // one per seal
  std::vector<double> round_us;
  double push_ns = 0;  // summed over inserter-rounds
  int64_t pushes = 0;
  int64_t episodes = 0;
};

// One episode: a fresh ingestor (not timed), then every seal round timed
// from the inserters' start to the end of the snapshot read.
Status RunEpisode(const IngestParams& params, const IngestState& state,
                  const Partition& partition, int inserters, Tracer* tracer,
                  IngestPhase& phase) {
  dcs::StreamIngestor ingestor(params.n, IngestorOptions(params));
  const int64_t episode = phase.episodes++;
  std::vector<SpanBuffer*> spans(static_cast<size_t>(inserters) + 1, nullptr);
  if (tracer != nullptr) {
    for (SpanBuffer*& buffer : spans) buffer = &tracer->NewBuffer();
  }
  std::barrier sync(inserters + 1);
  std::vector<int64_t> failed(static_cast<size_t>(inserters), 0);
  std::vector<double> push_ns(static_cast<size_t>(inserters), 0);
  std::vector<int64_t> partition_updates(partition.size(), 0);
  for (size_t r = 0; r < partition.size(); ++r) {
    for (const auto& slice : partition[r]) {
      partition_updates[r] += static_cast<int64_t>(slice.size());
    }
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < inserters; ++t) {
    threads.emplace_back([&, t] {
      SpanBuffer* buffer = spans[static_cast<size_t>(t) + 1];
      for (size_t r = 0; r < partition.size(); ++r) {
        sync.arrive_and_wait();
        const auto& slice = partition[r][static_cast<size_t>(t)];
        const int64_t start = NowNs();
        {
          ScopedSpan span(buffer, "ingest.push",
                          (episode << 20) | static_cast<int64_t>(r));
          for (const dcs::EdgeUpdate& update : slice) {
            if (!ingestor.Push(update).ok()) ++failed[static_cast<size_t>(t)];
          }
        }
        push_ns[static_cast<size_t>(t)] +=
            static_cast<double>(NowNs() - start);
        sync.arrive_and_wait();
      }
    });
  }
  SpanBuffer* main_spans = spans[0];
  Status error = dcs::OkStatus();
  for (size_t r = 0; r < partition.size(); ++r) {
    const int64_t request = (episode << 20) | static_cast<int64_t>(r);
    const auto round_start = Clock::now();
    sync.arrive_and_wait();  // inserters start
    sync.arrive_and_wait();  // every slice of round r is pushed
    const auto seal_start = Clock::now();
    StatusOr<int64_t> sealed = [&] {
      ScopedSpan span(main_spans, "ingest.barrier", request);
      return ingestor.Barrier();
    }();
    uint64_t digest = 0;
    {
      ScopedSpan span(main_spans, "ingest.snapshot_read", request);
      const std::shared_ptr<const dcs::StreamSnapshot> snapshot =
          ingestor.snapshot();
      digest = snapshot->digest;
      uint64_t forest = static_cast<uint64_t>(snapshot->components);
      for (const dcs::Edge& e : snapshot->forest) {
        forest = MixDigest(forest, static_cast<uint64_t>(e.src) ^
                                       (static_cast<uint64_t>(e.dst) << 32));
      }
      if (forest == 0) digest ^= 1;  // keep the read from being elided
    }
    const double seal_us = SecondsSince(seal_start) * 1e6;
    const double round_s = SecondsSince(round_start);
    if (!sealed.ok() && error.ok()) error = sealed.status();
    if (error.ok() && digest != state.digests[r]) {
      error = dcs::InternalError(
          "correctness check failed: sealed digest after round " +
          std::to_string(r) + " differs from the serial AGM reference");
    }
    phase.timed_s += round_s;
    phase.samples.push_back(
        {phase.timed_s, seal_us,
         static_cast<double>(partition_updates[r])});
    phase.round_us.push_back(round_s * 1e6);
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < inserters; ++t) {
    phase.failed += failed[static_cast<size_t>(t)];
    phase.push_ns += push_ns[static_cast<size_t>(t)];
  }
  phase.updates += static_cast<int64_t>(state.stream.size());
  phase.pushes += static_cast<int64_t>(state.stream.size());
  return error;
}

StatusOr<IngestPhase> RunIngestPhase(const IngestParams& params,
                                     const IngestState& state, double seconds,
                                     Tracer* tracer) {
  IngestPhase phase;
  const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
  do {
    DCS_RETURN_IF_ERROR(RunEpisode(params, state, state.partition,
                                   kInserters, tracer, phase));
  } while (Clock::now() < deadline);
  return phase;
}

}  // namespace

StatusOr<Result> RunIngest(const Args& args, Tracer& tracer) {
  IngestParams params;
  if (args.smoke) {
    params.n = 64;
    params.episode = int64_t{1} << 14;
    params.seal_every = int64_t{1} << 11;
    params.add_edge_probe = int64_t{1} << 10;
    params.setups = 1;
  }
  std::vector<double> setup_s;
  std::unique_ptr<IngestState> state;
  for (int i = 0; i < params.setups; ++i) {
    state.reset();
    const auto start = Clock::now();
    state = SetUpIngest(args, params);
    setup_s.push_back(SecondsSince(start));
  }
  if (args.break_check) state->digests[0] ^= 1;

  Result result;
  char digest[64];
  std::snprintf(digest, sizeof(digest), "inputs_digest=%016llx",
                static_cast<unsigned long long>(state->digest));
  result.notes.push_back(digest);
  result.notes.push_back(
      "stream: n=" + std::to_string(params.n) + ", " +
      std::to_string(params.episode) + " updates per episode (" +
      std::to_string(static_cast<int>(params.delete_fraction * 100)) +
      "% deletes), seal every " + std::to_string(params.seal_every) + ", " +
      std::to_string(kInserters) + " inserter, " +
      std::to_string(params.shards) + " shards, k=0");

  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  DCS_ASSIGN_OR_RETURN(const IngestPhase plain,
                       RunIngestPhase(params, *state, untraced_s, nullptr));
  IngestPhase traced;
  if (args.trace) {
    const auto before = dcs::metrics::Registry::Get().Snapshot();
    DCS_ASSIGN_OR_RETURN(traced, RunIngestPhase(params, *state,
                                                args.seconds / 2, &tracer));
    const auto after = dcs::metrics::Registry::Get().Snapshot();

    // The raw sketch update on one thread, over the stream's own inserts.
    SpanBuffer& spans = tracer.NewBuffer();
    const dcs::StreamIngestorOptions options = IngestorOptions(params);
    dcs::AgmConnectivitySketch sketch(params.n, options.rounds, options.seed);
    int64_t added = 0;
    spans.Open("agm.add_edge", 0);
    for (const dcs::EdgeUpdate& u : state->stream) {
      if (u.is_delete) continue;
      sketch.AddEdge(u.u, u.v);
      if (++added == params.add_edge_probe) break;
    }
    const double add_edge_ns =
        spans.Close() * 1000.0 / static_cast<double>(added);

    // Scaling: one episode with a single inserter against one with all of
    // them, same stream.
    IngestPhase one, most;
    DCS_RETURN_IF_ERROR(RunEpisode(params, *state,
                                   PartitionStream(params, state->stream, 1),
                                   1, nullptr, one));
    DCS_RETURN_IF_ERROR(RunEpisode(
        params, *state,
        PartitionStream(params, state->stream, MaxInserters()),
        MaxInserters(), nullptr, most));
    const double scaling = (static_cast<double>(most.updates) / most.timed_s) /
                           (static_cast<double>(one.updates) / one.timed_s);
    result.notes.push_back(
        "ingest.scaling base: " + std::to_string(MaxInserters()) +
        " inserters " +
        std::to_string(static_cast<double>(most.updates) / most.timed_s) +
        " vs 1 inserter " +
        std::to_string(static_cast<double>(one.updates) / one.timed_s) +
        " updates/s");
    result.per_layer.insert(
        result.per_layer.end(),
        {{"agm.add_edge_ns", add_edge_ns, "ns"},
         {"ingest.push_ns",
          traced.push_ns / static_cast<double>(traced.pushes), "ns"},
         {"ingest.barrier_ms",
          Median(tracer.Durations("ingest.barrier")) / 1000.0, "ms"},
         {"ingest.snapshot_read_us",
          Median(tracer.Durations("ingest.snapshot_read")), "us"},
         {"ingest.scaling", scaling, "ratio"},
         {"threadpool.loop_ms",
          DistributionMeanDelta(before, after,
                                "threadpool.loop.duration_ns") /
              1e6,
          "ms"},
         {"trace.overhead_pct",
          TraceOverheadPct(Median(plain.round_us), Median(traced.round_us)),
          "%"}});
  }
  result.attempted = plain.updates + traced.updates;
  result.failed = plain.failed + traced.failed;

  EndToEnd e2e;
  e2e.setup_s = Median(setup_s);
  e2e.samples = plain.samples;
  e2e.peak_rss_mb = SelfPeakRssMb();
  AddEndToEnd(e2e, {"updates_per_s", "seal_p50_ms", "seal_tail_ms", "ms"},
              result);
  result.notes.push_back(std::to_string(plain.episodes) +
                         " episodes; every seal digest matched the serial "
                         "reference");
  return result;
}

}  // namespace perfbench
