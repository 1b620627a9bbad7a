// cluster_warm and register_restart: the multi-process serving tier
// driven through ClusterClient against real dcs_server workers on Unix
// sockets (README.md).

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "graph/generators.h"
#include "graph/zoo.h"
#include "serve/cluster.h"
#include "serve/cluster_client.h"
#include "serve/cut_query_service.h"
#include "serve/transport.h"
#include "serve/wire.h"
#include "sketch/serialization.h"
#include "store/sketch_store.h"
#include "trace.h"
#include "util/bitio.h"
#include "util/metrics.h"
#include "workloads.h"

namespace perfbench {
namespace {

using dcs::Status;
using dcs::StatusOr;

constexpr int kWorkers = 2;
constexpr int kReplication = 2;
constexpr int kReadyTimeoutMs = 10000;
constexpr int kIoTimeoutMs = 10000;

dcs::ClusterWorkerOptions WorkerOptions(const std::string& store_dir) {
  dcs::ClusterWorkerOptions options;
  options.num_shards = 2;
  options.queue_capacity = 64;
  // The drain on SIGTERM waits for the next stop-flag poll; a short
  // cadence keeps restart time about the restart, not the poll.
  options.accept_timeout_ms = 20;
  options.store_dir = store_dir;
  return options;
}

dcs::ClusterClientOptions ClientOptions(uint64_t seed) {
  dcs::ClusterClientOptions options;
  options.replication = kReplication;
  options.transport.io_timeout_ms = kIoTimeoutMs;
  options.seed = seed;
  return options;
}

// kWorkers dcs_server processes on Unix sockets inside one directory.
class Fleet {
 public:
  static StatusOr<Fleet> Spawn(const Args& args, const std::string& dir,
                               bool with_store) {
    Fleet fleet;
    fleet.binary_ = args.server_binary;
    for (int i = 0; i < kWorkers; ++i) {
      DCS_ASSIGN_OR_RETURN(
          dcs::Endpoint endpoint,
          dcs::ParseEndpoint("unix:" + dir + "/w" + std::to_string(i) +
                             ".sock"));
      fleet.endpoints_.push_back(endpoint);
      fleet.store_dirs_.push_back(
          with_store ? dir + "/store" + std::to_string(i) : "");
      fleet.workers_.emplace_back();
      DCS_RETURN_IF_ERROR(fleet.Respawn(i).status());
    }
    return fleet;
  }

  // (Re)starts worker i on its endpoint and store; returns the time from
  // fork to the first answered ping, in ms.
  StatusOr<double> Respawn(int i) {
    const auto start = Clock::now();
    DCS_ASSIGN_OR_RETURN(
        workers_[static_cast<size_t>(i)],
        Worker::Spawn(binary_, endpoints_[static_cast<size_t>(i)],
                      WorkerOptions(store_dirs_[static_cast<size_t>(i)]),
                      kReadyTimeoutMs));
    const double ms = SecondsSince(start) * 1000.0;
    ready_ms.push_back(ms);
    return ms;
  }

  Status DrainAll() {
    Status first = dcs::OkStatus();
    for (Worker& worker : workers_) {
      if (!worker.running()) continue;
      const Status drained = worker.Drain();
      if (first.ok() && !drained.ok()) first = drained;
    }
    return first;
  }

  const std::vector<dcs::Endpoint>& endpoints() const { return endpoints_; }
  Worker& worker(int i) { return workers_[static_cast<size_t>(i)]; }
  const std::string& store_dir(int i) const {
    return store_dirs_[static_cast<size_t>(i)];
  }

  std::vector<double> ready_ms;

 private:
  std::string binary_;
  std::vector<dcs::Endpoint> endpoints_;
  std::vector<std::string> store_dirs_;
  std::vector<Worker> workers_;
};

// A connected socket pair inside the benchmark: the transport layer timed
// on its own. One thread sends; a receiver thread, parked in Receive like a
// worker's connection thread, stamps the moment the message is complete.
class Loopback {
 public:
  static StatusOr<std::unique_ptr<Loopback>> Create() {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0,
                     fds) != 0) {
      return dcs::UnavailableError(std::string("socketpair: ") +
                                   std::strerror(errno));
    }
    return std::unique_ptr<Loopback>(new Loopback(fds[0], fds[1]));
  }

  ~Loopback() {
    sender_.Close();  // the receiver sees EOF and returns
    if (thread_.joinable()) thread_.join();
  }

  // Send start to receive complete, in µs.
  StatusOr<double> OneWayUs(const dcs::Message& message) {
    const int64_t expected = ++sent_;
    const int64_t start = NowNs();
    DCS_RETURN_IF_ERROR(sender_.Send(message, kIoTimeoutMs));
    while (received_.load(std::memory_order_acquire) < expected) {
      if (NowNs() - start > int64_t{kIoTimeoutMs} * 1000000) {
        return dcs::DeadlineExceededError("loopback receive timed out");
      }
    }
    if (!receive_ok_.load(std::memory_order_acquire) ||
        received_bits_ != message.bit_count) {
      return dcs::DataLossError("loopback message did not arrive intact");
    }
    return static_cast<double>(received_end_ns_ - start) / 1000.0;
  }

 private:
  Loopback(int send_fd, int receive_fd)
      : sender_(send_fd), receiver_(receive_fd) {
    thread_ = std::thread([this] {
      while (true) {
        auto message = receiver_.Receive(60000);
        received_end_ns_ = NowNs();
        if (message.ok()) received_bits_ = message->bit_count;
        receive_ok_.store(message.ok(), std::memory_order_relaxed);
        received_.fetch_add(1, std::memory_order_release);
        if (!message.ok()) return;
      }
    });
  }

  dcs::Connection sender_;
  dcs::Connection receiver_;
  std::thread thread_;
  int64_t sent_ = 0;
  std::atomic<int64_t> received_{0};
  std::atomic<bool> receive_ok_{false};
  int64_t received_end_ns_ = 0;
  int64_t received_bits_ = 0;
};

Status CheckAnswers(const std::vector<double>& got,
                    const std::vector<double>& want, const std::string& what) {
  if (SameBits(got, want)) return dcs::OkStatus();
  return dcs::InternalError("correctness check failed: " + what +
                            " differs from the in-process reference");
}

// The worker-side and client-side encode/decode pieces of one RPC, timed
// on the workload's own request, plus the in-process execution and the two
// one-way transport hops. Spans are recorded under `request`.
struct RpcPieces {
  double encode_request = 0, decode_request = 0, execute = 0,
         encode_response = 0, decode_response = 0, request_hop = 0,
         response_hop = 0;
  int64_t request_bytes = 0, response_bytes = 0;
  dcs::RpcResponse response;
  double total() const {
    return encode_request + decode_request + execute + encode_response +
           decode_response + request_hop + response_hop;
  }
};

StatusOr<RpcPieces> TimeRpcPieces(const dcs::RpcRequest& request,
                                  dcs::ClusterWorker& worker,
                                  Loopback& loopback, SpanBuffer& spans,
                                  int64_t id) {
  RpcPieces pieces;
  ScopedSpan root(&spans, "replay.rpc", id);
  spans.Open("wire.encode_request", id);
  const dcs::Message request_message = dcs::EncodeRpcRequest(request);
  pieces.encode_request = spans.Close();
  pieces.request_bytes = static_cast<int64_t>(request_message.bytes.size());
  spans.Open("transport.request", id);
  DCS_ASSIGN_OR_RETURN(pieces.request_hop, loopback.OneWayUs(request_message));
  spans.Close();
  spans.Open("wire.decode_request", id);
  auto decoded = dcs::DecodeRpcRequest(request_message);
  pieces.decode_request = spans.Close();
  DCS_RETURN_IF_ERROR(decoded.status());
  spans.Open("cluster.execute", id);
  pieces.response = worker.Execute(*decoded);
  pieces.execute = spans.Close();
  DCS_RETURN_IF_ERROR(pieces.response.status);
  spans.Open("wire.encode_response", id);
  const dcs::Message response_message =
      dcs::EncodeRpcResponse(pieces.response);
  pieces.encode_response = spans.Close();
  pieces.response_bytes = static_cast<int64_t>(response_message.bytes.size());
  spans.Open("transport.response", id);
  DCS_ASSIGN_OR_RETURN(pieces.response_hop,
                       loopback.OneWayUs(response_message));
  spans.Close();
  spans.Open("wire.decode_response", id);
  auto response = dcs::DecodeRpcResponse(response_message);
  pieces.decode_response = spans.Close();
  DCS_RETURN_IF_ERROR(response.status());
  if (!SameBits(response->values, pieces.response.values)) {
    return dcs::InternalError("response did not survive the wire");
  }
  return pieces;
}

// An in-process ClusterWorker (never Serve()d: requests go straight to
// Execute) bound inside `dir`.
StatusOr<std::unique_ptr<dcs::ClusterWorker>> InProcessWorker(
    const std::string& dir, const std::string& store_dir) {
  DCS_ASSIGN_OR_RETURN(dcs::Endpoint endpoint,
                       dcs::ParseEndpoint("unix:" + dir + "/inproc.sock"));
  return dcs::ClusterWorker::Create(endpoint, WorkerOptions(store_dir));
}

dcs::RpcRequest QueryRequest(int64_t object_id, int n,
                             std::vector<dcs::VertexSet> sides) {
  dcs::RpcRequest request;
  request.kind = dcs::RpcKind::kQueryBatch;
  request.object_id = object_id;
  request.num_vertices = n;
  request.sides = std::move(sides);
  return request;
}

// ---------------------------------------------------------------------------
// cluster_warm

struct WarmParams {
  int n = 128;
  int pool = 64;
  int batch = 16;
  int clients = 2;
  int setups = 5;
  int max_replays = 2000;
};

struct WarmState {
  ScratchDir scratch;
  Fleet fleet;
  dcs::DirectedGraph graph{0};
  std::unique_ptr<dcs::CutQueryService> reference;
  int64_t reference_id = 0;
  std::vector<std::vector<dcs::VertexSet>> pools;  // per client
  std::vector<std::vector<double>> expected;       // per client
  std::vector<std::unique_ptr<dcs::ClusterClient>> clients;
  std::vector<int64_t> handles;
  uint64_t digest = 0;
};

std::vector<dcs::VertexSet> Pick(const std::vector<dcs::VertexSet>& pool,
                                 const std::vector<int>& indices) {
  std::vector<dcs::VertexSet> sides;
  sides.reserve(indices.size());
  for (const int i : indices) sides.push_back(pool[static_cast<size_t>(i)]);
  return sides;
}

std::vector<double> PickValues(const std::vector<double>& values,
                               const std::vector<int>& indices) {
  std::vector<double> out;
  out.reserve(indices.size());
  for (const int i : indices) out.push_back(values[static_cast<size_t>(i)]);
  return out;
}

StatusOr<std::unique_ptr<WarmState>> SetUpWarm(const Args& args,
                                               const WarmParams& params) {
  auto state = std::make_unique<WarmState>();
  DCS_ASSIGN_OR_RETURN(state->scratch, ScratchDir::Create(kScratchRoot));
  dcs::ZooOptions zoo;
  zoo.n = params.n;
  zoo.beta = 2.0;
  zoo.seed = dcs::SubtaskSeed(args.seed, 1);
  state->graph =
      dcs::MakeZooInstance(dcs::ZooFamily::kPlantedCut, zoo).graph;
  const int n = state->graph.num_vertices();
  state->digest = MixDigest(static_cast<uint64_t>(n),
                            static_cast<uint64_t>(state->graph.num_edges()));
  for (const dcs::Edge& e : state->graph.edges()) {
    state->digest = MixDigest(state->digest,
                              static_cast<uint64_t>(e.src) * 65536 + e.dst);
  }

  state->reference = std::make_unique<dcs::CutQueryService>();
  state->reference_id = state->reference->RegisterGraph(state->graph);
  for (int c = 0; c < params.clients; ++c) {
    dcs::Rng rng(dcs::SubtaskSeed(args.seed, 100 + c));
    std::vector<dcs::VertexSet> pool;
    std::vector<dcs::CutQueryService::Query> queries;
    for (int i = 0; i < params.pool; ++i) {
      pool.push_back(RandomSide(n, rng));
      queries.push_back({state->reference_id, pool.back()});
    }
    state->expected.push_back(state->reference->AnswerBatch(queries));
    state->pools.push_back(std::move(pool));
  }

  DCS_ASSIGN_OR_RETURN(state->fleet,
                       Fleet::Spawn(args, state->scratch.path(), false));
  for (int c = 0; c < params.clients; ++c) {
    state->clients.push_back(std::make_unique<dcs::ClusterClient>(
        state->fleet.endpoints(),
        ClientOptions(dcs::SubtaskSeed(args.seed, 200 + c))));
    DCS_ASSIGN_OR_RETURN(const int64_t handle,
                         state->clients.back()->RegisterReplicated(
                             state->graph));
    state->handles.push_back(handle);
    // Warm-up: every pool side once, so the worker cache holds them all.
    for (int start = 0; start < params.pool; start += params.batch) {
      std::vector<int> indices;
      for (int i = start; i < std::min(params.pool, start + params.batch);
           ++i) {
        indices.push_back(i);
      }
      DCS_ASSIGN_OR_RETURN(
          const std::vector<double> values,
          state->clients.back()->AnswerBatch(
              handle, Pick(state->pools[static_cast<size_t>(c)], indices)));
      DCS_RETURN_IF_ERROR(CheckAnswers(
          values, PickValues(state->expected[static_cast<size_t>(c)], indices),
          "warm-up batch"));
    }
  }
  return state;
}

struct WarmLoop {
  std::vector<OpSample> samples;
  int64_t batches = 0;
  int64_t failed = 0;
  int64_t exhausted = 0;
  // Traced batches kept for the replay: request id and pool indices.
  std::vector<std::pair<int64_t, std::vector<int>>> traced;
  Status error = dcs::OkStatus();
};

struct WarmPhase {
  std::vector<OpSample> samples;
  int64_t batches = 0;
  int64_t failed = 0;
  int64_t exhausted = 0;
  std::vector<std::pair<int, std::pair<int64_t, std::vector<int>>>> traced;
};

// Closed loop: each client thread sends its next batch when the previous
// answer is back and checked.
StatusOr<WarmPhase> RunWarmPhase(const Args& args, const WarmParams& params,
                                 WarmState& state, double seconds, int phase,
                                 Tracer* tracer) {
  std::vector<WarmLoop> loops(static_cast<size_t>(params.clients));
  std::vector<SpanBuffer*> buffers(static_cast<size_t>(params.clients),
                                   nullptr);
  if (tracer != nullptr) {
    for (SpanBuffer*& buffer : buffers) buffer = &tracer->NewBuffer();
  }
  std::atomic<bool> go{false};
  Clock::time_point start;
  std::vector<std::thread> threads;
  for (int c = 0; c < params.clients; ++c) {
    threads.emplace_back([&, c] {
      WarmLoop& loop = loops[static_cast<size_t>(c)];
      SpanBuffer* spans = buffers[static_cast<size_t>(c)];
      dcs::ClusterClient& client = *state.clients[static_cast<size_t>(c)];
      const auto& pool = state.pools[static_cast<size_t>(c)];
      const auto& expected = state.expected[static_cast<size_t>(c)];
      dcs::Rng rng(dcs::SubtaskSeed(args.seed, 300 + 16 * phase + c));
      while (!go.load(std::memory_order_acquire)) {
      }
      const auto deadline =
          Clock::now() + std::chrono::duration<double>(seconds);
      std::vector<int> indices(static_cast<size_t>(params.batch));
      while (Clock::now() < deadline) {
        for (int& i : indices) {
          i = static_cast<int>(rng.UniformInt(pool.size()));
        }
        const std::vector<dcs::VertexSet> sides = Pick(pool, indices);
        const int64_t request = (int64_t{c + 1} << 32) | loop.batches;
        const auto t0 = Clock::now();
        StatusOr<std::vector<double>> values = [&] {
          ScopedSpan span(spans, "cluster.rpc", request);
          return client.AnswerBatch(state.handles[static_cast<size_t>(c)],
                                    sides);
        }();
        const double us = SecondsSince(t0) * 1e6;
        ++loop.batches;
        if (!values.ok()) {
          ++loop.failed;
          if (values.status().code() == dcs::StatusCode::kResourceExhausted) {
            ++loop.exhausted;
          }
          continue;
        }
        const Status checked =
            CheckAnswers(*values, PickValues(expected, indices),
                         "cluster_warm batch");
        if (!checked.ok()) {
          loop.error = checked;
          return;
        }
        loop.samples.push_back(
            {SecondsSince(start), us, static_cast<double>(params.batch)});
        if (spans != nullptr &&
            static_cast<int>(loop.traced.size()) <
                params.max_replays / params.clients) {
          loop.traced.emplace_back(request, indices);
        }
      }
    });
  }
  start = Clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  WarmPhase out;
  for (int c = 0; c < params.clients; ++c) {
    WarmLoop& loop = loops[static_cast<size_t>(c)];
    DCS_RETURN_IF_ERROR(loop.error);
    out.samples.insert(out.samples.end(), loop.samples.begin(),
                       loop.samples.end());
    out.batches += loop.batches;
    out.failed += loop.failed;
    out.exhausted += loop.exhausted;
    for (auto& traced : loop.traced) {
      out.traced.emplace_back(c, std::move(traced));
    }
  }
  return out;
}

// Replays the traced batches layer by layer inside this process.
Status ReplayWarm(const WarmParams& params, WarmState& state,
                  const WarmPhase& traced, Tracer& tracer, Result& result) {
  SpanBuffer& spans = tracer.NewBuffer();
  DCS_ASSIGN_OR_RETURN(auto worker,
                       InProcessWorker(state.scratch.path(), ""));
  DCS_ASSIGN_OR_RETURN(auto loopback, Loopback::Create());
  dcs::RpcRequest registration;
  registration.kind = dcs::RpcKind::kRegisterGraph;
  registration.graph = state.graph;
  const dcs::RpcResponse registered = worker->Execute(registration);
  DCS_RETURN_IF_ERROR(registered.status);
  const int n = state.graph.num_vertices();
  // Warm the in-process worker's cache the way the real workers were.
  for (int c = 0; c < params.clients; ++c) {
    const dcs::RpcResponse warm = worker->Execute(QueryRequest(
        registered.object_id, n, state.pools[static_cast<size_t>(c)]));
    DCS_RETURN_IF_ERROR(warm.status);
  }

  const auto before = dcs::metrics::Registry::Get().Snapshot();
  std::vector<double> unaccounted;
  const std::map<int64_t, double> rpc = tracer.DurationByRequest("cluster.rpc");
  int64_t request_bytes = 0, response_bytes = 0;
  for (const auto& [c, entry] : traced.traced) {
    const auto& [request_id, indices] = entry;
    const auto& pool = state.pools[static_cast<size_t>(c)];
    DCS_ASSIGN_OR_RETURN(
        const RpcPieces pieces,
        TimeRpcPieces(QueryRequest(registered.object_id, n,
                                   Pick(pool, indices)),
                      *worker, *loopback, spans, request_id));
    DCS_RETURN_IF_ERROR(CheckAnswers(
        pieces.response.values,
        PickValues(state.expected[static_cast<size_t>(c)], indices),
        "in-process replay"));
    std::vector<dcs::CutQueryService::Query> queries;
    for (const int i : indices) {
      queries.push_back({state.reference_id, pool[static_cast<size_t>(i)]});
    }
    {
      ScopedSpan span(&spans, "service.answer_batch", request_id);
      state.reference->AnswerBatch(queries);
    }
    request_bytes = pieces.request_bytes;
    response_bytes = pieces.response_bytes;
    unaccounted.push_back(rpc.at(request_id) - pieces.total());
  }
  const auto after = dcs::metrics::Registry::Get().Snapshot();
  const int64_t hits = CounterDelta(before, after, "serve.cache.hits");
  const int64_t misses = CounterDelta(before, after, "serve.cache.misses");

  const auto median = [&tracer](const char* name) {
    return Median(tracer.Durations(name));
  };
  result.per_layer.insert(
      result.per_layer.end(),
      {{"wire.encode_request_us", median("wire.encode_request"), "us"},
       {"wire.decode_request_us", median("wire.decode_request"), "us"},
       {"wire.encode_response_us", median("wire.encode_response"), "us"},
       {"wire.decode_response_us", median("wire.decode_response"), "us"},
       {"wire.request_bytes", static_cast<double>(request_bytes), "bytes"},
       {"wire.response_bytes", static_cast<double>(response_bytes), "bytes"},
       {"transport.send_recv_us", median("transport.request"), "us"},
       {"cluster.rpc_us", median("cluster.rpc"), "us"},
       {"cluster.unaccounted_us", Median(unaccounted), "us"},
       {"service.answer_batch_us", median("service.answer_batch"), "us"},
       {"cache.hit_ratio",
        hits + misses == 0 ? 0.0
                           : static_cast<double>(hits) /
                                 static_cast<double>(hits + misses),
        "ratio"},
       {"cache.lookups", static_cast<double>(hits + misses), "count"}});
  result.notes.push_back("replayed " + std::to_string(unaccounted.size()) +
                         " traced batches layer by layer in process");
  return dcs::OkStatus();
}

}  // namespace

StatusOr<Result> RunClusterWarm(const Args& args, Tracer& tracer) {
  WarmParams params;
  if (args.smoke) {
    params.n = 48;
    params.pool = 16;
    params.batch = 8;
    params.setups = 1;
    params.max_replays = 100;
  }
  // Set up several times; the last set-up serves the measurement.
  std::vector<double> setup_s;
  std::vector<double> ready_ms;
  std::unique_ptr<WarmState> state;
  for (int i = 0; i < params.setups; ++i) {
    state.reset();
    const auto start = Clock::now();
    DCS_ASSIGN_OR_RETURN(state, SetUpWarm(args, params));
    setup_s.push_back(SecondsSince(start));
    ready_ms.insert(ready_ms.end(), state->fleet.ready_ms.begin(),
                    state->fleet.ready_ms.end());
  }
  if (args.break_check) {
    state->expected[0][0] = std::nextafter(state->expected[0][0], 1e300);
  }

  Result result;
  char digest[64];
  std::snprintf(digest, sizeof(digest), "inputs_digest=%016llx",
                static_cast<unsigned long long>(state->digest));
  result.notes.push_back(digest);
  result.notes.push_back(
      "graph: planted_cut n=" + std::to_string(state->graph.num_vertices()) +
      " m=" + std::to_string(state->graph.num_edges()) + "; " +
      std::to_string(params.clients) + " clients x pool " +
      std::to_string(params.pool) + ", batch " +
      std::to_string(params.batch) + ", R=" + std::to_string(kReplication));

  const auto before = dcs::metrics::Registry::Get().Snapshot();
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  DCS_ASSIGN_OR_RETURN(const WarmPhase plain,
                       RunWarmPhase(args, params, *state, untraced_s, 0,
                                    nullptr));
  WarmPhase traced;
  if (args.trace) {
    DCS_ASSIGN_OR_RETURN(traced, RunWarmPhase(args, params, *state,
                                              args.seconds / 2, 1, &tracer));
  }
  const auto after = dcs::metrics::Registry::Get().Snapshot();
  result.attempted = (plain.batches + traced.batches) * params.batch;
  result.failed = (plain.failed + traced.failed) * params.batch;

  if (args.trace) {
    DCS_RETURN_IF_ERROR(ReplayWarm(params, *state, traced, tracer, result));
    result.per_layer.insert(
        result.per_layer.end(),
        {{"client.failovers",
          static_cast<double>(CounterDelta(
              before, after, "serve.cluster_client.failovers")),
          "count"},
         {"client.resource_exhausted",
          static_cast<double>(plain.exhausted + traced.exhausted), "count"},
         {"worker.ready_ms", Median(ready_ms), "ms"},
         {"trace.overhead_pct",
          TraceOverheadPct(Median(LatenciesUs(plain.samples)),
                           Median(LatenciesUs(traced.samples))),
          "%"}});
  }

  state->clients.clear();
  DCS_RETURN_IF_ERROR(state->fleet.DrainAll());
  EndToEnd e2e;
  e2e.setup_s = Median(setup_s);
  e2e.samples = plain.samples;
  e2e.peak_rss_mb = SelfPeakRssMb() + LargestChildPeakRssMb();
  AddEndToEnd(e2e, {"query_qps", "query_p50_us", "query_p99_us"}, result);
  result.notes.push_back("peak_rss_mb: benchmark " +
                         std::to_string(SelfPeakRssMb()) +
                         " MB + largest worker " +
                         std::to_string(LargestChildPeakRssMb()) + " MB");
  return result;
}

// ---------------------------------------------------------------------------
// register_restart

namespace {

struct RestartParams {
  int n = 256;
  // Graph i of a round has about min_edges << shifts[i] edges: 1K to 16K,
  // two of each size and four of the middle one, interleaved so that any
  // prefix of a round is balanced around the middle. The median
  // registration then sits well inside the middle size, not on the edge
  // between two sizes, whatever share of a round a window holds.
  int64_t min_edges = 1024;
  std::vector<int> shifts = {2, 0, 4, 2, 1, 3, 2, 4, 0, 3, 1, 2};
  int restart_every = 4;
  int verify_sides = 16;
  int setups = 5;
};

struct RestartState {
  ScratchDir scratch;
  Fleet fleet;
  std::vector<dcs::DirectedGraph> graphs;
  std::unique_ptr<dcs::CutQueryService> reference;
  std::vector<std::vector<dcs::VertexSet>> sides;  // per graph
  std::vector<std::vector<double>> expected;       // per graph
  std::unique_ptr<dcs::ClusterClient> client;
  // True until a round has registered on the current fleet.
  bool fresh = true;
  uint64_t digest = 0;
};

StatusOr<std::unique_ptr<RestartState>> SetUpRestart(
    const Args& args, const RestartParams& params) {
  auto state = std::make_unique<RestartState>();
  DCS_ASSIGN_OR_RETURN(state->scratch, ScratchDir::Create(kScratchRoot));
  const int n = params.n;
  dcs::Rng rng(dcs::SubtaskSeed(args.seed, 2));
  for (const int shift : params.shifts) {
    // RandomBalancedDigraph keeps each pair with probability p as two
    // edges, plus a bidirected Hamiltonian cycle (2n edges).
    const int64_t target = params.min_edges << shift;
    const double p = std::clamp(
        static_cast<double>(target - 2 * n) / (double{1.0} * n * (n - 1)),
        0.0, 1.0);
    state->graphs.push_back(dcs::RandomBalancedDigraph(n, p, 2.0, rng));
    state->digest = MixDigest(state->digest, static_cast<uint64_t>(
                                                 state->graphs.back()
                                                     .num_edges()));
  }
  state->reference = std::make_unique<dcs::CutQueryService>();
  for (const dcs::DirectedGraph& graph : state->graphs) {
    const int64_t id = state->reference->RegisterGraph(graph);
    std::vector<dcs::VertexSet> sides;
    std::vector<dcs::CutQueryService::Query> queries;
    for (int k = 0; k < params.verify_sides; ++k) {
      sides.push_back(RandomSide(n, rng));
      queries.push_back({id, sides.back()});
      for (const uint8_t bit : sides.back()) {
        state->digest = MixDigest(state->digest, bit);
      }
    }
    state->expected.push_back(state->reference->AnswerBatch(queries));
    state->sides.push_back(std::move(sides));
  }
  DCS_ASSIGN_OR_RETURN(state->fleet,
                       Fleet::Spawn(args, state->scratch.path(), true));
  state->client = std::make_unique<dcs::ClusterClient>(
      state->fleet.endpoints(), ClientOptions(dcs::SubtaskSeed(args.seed, 3)));
  return state;
}

// Fresh workers on empty stores and a fresh client: the start of a round.
Status ResetFleet(const Args& args, RestartState& state) {
  state.client.reset();
  DCS_RETURN_IF_ERROR(state.fleet.DrainAll());
  std::error_code error;
  for (int w = 0; w < kWorkers; ++w) {
    std::filesystem::remove_all(state.fleet.store_dir(w), error);
    if (error) return dcs::UnavailableError("cannot clear worker store");
  }
  DCS_ASSIGN_OR_RETURN(state.fleet,
                       Fleet::Spawn(args, state.scratch.path(), true));
  state.client = std::make_unique<dcs::ClusterClient>(
      state.fleet.endpoints(), ClientOptions(dcs::SubtaskSeed(args.seed, 3)));
  return dcs::OkStatus();
}

struct RestartPhase {
  // One sample per successful registration, aligned with registrations.
  std::vector<OpSample> samples;
  std::vector<double> verify_us;
  std::vector<double> restart_ms;
  std::vector<double> repair_ms;
  std::vector<double> respawn_ready_ms;
  std::vector<double> store_open_ms;
  std::vector<double> reattached;
  // Graph index of each registration, keyed by its request id.
  std::vector<std::pair<int64_t, int>> registrations;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t exhausted = 0;
  double measured_s = 0;
};

Status VerifyObject(RestartState& state, int64_t handle, int graph,
                    RestartPhase& phase, const std::string& what) {
  const auto start = Clock::now();
  ++phase.attempted;
  StatusOr<std::vector<double>> values = state.client->AnswerBatch(
      handle, state.sides[static_cast<size_t>(graph)]);
  if (!values.ok()) {
    ++phase.failed;
    if (values.status().code() == dcs::StatusCode::kResourceExhausted) {
      ++phase.exhausted;
    }
    return dcs::OkStatus();
  }
  phase.verify_us.push_back(SecondsSince(start) * 1e6);
  return CheckAnswers(*values, state.expected[static_cast<size_t>(graph)],
                      what);
}

// Drain worker w with SIGTERM, respawn it on its own store, repair the
// client, and answer one verified batch: restart_ms covers all of it.
// Every replica on the respawned worker must come back by reattach.
Status RestartWorker(RestartState& state, int w,
                     const std::vector<std::pair<int64_t, int>>& live,
                     SpanBuffer* spans, int64_t request,
                     RestartPhase& phase) {
  ScopedSpan restart_span(spans, "restart", request);
  const auto start = Clock::now();
  DCS_RETURN_IF_ERROR(state.fleet.worker(w).Drain());
  if (spans != nullptr) {
    // Traced runs also reopen the store the drained worker sealed.
    spans->Open("store.open", request);
    auto reopened = dcs::SketchStore::Open(state.fleet.store_dir(w));
    phase.store_open_ms.push_back(spans->Close() / 1000.0);
    DCS_RETURN_IF_ERROR(reopened.status());
  }
  DCS_ASSIGN_OR_RETURN(const double ready_ms, state.fleet.Respawn(w));
  phase.respawn_ready_ms.push_back(ready_ms);
  const int64_t reattached_before = state.client->reattached_replicas();
  const auto before = dcs::metrics::Registry::Get().Snapshot();
  const auto repair_start = Clock::now();
  {
    ScopedSpan repair_span(spans, "client.repair", request);
    DCS_RETURN_IF_ERROR(state.client->HealthCheck());
    DCS_RETURN_IF_ERROR(state.client->Repair().status());
  }
  phase.repair_ms.push_back(SecondsSince(repair_start) * 1000.0);
  const auto after = dcs::metrics::Registry::Get().Snapshot();
  const int64_t reattached =
      state.client->reattached_replicas() - reattached_before;
  const int64_t reregistered = CounterDelta(
      before, after, "serve.cluster_client.replicas_registered");
  // With R == W every object has a replica on every worker.
  if (reattached != static_cast<int64_t>(live.size()) || reregistered != 0) {
    return dcs::InternalError(
        "correctness check failed: restart of worker " + std::to_string(w) +
        " reattached " + std::to_string(reattached) + " of " +
        std::to_string(live.size()) + " replicas and re-registered " +
        std::to_string(reregistered));
  }
  phase.reattached.push_back(static_cast<double>(reattached));
  bool first = true;
  for (const auto& [handle, graph] : live) {
    DCS_RETURN_IF_ERROR(VerifyObject(state, handle, graph, phase,
                                     "post-restart batch"));
    if (first) {
      phase.restart_ms.push_back(SecondsSince(start) * 1000.0);
      first = false;
    }
  }
  return dcs::OkStatus();
}

StatusOr<RestartPhase> RunRestartPhase(const Args& args,
                                       const RestartParams& params,
                                       RestartState& state, double seconds,
                                       int phase_index, Tracer* tracer) {
  RestartPhase phase;
  SpanBuffer* spans = tracer != nullptr ? &tracer->NewBuffer() : nullptr;
  const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
  int64_t request = int64_t{phase_index + 1} << 32;
  int restarts = 0;
  while (Clock::now() < deadline) {
    if (!state.fresh) DCS_RETURN_IF_ERROR(ResetFleet(args, state));
    state.fresh = false;
    const auto round_start = Clock::now();
    std::vector<std::pair<int64_t, int>> live;  // handle, graph index
    const int graphs = static_cast<int>(state.graphs.size());
    for (int g = 0; g < graphs && Clock::now() < deadline; ++g) {
      ++request;
      const auto start = Clock::now();
      ++phase.attempted;
      StatusOr<int64_t> handle = [&] {
        ScopedSpan span(spans, "cluster.rpc", request);
        return state.client->RegisterReplicated(
            state.graphs[static_cast<size_t>(g)]);
      }();
      if (!handle.ok()) {
        ++phase.failed;
        continue;
      }
      phase.samples.push_back({phase.measured_s + SecondsSince(round_start),
                               SecondsSince(start) * 1e6, 1.0});
      phase.registrations.emplace_back(request, g);
      live.emplace_back(*handle, g);
      DCS_RETURN_IF_ERROR(
          VerifyObject(state, *handle, g, phase, "post-registration batch"));
      if ((g + 1) % params.restart_every == 0) {
        DCS_RETURN_IF_ERROR(RestartWorker(state, restarts++ % kWorkers, live,
                                          spans, request, phase));
      }
    }
    phase.measured_s += SecondsSince(round_start);
  }
  return phase;
}

// Replays the round's fixed graph sequence layer by layer in process.
Status ReplayRestart(const RestartParams& params, RestartState& state,
                     const RestartPhase& traced, Tracer& tracer,
                     Result& result) {
  SpanBuffer& spans = tracer.NewBuffer();
  DCS_ASSIGN_OR_RETURN(
      auto worker,
      InProcessWorker(state.scratch.path(),
                      state.scratch.path() + "/inproc-store"));
  DCS_ASSIGN_OR_RETURN(auto loopback, Loopback::Create());
  DCS_ASSIGN_OR_RETURN(
      auto store, dcs::SketchStore::Open(state.scratch.path() + "/bench-store"));

  std::vector<RpcPieces> pieces;
  std::vector<dcs::BitWriter> serialized(state.graphs.size());
  double bulk_bytes = 0, bulk_us = 0, request_bytes = 0, response_bytes = 0;
  const int64_t replay_base = int64_t{1} << 48;
  for (size_t g = 0; g < state.graphs.size(); ++g) {
    const int64_t id = replay_base + static_cast<int64_t>(g);
    dcs::RpcRequest registration;
    registration.kind = dcs::RpcKind::kRegisterGraph;
    registration.graph = state.graphs[g];
    DCS_ASSIGN_OR_RETURN(RpcPieces timed,
                         TimeRpcPieces(registration, *worker, *loopback,
                                       spans, id));
    bulk_bytes += static_cast<double>(timed.request_bytes);
    bulk_us += timed.request_hop;
    request_bytes += static_cast<double>(timed.request_bytes);
    response_bytes += static_cast<double>(timed.response_bytes);
    // The verification batch's request on the same wire.
    const dcs::Message query = dcs::EncodeRpcRequest(QueryRequest(
        timed.response.object_id, params.n, state.sides[g]));
    spans.Open("transport.query", id);
    DCS_RETURN_IF_ERROR(loopback->OneWayUs(query).status());
    spans.Close();
    pieces.push_back(std::move(timed));

    spans.Open("serialization.graph_encode", id);
    dcs::SerializeDirectedGraph(state.graphs[g], serialized[g]);
    spans.Close();
    dcs::BitReader reader(serialized[g].bytes());
    spans.Open("serialization.graph_decode", id);
    auto decoded = dcs::DeserializeDirectedGraph(reader);
    spans.Close();
    DCS_RETURN_IF_ERROR(decoded.status());
  }
  // One store Put per traced registration, as the worker does.
  int64_t object_id = 0;
  for (const auto& [request, g] : traced.registrations) {
    const dcs::BitWriter& bytes = serialized[static_cast<size_t>(g)];
    spans.Open("store.put", request);
    const Status put =
        store->Put(object_id++, dcs::StreamKind::kDirectedGraph,
                   bytes.bytes(), bytes.bit_count());
    spans.Close();
    DCS_RETURN_IF_ERROR(put);
  }
  spans.Open("store.seal", replay_base);
  DCS_RETURN_IF_ERROR(store->Seal());
  const double seal_us = spans.Close();

  // What the client waited for beyond the pieces: R sequential RPCs each.
  const std::map<int64_t, double> rpc =
      tracer.DurationByRequest("cluster.rpc");
  std::vector<double> unaccounted;
  for (const auto& [request, g] : traced.registrations) {
    unaccounted.push_back(rpc.at(request) -
                          kReplication *
                              pieces[static_cast<size_t>(g)].total());
  }
  const auto median = [&tracer](const char* name) {
    return Median(tracer.Durations(name));
  };
  const double count = static_cast<double>(state.graphs.size());
  const std::vector<double> puts = tracer.Durations("store.put");
  result.per_layer.insert(
      result.per_layer.end(),
      {{"wire.encode_request_us", median("wire.encode_request"), "us"},
       {"wire.decode_request_us", median("wire.decode_request"), "us"},
       {"wire.encode_response_us", median("wire.encode_response"), "us"},
       {"wire.decode_response_us", median("wire.decode_response"), "us"},
       {"wire.request_bytes", request_bytes / count, "bytes"},
       {"wire.response_bytes", response_bytes / count, "bytes"},
       {"transport.send_recv_us", median("transport.query"), "us"},
       {"transport.bulk_mb_per_s", bulk_bytes / bulk_us, "MB/s"},
       {"cluster.rpc_us", median("cluster.rpc"), "us"},
       {"cluster.unaccounted_us", Median(unaccounted), "us"},
       {"serialization.graph_encode_us",
        median("serialization.graph_encode"), "us"},
       {"serialization.graph_decode_us",
        median("serialization.graph_decode"), "us"},
       {"store.put_us", Median(puts), "us"},
       {"store.put_tail_us", TailOf(puts).value, "us"},
       {"store.seal_ms", seal_us / 1000.0, "ms"},
       {"store.bytes_written", static_cast<double>(store->total_bytes()),
        "bytes"}});
  return dcs::OkStatus();
}

// Tracing overhead on RegisterReplicated, compared graph by graph so the
// mix of sizes in each half cancels out.
double RegisterOverheadPct(const RestartPhase& plain,
                           const RestartPhase& traced) {
  std::map<int, std::vector<double>> plain_us, traced_us;
  for (size_t i = 0; i < plain.registrations.size(); ++i) {
    plain_us[plain.registrations[i].second].push_back(
        plain.samples[i].latency_us);
  }
  for (size_t i = 0; i < traced.registrations.size(); ++i) {
    traced_us[traced.registrations[i].second].push_back(
        traced.samples[i].latency_us);
  }
  std::vector<double> per_graph;
  for (const auto& [g, us] : traced_us) {
    const auto it = plain_us.find(g);
    if (it == plain_us.end()) continue;
    per_graph.push_back(TraceOverheadPct(Median(it->second), Median(us)));
  }
  return Median(per_graph);
}

}  // namespace

StatusOr<Result> RunRegisterRestart(const Args& args, Tracer& tracer) {
  RestartParams params;
  if (args.smoke) {
    params.n = 48;
    params.min_edges = 128;
    params.shifts = {1, 0, 2, 1};
    params.restart_every = 2;
    params.verify_sides = 8;
    params.setups = 1;
  }
  std::vector<double> setup_s;
  std::unique_ptr<RestartState> state;
  for (int i = 0; i < params.setups; ++i) {
    state.reset();
    const auto start = Clock::now();
    DCS_ASSIGN_OR_RETURN(state, SetUpRestart(args, params));
    setup_s.push_back(SecondsSince(start));
  }
  if (args.break_check) {
    state->expected[0][0] = std::nextafter(state->expected[0][0], 1e300);
  }
  Result result;
  char digest[64];
  std::snprintf(digest, sizeof(digest), "inputs_digest=%016llx",
                static_cast<unsigned long long>(state->digest));
  result.notes.push_back(digest);
  std::string sizes;
  for (const dcs::DirectedGraph& graph : state->graphs) {
    if (!sizes.empty()) sizes += ",";
    sizes += std::to_string(graph.num_edges());
  }
  result.notes.push_back("graphs: n=" + std::to_string(params.n) +
                         " edges " + sizes + "; restart every " +
                         std::to_string(params.restart_every) +
                         " registrations, R=" + std::to_string(kReplication));

  const auto before = dcs::metrics::Registry::Get().Snapshot();
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  DCS_ASSIGN_OR_RETURN(const RestartPhase plain,
                       RunRestartPhase(args, params, *state, untraced_s, 0,
                                       nullptr));
  RestartPhase traced;
  if (args.trace) {
    DCS_ASSIGN_OR_RETURN(traced, RunRestartPhase(args, params, *state,
                                                 args.seconds / 2, 1,
                                                 &tracer));
  }
  const auto after = dcs::metrics::Registry::Get().Snapshot();
  result.attempted = plain.attempted + traced.attempted;
  result.failed = plain.failed + traced.failed;
  if (plain.samples.empty() || plain.restart_ms.empty()) {
    return dcs::InternalError("the run completed no registration round "
                              "with a restart; raise --seconds");
  }

  if (args.trace) {
    DCS_RETURN_IF_ERROR(ReplayRestart(params, *state, traced, tracer, result));
    std::vector<double> service_us;
    for (size_t g = 0; g < state->graphs.size(); ++g) {
      std::vector<dcs::CutQueryService::Query> queries;
      for (const dcs::VertexSet& side : state->sides[g]) {
        queries.push_back({static_cast<int64_t>(g), side});
      }
      const auto start = Clock::now();
      state->reference->AnswerBatch(queries);
      service_us.push_back(SecondsSince(start) * 1e6);
    }
    result.per_layer.insert(
        result.per_layer.end(),
        {{"service.answer_batch_us", Median(service_us), "us"},
         {"client.failovers",
          static_cast<double>(CounterDelta(
              before, after, "serve.cluster_client.failovers")),
          "count"},
         {"client.resource_exhausted",
          static_cast<double>(plain.exhausted + traced.exhausted), "count"},
         {"client.repair_ms", Median(traced.repair_ms), "ms"},
         {"client.reattached", Mean(traced.reattached), "count"},
         {"worker.ready_ms", Median(traced.respawn_ready_ms), "ms"},
         {"store.open_ms", Median(traced.store_open_ms), "ms"},
         {"trace.overhead_pct", RegisterOverheadPct(plain, traced), "%"}});
  }

  state->client.reset();
  DCS_RETURN_IF_ERROR(state->fleet.DrainAll());
  EndToEnd e2e;
  e2e.setup_s = Median(setup_s);
  e2e.samples = plain.samples;
  e2e.peak_rss_mb = SelfPeakRssMb() + LargestChildPeakRssMb();
  AddEndToEnd(e2e,
              {"registrations_per_s", "register_p50_ms", "register_tail_ms",
               "ms"},
              result);
  result.notes.push_back("restart_p50_ms=" +
                         std::to_string(Median(plain.restart_ms)) + " ms (" +
                         std::to_string(plain.restart_ms.size()) +
                         " restarts, every replica reattached)");
  result.notes.push_back("verify batch p50=" +
                         std::to_string(Median(plain.verify_us)) + " us (" +
                         std::to_string(plain.verify_us.size()) +
                         " batches)");
  result.notes.push_back("peak_rss_mb: benchmark " +
                         std::to_string(SelfPeakRssMb()) +
                         " MB + largest worker " +
                         std::to_string(LargestChildPeakRssMb()) + " MB");
  return result;
}

}  // namespace perfbench
