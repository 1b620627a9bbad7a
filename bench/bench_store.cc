// Experiment STORE — the disk-backed sketch store's segment I/O.
//
// In-process segment I/O micro-timings — append+seal, reopen, read back,
// fsck — for a fixed mix of 4K-edge graphs, with a round-trip identity
// check. The drain → warm respawn → reattach path through real worker
// processes is timed end to end by perfbench's register_restart workload
// and checked bit for bit by transport_test.
//
// Results are printed as a table and written to BENCH_store.json
// (override with --out FILE).

#include <stdlib.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "graph/digraph.h"
#include "json_writer.h"
#include "sketch/serialization.h"
#include "store/sketch_store.h"
#include "table.h"
#include "util/bitio.h"
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

constexpr int kObjects = 12;
constexpr int kVertices = 256;
constexpr int kEdges = 4096;

std::vector<DirectedGraph> MakeGraphs() {
  std::vector<DirectedGraph> graphs;
  for (int k = 0; k < kObjects; ++k) {
    Rng rng(1000 + static_cast<uint64_t>(k));
    DirectedGraph graph(kVertices);
    for (int e = 0; e < kEdges; ++e) {
      const int u = static_cast<int>(rng.UniformInt(kVertices));
      int v = (u + 1) % kVertices;
      if (rng.Bernoulli(0.5)) v = (u + 2 + static_cast<int>(
                                       rng.UniformInt(kVertices - 2))) %
                                  kVertices;
      if (v == u) v = (u + 1) % kVertices;
      graph.AddEdge(u, v, 0.25 + rng.UniformDouble());
    }
    graphs.push_back(std::move(graph));
  }
  return graphs;
}

struct SegmentIoRecord {
  int objects = kObjects;
  int64_t bytes = 0;
  double ms_append_seal = 0;
  double ms_reopen = 0;
  double ms_read_all = 0;
  double ms_fsck = 0;
  bool round_trip_identical = false;
};

SegmentIoRecord SectionSegmentIo(const std::vector<DirectedGraph>& graphs) {
  PrintBanner("STORE/B",
              "In-process segment I/O: append+seal, reopen, read back, "
              "fsck");
  SegmentIoRecord record;
  char dir_template[] = "/tmp/dcs_bench_store_io_XXXXXX";
  char* scratch = ::mkdtemp(dir_template);
  if (scratch == nullptr) return record;
  const std::string dir = scratch;

  std::vector<std::vector<uint8_t>> payloads;
  std::vector<int64_t> bit_counts;
  for (const DirectedGraph& graph : graphs) {
    BitWriter writer;
    SerializeDirectedGraph(graph, writer);
    record.bytes += static_cast<int64_t>(writer.bytes().size());
    payloads.emplace_back(writer.bytes().begin(), writer.bytes().end());
    bit_counts.push_back(writer.bit_count());
  }

  bool ok = true;
  const auto t0 = std::chrono::steady_clock::now();
  {
    auto store = SketchStore::Open(dir);
    ok = store.ok();
    for (int k = 0; ok && k < kObjects; ++k) {
      ok = (*store)
               ->Put(k, StreamKind::kDirectedGraph,
                     payloads[static_cast<size_t>(k)],
                     bit_counts[static_cast<size_t>(k)])
               .ok();
    }
    if (ok) ok = (*store)->Seal().ok();
  }
  record.ms_append_seal = MsSince(t0);

  const auto t1 = std::chrono::steady_clock::now();
  auto reopened = SketchStore::Open(dir);
  record.ms_reopen = MsSince(t1);
  ok = ok && reopened.ok();

  const auto t2 = std::chrono::steady_clock::now();
  record.round_trip_identical = ok;
  for (int k = 0; ok && k < kObjects; ++k) {
    auto object = (*reopened)->Get(k);
    if (!object.ok() ||
        object->bytes != payloads[static_cast<size_t>(k)] ||
        object->bit_count != bit_counts[static_cast<size_t>(k)]) {
      record.round_trip_identical = false;
    }
  }
  record.ms_read_all = MsSince(t2);

  const auto t3 = std::chrono::steady_clock::now();
  auto fsck = FsckSketchStore(dir);
  record.ms_fsck = MsSince(t3);
  if (!fsck.ok() || !fsck->clean()) record.round_trip_identical = false;

  PrintRow({"objects", "bytes", "append+seal(ms)", "reopen(ms)",
            "read(ms)", "fsck(ms)", "identical"});
  PrintRule(7);
  PrintRow({I(record.objects), I(record.bytes), F(record.ms_append_seal, 2),
            F(record.ms_reopen, 2), F(record.ms_read_all, 2),
            F(record.ms_fsck, 2),
            record.round_trip_identical ? "yes" : "NO"});
  const std::string command = "rm -rf '" + dir + "'";
  (void)std::system(command.c_str());
  return record;
}

void WriteJson(const std::string& path, const SegmentIoRecord& segment_io) {
  JsonValue root = JsonValue::MakeObject();
  root.Set("objects", kObjects);
  root.Set("vertices", kVertices);
  root.Set("edges", kEdges);
  JsonValue io = JsonValue::MakeObject();
  io.Set("objects", segment_io.objects);
  io.Set("bytes", segment_io.bytes);
  io.Set("ms_append_seal", segment_io.ms_append_seal);
  io.Set("ms_reopen", segment_io.ms_reopen);
  io.Set("ms_read_all", segment_io.ms_read_all);
  io.Set("ms_fsck", segment_io.ms_fsck);
  io.Set("round_trip_identical", segment_io.round_trip_identical);
  root.Set("segment_io", std::move(io));
  bench::WriteBenchJson(path, std::move(root));
}

}  // namespace dcs

int main(int argc, char** argv) {
  const std::string out_path =
      dcs::bench::ConsumeOutFlag(&argc, argv, "BENCH_store.json");
  const auto segment_io = dcs::SectionSegmentIo(dcs::MakeGraphs());
  dcs::WriteJson(out_path, segment_io);
  return 0;
}
