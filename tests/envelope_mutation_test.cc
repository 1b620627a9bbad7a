// Checksum-resealing mutation test for every envelope kind.
//
// corruption_test proves every single-bit flip and every truncation of
// every format is rejected, but FNV-1a rejects each of those at the
// envelope, so the payload parsers behind it never see a mutated byte.
// This test gets past the checksum: it takes one valid envelope of every
// StreamKind, mutates the *payload*, reseals the mutant through the one
// envelope writer (WriteEnvelope), and hands the result to that kind's
// parser. A mutant may still be a valid object, so the parser may return
// OK; otherwise it must return a non-OK Status. It must never crash, hang,
// or read out of bounds — under the address+undefined sanitizer build
// (scripts/run_sanitizers.sh) any over-read or UB fails the test.
//
// Deterministic: fixed seeds build every case and drive every mutant, so
// any failure reproduces on every run.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "comm/message.h"
#include "graph/generators.h"
#include "gtest/gtest.h"
#include "serve/wire.h"
#include "sketch/cut_balance_sparsifier.h"
#include "sketch/directed_sketches.h"
#include "sketch/sampled_sketches.h"
#include "sketch/serialization.h"
#include "store/cache_snapshot.h"
#include "store/segment.h"
#include "stream/binary_stream.h"
#include "util/bitio.h"
#include "util/random.h"
#include "util/status.h"

namespace dcs {
namespace {

constexpr int kMutantsPerCase = 300;

// One valid envelope and the full parser for its kind. `parse` receives a
// resealed envelope (exact bit count) and reports what the parser made of
// it.
struct EnvelopeCase {
  std::string name;
  StreamKind kind = StreamKind::kDirectedGraph;
  BitWriter envelope;
  std::function<Status(const BitWriter&)> parse;
};

template <typename DeserializeFn>
std::function<Status(const BitWriter&)> ReaderParser(DeserializeFn fn) {
  return [fn](const BitWriter& envelope) {
    BitReader reader(envelope.bytes());
    return fn(reader).status();
  };
}

std::function<Status(const BitWriter&)> RequestParser() {
  return [](const BitWriter& envelope) {
    return DecodeRpcRequest(SealMessage(envelope)).status();
  };
}

std::function<Status(const BitWriter&)> ResponseParser() {
  return [](const BitWriter& envelope) {
    return DecodeRpcResponse(SealMessage(envelope)).status();
  };
}

// Unpacks the first `bit_count` bits of `bytes`, one bit per element.
std::vector<uint8_t> Unpack(const std::vector<uint8_t>& bytes,
                            int64_t bit_count) {
  std::vector<uint8_t> bits(static_cast<size_t>(bit_count));
  for (int64_t i = 0; i < bit_count; ++i) {
    bits[static_cast<size_t>(i)] =
        (bytes[static_cast<size_t>(i >> 3)] >> (i & 7)) & 1;
  }
  return bits;
}

// Applies one of five seeded edits to the payload bits: flip a few bits,
// overwrite a window (random, all ones, or all zeros — the latter two push
// Elias-gamma counts to their extremes), truncate, append, or splice a run
// out or in (shifting every later field).
void Mutate(std::vector<uint8_t>& bits, Rng& rng) {
  const auto pick = [&rng](size_t bound) {
    return static_cast<size_t>(rng.UniformInt(static_cast<int64_t>(bound)));
  };
  const size_t size = bits.size();
  switch (rng.UniformInt(5)) {
    case 0: {
      if (size == 0) break;
      const int flips = 1 + static_cast<int>(rng.UniformInt(8));
      for (int f = 0; f < flips; ++f) bits[pick(size)] ^= 1;
      break;
    }
    case 1: {
      if (size == 0) break;
      const size_t start = pick(size);
      const size_t width = std::min<size_t>(1 + pick(64), size - start);
      const int64_t fill = rng.UniformInt(3);  // 0 random, 1 ones, 2 zeros
      for (size_t i = start; i < start + width; ++i) {
        bits[i] = fill == 0 ? static_cast<uint8_t>(rng.Next() & 1)
                            : static_cast<uint8_t>(fill == 1);
      }
      break;
    }
    case 2:
      bits.resize(pick(size + 1));
      break;
    case 3: {
      const size_t extra = 1 + pick(64);
      for (size_t i = 0; i < extra; ++i) {
        bits.push_back(static_cast<uint8_t>(rng.Next() & 1));
      }
      break;
    }
    default: {
      const size_t at = pick(size + 1);
      const size_t width = 1 + pick(16);
      if (rng.Bernoulli(0.5)) {
        const size_t end = std::min(size, at + width);
        bits.erase(bits.begin() + static_cast<std::ptrdiff_t>(at),
                   bits.begin() + static_cast<std::ptrdiff_t>(end));
      } else {
        std::vector<uint8_t> run(width);
        for (uint8_t& bit : run) bit = static_cast<uint8_t>(rng.Next() & 1);
        bits.insert(bits.begin() + static_cast<std::ptrdiff_t>(at),
                    run.begin(), run.end());
      }
      break;
    }
  }
}

BitWriter Reseal(StreamKind kind, const std::vector<uint8_t>& bits) {
  BitWriter payload;
  for (uint8_t bit : bits) payload.WriteBit(bit);
  BitWriter envelope;
  WriteEnvelope(kind, payload, envelope);
  return envelope;
}

// Sketches and registration RPCs end their payload with a nested envelope
// (the sample or registered graph). An edit inside it is caught by the
// inner checksum, so the inner payload parser would rarely see one; half
// the mutants of such a case edit the inner payload instead and reseal
// both layers.
struct NestedEnvelope {
  size_t offset = 0;  // bit offset within the outer payload
  StreamKind kind = StreamKind::kDirectedGraph;
  std::vector<uint8_t> payload;  // the nested envelope's payload bits
};

// Finds a valid envelope that fills `bits` from some offset to the end.
std::optional<NestedEnvelope> FindNestedEnvelope(
    const std::vector<uint8_t>& bits) {
  const auto field = [&bits](size_t at, int width) {
    uint64_t value = 0;
    for (int i = 0; i < width; ++i) {
      value |= static_cast<uint64_t>(bits[at + static_cast<size_t>(i)]) << i;
    }
    return value;
  };
  constexpr uint64_t kEnvelopeMagic = 0xD5CE;
  for (size_t offset = 0; offset + 32 <= bits.size(); ++offset) {
    if (field(offset, 16) != kEnvelopeMagic) continue;
    const auto kind = static_cast<StreamKind>(field(offset + 24, 8));
    BitWriter tail;
    for (size_t i = offset; i < bits.size(); ++i) tail.WriteBit(bits[i]);
    BitReader reader(tail.bytes());
    const auto inner = ReadEnvelopePayload(kind, reader);
    if (inner.ok() && reader.position() == tail.bit_count()) {
      return NestedEnvelope{offset, kind,
                            Unpack(inner->bytes, inner->bit_count)};
    }
  }
  return std::nullopt;
}

std::vector<EnvelopeCase> BuildCases() {
  std::vector<EnvelopeCase> cases;
  Rng rng(4099);
  auto add = [&cases](std::string name, StreamKind kind,
                      BitWriter envelope,
                      std::function<Status(const BitWriter&)> parse) {
    cases.push_back(EnvelopeCase{std::move(name), kind, std::move(envelope),
                                 std::move(parse)});
  };

  const DirectedGraph digraph = RandomBalancedDigraph(9, 0.5, 2.0, rng);
  const UndirectedGraph ugraph =
      RandomUndirectedGraph(9, 0.5, 0.25, 2.0, true, rng);
  {
    BitWriter w;
    SerializeDirectedGraph(digraph, w);
    add("directed_graph", StreamKind::kDirectedGraph, std::move(w),
        ReaderParser(
            [](BitReader& r) { return DeserializeDirectedGraph(r); }));
  }
  {
    BitWriter w;
    SerializeUndirectedGraph(ugraph, w);
    add("undirected_graph", StreamKind::kUndirectedGraph, std::move(w),
        ReaderParser(
            [](BitReader& r) { return DeserializeUndirectedGraph(r); }));
  }
  {
    BitWriter w;
    ForEachCutSketch(ugraph, 0.4, rng).Serialize(w);
    add("foreach_sketch", StreamKind::kForEachSketch, std::move(w),
        ReaderParser(
            [](BitReader& r) { return ForEachCutSketch::Deserialize(r); }));
  }
  {
    BitWriter w;
    BenczurKargerSparsifier(ugraph, 0.4, rng).Serialize(w);
    add("forall_sparsifier", StreamKind::kForAllSparsifier, std::move(w),
        ReaderParser([](BitReader& r) {
          return BenczurKargerSparsifier::Deserialize(r);
        }));
  }
  {
    BitWriter w;
    DirectedForEachSketch(digraph, 0.4, 2.0, rng).Serialize(w);
    add("directed_foreach_sketch", StreamKind::kDirectedForEachSketch,
        std::move(w), ReaderParser([](BitReader& r) {
          return DirectedForEachSketch::Deserialize(r);
        }));
  }
  {
    BitWriter w;
    DirectedForAllSketch(digraph, 0.4, 2.0, rng).Serialize(w);
    add("directed_forall_sketch", StreamKind::kDirectedForAllSketch,
        std::move(w), ReaderParser([](BitReader& r) {
          return DirectedForAllSketch::Deserialize(r);
        }));
  }
  {
    BitWriter w;
    CutBalanceSparsifier(digraph, 0.4, 2.0, rng).Serialize(w);
    add("cut_balance_sparsifier", StreamKind::kCutBalanceSparsifier,
        std::move(w), ReaderParser([](BitReader& r) {
          return CutBalanceSparsifier::Deserialize(r);
        }));
  }
  {
    // The edge stream's records are parsed lazily, so the parser drains
    // every one of them.
    BinaryStreamWriter stream(12);
    for (const EdgeUpdate& update : RandomUpdateStream(12, 24, 0.2, rng)) {
      stream.Append(update);
    }
    BitWriter w;
    stream.Seal(w);
    add("edge_stream", StreamKind::kEdgeStream, std::move(w),
        [](const BitWriter& envelope) -> Status {
          BitReader reader(envelope.bytes());
          DCS_ASSIGN_OR_RETURN(BinaryStreamReader stream,
                               BinaryStreamReader::FromBytes(reader));
          while (!stream.AtEnd()) {
            DCS_RETURN_IF_ERROR(stream.Next().status());
          }
          return OkStatus();
        });
  }
  {
    // The segment index is parsed where it lives: as the footer of a
    // sealed two-record segment, between the records and the seal trailer
    // (which names only the footer's offset, so it stays valid).
    std::vector<uint8_t> records;
    std::vector<SegmentIndexEntry> entries;
    for (int64_t id : {4, 9}) {
      BitWriter graph;
      SerializeDirectedGraph(RandomBalancedDigraph(6, 0.5, 2.0, rng), graph);
      SegmentRecord record;
      record.object_id = id;
      record.kind = StreamKind::kDirectedGraph;
      record.payload = graph.bytes();
      record.payload_bits = graph.bit_count();
      SegmentIndexEntry entry;
      entry.object_id = id;
      entry.kind = record.kind;
      entry.byte_offset = static_cast<int64_t>(records.size());
      AppendSegmentRecord(record, records);
      entry.byte_length =
          static_cast<int64_t>(records.size()) - entry.byte_offset;
      entries.push_back(entry);
    }
    BitWriter w;
    WriteSegmentIndexEnvelope(entries, w);
    const std::vector<uint8_t> seal = BuildSegmentSeal(
        entries, static_cast<int64_t>(records.size()));
    const std::vector<uint8_t> trailer(seal.end() - 16, seal.end());
    add("segment_index", StreamKind::kSegmentIndex, std::move(w),
        [records, trailer](const BitWriter& footer) {
          std::vector<uint8_t> image = records;
          image.insert(image.end(), footer.bytes().begin(),
                       footer.bytes().end());
          image.insert(image.end(), trailer.begin(), trailer.end());
          return ScanSegment(image).status();
        });
  }
  // Every RpcKind, so a mutated kind byte lands in each branch's parser.
  auto request_envelope = [](const RpcRequest& request) {
    const Message m = EncodeRpcRequest(request);
    BitWriter w;
    w.AppendBits(m.bytes, m.bit_count);
    return w;
  };
  {
    RpcRequest request;
    request.kind = RpcKind::kPing;
    add("rpc_ping_request", StreamKind::kRpcRequest,
        request_envelope(request), RequestParser());
  }
  {
    RpcRequest request;
    request.kind = RpcKind::kRegisterGraph;
    request.graph = digraph;
    add("rpc_register_graph_request", StreamKind::kRpcRequest,
        request_envelope(request), RequestParser());
  }
  {
    RpcRequest request;
    request.kind = RpcKind::kQueryBatch;
    request.object_id = 5;
    request.num_vertices = 10;
    for (int q = 0; q < 4; ++q) {
      request.sides.push_back(rng.RandomBinaryString(10));
    }
    add("rpc_query_batch_request", StreamKind::kRpcRequest,
        request_envelope(request), RequestParser());
  }
  {
    RpcRequest request;
    request.kind = RpcKind::kReattach;
    request.object_id = 3;
    request.num_vertices = 9;
    request.graph_checksum = GraphEnvelopeChecksum(digraph);
    add("rpc_reattach_request", StreamKind::kRpcRequest,
        request_envelope(request), RequestParser());
  }
  auto response_envelope = [](const RpcResponse& response) {
    const Message m = EncodeRpcResponse(response);
    BitWriter w;
    w.AppendBits(m.bytes, m.bit_count);
    return w;
  };
  {
    RpcResponse response;
    response.server_token = 0xFEEDFACE12345678ULL;
    response.object_id = 2;
    response.values = {0.5, 17.25, 3.0};
    add("rpc_ok_response", StreamKind::kRpcResponse,
        response_envelope(response), ResponseParser());
  }
  {
    RpcResponse response;
    response.status = NotFoundError("object 7 is not registered");
    response.server_token = 9;
    add("rpc_error_response", StreamKind::kRpcResponse,
        response_envelope(response), ResponseParser());
  }
  {
    std::vector<CacheSnapshotEntry> entries;
    for (int i = 0; i < 3; ++i) {
      CacheSnapshotEntry entry;
      entry.object = i;
      entry.side_words = {rng.Next()};
      entry.value = 1.0 + i;
      entries.push_back(std::move(entry));
    }
    // The file is the envelope plus zero padding to a byte; keep the
    // envelope's exact bits.
    const std::vector<uint8_t> file = EncodeCacheSnapshot(entries);
    BitReader reader(file);
    DCS_CHECK(ReadEnvelopePayload(StreamKind::kCacheSnapshot, reader).ok());
    BitWriter w;
    w.AppendBits(file, reader.position());
    add("cache_snapshot", StreamKind::kCacheSnapshot, std::move(w),
        [](const BitWriter& envelope) {
          return DecodeCacheSnapshot(envelope.bytes()).status();
        });
  }
  return cases;
}

TEST(EnvelopeMutationTest, CoversEveryStreamKind) {
  std::vector<bool> seen(256, false);
  for (const EnvelopeCase& c : BuildCases()) {
    seen[static_cast<size_t>(c.kind)] = true;
  }
  for (int kind = static_cast<int>(StreamKind::kDirectedGraph);
       kind <= static_cast<int>(StreamKind::kCacheSnapshot); ++kind) {
    EXPECT_TRUE(seen[static_cast<size_t>(kind)])
        << "no mutation case for "
        << StreamKindName(static_cast<StreamKind>(kind));
  }
}

TEST(EnvelopeMutationTest, ResealedPayloadMutantsNeverCrashTheParser) {
  Rng rng(20240617);
  for (const EnvelopeCase& c : BuildCases()) {
    BitReader reader(c.envelope.bytes());
    const auto original = ReadEnvelopePayload(c.kind, reader);
    ASSERT_TRUE(original.ok()) << c.name << ": "
                               << original.status().ToString();
    const std::vector<uint8_t> bits =
        Unpack(original->bytes, original->bit_count);
    // Harness guard: resealing the untouched payload reproduces a stream
    // the parser accepts.
    ASSERT_TRUE(c.parse(Reseal(c.kind, bits)).ok()) << c.name;

    // OK and non-OK are both acceptable outcomes; returning at all is the
    // property under test. At least one mutant must be rejected, or the
    // parser is not validating its payload.
    const std::optional<NestedEnvelope> nested = FindNestedEnvelope(bits);
    int rejected = 0;
    for (int m = 0; m < kMutantsPerCase; ++m) {
      std::vector<uint8_t> mutant = bits;
      if (nested.has_value() && rng.Bernoulli(0.5)) {
        std::vector<uint8_t> inner = nested->payload;
        Mutate(inner, rng);
        const BitWriter resealed = Reseal(nested->kind, inner);
        mutant.resize(nested->offset);
        for (uint8_t bit :
             Unpack(resealed.bytes(), resealed.bit_count())) {
          mutant.push_back(bit);
        }
      } else {
        Mutate(mutant, rng);
      }
      if (!c.parse(Reseal(c.kind, mutant)).ok()) ++rejected;
    }
    EXPECT_GT(rejected, 0) << c.name;
  }
}

}  // namespace
}  // namespace dcs
