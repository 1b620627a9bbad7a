#include "serve/wire.h"

#include <cmath>
#include <string>
#include <utility>

#include "sketch/serialization.h"
#include "util/bitio.h"
#include "util/fnv1a.h"

namespace dcs {
namespace {

// Caps enforced before any allocation driven by a header-declared count.
constexpr uint64_t kMaxBatchQueries = uint64_t{1} << 20;
constexpr uint64_t kMaxStatusMessageBytes = 4096;

// Reads the body's one envelope of `kind` and requires it to span exactly
// the message's *declared* bit count (not the padded byte buffer).
StatusOr<EnvelopePayload> OpenBody(StreamKind kind, const Message& message) {
  BitReader reader(message.bytes);
  DCS_ASSIGN_OR_RETURN(EnvelopePayload payload,
                       ReadEnvelopePayload(kind, reader));
  if (reader.position() != message.bit_count) {
    return DataLossError("rpc payload length does not match the message");
  }
  return payload;
}

// The payload parsers share a tail check: every declared payload bit must
// be consumed (a short parse means the body was spliced or truncated).
Status CheckFullyConsumed(const BitReader& reader, int64_t payload_bits) {
  if (reader.position() != payload_bits) {
    return DataLossError("rpc payload has trailing bits");
  }
  return OkStatus();
}

}  // namespace

const char* RpcKindName(RpcKind kind) {
  switch (kind) {
    case RpcKind::kPing:
      return "ping";
    case RpcKind::kRegisterGraph:
      return "register_graph";
    case RpcKind::kQueryBatch:
      return "query_batch";
    case RpcKind::kReattach:
      return "reattach";
  }
  return "unknown";
}

Message EncodeRpcRequest(const RpcRequest& request) {
  BitWriter payload;
  payload.WriteBits(static_cast<uint64_t>(request.kind), 8);
  switch (request.kind) {
    case RpcKind::kPing:
      break;
    case RpcKind::kRegisterGraph:
      DCS_CHECK(request.graph.has_value());
      SerializeDirectedGraph(*request.graph, payload);
      break;
    case RpcKind::kQueryBatch: {
      DCS_CHECK_GE(request.object_id, 0);
      DCS_CHECK_GE(request.num_vertices, 1);
      payload.WriteEliasGamma(static_cast<uint64_t>(request.object_id));
      payload.WriteEliasGamma(static_cast<uint64_t>(request.num_vertices));
      payload.WriteEliasGamma(static_cast<uint64_t>(request.sides.size()));
      for (const VertexSet& side : request.sides) {
        DCS_CHECK_EQ(static_cast<int>(side.size()), request.num_vertices);
        for (uint8_t in_side : side) payload.WriteBit(in_side ? 1 : 0);
      }
      break;
    }
    case RpcKind::kReattach:
      DCS_CHECK_GE(request.object_id, 0);
      DCS_CHECK_GE(request.num_vertices, 1);
      payload.WriteEliasGamma(static_cast<uint64_t>(request.object_id));
      payload.WriteEliasGamma(static_cast<uint64_t>(request.num_vertices));
      payload.WriteBits(request.graph_checksum, 32);
      break;
  }
  BitWriter out;
  WriteEnvelope(StreamKind::kRpcRequest, payload, out);
  return SealMessage(out);
}

StatusOr<RpcRequest> DecodeRpcRequest(const Message& message) {
  DCS_ASSIGN_OR_RETURN(const EnvelopePayload payload,
                       OpenBody(StreamKind::kRpcRequest, message));
  BitReader reader(payload.bytes);
  DCS_ASSIGN_OR_RETURN(const uint64_t kind, reader.TryReadBits(8));
  RpcRequest request;
  request.kind = static_cast<RpcKind>(kind);
  switch (request.kind) {
    case RpcKind::kPing:
      break;
    case RpcKind::kRegisterGraph: {
      DCS_ASSIGN_OR_RETURN(request.graph,
                           DeserializeDirectedGraph(reader));
      break;
    }
    case RpcKind::kQueryBatch: {
      DCS_ASSIGN_OR_RETURN(const uint64_t object_id,
                           reader.TryReadEliasGamma());
      if (object_id > (uint64_t{1} << 32)) {
        return DataLossError("rpc query batch object id out of range");
      }
      DCS_ASSIGN_OR_RETURN(const uint64_t num_vertices,
                           reader.TryReadEliasGamma());
      DCS_ASSIGN_OR_RETURN(const uint64_t num_sides,
                           reader.TryReadEliasGamma());
      if (num_vertices < 1 ||
          num_vertices > static_cast<uint64_t>(reader.RemainingBits())) {
        return DataLossError("rpc query batch vertex count out of range");
      }
      if (num_sides > kMaxBatchQueries ||
          num_sides * num_vertices >
              static_cast<uint64_t>(reader.RemainingBits())) {
        return DataLossError(
            "rpc query batch declares more sides than the stream holds");
      }
      request.object_id = static_cast<int64_t>(object_id);
      request.num_vertices = static_cast<int>(num_vertices);
      request.sides.reserve(static_cast<size_t>(num_sides));
      for (uint64_t q = 0; q < num_sides; ++q) {
        VertexSet side(num_vertices, 0);
        for (uint64_t v = 0; v < num_vertices; ++v) {
          DCS_ASSIGN_OR_RETURN(const int bit, reader.TryReadBit());
          side[static_cast<size_t>(v)] = static_cast<uint8_t>(bit);
        }
        request.sides.push_back(std::move(side));
      }
      break;
    }
    case RpcKind::kReattach: {
      DCS_ASSIGN_OR_RETURN(const uint64_t object_id,
                           reader.TryReadEliasGamma());
      if (object_id > (uint64_t{1} << 32)) {
        return DataLossError("rpc reattach object id out of range");
      }
      DCS_ASSIGN_OR_RETURN(const uint64_t num_vertices,
                           reader.TryReadEliasGamma());
      if (num_vertices < 1 || num_vertices > (uint64_t{1} << 28)) {
        return DataLossError("rpc reattach vertex count out of range");
      }
      DCS_ASSIGN_OR_RETURN(const uint64_t checksum, reader.TryReadBits(32));
      request.object_id = static_cast<int64_t>(object_id);
      request.num_vertices = static_cast<int>(num_vertices);
      request.graph_checksum = static_cast<uint32_t>(checksum);
      break;
    }
    default:
      return DataLossError("unknown rpc kind " + std::to_string(kind));
  }
  DCS_RETURN_IF_ERROR(CheckFullyConsumed(reader, payload.bit_count));
  return request;
}

Message EncodeRpcResponse(const RpcResponse& response) {
  BitWriter payload;
  payload.WriteBits(static_cast<uint64_t>(response.status.code()), 8);
  const std::string& text = response.status.message();
  DCS_CHECK_LE(text.size(), kMaxStatusMessageBytes);
  payload.WriteEliasGamma(text.size());
  for (char c : text) {
    payload.WriteBits(static_cast<uint8_t>(c), 8);
  }
  payload.WriteBits(response.server_token, 64);
  DCS_CHECK_GE(response.object_id, 0);
  payload.WriteEliasGamma(static_cast<uint64_t>(response.object_id));
  payload.WriteEliasGamma(response.values.size());
  for (double value : response.values) payload.WriteDouble(value);
  BitWriter out;
  WriteEnvelope(StreamKind::kRpcResponse, payload, out);
  return SealMessage(out);
}

uint32_t GraphEnvelopeChecksum(const DirectedGraph& graph) {
  BitWriter writer;
  SerializeDirectedGraph(graph, writer);
  return Fnv1a(writer.bytes());
}

StatusOr<RpcResponse> DecodeRpcResponse(const Message& message) {
  DCS_ASSIGN_OR_RETURN(const EnvelopePayload payload,
                       OpenBody(StreamKind::kRpcResponse, message));
  BitReader reader(payload.bytes);
  RpcResponse response;
  DCS_ASSIGN_OR_RETURN(const uint64_t code, reader.TryReadBits(8));
  if (code > static_cast<uint64_t>(StatusCode::kResourceExhausted)) {
    return DataLossError("rpc response status code out of range");
  }
  DCS_ASSIGN_OR_RETURN(const uint64_t text_bytes, reader.TryReadEliasGamma());
  if (text_bytes > kMaxStatusMessageBytes ||
      text_bytes * 8 > static_cast<uint64_t>(reader.RemainingBits())) {
    return DataLossError("rpc response status message overruns the stream");
  }
  std::string text;
  text.reserve(static_cast<size_t>(text_bytes));
  for (uint64_t i = 0; i < text_bytes; ++i) {
    DCS_ASSIGN_OR_RETURN(const uint64_t c, reader.TryReadBits(8));
    text.push_back(static_cast<char>(c));
  }
  response.status = code == 0
                        ? OkStatus()
                        : Status(static_cast<StatusCode>(code),
                                 std::move(text));
  DCS_ASSIGN_OR_RETURN(response.server_token, reader.TryReadBits(64));
  DCS_ASSIGN_OR_RETURN(const uint64_t object_id, reader.TryReadEliasGamma());
  if (object_id > (uint64_t{1} << 32)) {
    return DataLossError("rpc response object id out of range");
  }
  response.object_id = static_cast<int64_t>(object_id);
  DCS_ASSIGN_OR_RETURN(const uint64_t num_values, reader.TryReadEliasGamma());
  if (num_values > kMaxBatchQueries ||
      num_values * 64 > static_cast<uint64_t>(reader.RemainingBits())) {
    return DataLossError("rpc response declares more values than the stream");
  }
  response.values.reserve(static_cast<size_t>(num_values));
  for (uint64_t i = 0; i < num_values; ++i) {
    DCS_ASSIGN_OR_RETURN(const double value, reader.TryReadDouble());
    if (!std::isfinite(value)) {
      return DataLossError("rpc response value is not finite");
    }
    response.values.push_back(value);
  }
  DCS_RETURN_IF_ERROR(CheckFullyConsumed(reader, payload.bit_count));
  return response;
}

}  // namespace dcs
