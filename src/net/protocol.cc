#include "net/protocol.h"

#include "util/byte_codec.h"

namespace cloakdb::net {
namespace {

using util::ByteReader;
using util::ByteWriter;

/// Writes a frame header with a zero payload_len and returns the frame's
/// start offset for EndFrame, which back-patches the length once the
/// payload is written — no scratch payload buffer, no copy.
size_t BeginFrame(ByteWriter* w, FrameType type, uint64_t request_id) {
  const size_t start = w->size();
  w->U32(kMagic);
  w->U16(kProtocolVersion);
  w->U8(static_cast<uint8_t>(type));
  w->U8(0);  // reserved
  w->U64(request_id);
  w->U32(0);  // payload_len, patched by EndFrame
  return start;
}

/// Patches the payload_len of the frame begun at `start`; returns it.
size_t EndFrame(ByteWriter* w, size_t start) {
  const size_t payload_len = w->size() - start - kFrameHeaderSize;
  w->PatchU32(start + 16, static_cast<uint32_t>(payload_len));
  return payload_len;
}

Status Malformed(const char* what) {
  return Status::MalformedRequest(what);
}

bool IsValidErrorCode(uint8_t raw) {
  return raw <= static_cast<uint8_t>(StatusCode::kMalformedRequest);
}

}  // namespace

bool IsValidFrameType(uint8_t raw) {
  return raw >= static_cast<uint8_t>(FrameType::kQuery) &&
         raw <= static_cast<uint8_t>(FrameType::kAdminResponse);
}

bool IsValidAdminCommand(uint8_t raw) {
  return raw >= static_cast<uint8_t>(AdminCommand::kMetricsSnapshot) &&
         raw <= static_cast<uint8_t>(AdminCommand::kFlightRecorder);
}

void AppendQueryFrame(uint64_t request_id, const QueryRequest& request,
                      std::string* out) {
  ByteWriter w(out);
  const size_t frame = BeginFrame(&w, FrameType::kQuery, request_id);
  w.U8(static_cast<uint8_t>(request.kind));
  w.Bool(request.exact_rounded_rect);
  w.U32(request.category);
  w.U32(request.resolution);
  WriteRect(&w, request.region);
  w.F64(request.radius);
  w.U64(request.k);
  w.U64(static_cast<uint64_t>(request.deadline_us));
  EndFrame(&w, frame);
}

void AppendResponseFrame(uint64_t request_id, const QueryResponse& response,
                         std::string* out) {
  out->reserve(out->size() + kFrameHeaderSize + 96 +
               response.candidates.size() * 48 + response.heat.size() * 8);
  ByteWriter w(out);
  const size_t frame = BeginFrame(&w, FrameType::kResponse, request_id);
  w.U8(static_cast<uint8_t>(response.kind));
  w.U8(static_cast<uint8_t>(response.error));
  w.U8((response.degraded ? 1 : 0) | (response.degraded_admission ? 2 : 0));
  w.U8(0);  // reserved
  w.String(response.message);
  w.U64(response.trace_id);
  w.U64(response.server_latency_us);
  w.U64(response.covered_shards);
  WriteRect(&w, response.extended_region);
  w.F64(response.fetch_radius);
  w.U64(response.pruned);
  w.F64(response.expected_count);
  w.U64(response.count_min);
  w.U64(response.count_max);
  w.U32(response.resolution);
  WriteRect(&w, response.space);
  w.U32(static_cast<uint32_t>(response.candidates.size()));
  for (const PublicObject& object : response.candidates) {
    WritePublicObject(&w, object);
  }
  w.U32(static_cast<uint32_t>(response.heat.size()));
  for (double cell : response.heat) w.F64(cell);
  if (EndFrame(&w, frame) > kMaxPayloadBytes) {
    // Never emit a frame our own header validation rejects: the receiver
    // would treat it as a corrupt header and kill the connection. A typed
    // error keeps the stream frameable and the request answered.
    out->resize(frame);
    AppendErrorFrame(request_id, ErrorCode::kResourceExhausted,
                     "response exceeds the frame payload limit", out);
  }
}

void AppendErrorFrame(uint64_t request_id, ErrorCode code,
                      const std::string& message, std::string* out) {
  ByteWriter w(out);
  const size_t frame = BeginFrame(&w, FrameType::kError, request_id);
  w.U8(static_cast<uint8_t>(code));
  // Clipped, not refused: an oversize message is a server-side artifact,
  // never worth dropping the frame over.
  w.String(message);
  EndFrame(&w, frame);
}

void AppendPingFrame(uint64_t request_id, std::string* out) {
  ByteWriter w(out);
  BeginFrame(&w, FrameType::kPing, request_id);
}

void AppendPongFrame(uint64_t request_id, std::string* out) {
  ByteWriter w(out);
  BeginFrame(&w, FrameType::kPong, request_id);
}

void AppendAdminRequestFrame(uint64_t request_id, AdminCommand command,
                             uint32_t limit, std::string* out) {
  ByteWriter w(out);
  const size_t frame = BeginFrame(&w, FrameType::kAdminRequest, request_id);
  w.U8(static_cast<uint8_t>(command));
  w.U8(0);   // reserved
  w.U16(0);  // reserved
  w.U32(limit > kMaxAdminLimit ? kMaxAdminLimit : limit);
  EndFrame(&w, frame);
}

void AppendAdminResponseFrame(uint64_t request_id, AdminCommand command,
                              const std::string& body, std::string* out) {
  if (body.size() > kMaxAdminBodyBytes) {
    AppendErrorFrame(request_id, ErrorCode::kResourceExhausted,
                     "admin response exceeds the body limit", out);
    return;
  }
  ByteWriter w(out);
  const size_t frame = BeginFrame(&w, FrameType::kAdminResponse, request_id);
  w.U8(static_cast<uint8_t>(command));
  w.U8(0);   // reserved
  w.U16(0);  // reserved
  w.String(body, kMaxAdminBodyBytes);
  EndFrame(&w, frame);
}

Status DecodeFrameHeader(const uint8_t* data, size_t len, FrameHeader* out) {
  if (len < kFrameHeaderSize) return Malformed("truncated frame header");
  ByteReader r(data, kFrameHeaderSize);
  if (r.U32() != kMagic) return Malformed("bad frame magic");
  if (r.U16() != kProtocolVersion)
    return Malformed("unsupported protocol version");
  const uint8_t type = r.U8();
  if (!IsValidFrameType(type)) return Malformed("unknown frame type");
  r.U8();  // reserved
  out->type = static_cast<FrameType>(type);
  out->request_id = r.U64();
  out->payload_len = r.U32();
  if (out->payload_len > kMaxPayloadBytes)
    return Malformed("frame payload exceeds limit");
  return Status::OK();
}

Status DecodeQueryPayload(const uint8_t* data, size_t len,
                          QueryRequest* out) {
  ByteReader r(data, len);
  const uint8_t kind = r.U8();
  out->exact_rounded_rect = r.U8() != 0;
  out->category = r.U32();
  out->resolution = r.U32();
  out->region = ReadRect(&r);
  out->radius = r.F64();
  out->k = r.U64();
  out->deadline_us = static_cast<int64_t>(r.U64());
  if (!r.Done()) return Malformed("truncated query payload");
  if (!IsValidQueryKind(kind)) return Malformed("unknown query kind");
  out->kind = static_cast<QueryKind>(kind);
  if (out->deadline_us < 0) return Malformed("negative deadline");
  // Cost caps: these fields size allocations on the server, so a hostile
  // value is rejected here, before the request reaches the service.
  if (out->kind == QueryKind::kHeatmap &&
      out->resolution > kMaxHeatmapResolution)
    return Malformed("heatmap resolution exceeds limit");
  if (out->kind == QueryKind::kPrivateKnn && out->k > kMaxKnnK)
    return Malformed("knn k exceeds limit");
  return Status::OK();
}

Status DecodeResponsePayload(const uint8_t* data, size_t len,
                             QueryResponse* out) {
  ByteReader r(data, len);
  const uint8_t kind = r.U8();
  const uint8_t error = r.U8();
  const uint8_t flags = r.U8();
  r.U8();  // reserved
  out->message = r.String();
  out->trace_id = r.U64();
  out->server_latency_us = r.U64();
  out->covered_shards = r.U64();
  out->extended_region = ReadRect(&r);
  out->fetch_radius = r.F64();
  out->pruned = r.U64();
  out->expected_count = r.F64();
  out->count_min = r.U64();
  out->count_max = r.U64();
  out->resolution = r.U32();
  out->space = ReadRect(&r);
  // Counts the remaining payload cannot hold fail before the resize.
  out->candidates.resize(r.Count(kMinPublicObjectBytes));
  for (PublicObject& object : out->candidates) object = ReadPublicObject(&r);
  out->heat.resize(r.Count(sizeof(double)));
  for (double& cell : out->heat) cell = r.F64();
  if (!r.Done()) return Malformed("truncated response payload");
  if (!IsValidQueryKind(kind)) return Malformed("unknown response kind");
  if (!IsValidErrorCode(error)) return Malformed("unknown error code");
  out->kind = static_cast<QueryKind>(kind);
  out->error = static_cast<ErrorCode>(error);
  out->degraded = (flags & 1) != 0;
  out->degraded_admission = (flags & 2) != 0;
  return Status::OK();
}

Status DecodeErrorPayload(const uint8_t* data, size_t len, ErrorCode* code,
                          std::string* message) {
  ByteReader r(data, len);
  const uint8_t raw = r.U8();
  *message = r.String();
  if (!r.Done()) return Malformed("truncated error payload");
  if (!IsValidErrorCode(raw) || raw == 0)
    return Malformed("invalid error code in error frame");
  *code = static_cast<ErrorCode>(raw);
  return Status::OK();
}

Status DecodeAdminRequestPayload(const uint8_t* data, size_t len,
                                 AdminCommand* command, uint32_t* limit) {
  ByteReader r(data, len);
  const uint8_t raw = r.U8();
  r.U8();   // reserved
  r.U16();  // reserved
  *limit = r.U32();
  if (!r.Done()) return Malformed("truncated admin request payload");
  if (!IsValidAdminCommand(raw)) return Malformed("unknown admin command");
  if (*limit > kMaxAdminLimit) return Malformed("admin limit exceeds cap");
  *command = static_cast<AdminCommand>(raw);
  return Status::OK();
}

Status DecodeAdminResponsePayload(const uint8_t* data, size_t len,
                                  AdminCommand* command, std::string* body) {
  ByteReader r(data, len);
  const uint8_t raw = r.U8();
  r.U8();   // reserved
  r.U16();  // reserved
  *body = r.String(kMaxAdminBodyBytes);
  if (!r.Done()) return Malformed("truncated admin response payload");
  if (!IsValidAdminCommand(raw)) return Malformed("unknown admin command");
  *command = static_cast<AdminCommand>(raw);
  return Status::OK();
}

}  // namespace cloakdb::net
