// The CloakDB wire protocol: versioned, length-prefixed binary frames.
//
// Every frame is a fixed 20-byte header followed by a payload:
//
//   offset  size  field        notes
//   ------  ----  -----------  ----------------------------------------
//        0     4  magic        0x42444C43 — the bytes "CLDB" on the wire
//        4     2  version      kProtocolVersion (currently 1)
//        6     1  type         FrameType
//        7     1  reserved     must be written 0; ignored on read
//        8     8  request_id   echoed verbatim in the matching response
//       16     4  payload_len  payload bytes after the header
//
// All integers are little-endian fixed-width; doubles are IEEE-754 bits in
// a little-endian u64. Strings are a u32 length prefix plus raw bytes. The
// one byte codec (util/byte_codec.h) encodes frames and files alike; a
// candidate is laid out exactly like a public object in the WAL.
// Frame types: kQuery carries a QueryRequest, kResponse a full
// QueryResponse (including its in-band ErrorCode — a shed or degraded
// query is a typed response, not a dropped connection), kError a bare
// status for requests that never reached the service (malformed payload,
// pipeline overflow), and kPing/kPong are empty health/flush probes.
//
// Decoding is hardened: every read is bounds-checked, lengths are capped
// (kMaxPayloadBytes, kMaxStringBytes), and element counts are validated
// against the bytes actually present before any allocation — a hostile
// length field costs an error, never memory. Malformed *payloads* on an
// intact frame boundary are recoverable (the server answers with a typed
// kError frame and keeps the connection); a corrupt *header* means the
// stream is unframeable and the connection must close.

#ifndef CLOAKDB_NET_PROTOCOL_H_
#define CLOAKDB_NET_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "service/api.h"
#include "util/byte_codec.h"
#include "util/status.h"

namespace cloakdb::net {

/// "CLDB" read as a little-endian u32.
inline constexpr uint32_t kMagic = 0x42444C43u;

/// Bumped on any change to the header or payload encodings.
inline constexpr uint16_t kProtocolVersion = 1;

/// Bytes of the fixed frame header.
inline constexpr size_t kFrameHeaderSize = 20;

/// Upper bound on payload_len: a 4 MiB frame already carries ~100k
/// candidates, far past any real candidate list. Anything larger is
/// treated as a corrupt or hostile header.
inline constexpr uint32_t kMaxPayloadBytes = 4u << 20;

/// Upper bound on one length-prefixed string (object names, messages):
/// the one cap the WAL and snapshot readers enforce too.
inline constexpr uint32_t kMaxStringBytes = util::kMaxStringBytes;

/// Upper bound on a kHeatmap request's per-side grid resolution. The
/// service allocates resolution^2 * 8 bytes per shard plus the merged
/// grid, so an unchecked value is a remote memory-exhaustion vector; 512
/// (~2 MiB of cells) also keeps the response inside kMaxPayloadBytes.
inline constexpr uint32_t kMaxHeatmapResolution = 512;

/// Upper bound on a kPrivateKnn request's k. Far past any real candidate
/// list, but small enough that a hostile k cannot drive per-shard heap
/// sizes or an unframeable response.
inline constexpr uint64_t kMaxKnnK = 4096;

/// Upper bound on an admin response body (JSON text). Larger than
/// kMaxStringBytes because a full metrics-window dump with interval
/// percentiles is legitimately bigger than an error message; still well
/// inside kMaxPayloadBytes.
inline constexpr uint32_t kMaxAdminBodyBytes = 1u << 20;

/// Upper bound on an admin request's `limit` argument (slow-query rows,
/// flight-recorder events, window snapshots). Sizes server-side work, so
/// it is validated at decode time like the query cost caps.
inline constexpr uint32_t kMaxAdminLimit = 4096;

/// Frame discriminator. Values are wire-stable.
enum class FrameType : uint8_t {
  kQuery = 1,
  kResponse = 2,
  kError = 3,
  kPing = 4,
  kPong = 5,
  kAdminRequest = 6,
  kAdminResponse = 7,
};

/// True for the values listed in FrameType.
bool IsValidFrameType(uint8_t raw);

/// Admin sub-commands carried by kAdminRequest frames. Values are
/// wire-stable. Every command answers with a JSON body in the matching
/// kAdminResponse frame.
enum class AdminCommand : uint8_t {
  kMetricsSnapshot = 1,  ///< Lifetime-cumulative metrics (full registry).
  kMetricsWindow = 2,    ///< Windowed snapshots: interval rates/percentiles.
  kStatus = 3,           ///< Service status/health (identity, stats, stages).
  kSlowQueries = 4,      ///< Top-N slow-query log.
  kRecentTraces = 5,     ///< Trace accounting + recent audit violations.
  kFlightRecorder = 6,   ///< Flight-recorder event dump.
};

/// True for the values listed in AdminCommand.
bool IsValidAdminCommand(uint8_t raw);

/// A decoded frame header.
struct FrameHeader {
  FrameType type = FrameType::kQuery;
  uint64_t request_id = 0;
  uint32_t payload_len = 0;
};

// --- Encoding ------------------------------------------------------------
// Encoders append one complete frame (header + payload) to `out`.

void AppendQueryFrame(uint64_t request_id, const QueryRequest& request,
                      std::string* out);
/// Appends the response as a kResponse frame. If the encoded payload would
/// exceed kMaxPayloadBytes — a frame the receiver's own header validation
/// must reject — a kError frame (kResourceExhausted) is substituted so the
/// stream stays frameable.
void AppendResponseFrame(uint64_t request_id, const QueryResponse& response,
                         std::string* out);
/// A bare typed status for a request that never produced a QueryResponse.
void AppendErrorFrame(uint64_t request_id, ErrorCode code,
                      const std::string& message, std::string* out);
void AppendPingFrame(uint64_t request_id, std::string* out);
void AppendPongFrame(uint64_t request_id, std::string* out);
/// Appends a kAdminRequest frame. `limit` bounds the result set (0 means
/// the command's default); values above kMaxAdminLimit are clamped.
void AppendAdminRequestFrame(uint64_t request_id, AdminCommand command,
                             uint32_t limit, std::string* out);
/// Appends a kAdminResponse frame echoing `command` with a JSON `body`.
/// A body over kMaxAdminBodyBytes becomes a kError (kResourceExhausted)
/// frame instead, mirroring AppendResponseFrame's unframeable-frame guard.
void AppendAdminResponseFrame(uint64_t request_id, AdminCommand command,
                              const std::string& body, std::string* out);

// --- Decoding ------------------------------------------------------------

/// Decodes and validates a frame header from `data` (at least
/// kFrameHeaderSize bytes). kMalformedRequest on bad magic, wrong
/// version, unknown type, or an oversize payload length — all of which
/// mean the stream can no longer be framed.
Status DecodeFrameHeader(const uint8_t* data, size_t len, FrameHeader* out);

/// Payload decoders; `len` is exactly the header's payload_len. Return
/// kMalformedRequest on truncation, trailing garbage, or invalid values.
Status DecodeQueryPayload(const uint8_t* data, size_t len,
                          QueryRequest* out);
Status DecodeResponsePayload(const uint8_t* data, size_t len,
                             QueryResponse* out);
Status DecodeErrorPayload(const uint8_t* data, size_t len, ErrorCode* code,
                          std::string* message);
Status DecodeAdminRequestPayload(const uint8_t* data, size_t len,
                                 AdminCommand* command, uint32_t* limit);
Status DecodeAdminResponsePayload(const uint8_t* data, size_t len,
                                  AdminCommand* command, std::string* body);

}  // namespace cloakdb::net

#endif  // CLOAKDB_NET_PROTOCOL_H_
