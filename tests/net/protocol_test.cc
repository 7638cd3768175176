// Wire protocol tests: round-trip properties over randomized envelopes,
// plus a malformed-frame corpus. Every decoder must reject garbage with a
// clean kMalformedRequest — never crash, never over-read (these tests run
// under ASan/UBSan in CI).

#include "net/protocol.h"

#include <cstring>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "service/api.h"
#include "util/status.h"

namespace cloakdb::net {
namespace {

QueryRequest RandomRequest(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> coord(0.0, 1000.0);
  QueryRequest request;
  request.kind = static_cast<QueryKind>(rng() % 5);
  const double x = coord(rng), y = coord(rng);
  request.region = Rect{x, y, x + coord(rng) / 10, y + coord(rng) / 10};
  request.radius = coord(rng) / 100;
  request.k = 1 + rng() % 16;
  request.category = static_cast<Category>(rng() % 8);
  request.resolution = 1 + static_cast<uint32_t>(rng() % 64);
  request.exact_rounded_rect = rng() % 2 == 0;
  request.deadline_us = static_cast<int64_t>(rng() % 1000000);
  return request;
}

QueryResponse RandomResponse(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> coord(0.0, 1000.0);
  QueryResponse response;
  response.kind = static_cast<QueryKind>(rng() % 5);
  response.error = static_cast<ErrorCode>(rng() % 13);
  response.message = response.error == ErrorCode::kOk ? "" : "went wrong";
  const size_t n_candidates = rng() % 20;
  for (size_t i = 0; i < n_candidates; ++i) {
    PublicObject object;
    object.id = rng();
    object.location = Point{coord(rng), coord(rng)};
    object.category = static_cast<Category>(rng() % 8);
    object.name = "poi-" + std::to_string(i);
    response.candidates.push_back(std::move(object));
  }
  response.extended_region = Rect{1, 2, 3, 4};
  response.fetch_radius = coord(rng);
  response.pruned = rng() % 100;
  response.expected_count = coord(rng);
  response.count_min = rng() % 50;
  response.count_max = 50 + rng() % 50;
  response.resolution = static_cast<uint32_t>(rng() % 16);
  response.space = Rect{0, 0, 1000, 1000};
  const size_t n_heat = rng() % 32;
  for (size_t i = 0; i < n_heat; ++i) response.heat.push_back(coord(rng));
  response.degraded = rng() % 2 == 0;
  response.covered_shards = rng();
  response.degraded_admission = rng() % 2 == 0;
  response.trace_id = rng();
  response.server_latency_us = rng() % 1000000;
  return response;
}

void ExpectRequestsEqual(const QueryRequest& a, const QueryRequest& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.region.min_x, b.region.min_x);
  EXPECT_EQ(a.region.min_y, b.region.min_y);
  EXPECT_EQ(a.region.max_x, b.region.max_x);
  EXPECT_EQ(a.region.max_y, b.region.max_y);
  EXPECT_EQ(a.radius, b.radius);
  EXPECT_EQ(a.k, b.k);
  EXPECT_EQ(a.category, b.category);
  EXPECT_EQ(a.resolution, b.resolution);
  EXPECT_EQ(a.exact_rounded_rect, b.exact_rounded_rect);
  EXPECT_EQ(a.deadline_us, b.deadline_us);
}

void ExpectResponsesEqual(const QueryResponse& a, const QueryResponse& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(a.message, b.message);
  ASSERT_EQ(a.candidates.size(), b.candidates.size());
  for (size_t i = 0; i < a.candidates.size(); ++i) {
    EXPECT_EQ(a.candidates[i].id, b.candidates[i].id);
    EXPECT_EQ(a.candidates[i].location.x, b.candidates[i].location.x);
    EXPECT_EQ(a.candidates[i].location.y, b.candidates[i].location.y);
    EXPECT_EQ(a.candidates[i].category, b.candidates[i].category);
    EXPECT_EQ(a.candidates[i].name, b.candidates[i].name);
  }
  EXPECT_EQ(a.fetch_radius, b.fetch_radius);
  EXPECT_EQ(a.pruned, b.pruned);
  EXPECT_EQ(a.expected_count, b.expected_count);
  EXPECT_EQ(a.count_min, b.count_min);
  EXPECT_EQ(a.count_max, b.count_max);
  EXPECT_EQ(a.resolution, b.resolution);
  EXPECT_EQ(a.heat, b.heat);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.covered_shards, b.covered_shards);
  EXPECT_EQ(a.degraded_admission, b.degraded_admission);
  EXPECT_EQ(a.trace_id, b.trace_id);
  EXPECT_EQ(a.server_latency_us, b.server_latency_us);
}

TEST(ProtocolTest, QueryFrameRoundTripsRandomizedEnvelopes) {
  std::mt19937_64 rng(42);
  for (int trial = 0; trial < 200; ++trial) {
    const QueryRequest request = RandomRequest(rng);
    const uint64_t id = rng();
    std::string frame;
    AppendQueryFrame(id, request, &frame);

    FrameHeader header;
    const uint8_t* data = reinterpret_cast<const uint8_t*>(frame.data());
    ASSERT_TRUE(DecodeFrameHeader(data, frame.size(), &header).ok());
    EXPECT_EQ(header.type, FrameType::kQuery);
    EXPECT_EQ(header.request_id, id);
    ASSERT_EQ(frame.size(), kFrameHeaderSize + header.payload_len);

    QueryRequest decoded;
    ASSERT_TRUE(DecodeQueryPayload(data + kFrameHeaderSize,
                                   header.payload_len, &decoded)
                    .ok());
    ExpectRequestsEqual(request, decoded);
  }
}

TEST(ProtocolTest, ResponseFrameRoundTripsRandomizedEnvelopes) {
  std::mt19937_64 rng(43);
  for (int trial = 0; trial < 200; ++trial) {
    const QueryResponse response = RandomResponse(rng);
    std::string frame;
    AppendResponseFrame(7, response, &frame);

    FrameHeader header;
    const uint8_t* data = reinterpret_cast<const uint8_t*>(frame.data());
    ASSERT_TRUE(DecodeFrameHeader(data, frame.size(), &header).ok());
    EXPECT_EQ(header.type, FrameType::kResponse);

    QueryResponse decoded;
    ASSERT_TRUE(DecodeResponsePayload(data + kFrameHeaderSize,
                                      header.payload_len, &decoded)
                    .ok());
    ExpectResponsesEqual(response, decoded);
  }
}

TEST(ProtocolTest, ErrorFrameRoundTrips) {
  for (const ErrorCode code :
       {ErrorCode::kShed, ErrorCode::kDeadlineExceeded,
        ErrorCode::kMalformedRequest, ErrorCode::kDegradedZeroCoverage}) {
    std::string frame;
    AppendErrorFrame(99, code, "the reason", &frame);
    FrameHeader header;
    const uint8_t* data = reinterpret_cast<const uint8_t*>(frame.data());
    ASSERT_TRUE(DecodeFrameHeader(data, frame.size(), &header).ok());
    EXPECT_EQ(header.type, FrameType::kError);
    EXPECT_EQ(header.request_id, 99u);
    ErrorCode decoded_code = ErrorCode::kOk;
    std::string message;
    ASSERT_TRUE(DecodeErrorPayload(data + kFrameHeaderSize,
                                   header.payload_len, &decoded_code,
                                   &message)
                    .ok());
    EXPECT_EQ(decoded_code, code);
    EXPECT_EQ(message, "the reason");
  }
}

TEST(ProtocolTest, PingPongFramesAreEmpty) {
  std::string ping, pong;
  AppendPingFrame(5, &ping);
  AppendPongFrame(5, &pong);
  EXPECT_EQ(ping.size(), kFrameHeaderSize);
  EXPECT_EQ(pong.size(), kFrameHeaderSize);
  FrameHeader header;
  ASSERT_TRUE(DecodeFrameHeader(
                  reinterpret_cast<const uint8_t*>(ping.data()),
                  ping.size(), &header)
                  .ok());
  EXPECT_EQ(header.type, FrameType::kPing);
  EXPECT_EQ(header.payload_len, 0u);
}

// --- Malformed-frame corpus ----------------------------------------------

std::string ValidQueryFrame() {
  QueryRequest request;
  request.kind = QueryKind::kPrivateRange;
  request.region = Rect{1, 2, 3, 4};
  request.radius = 5.0;
  std::string frame;
  AppendQueryFrame(1, request, &frame);
  return frame;
}

TEST(ProtocolMalformedTest, TruncatedHeaderIsRejected) {
  const std::string frame = ValidQueryFrame();
  for (size_t len = 0; len < kFrameHeaderSize; ++len) {
    FrameHeader header;
    const Status status = DecodeFrameHeader(
        reinterpret_cast<const uint8_t*>(frame.data()), len, &header);
    EXPECT_EQ(status.code(), StatusCode::kMalformedRequest) << len;
  }
}

TEST(ProtocolMalformedTest, BadMagicIsRejected) {
  std::string frame = ValidQueryFrame();
  frame[0] = 'X';
  FrameHeader header;
  const Status status = DecodeFrameHeader(
      reinterpret_cast<const uint8_t*>(frame.data()), frame.size(), &header);
  EXPECT_EQ(status.code(), StatusCode::kMalformedRequest);
  EXPECT_NE(status.message().find("magic"), std::string::npos);
}

TEST(ProtocolMalformedTest, WrongVersionIsRejected) {
  std::string frame = ValidQueryFrame();
  frame[4] = static_cast<char>(kProtocolVersion + 1);
  FrameHeader header;
  const Status status = DecodeFrameHeader(
      reinterpret_cast<const uint8_t*>(frame.data()), frame.size(), &header);
  EXPECT_EQ(status.code(), StatusCode::kMalformedRequest);
  EXPECT_NE(status.message().find("version"), std::string::npos);
}

TEST(ProtocolMalformedTest, UnknownFrameTypeIsRejected) {
  std::string frame = ValidQueryFrame();
  frame[6] = 0;  // Below kQuery.
  FrameHeader header;
  EXPECT_EQ(DecodeFrameHeader(reinterpret_cast<const uint8_t*>(frame.data()),
                              frame.size(), &header)
                .code(),
            StatusCode::kMalformedRequest);
  frame[6] = 99;  // Above kPong.
  EXPECT_EQ(DecodeFrameHeader(reinterpret_cast<const uint8_t*>(frame.data()),
                              frame.size(), &header)
                .code(),
            StatusCode::kMalformedRequest);
}

TEST(ProtocolMalformedTest, OversizePayloadLengthIsRejected) {
  std::string frame = ValidQueryFrame();
  const uint32_t huge = kMaxPayloadBytes + 1;
  std::memcpy(frame.data() + 16, &huge, sizeof(huge));
  FrameHeader header;
  const Status status = DecodeFrameHeader(
      reinterpret_cast<const uint8_t*>(frame.data()), frame.size(), &header);
  EXPECT_EQ(status.code(), StatusCode::kMalformedRequest);
  EXPECT_NE(status.message().find("limit"), std::string::npos);
}

TEST(ProtocolMalformedTest, TruncatedQueryPayloadIsRejectedAtEveryLength) {
  const std::string frame = ValidQueryFrame();
  const uint8_t* payload =
      reinterpret_cast<const uint8_t*>(frame.data()) + kFrameHeaderSize;
  const size_t payload_len = frame.size() - kFrameHeaderSize;
  for (size_t len = 0; len < payload_len; ++len) {
    QueryRequest out;
    EXPECT_EQ(DecodeQueryPayload(payload, len, &out).code(),
              StatusCode::kMalformedRequest)
        << len;
  }
}

TEST(ProtocolMalformedTest, TrailingGarbageInQueryPayloadIsRejected) {
  std::string frame = ValidQueryFrame();
  frame.push_back('\0');
  const uint8_t* payload =
      reinterpret_cast<const uint8_t*>(frame.data()) + kFrameHeaderSize;
  QueryRequest out;
  EXPECT_EQ(DecodeQueryPayload(payload, frame.size() - kFrameHeaderSize,
                               &out)
                .code(),
            StatusCode::kMalformedRequest);
}

TEST(ProtocolMalformedTest, UnknownQueryKindIsRejected) {
  std::string frame = ValidQueryFrame();
  frame[kFrameHeaderSize] = 99;  // kind byte
  const uint8_t* payload =
      reinterpret_cast<const uint8_t*>(frame.data()) + kFrameHeaderSize;
  QueryRequest out;
  EXPECT_EQ(DecodeQueryPayload(payload, frame.size() - kFrameHeaderSize,
                               &out)
                .code(),
            StatusCode::kMalformedRequest);
}

TEST(ProtocolMalformedTest, HostileCandidateCountIsRejectedBeforeAllocation) {
  // A response claiming 4 billion candidates in a tiny payload must be
  // rejected by the count-vs-bytes check, not die in reserve().
  QueryResponse response;
  response.kind = QueryKind::kPrivateRange;
  std::string frame;
  AppendResponseFrame(1, response, &frame);
  // The candidate count sits right after the fixed fields + empty message:
  // find it by encoding a one-candidate response and diffing sizes.
  QueryResponse one = response;
  one.candidates.push_back(PublicObject{1, Point{0, 0}, 0, ""});
  std::string frame_one;
  AppendResponseFrame(1, one, &frame_one);
  const size_t candidate_bytes = frame_one.size() - frame.size();
  ASSERT_GE(candidate_bytes, 32u);
  const size_t count_off = frame.size() - 4 /*heat count*/ - 4;
  const uint32_t hostile = 0xFFFFFFF0u;
  std::memcpy(frame.data() + count_off, &hostile, sizeof(hostile));
  const uint8_t* payload =
      reinterpret_cast<const uint8_t*>(frame.data()) + kFrameHeaderSize;
  QueryResponse out;
  EXPECT_EQ(DecodeResponsePayload(payload, frame.size() - kFrameHeaderSize,
                                  &out)
                .code(),
            StatusCode::kMalformedRequest);
}

TEST(ProtocolMalformedTest, OversizeHeatmapResolutionIsRejected) {
  // resolution sizes resolution^2*8-byte allocations per shard, so a
  // hostile value must die at decode, never reach the service.
  QueryRequest request = QueryRequest::HeatmapAt(kMaxHeatmapResolution);
  std::string frame;
  AppendQueryFrame(1, request, &frame);
  const uint8_t* payload =
      reinterpret_cast<const uint8_t*>(frame.data()) + kFrameHeaderSize;
  QueryRequest out;
  EXPECT_TRUE(DecodeQueryPayload(payload, frame.size() - kFrameHeaderSize,
                                 &out)
                  .ok());

  request.resolution = kMaxHeatmapResolution + 1;
  frame.clear();
  AppendQueryFrame(1, request, &frame);
  payload = reinterpret_cast<const uint8_t*>(frame.data()) + kFrameHeaderSize;
  EXPECT_EQ(DecodeQueryPayload(payload, frame.size() - kFrameHeaderSize,
                               &out)
                .code(),
            StatusCode::kMalformedRequest);
}

TEST(ProtocolMalformedTest, OversizeKnnKIsRejected) {
  QueryRequest request =
      QueryRequest::Knn(Rect{1, 2, 3, 4}, kMaxKnnK, /*category=*/0);
  std::string frame;
  AppendQueryFrame(1, request, &frame);
  const uint8_t* payload =
      reinterpret_cast<const uint8_t*>(frame.data()) + kFrameHeaderSize;
  QueryRequest out;
  EXPECT_TRUE(DecodeQueryPayload(payload, frame.size() - kFrameHeaderSize,
                                 &out)
                  .ok());

  request.k = kMaxKnnK + 1;
  frame.clear();
  AppendQueryFrame(1, request, &frame);
  payload = reinterpret_cast<const uint8_t*>(frame.data()) + kFrameHeaderSize;
  EXPECT_EQ(DecodeQueryPayload(payload, frame.size() - kFrameHeaderSize,
                               &out)
                .code(),
            StatusCode::kMalformedRequest);
}

TEST(ProtocolTest, OversizeResponseBecomesTypedErrorFrame) {
  // A response whose payload would exceed kMaxPayloadBytes must never hit
  // the wire as a kResponse frame — the receiver's header validation would
  // reject it as corrupt and kill the connection. The encoder substitutes
  // a typed kResourceExhausted error instead.
  QueryResponse response;
  response.kind = QueryKind::kHeatmap;
  response.heat.assign(kMaxPayloadBytes / 8 + 16, 1.0);
  std::string frame;
  AppendResponseFrame(77, response, &frame);

  FrameHeader header;
  const uint8_t* data = reinterpret_cast<const uint8_t*>(frame.data());
  ASSERT_TRUE(DecodeFrameHeader(data, frame.size(), &header).ok());
  EXPECT_EQ(header.type, FrameType::kError);
  EXPECT_EQ(header.request_id, 77u);
  ErrorCode code = ErrorCode::kOk;
  std::string message;
  ASSERT_TRUE(DecodeErrorPayload(data + kFrameHeaderSize,
                                 header.payload_len, &code, &message)
                  .ok());
  EXPECT_EQ(code, ErrorCode::kResourceExhausted);
}

TEST(ProtocolMalformedTest, OversizeStringLengthIsRejected) {
  // Hand-build an error payload whose string length prefix exceeds the
  // cap.
  std::string payload;
  payload.push_back(static_cast<char>(ErrorCode::kShed));
  const uint32_t huge = kMaxStringBytes + 1;
  for (int i = 0; i < 4; ++i)
    payload.push_back(static_cast<char>((huge >> (8 * i)) & 0xff));
  ErrorCode code;
  std::string message;
  EXPECT_EQ(DecodeErrorPayload(
                reinterpret_cast<const uint8_t*>(payload.data()),
                payload.size(), &code, &message)
                .code(),
            StatusCode::kMalformedRequest);
}

TEST(ProtocolMalformedTest, ErrorFrameWithOkCodeIsRejected) {
  std::string frame;
  AppendErrorFrame(1, ErrorCode::kShed, "", &frame);
  frame[kFrameHeaderSize] = 0;  // kOk is not a valid error-frame code.
  ErrorCode code;
  std::string message;
  EXPECT_EQ(DecodeErrorPayload(
                reinterpret_cast<const uint8_t*>(frame.data()) +
                    kFrameHeaderSize,
                frame.size() - kFrameHeaderSize, &code, &message)
                .code(),
            StatusCode::kMalformedRequest);
}

}  // namespace
}  // namespace cloakdb::net
