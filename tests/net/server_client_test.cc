// Loopback tests of cloakd's engine: a real CloakServer on an ephemeral
// port, driven by CloakClient and by raw sockets that speak deliberately
// broken protocol. Covers round-trip fidelity against the in-process
// path, pipelining, typed error frames (malformed payload, pipeline
// shed), connection close on unframeable streams, both poller backends,
// and net.* metric visibility.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "service/cloak_db_service.h"
#include "sim/poi.h"
#include "util/random.h"

namespace cloakdb::net {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

CloakDbServiceOptions DefaultOptions(uint32_t shards = 4) {
  CloakDbServiceOptions options;
  options.space = Rect(0, 0, 100, 100);
  options.num_shards = shards;
  return options;
}

std::vector<PublicObject> MakePois(size_t count, uint64_t seed = 31) {
  Rng rng(seed);
  PoiOptions options;
  options.count = count;
  options.category = poi_category::kGasStation;
  options.name_prefix = "gas";
  auto pois = GeneratePois(Rect(0, 0, 100, 100), options, &rng);
  EXPECT_TRUE(pois.ok());
  return std::move(pois).value();
}

std::vector<ObjectId> SortedIds(const std::vector<PublicObject>& objects) {
  std::vector<ObjectId> ids;
  ids.reserve(objects.size());
  for (const auto& o : objects) ids.push_back(o.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

struct Loopback {
  std::unique_ptr<CloakDbService> db;
  std::unique_ptr<CloakServer> server;
};

Loopback StartLoopback(CloakServerOptions server_options = {},
                       CloakDbServiceOptions db_options = DefaultOptions()) {
  Loopback loop;
  loop.db = CloakDbService::Create(db_options).value();
  EXPECT_TRUE(
      loop.db->BulkLoadCategory(poi_category::kGasStation, MakePois(200))
          .ok());
  auto server = CloakServer::Create(loop.db.get(), server_options);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  loop.server = std::move(server).value();
  return loop;
}

/// A raw loopback socket for speaking broken protocol at the server.
struct RawConn {
  int fd = -1;

  explicit RawConn(uint16_t port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);
  }

  ~RawConn() {
    if (fd >= 0) ::close(fd);
  }

  void SendAll(const std::string& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      off += static_cast<size_t>(n);
    }
  }

  /// Reads until EOF (true) or until `bytes` has at least `want` (false
  /// return means EOF came first).
  bool ReadUntilEofOrBytes(std::string* bytes, size_t want) {
    char buffer[4096];
    for (;;) {
      if (bytes->size() >= want) return false;
      const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
      if (n == 0) return true;
      if (n < 0) {
        ADD_FAILURE() << "recv: " << std::strerror(errno);
        return true;
      }
      bytes->append(buffer, static_cast<size_t>(n));
    }
  }
};

TEST(ServerClientTest, RangeQueryMatchesInProcessExecution) {
  auto db_options = DefaultOptions();
  db_options.trace.enabled = true;
  Loopback loop = StartLoopback({}, db_options);
  auto client =
      CloakClient::Connect("127.0.0.1", loop.server->port()).value();

  const Rect cloaked(40, 40, 50, 50);
  const QueryRequest request =
      QueryRequest::Range(cloaked, 5, poi_category::kGasStation);
  auto wire = client->Execute(request);
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  EXPECT_EQ(wire.value().kind, QueryKind::kPrivateRange);
  EXPECT_EQ(wire.value().error, ErrorCode::kOk);
  EXPECT_FALSE(wire.value().degraded);
  EXPECT_GT(wire.value().server_latency_us, 0u);
  EXPECT_NE(wire.value().trace_id, 0u);

  auto local = loop.db->PrivateRange(cloaked, 5, poi_category::kGasStation);
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(SortedIds(wire.value().candidates),
            SortedIds(local.value().candidates));
}

TEST(ServerClientTest, AllQueryKindsRoundTrip) {
  Loopback loop = StartLoopback();
  auto client =
      CloakClient::Connect("127.0.0.1", loop.server->port()).value();

  const Rect cloaked(40, 40, 50, 50);
  auto nn = client->Execute(
      QueryRequest::Nn(cloaked, poi_category::kGasStation));
  ASSERT_TRUE(nn.ok()) << nn.status().ToString();
  EXPECT_EQ(nn.value().kind, QueryKind::kPrivateNn);
  EXPECT_FALSE(nn.value().candidates.empty());

  auto knn = client->Execute(
      QueryRequest::Knn(cloaked, 3, poi_category::kGasStation));
  ASSERT_TRUE(knn.ok()) << knn.status().ToString();
  EXPECT_EQ(knn.value().kind, QueryKind::kPrivateKnn);
  EXPECT_GE(knn.value().candidates.size(), 3u);

  auto count = client->Execute(QueryRequest::Count(Rect(0, 0, 100, 100)));
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count.value().kind, QueryKind::kPublicCount);

  auto heat = client->Execute(QueryRequest::HeatmapAt(8));
  ASSERT_TRUE(heat.ok()) << heat.status().ToString();
  EXPECT_EQ(heat.value().kind, QueryKind::kHeatmap);
  EXPECT_EQ(heat.value().resolution, 8u);
  EXPECT_EQ(heat.value().heat.size(), 64u);
}

TEST(ServerClientTest, PipelinedRequestsAllComplete) {
  Loopback loop = StartLoopback();
  auto client =
      CloakClient::Connect("127.0.0.1", loop.server->port()).value();

  const QueryRequest request = QueryRequest::Range(
      Rect(40, 40, 50, 50), 5, poi_category::kGasStation);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 32; ++i) {
    auto id = client->Send(request);
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  // Await in reverse order to exercise response parking.
  for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
    auto response = client->Await(*it);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.value().error, ErrorCode::kOk);
  }
}

TEST(ServerClientTest, PingRoundTrips) {
  Loopback loop = StartLoopback();
  auto client =
      CloakClient::Connect("127.0.0.1", loop.server->port()).value();
  EXPECT_TRUE(client->Ping().ok());
}

TEST(ServerClientTest, ShedQueryArrivesAsTypedInBandError) {
  auto db_options = DefaultOptions();
  db_options.overload.max_queries_per_s = 0.001;
  db_options.overload.burst = 1;
  db_options.overload.policy = OverloadPolicy::kReject;
  Loopback loop = StartLoopback({}, db_options);
  auto client =
      CloakClient::Connect("127.0.0.1", loop.server->port()).value();

  const QueryRequest request = QueryRequest::Range(
      Rect(40, 40, 50, 50), 5, poi_category::kGasStation);
  auto first = client->Execute(request);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = client->Execute(request);
  // The shed verdict is a full kResponse frame with the typed code
  // in-band — the transport round trip itself succeeds.
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_FALSE(second.value().ok());
  EXPECT_EQ(second.value().error, ErrorCode::kShed);
  EXPECT_EQ(second.value().status().code(), ErrorCode::kShed);
}

TEST(ServerClientTest, DeadlineTravelsInTheFrame) {
  Loopback loop = StartLoopback();
  auto client =
      CloakClient::Connect("127.0.0.1", loop.server->port()).value();
  QueryRequest request = QueryRequest::Range(
      Rect(5, 40, 95, 60), 4, poi_category::kGasStation);
  request.deadline_us = 1;  // Expired before the fan-out can finish.
  auto response = client->Execute(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  // Honest either way: degraded partial superset or typed in-band
  // deadline-exceeded — never a silent full-looking answer.
  if (!response.value().ok()) {
    EXPECT_EQ(response.value().error, ErrorCode::kDeadlineExceeded);
  } else if (!response.value().degraded) {
    EXPECT_EQ(response.value().covered_shards, 0xFull);
  }
}

TEST(ServerClientTest, MalformedPayloadGetsErrorFrameAndConnectionSurvives) {
  Loopback loop = StartLoopback();
  RawConn raw(loop.server->port());

  // A query frame whose payload is one byte short: intact framing,
  // undecodable payload.
  std::string frame;
  AppendQueryFrame(7, QueryRequest::Range(Rect(1, 1, 2, 2), 1, 0), &frame);
  std::string broken = frame;
  broken.resize(broken.size() - 1);
  const uint32_t short_len =
      static_cast<uint32_t>(broken.size() - kFrameHeaderSize);
  std::memcpy(broken.data() + 16, &short_len, sizeof(short_len));
  raw.SendAll(broken);

  std::string reply;
  ASSERT_FALSE(raw.ReadUntilEofOrBytes(&reply, kFrameHeaderSize));
  FrameHeader header;
  // Wait for the full error frame.
  ASSERT_FALSE(raw.ReadUntilEofOrBytes(&reply, kFrameHeaderSize + 5));
  ASSERT_TRUE(DecodeFrameHeader(
                  reinterpret_cast<const uint8_t*>(reply.data()),
                  reply.size(), &header)
                  .ok());
  EXPECT_EQ(header.type, FrameType::kError);
  EXPECT_EQ(header.request_id, 7u);
  ASSERT_FALSE(raw.ReadUntilEofOrBytes(
      &reply, kFrameHeaderSize + header.payload_len));
  ErrorCode code = ErrorCode::kOk;
  std::string message;
  ASSERT_TRUE(DecodeErrorPayload(
                  reinterpret_cast<const uint8_t*>(reply.data()) +
                      kFrameHeaderSize,
                  header.payload_len, &code, &message)
                  .ok());
  EXPECT_EQ(code, ErrorCode::kMalformedRequest);

  // The connection survived: a valid query on the same socket answers.
  reply.erase(0, kFrameHeaderSize + header.payload_len);
  raw.SendAll(frame);
  ASSERT_FALSE(raw.ReadUntilEofOrBytes(&reply, kFrameHeaderSize));
  ASSERT_TRUE(DecodeFrameHeader(
                  reinterpret_cast<const uint8_t*>(reply.data()),
                  reply.size(), &header)
                  .ok());
  EXPECT_EQ(header.type, FrameType::kResponse);
  EXPECT_EQ(header.request_id, 7u);
}

TEST(ServerClientTest, BadMagicClosesTheConnection) {
  Loopback loop = StartLoopback();
  RawConn raw(loop.server->port());
  raw.SendAll("NOT THE PROTOCOL YOU ARE LOOKING FOR............");
  std::string reply;
  // The server queues a best-effort error frame, then closes.
  EXPECT_TRUE(raw.ReadUntilEofOrBytes(&reply, 1u << 20));
  if (reply.size() >= kFrameHeaderSize) {
    FrameHeader header;
    ASSERT_TRUE(DecodeFrameHeader(
                    reinterpret_cast<const uint8_t*>(reply.data()),
                    reply.size(), &header)
                    .ok());
    EXPECT_EQ(header.type, FrameType::kError);
  }
}

TEST(ServerClientTest, PipelineOverflowShedsWithTypedFrames) {
  CloakServerOptions server_options;
  server_options.max_pipeline = 2;
  server_options.query_threads = 1;
  Loopback loop = StartLoopback(server_options);
  auto client =
      CloakClient::Connect("127.0.0.1", loop.server->port()).value();

  const QueryRequest request = QueryRequest::Range(
      Rect(40, 40, 50, 50), 5, poi_category::kGasStation);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 64; ++i) ids.push_back(client->Send(request).value());
  size_t ok = 0, shed = 0;
  for (uint64_t id : ids) {
    auto response = client->Await(id);
    if (response.ok()) {
      ++ok;
    } else {
      ASSERT_EQ(response.status().code(), ErrorCode::kShed)
          << response.status().ToString();
      ++shed;
    }
  }
  // Everything is answered; what exceeded the window is typed kShed.
  EXPECT_EQ(ok + shed, 64u);
  EXPECT_GT(ok, 0u);
  EXPECT_GT(shed, 0u);
  EXPECT_EQ(
      loop.db->metrics().counter("net.pipeline_shed_total")->Value(), shed);
}

TEST(ServerClientTest, PollBackendServesQueries) {
  CloakServerOptions server_options;
  server_options.force_poll = true;
  Loopback loop = StartLoopback(server_options);
  auto client =
      CloakClient::Connect("127.0.0.1", loop.server->port()).value();
  auto response = client->Execute(QueryRequest::Range(
      Rect(40, 40, 50, 50), 5, poi_category::kGasStation));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_FALSE(response.value().candidates.empty());
}

TEST(ServerClientTest, NetMetricsAreRegisteredAndCount) {
  Loopback loop = StartLoopback();
  // Eagerly registered at server start, before any traffic.
  const std::string json = loop.db->metrics().ExportJson();
  for (const char* name :
       {"net.connections_opened_total", "net.connections_closed_total",
        "net.active_connections", "net.frames_read_total",
        "net.frames_written_total", "net.decode_errors_total",
        "net.bytes_read_total", "net.bytes_written_total",
        "net.write_buffer_hwm_bytes", "net.read_stalls_total",
        "net.pipeline_shed_total"}) {
    EXPECT_NE(json.find(name), std::string::npos) << name;
  }

  {
    auto client =
        CloakClient::Connect("127.0.0.1", loop.server->port()).value();
    auto response = client->Execute(QueryRequest::Range(
        Rect(40, 40, 50, 50), 5, poi_category::kGasStation));
    ASSERT_TRUE(response.ok());
  }
  auto& metrics = loop.db->metrics();
  // The server counts written bytes only after send() returns, so the
  // client can hold the reply before the counter moves; wait (bounded).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (metrics.counter("net.bytes_written_total")->Value() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(metrics.counter("net.connections_opened_total")->Value(), 1u);
  EXPECT_GE(metrics.counter("net.frames_read_total")->Value(), 1u);
  EXPECT_GE(metrics.counter("net.frames_written_total")->Value(), 1u);
  EXPECT_GT(metrics.counter("net.bytes_read_total")->Value(), 0u);
  EXPECT_GT(metrics.counter("net.bytes_written_total")->Value(), 0u);
  EXPECT_EQ(metrics.counter("net.decode_errors_total")->Value(), 0u);
}

TEST(ServerClientTest, ManyConnectionsConcurrently) {
  Loopback loop = StartLoopback();
  constexpr int kClients = 8;
  constexpr int kQueriesEach = 16;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&loop, &failures] {
      auto client =
          CloakClient::Connect("127.0.0.1", loop.server->port()).value();
      for (int i = 0; i < kQueriesEach; ++i) {
        auto response = client->Execute(QueryRequest::Range(
            Rect(40, 40, 50, 50), 5, poi_category::kGasStation));
        if (!response.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(
      loop.db->metrics().counter("net.connections_opened_total")->Value(),
      static_cast<uint64_t>(kClients));
}

TEST(ServerClientTest, StopIsIdempotentAndJoinsCleanly) {
  Loopback loop = StartLoopback();
  {
    auto client =
        CloakClient::Connect("127.0.0.1", loop.server->port()).value();
    ASSERT_TRUE(client->Ping().ok());
  }
  loop.server->Stop();
  loop.server->Stop();
  EXPECT_FALSE(CloakClient::Connect("127.0.0.1", loop.server->port()).ok());
}

}  // namespace
}  // namespace cloakdb::net
