// Contract tests of the service's one fan-out path. Every caller — the five
// one-shot query kinds and standing-query registration — must validate its
// request at entry and degrade identically when probes fail, when the shard
// budget runs out, or when the deadline has already passed. The
// FanoutContractTest suite runs under TSan in CI.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "net/client.h"
#include "net/server.h"
#include "service/cloak_db_service.h"
#include "sim/poi.h"
#include "util/deadline.h"
#include "util/random.h"

namespace cloakdb {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr Category kGas = poi_category::kGasStation;
constexpr UserId kIssuer = 1;
/// Large enough that the standing k-NN reach scan outlasts a 1 µs deadline.
constexpr size_t kStandingK = 50;

CloakDbServiceOptions BaseOptions() {
  CloakDbServiceOptions options;
  options.space = Rect(0, 0, 100, 100);
  options.num_shards = 4;
  return options;
}

/// A 4-shard service with 2000 POIs and a small crowd. The issuer's privacy
/// profile forces a cloak of at least 90% of the space, so its standing
/// coverage spans every stripe, like the one-shot regions below.
std::unique_ptr<CloakDbService> MakeService(
    const CloakDbServiceOptions& options) {
  auto db = CloakDbService::Create(options).value();
  Rng rng(17);
  PoiOptions poi;
  poi.count = 2000;
  poi.category = kGas;
  poi.name_prefix = "gas";
  EXPECT_TRUE(
      db->BulkLoadCategory(kGas, GeneratePois(options.space, poi, &rng).value())
          .ok());
  const TimeOfDay noon = TimeOfDay::FromHms(12, 0).value();
  EXPECT_TRUE(db->RegisterUser(
                    kIssuer, PrivacyProfile::Uniform({1, 9000.0, kInf}).value())
                  .ok());
  EXPECT_TRUE(db->UpdateLocation(kIssuer, Point(50, 50), noon).ok());
  for (UserId user = 2; user <= 40; ++user) {
    EXPECT_TRUE(db->RegisterUser(user, PrivacyProfile::Public()).ok());
    EXPECT_TRUE(db->UpdateLocation(
                      user, Point(rng.Uniform(0, 100), rng.Uniform(0, 100)),
                      noon)
                    .ok());
  }
  EXPECT_TRUE(db->Flush().ok());
  return db;
}

// --- Request validation at the executor's entry ----------------------------

struct InvalidCase {
  const char* name;
  QueryRequest request;
};

std::vector<InvalidCase> InvalidCases() {
  const Rect nan_x(kNaN, 10, kNaN, 20);
  const Rect nan_y(10, kNaN, 20, 30);
  const Rect box(40, 40, 50, 50);
  return {
      {"range NaN region", QueryRequest::Range(nan_x, 5, kGas)},
      {"range zero radius", QueryRequest::Range(box, 0, kGas)},
      {"nn NaN region", QueryRequest::Nn(nan_x, kGas)},
      {"nn NaN y bound", QueryRequest::Nn(nan_y, kGas)},
      {"knn NaN region", QueryRequest::Knn(nan_x, 3, kGas)},
      {"knn zero k", QueryRequest::Knn(box, 0, kGas)},
      {"count NaN window", QueryRequest::Count(nan_x)},
      {"count empty window", QueryRequest::Count(Rect())},
      {"heatmap zero resolution", QueryRequest::HeatmapAt(0)},
  };
}

TEST(QueryValidationTest, InvalidRequestsFailInProcess) {
  CloakDbServiceOptions shared = BaseOptions();
  shared.enable_shared_execution = true;
  shared.batch_window_us = 200;
  for (const CloakDbServiceOptions& options : {BaseOptions(), shared}) {
    auto db = MakeService(options);
    for (const InvalidCase& c : InvalidCases()) {
      const QueryResponse response = db->ExecuteQuery(c.request);
      EXPECT_EQ(response.error, ErrorCode::kInvalidArgument)
          << c.name << " (shared=" << options.enable_shared_execution
          << "): " << response.message;
      EXPECT_TRUE(response.candidates.empty()) << c.name;
    }
  }
}

TEST(QueryValidationTest, InvalidRequestsFailOverTheWire) {
  auto db = MakeService(BaseOptions());
  auto server = net::CloakServer::Create(db.get(), {});
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client =
      net::CloakClient::Connect("127.0.0.1", server.value()->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  for (const InvalidCase& c : InvalidCases()) {
    auto response = client.value()->Execute(c.request);
    ASSERT_TRUE(response.ok()) << c.name << ": "
                               << response.status().ToString();
    EXPECT_EQ(response.value().error, ErrorCode::kInvalidArgument)
        << c.name << ": " << response.value().message;
    EXPECT_TRUE(response.value().candidates.empty()) << c.name;
  }
}

// --- One degradation contract for every fan-out caller ---------------------

/// What one caller observed: its status plus the degradation markers its
/// fan-out produced.
struct Outcome {
  Status status;
  bool degraded = false;
  uint64_t covered = 0;
};

struct Caller {
  const char* name;
  /// Runs the caller once; `expired` forces an already-expired deadline.
  std::function<Outcome(CloakDbService& db, bool expired)> run;
};

/// A one-shot query. An expired run goes through the batch API, whose
/// members carry their own deadline, so the deadline is already past when
/// the fan-out starts.
Outcome RunQuery(CloakDbService& db, const QueryRequest& request,
                 bool expired) {
  QueryResponse response;
  if (expired) {
    BatchQuery query;
    query.request = request;
    query.deadline = Deadline::After(0);
    response = db.ExecuteQueryBatch({query}).front();
  } else {
    response = db.ExecuteQuery(request);
  }
  return {response.status(), response.degraded, response.covered_shards};
}

double AttrOf(const obs::SpanRecord& span, const char* key) {
  for (uint8_t i = 0; i < span.num_attrs; ++i) {
    if (std::strcmp(span.attrs[i].key, key) == 0) return span.attrs[i].value;
  }
  return 0.0;
}

/// A standing k-NN registration. Its deadline is the admission deadline
/// (1 µs in the expired run: the k-NN reach scan outlasts it). A degraded
/// registration is queued for repair at once, so the degradation markers
/// are read off the `fanout` span of the registration's own trace.
Outcome RegisterStanding(CloakDbService& db, bool /*expired*/) {
  Outcome out;
  out.status = db.RegisterContinuousKnn(kIssuer, kStandingK, kGas).status();
  const std::vector<obs::SpanRecord> spans =
      db.tracer()->TakeCompletedSpans();
  for (const obs::SpanRecord& root : spans) {
    if (std::strcmp(root.name, "cq.register") != 0) continue;
    for (const obs::SpanRecord& span : spans) {
      if (span.parent_id != root.span_id ||
          std::strcmp(span.name, "fanout") != 0)
        continue;
      out.degraded = AttrOf(span, "degraded") != 0.0;
      out.covered = static_cast<uint64_t>(AttrOf(span, "covered_shards"));
    }
  }
  return out;
}

std::vector<Caller> Callers() {
  // Every region spans all four stripes, so each fan-out's home plan is
  // the whole service.
  const Rect wide(5, 40, 95, 60);
  return {
      {"range",
       [wide](CloakDbService& db, bool expired) {
         return RunQuery(db, QueryRequest::Range(wide, 4, kGas), expired);
       }},
      {"nn",
       [wide](CloakDbService& db, bool expired) {
         return RunQuery(db, QueryRequest::Nn(wide, kGas), expired);
       }},
      {"knn",
       [wide](CloakDbService& db, bool expired) {
         return RunQuery(db, QueryRequest::Knn(wide, 3, kGas), expired);
       }},
      {"count",
       [](CloakDbService& db, bool expired) {
         return RunQuery(db, QueryRequest::Count(Rect(0, 0, 100, 100)),
                         expired);
       }},
      {"heatmap",
       [](CloakDbService& db, bool expired) {
         return RunQuery(db, QueryRequest::HeatmapAt(4), expired);
       }},
      {"standing registration", RegisterStanding},
  };
}

CloakDbServiceOptions TracedOptions() {
  CloakDbServiceOptions options = BaseOptions();
  options.trace.enabled = true;
  return options;
}

TEST(FanoutContractTest, ProbeFailuresReturnTheFirstTypedError) {
  CloakDbServiceOptions options = TracedOptions();
  options.fault_injection.enabled = true;
  options.fault_injection.probe_failure_probability = 1.0;
  for (const Caller& caller : Callers()) {
    auto db = MakeService(options);
    const Outcome out = caller.run(*db, /*expired=*/false);
    EXPECT_EQ(out.status.code(), StatusCode::kInternal) << caller.name;
    EXPECT_EQ(out.status.message(), "injected probe failure") << caller.name;
    EXPECT_GT(db->fault_injector()->probe_failures(), 0u) << caller.name;
  }
}

TEST(FanoutContractTest, ShardBudgetDegradesWithExactCoverage) {
  CloakDbServiceOptions options = TracedOptions();
  // One token: the warm-up query spends it, the caller runs degraded.
  options.overload.max_queries_per_s = 0.001;
  options.overload.burst = 1;
  options.overload.policy = OverloadPolicy::kDegrade;
  options.overload.degrade_shard_budget = 1;
  for (const Caller& caller : Callers()) {
    auto db = MakeService(options);
    ASSERT_TRUE(db->Heatmap(2).ok()) << caller.name;
    (void)db->tracer()->TakeCompletedSpans();
    const Outcome out = caller.run(*db, /*expired=*/false);
    EXPECT_TRUE(out.status.ok()) << caller.name << ": "
                                 << out.status.ToString();
    EXPECT_TRUE(out.degraded) << caller.name;
    // Only the first home stripe was probed.
    EXPECT_EQ(out.covered, 0x1u) << caller.name;
  }
}

TEST(FanoutContractTest, ExpiredDeadlineIsDeadlineExceededCountedOnce) {
  CloakDbServiceOptions options = TracedOptions();
  options.overload.query_deadline_us = 1;
  for (const Caller& caller : Callers()) {
    auto db = MakeService(options);
    const obs::Counter* hits =
        db->metrics().counter("query.deadline_hits_total");
    const uint64_t hits_before = hits->Value();
    const uint64_t events_before = db->flight_recorder()->events_total();
    const Outcome out = caller.run(*db, /*expired=*/true);
    EXPECT_EQ(out.status.code(), StatusCode::kDeadlineExceeded)
        << caller.name << ": " << out.status.ToString();
    EXPECT_EQ(hits->Value(), hits_before + 1) << caller.name;
    EXPECT_EQ(db->flight_recorder()->events_total(), events_before + 1)
        << caller.name;
    const std::vector<obs::FlightEvent> events =
        db->flight_recorder()->Snapshot();
    ASSERT_FALSE(events.empty()) << caller.name;
    EXPECT_EQ(events.back().kind, obs::FlightEventKind::kDeadlineHit)
        << caller.name;
  }
}

}  // namespace
}  // namespace cloakdb
