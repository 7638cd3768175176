// Tests of the service-layer observability added with src/obs/: metric
// wiring through the full request path, option validation, poisoned-batch
// shedding, the slow-query log, and concurrent metric access (this suite
// runs under TSan in CI).

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "service/cloak_db_service.h"
#include "sim/poi.h"
#include "util/random.h"

namespace cloakdb {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TimeOfDay Noon() { return TimeOfDay::FromHms(12, 0).value(); }

PrivacyProfile KProfile(uint32_t k) {
  return PrivacyProfile::Uniform({k, 0.0, kInf}).value();
}

CloakDbServiceOptions DefaultOptions(uint32_t shards) {
  CloakDbServiceOptions options;
  options.space = Rect(0, 0, 100, 100);
  options.num_shards = shards;
  return options;
}

std::unique_ptr<CloakDbService> MakeService(uint32_t shards) {
  auto service = CloakDbService::Create(DefaultOptions(shards));
  EXPECT_TRUE(service.ok());
  return std::move(service).value();
}

std::vector<PublicObject> MakePois(size_t count, uint64_t seed = 23) {
  Rng rng(seed);
  PoiOptions options;
  options.count = count;
  options.category = poi_category::kGasStation;
  options.name_prefix = "gas";
  auto pois = GeneratePois(Rect(0, 0, 100, 100), options, &rng);
  EXPECT_TRUE(pois.ok());
  return std::move(pois).value();
}

TEST(ServiceMetricsTest, CreateRejectsZeroMaxBatch) {
  auto options = DefaultOptions(2);
  options.max_batch = 0;
  EXPECT_EQ(CloakDbService::Create(options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ServiceMetricsTest, CreateRejectsZeroQueueCapacity) {
  auto options = DefaultOptions(2);
  options.queue_capacity = 0;
  EXPECT_EQ(CloakDbService::Create(options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ServiceMetricsTest, PoisonedUpdatesAreSkippedAndCounted) {
  auto db = MakeService(1);
  for (UserId user = 1; user <= 10; ++user) {
    ASSERT_TRUE(db->RegisterUser(user, KProfile(1)).ok());
  }
  Rng rng(5);
  for (UserId user = 1; user <= 10; ++user) {
    ASSERT_TRUE(db->EnqueueUpdate(
                      user, {rng.Uniform(0, 100), rng.Uniform(0, 100)},
                      Noon())
                    .ok());
  }
  // Poison the same batch: three updates for users that were never
  // registered (they pass service-level validation — routing needs no
  // registration — and must be shed at drain, not sink the whole batch).
  for (UserId ghost = 100; ghost <= 102; ++ghost) {
    ASSERT_TRUE(
        db->EnqueueUpdate(ghost, {50.0, 50.0}, Noon()).ok());
  }
  // An out-of-space location can only enter through the shard directly
  // (the service front door validates the space).
  ASSERT_TRUE(
      db->shard(0).Enqueue({11, {500.0, 500.0}, Noon()}, /*block=*/true).ok());
  ASSERT_TRUE(db->Flush().ok());

  auto stats = db->Stats();
  EXPECT_EQ(stats.ingest.updates_enqueued, 14u);
  EXPECT_EQ(stats.ingest.updates_applied, 10u);
  EXPECT_EQ(stats.ingest.updates_rejected, 4u);
  EXPECT_EQ(db->metrics().counter("ingest.rejected_total")->Value(), 4u);
  // The valid ten went through the batch path, not a serial fallback.
  EXPECT_EQ(stats.anonymizer.updates, 10u);
}

TEST(ServiceMetricsTest, RequestPathPopulatesMetricTaxonomy) {
  auto db = MakeService(4);
  ASSERT_TRUE(
      db->BulkLoadCategory(poi_category::kGasStation, MakePois(200)).ok());
  Rng rng(9);
  for (UserId user = 1; user <= 40; ++user) {
    ASSERT_TRUE(db->RegisterUser(user, KProfile(2)).ok());
    ASSERT_TRUE(db->EnqueueUpdate(
                      user, {rng.Uniform(0, 100), rng.Uniform(0, 100)},
                      Noon())
                    .ok());
  }
  ASSERT_TRUE(db->Flush().ok());

  auto cloaked = db->CloakForQuery(1, Noon());
  ASSERT_TRUE(cloaked.ok());
  const Rect region = cloaked.value().cloaked.region;
  ASSERT_TRUE(
      db->PrivateRange(region, 10.0, poi_category::kGasStation).ok());
  ASSERT_TRUE(db->PrivateNn(region, poi_category::kGasStation).ok());
  ASSERT_TRUE(db->PrivateKnn(region, 3, poi_category::kGasStation).ok());
  ASSERT_TRUE(db->PublicCount(Rect(0, 0, 100, 100)).ok());
  ASSERT_TRUE(db->Heatmap(8).ok());

  auto& metrics = db->metrics();
  for (const char* name :
       {"query.private_range.latency_us", "query.private_range.probe_us",
        "query.private_range.merge_us", "query.private_range.shards_touched",
        "query.private_range.candidates", "query.private_nn.latency_us",
        "query.private_knn.latency_us", "query.public_count.latency_us",
        "query.heatmap.latency_us", "ingest.queue_wait_us",
        "ingest.cloak_us", "ingest.batch_size"}) {
    EXPECT_GE(metrics.SnapshotHistogram(name).count, 1u) << name;
  }
  // Every one of the 40 updates waited in a queue and was measured.
  EXPECT_EQ(metrics.SnapshotHistogram("ingest.queue_wait_us").count, 40u);
  EXPECT_GT(metrics.counter("query.private_range.wire_bytes")->Value(), 0u);
  EXPECT_GE(metrics.gauge("queue.depth_hwm")->Value(), 1.0);

  // Percentiles come out ordered and positive.
  auto latency = metrics.SnapshotHistogram("query.private_range.latency_us");
  EXPECT_GT(latency.p50(), 0.0);
  EXPECT_LE(latency.p50(), latency.p95());
  EXPECT_LE(latency.p95(), latency.p99());

  // A rejected query books neither a latency sample nor wire bytes.
  const ServiceStats before = db->Stats();
  EXPECT_FALSE(db->PrivateRange(Rect(), 10.0, poi_category::kGasStation).ok());
  EXPECT_FALSE(db->PrivateRange(region, -1.0, poi_category::kGasStation).ok());
  EXPECT_FALSE(db->PrivateNn(Rect(), poi_category::kGasStation).ok());
  EXPECT_FALSE(db->PrivateKnn(region, 0, poi_category::kGasStation).ok());
  EXPECT_FALSE(db->PublicCount(Rect()).ok());
  EXPECT_FALSE(db->Heatmap(0).ok());
  const ServiceStats after = db->Stats();
  EXPECT_EQ(after.queries, before.queries);
  EXPECT_EQ(after.bytes_to_clients, before.bytes_to_clients);

  // Nor does a query that fails because every shard probe failed.
  auto options = DefaultOptions(2);
  options.fault_injection.enabled = true;
  options.fault_injection.probe_failure_probability = 1.0;
  auto failing = CloakDbService::Create(options).value();
  ASSERT_TRUE(
      failing->BulkLoadCategory(poi_category::kGasStation, MakePois(50)).ok());
  EXPECT_FALSE(
      failing->PrivateRange(region, 10.0, poi_category::kGasStation).ok());
  EXPECT_FALSE(failing->PrivateNn(region, poi_category::kGasStation).ok());
  const ServiceStats failed = failing->Stats();
  EXPECT_EQ(failed.queries, (std::array<uint64_t, kNumQueryKinds>{}));
  EXPECT_EQ(failed.bytes_to_clients, 0u);
}

// Each query is counted once, after its merge, however many shards it
// touched: Stats() and ToString report the issued per-kind counts, and the
// bytes sent to clients are the sum of the per-kind wire-byte counters.
TEST(ServiceMetricsTest, StatsCountEachQueryOnceAcrossShards) {
  auto db = MakeService(4);
  ASSERT_TRUE(
      db->BulkLoadCategory(poi_category::kGasStation, MakePois(400)).ok());
  Rng rng(17);
  for (UserId user = 1; user <= 60; ++user) {
    ASSERT_TRUE(db->RegisterUser(user, KProfile(4)).ok());
    ASSERT_TRUE(db->EnqueueUpdate(
                      user, {rng.Uniform(0, 100), rng.Uniform(0, 100)},
                      Noon())
                    .ok());
  }
  ASSERT_TRUE(db->Flush().ok());

  // Wide regions and windows so most queries fan out to several shards.
  constexpr size_t kRange = 12, kNn = 10, kKnn = 8, kCount = 6, kHeatmap = 3;
  auto region = [&] {
    const double x = rng.Uniform(0, 60), y = rng.Uniform(0, 60);
    return Rect(x, y, x + 40, y + 40);
  };
  for (size_t i = 0; i < kRange; ++i)
    ASSERT_TRUE(
        db->PrivateRange(region(), 8.0, poi_category::kGasStation).ok());
  for (size_t i = 0; i < kNn; ++i)
    ASSERT_TRUE(db->PrivateNn(region(), poi_category::kGasStation).ok());
  for (size_t i = 0; i < kKnn; ++i)
    ASSERT_TRUE(db->PrivateKnn(region(), 5, poi_category::kGasStation).ok());
  for (size_t i = 0; i < kCount; ++i)
    ASSERT_TRUE(db->PublicCount(region()).ok());
  for (size_t i = 0; i < kHeatmap; ++i) ASSERT_TRUE(db->Heatmap(8).ok());

  const ServiceStats stats = db->Stats();
  const std::array<uint64_t, kNumQueryKinds> issued = {kRange, kNn, kKnn,
                                                       kCount, kHeatmap};
  EXPECT_EQ(stats.queries, issued);
  const std::string text = stats.ToString();
  for (size_t kind = 0; kind < kNumQueryKinds; ++kind) {
    const std::string field = std::string(" ") +
                              QueryKindName(static_cast<QueryKind>(kind)) +
                              "=" + std::to_string(issued[kind]) + " ";
    EXPECT_NE(text.find(field), std::string::npos) << field << "\n" << text;
  }
  const auto& metrics = db->metrics();
  const uint64_t wire = metrics.CounterValue("query.private_range.wire_bytes") +
                        metrics.CounterValue("query.private_nn.wire_bytes") +
                        metrics.CounterValue("query.private_knn.wire_bytes");
  EXPECT_GT(wire, 0u);
  EXPECT_EQ(stats.bytes_to_clients, wire);
  EXPECT_NE(text.find(" bytes=" + std::to_string(wire) + "\n"),
            std::string::npos)
      << text;
  // The queries reached several shards each, so a per-shard-probe count
  // would have read high.
  EXPECT_GT(metrics.SnapshotHistogram("query.private_range.shards_touched")
                .sum,
            static_cast<double>(kRange));
  EXPECT_EQ(stats.ingest.updates_enqueued, 60u);
  EXPECT_EQ(stats.ingest.updates_applied, 60u);
}

TEST(ServiceMetricsTest, SlowQueryLogSurfacesSlowestQueries) {
  auto db = MakeService(2);
  ASSERT_TRUE(
      db->BulkLoadCategory(poi_category::kGasStation, MakePois(100)).ok());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(db->PrivateRange(Rect(10, 10, 30, 30), 5.0,
                                 poi_category::kGasStation)
                    .ok());
    ASSERT_TRUE(db->PublicCount(Rect(0, 0, 100, 100)).ok());
  }
  auto stats = db->Stats();
  ASSERT_FALSE(stats.slow_queries.empty());
  EXPECT_LE(stats.slow_queries.size(),
            db->options().slow_query_log_capacity);
  for (size_t i = 1; i < stats.slow_queries.size(); ++i) {
    EXPECT_GE(stats.slow_queries[i - 1].latency_us,
              stats.slow_queries[i].latency_us);
  }
  for (const auto& q : stats.slow_queries) {
    EXPECT_TRUE(q.kind == "private_range" || q.kind == "public_count")
        << q.kind;
    EXPECT_GT(q.latency_us, 0.0);
    EXPECT_GE(q.shards_touched, 1u);
  }
}

TEST(ServiceMetricsTest, ConcurrentEnqueueStatsAndFlush) {
  auto db = MakeService(4);
  constexpr UserId kUsers = 32;
  for (UserId user = 1; user <= kUsers; ++user) {
    ASSERT_TRUE(db->RegisterUser(user, KProfile(1)).ok());
  }
  constexpr int kProducers = 4;
  constexpr int kRounds = 400;
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      Rng rng(100 + p);
      for (int i = 0; i < kRounds; ++i) {
        UserId user = 1 + (p * kRounds + i) % kUsers;
        EXPECT_TRUE(db->EnqueueUpdate(
                          user, {rng.Uniform(0, 100), rng.Uniform(0, 100)},
                          Noon())
                        .ok());
      }
    });
  }
  // Readers race the producers: stats aggregation, JSON export, and an
  // explicit drain all touch the metrics the producers are writing.
  threads.emplace_back([&] {
    while (!done.load(std::memory_order_acquire)) {
      (void)db->Stats();
      (void)db->metrics().ExportJson();
      std::this_thread::yield();
    }
  });
  threads.emplace_back([&] {
    while (!done.load(std::memory_order_acquire)) {
      EXPECT_TRUE(db->Flush().ok());
    }
  });
  for (int p = 0; p < kProducers; ++p) threads[p].join();
  done.store(true, std::memory_order_release);
  for (size_t t = kProducers; t < threads.size(); ++t) threads[t].join();
  ASSERT_TRUE(db->Flush().ok());

  auto stats = db->Stats();
  EXPECT_EQ(stats.ingest.updates_enqueued,
            static_cast<uint64_t>(kProducers) * kRounds);
  EXPECT_EQ(stats.ingest.updates_applied,
            static_cast<uint64_t>(kProducers) * kRounds);
  EXPECT_EQ(stats.ingest.updates_rejected, 0u);
  EXPECT_EQ(db->metrics()
                .SnapshotHistogram("ingest.queue_wait_us")
                .count,
            static_cast<uint64_t>(kProducers) * kRounds);
}

TEST(ServiceMetricsTest, ExportJsonContainsTaxonomyKeys) {
  auto db = MakeService(2);
  ASSERT_TRUE(db->RegisterUser(1, KProfile(1)).ok());
  ASSERT_TRUE(db->EnqueueUpdate(1, {10.0, 10.0}, Noon()).ok());
  ASSERT_TRUE(db->Flush().ok());
  std::string json = db->metrics().ExportJson();
  for (const char* key :
       {"\"histograms\"", "\"counters\"", "\"gauges\"",
        "\"ingest.queue_wait_us\"", "\"ingest.cloak_us\"",
        "\"query.private_range.latency_us\"", "\"queue.depth_hwm\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

}  // namespace
}  // namespace cloakdb
