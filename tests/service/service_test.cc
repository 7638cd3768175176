#include "service/cloak_db_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>

#include "server/private_queries.h"
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

std::vector<PublicObject> MakePois(size_t count, uint64_t seed = 11) {
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

TEST(CloakDbServiceTest, CreateValidatesOptions) {
  CloakDbServiceOptions bad_space;
  bad_space.space = Rect();
  EXPECT_EQ(CloakDbService::Create(bad_space).status().code(),
            StatusCode::kInvalidArgument);
  auto no_shards = DefaultOptions(4);
  no_shards.num_shards = 0;
  EXPECT_EQ(CloakDbService::Create(no_shards).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CloakDbServiceTest, ShardRoutingIsDeterministicAndBalanced) {
  auto db = MakeService(8);
  std::vector<size_t> per_shard(8, 0);
  for (UserId user = 1; user <= 8000; ++user) {
    uint32_t shard = db->ShardOfUser(user);
    ASSERT_LT(shard, 8u);
    EXPECT_EQ(shard, db->ShardOfUser(user));  // stable
    ++per_shard[shard];
  }
  for (size_t count : per_shard) {
    // Expected 1000 per shard; sequential ids must hash-scatter, not clump.
    EXPECT_GT(count, 700u);
    EXPECT_LT(count, 1300u);
  }

  // Stripes: monotone in x and covering the space edge-to-edge.
  EXPECT_EQ(db->ShardOfX(0.0), 0u);
  EXPECT_EQ(db->ShardOfX(99.99), 7u);
  for (double x = 0.0; x < 99.0; x += 1.0) {
    EXPECT_LE(db->ShardOfX(x), db->ShardOfX(x + 1.0));
  }
}

TEST(CloakDbServiceTest, UserLifecycleRoutesToOwningShard) {
  auto db = MakeService(4);
  ASSERT_TRUE(db->RegisterUser(1, KProfile(1)).ok());
  EXPECT_EQ(db->RegisterUser(1, KProfile(1)).code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(db->PseudonymOf(1).ok());
  EXPECT_EQ(db->PseudonymOf(2).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(db->shard(db->ShardOfUser(1)).Stats().num_users, 1u);
  ASSERT_TRUE(db->UnregisterUser(1).ok());
  EXPECT_EQ(db->UnregisterUser(1).code(), StatusCode::kNotFound);
}

TEST(CloakDbServiceTest, PseudonymsAreUniqueAcrossShards) {
  auto db = MakeService(8);
  std::set<ObjectId> pseudonyms;
  for (UserId user = 1; user <= 400; ++user) {
    ASSERT_TRUE(db->RegisterUser(user, KProfile(1)).ok());
    ASSERT_TRUE(pseudonyms.insert(db->PseudonymOf(user).value()).second)
        << "pseudonym collision across shards for user " << user;
  }
}

TEST(CloakDbServiceTest, PrivateRangeMatchesSingleShardOracle) {
  auto pois = MakePois(300);
  auto db = MakeService(4);
  ASSERT_TRUE(db->BulkLoadCategory(poi_category::kGasStation, pois).ok());
  QueryProcessor oracle(Rect(0, 0, 100, 100));
  ASSERT_TRUE(
      oracle.store().BulkLoadCategory(poi_category::kGasStation, pois).ok());

  Rng rng(3);
  for (int trial = 0; trial < 25; ++trial) {
    double x = rng.Uniform(0, 90), y = rng.Uniform(0, 90);
    Rect cloaked(x, y, x + rng.Uniform(1, 10), y + rng.Uniform(1, 10));
    double radius = rng.Uniform(0.5, 8.0);
    auto ours = db->PrivateRange(cloaked, radius, poi_category::kGasStation);
    auto truth = oracle.PrivateRange(cloaked, radius,
                                     poi_category::kGasStation);
    ASSERT_TRUE(ours.ok());
    ASSERT_TRUE(truth.ok());
    EXPECT_EQ(SortedIds(ours.value().candidates),
              SortedIds(truth.value().candidates))
        << "trial " << trial;
    EXPECT_EQ(ours.value().extended_region, truth.value().extended_region);
  }
  // Error shapes match the single-shard API.
  EXPECT_EQ(db->PrivateRange(Rect(), 1.0, poi_category::kGasStation)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db->PrivateRange(Rect(1, 1, 2, 2), 0.0,
                             poi_category::kGasStation)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db->PrivateRange(Rect(1, 1, 2, 2), 1.0, /*category=*/777)
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(CloakDbServiceTest, PrivateNnAndKnnRefineToTheOracleAnswer) {
  auto pois = MakePois(250, 17);
  auto db = MakeService(4);
  ASSERT_TRUE(db->BulkLoadCategory(poi_category::kGasStation, pois).ok());
  QueryProcessor oracle(Rect(0, 0, 100, 100));
  ASSERT_TRUE(
      oracle.store().BulkLoadCategory(poi_category::kGasStation, pois).ok());

  Rng rng(5);
  for (int trial = 0; trial < 15; ++trial) {
    double x = rng.Uniform(0, 92), y = rng.Uniform(0, 92);
    Rect cloaked(x, y, x + rng.Uniform(1, 8), y + rng.Uniform(1, 8));
    auto ours = db->PrivateNn(cloaked, poi_category::kGasStation);
    auto truth = oracle.PrivateNn(cloaked, poi_category::kGasStation);
    ASSERT_TRUE(ours.ok());
    ASSERT_TRUE(truth.ok());
    auto ours_k = db->PrivateKnn(cloaked, 3, poi_category::kGasStation);
    auto truth_k = oracle.PrivateKnn(cloaked, 3, poi_category::kGasStation);
    ASSERT_TRUE(ours_k.ok());
    ASSERT_TRUE(truth_k.ok());

    // The merged candidate list must refine to the exact answer for every
    // possible true location inside the cloaked region (the paper's
    // correctness contract), matching the single-shard oracle.
    for (double fx = 0.1; fx < 1.0; fx += 0.2) {
      for (double fy = 0.1; fy < 1.0; fy += 0.2) {
        Point p{cloaked.min_x + fx * (cloaked.max_x - cloaked.min_x),
                cloaked.min_y + fy * (cloaked.max_y - cloaked.min_y)};
        EXPECT_EQ(
            RefineNnCandidates(ours.value().candidates, p).value().id,
            RefineNnCandidates(truth.value().candidates, p).value().id);
        EXPECT_EQ(
            SortedIds(RefineKnnCandidates(ours_k.value().candidates, p, 3)),
            SortedIds(RefineKnnCandidates(truth_k.value().candidates, p, 3)));
      }
    }
  }
  EXPECT_EQ(db->PrivateNn(Rect(), poi_category::kGasStation).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db->PrivateKnn(Rect(1, 1, 2, 2), 0, poi_category::kGasStation)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db->PrivateNn(Rect(1, 1, 2, 2), /*category=*/777).status().code(),
            StatusCode::kNotFound);
}

TEST(CloakDbServiceTest, PublicCountAndHeatmapMatchSingleShardOracle) {
  auto db = MakeService(4);
  QueryProcessor oracle(Rect(0, 0, 100, 100));
  Rng rng(23);
  for (UserId user = 1; user <= 80; ++user) {
    ASSERT_TRUE(db->RegisterUser(user, KProfile(4)).ok());
    Point location{rng.Uniform(0, 100), rng.Uniform(0, 100)};
    auto update = db->UpdateLocation(user, location, Noon());
    ASSERT_TRUE(update.ok());
    // Mirror the exact cloaked view the shards forwarded, so the oracle
    // stores identical (pseudonym, region) pairs.
    ASSERT_TRUE(oracle
                    .ApplyCloakedUpdate(update.value().pseudonym,
                                        update.value().cloaked.region)
                    .ok());
  }

  for (const Rect& window :
       {Rect(0, 0, 100, 100), Rect(10, 10, 40, 60), Rect(70, 5, 95, 30),
        Rect(0, 0, 1, 1)}) {
    auto ours = db->PublicCount(window);
    auto truth = oracle.PublicCount(window);
    ASSERT_TRUE(ours.ok());
    ASSERT_TRUE(truth.ok());
    EXPECT_DOUBLE_EQ(ours.value().answer.expected,
                     truth.value().answer.expected);
    EXPECT_EQ(ours.value().answer.min_count, truth.value().answer.min_count);
    EXPECT_EQ(ours.value().answer.max_count, truth.value().answer.max_count);
    EXPECT_EQ(ours.value().naive_count, truth.value().naive_count);
    auto sort_contribs = [](std::vector<CountContribution> c) {
      std::sort(c.begin(), c.end(), [](const auto& a, const auto& b) {
        return a.pseudonym < b.pseudonym;
      });
      return c;
    };
    auto a = sort_contribs(ours.value().contributions);
    auto b = sort_contribs(truth.value().contributions);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].pseudonym, b[i].pseudonym);
      EXPECT_DOUBLE_EQ(a[i].probability, b[i].probability);
    }
  }

  auto ours = db->Heatmap(10);
  auto truth = oracle.Heatmap(10);
  ASSERT_TRUE(ours.ok());
  ASSERT_TRUE(truth.ok());
  ASSERT_EQ(ours.value().expected.size(), truth.value().expected.size());
  for (size_t i = 0; i < ours.value().expected.size(); ++i) {
    EXPECT_DOUBLE_EQ(ours.value().expected[i], truth.value().expected[i]);
  }
  EXPECT_EQ(db->PublicCount(Rect()).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db->Heatmap(0).status().code(), StatusCode::kInvalidArgument);
}

TEST(CloakDbServiceTest, RejectedReloadTouchesNoShard) {
  auto db = MakeService(2);  // stripe 0 is x < 50, stripe 1 is x >= 50
  ASSERT_TRUE(db->BulkLoadCategory(poi_category::kGasStation, MakePois(200))
                  .ok());
  const Rect cloaked(10, 10, 20, 20);  // answered from stripe 0 alone
  auto range_before =
      db->PrivateRange(cloaked, 5.0, poi_category::kGasStation);
  auto nn_before = db->PrivateNn(cloaked, poi_category::kGasStation);
  ASSERT_TRUE(range_before.ok());
  ASSERT_TRUE(nn_before.ok());

  // A fresh world whose only bad object is a duplicate id in stripe 1.
  std::vector<PublicObject> reload = MakePois(200, 99);
  for (auto& o : reload) o.id += 100000;
  std::vector<PublicObject*> east;
  for (auto& o : reload)
    if (o.location.x >= 60) east.push_back(&o);
  ASSERT_GE(east.size(), 2u);
  east[1]->id = east[0]->id;
  EXPECT_EQ(db->BulkLoadCategory(poi_category::kGasStation, reload).code(),
            StatusCode::kInvalidArgument);

  auto range_after = db->PrivateRange(cloaked, 5.0, poi_category::kGasStation);
  auto nn_after = db->PrivateNn(cloaked, poi_category::kGasStation);
  ASSERT_TRUE(range_after.ok());
  ASSERT_TRUE(nn_after.ok());
  EXPECT_EQ(SortedIds(range_after.value().candidates),
            SortedIds(range_before.value().candidates));
  EXPECT_EQ(SortedIds(nn_after.value().candidates),
            SortedIds(nn_before.value().candidates));
  EXPECT_EQ(nn_after.value().fetch_radius, nn_before.value().fetch_radius);
}

TEST(CloakDbServiceTest, FlushDrainsEveryQueuedUpdate) {
  auto options = DefaultOptions(4);
  options.worker_threads = 1;
  options.max_batch = 32;
  auto db = CloakDbService::Create(options).value();
  Rng rng(31);
  for (UserId user = 1; user <= 100; ++user) {
    ASSERT_TRUE(db->RegisterUser(user, KProfile(3)).ok());
  }
  TimeOfDay now = Noon();
  for (int round = 0; round < 5; ++round) {
    for (UserId user = 1; user <= 100; ++user) {
      ASSERT_TRUE(
          db->EnqueueUpdate(user, {rng.Uniform(0, 100), rng.Uniform(0, 100)},
                            now)
              .ok());
    }
    now = now.Plus(60);
  }
  ASSERT_TRUE(db->Flush().ok());

  ServiceStats stats = db->Stats();
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.ingest.updates_enqueued, 500u);
  EXPECT_EQ(stats.ingest.updates_applied, 500u);
  EXPECT_EQ(stats.ingest.updates_rejected, 0u);
  EXPECT_EQ(stats.num_users, 100u);
  EXPECT_GT(stats.ingest.batches_drained, 0u);
  // Every user's cloaked region reached its shard's server: the naive
  // count over the whole space sees all 100 of them.
  EXPECT_EQ(db->PublicCount(Rect(0, 0, 100, 100)).value().naive_count, 100u);

  EXPECT_EQ(db->EnqueueUpdate(1, {200, 200}, now).code(),
            StatusCode::kOutOfRange);
  // An unregistered user passes the space check and is rejected at drain.
  ASSERT_TRUE(db->EnqueueUpdate(999, {1, 1}, now).ok());
  ASSERT_TRUE(db->Flush().ok());
  EXPECT_EQ(db->Stats().ingest.updates_rejected, 1u);
}

TEST(CloakDbServiceTest, ShardBackpressureIsObservable) {
  // Exercised on a bare shard so no worker races the queue-full condition.
  ShardConfig config;
  config.anonymizer.space = Rect(0, 0, 100, 100);
  config.queue_capacity = 2;
  auto shard = Shard::Create(config).value();
  ASSERT_TRUE(shard->RegisterUser(1, KProfile(1)).ok());
  ASSERT_TRUE(shard->Enqueue({1, {1, 1}, Noon()}, /*block=*/false).ok());
  ASSERT_TRUE(shard->Enqueue({1, {2, 2}, Noon()}, /*block=*/false).ok());
  EXPECT_EQ(shard->Enqueue({1, {3, 3}, Noon()}, /*block=*/false).code(),
            StatusCode::kResourceExhausted);
  EXPECT_FALSE(shard->Idle());
  EXPECT_EQ(shard->DrainOnce(16), 2u);
  EXPECT_TRUE(shard->Idle());
  ShardStats stats = shard->Stats();
  EXPECT_EQ(stats.ingest.updates_enqueued, 2u);
  EXPECT_EQ(stats.ingest.updates_applied, 2u);
}

TEST(CloakDbServiceTest, ConcurrentUpdatesAndQueriesStayConsistent) {
  auto options = DefaultOptions(4);
  options.worker_threads = 2;
  auto db = CloakDbService::Create(options).value();
  ASSERT_TRUE(
      db->BulkLoadCategory(poi_category::kGasStation, MakePois(100)).ok());
  constexpr UserId kUsers = 64;
  for (UserId user = 1; user <= kUsers; ++user) {
    ASSERT_TRUE(db->RegisterUser(user, KProfile(3)).ok());
  }

  constexpr int kProducers = 3;
  constexpr int kRoundsPerProducer = 40;
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      Rng rng(100 + p);
      TimeOfDay now = Noon().Plus(p * 7);
      for (int round = 0; round < kRoundsPerProducer; ++round) {
        for (UserId user = 1; user <= kUsers; ++user) {
          ASSERT_TRUE(db->EnqueueUpdate(
                            user, {rng.Uniform(0, 100), rng.Uniform(0, 100)},
                            now)
                          .ok());
        }
        now = now.Plus(60);
      }
    });
  }
  std::atomic<bool> done{false};
  threads.emplace_back([&] {
    Rng rng(999);
    while (!done.load()) {
      double x = rng.Uniform(0, 80), y = rng.Uniform(0, 80);
      ASSERT_TRUE(db->PrivateRange(Rect(x, y, x + 10, y + 10), 2.0,
                                   poi_category::kGasStation)
                      .ok());
      auto count = db->PublicCount(Rect(x, y, x + 20, y + 20));
      ASSERT_TRUE(count.ok());
      (void)db->Stats();
    }
  });
  for (int p = 0; p < kProducers; ++p) threads[p].join();
  done.store(true);
  threads.back().join();
  ASSERT_TRUE(db->Flush().ok());

  ServiceStats stats = db->Stats();
  const uint64_t total = static_cast<uint64_t>(kProducers) *
                         kRoundsPerProducer * kUsers;
  EXPECT_EQ(stats.ingest.updates_enqueued, total);
  EXPECT_EQ(stats.ingest.updates_applied, total);
  EXPECT_EQ(stats.ingest.updates_rejected, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(db->PublicCount(Rect(0, 0, 100, 100)).value().naive_count,
            kUsers);
}

TEST(CloakDbServiceTest, CloakForQueryRotatesThroughTheService) {
  auto options = DefaultOptions(2);
  options.anonymizer.pseudonym_rotation_period = 1;
  auto db = CloakDbService::Create(options).value();
  ASSERT_TRUE(db->RegisterUser(1, KProfile(1)).ok());
  ASSERT_TRUE(db->UpdateLocation(1, {50, 50}, Noon()).ok());
  ObjectId before = db->PseudonymOf(1).value();
  auto cloak = db->CloakForQuery(1, Noon().Plus(60));
  ASSERT_TRUE(cloak.ok());
  EXPECT_TRUE(cloak.value().cloaked.region.Contains(Point{50, 50}));
  // Rotation-on-every-update means the query-time cloak retired the old
  // pseudonym and the server record followed.
  EXPECT_EQ(cloak.value().retired_pseudonym, before);
  EXPECT_EQ(db->PseudonymOf(1).value(), cloak.value().pseudonym);
  EXPECT_GE(db->Stats().ingest.pseudonym_rotations, 1u);
}

}  // namespace
}  // namespace cloakdb
