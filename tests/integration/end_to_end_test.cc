// End-to-end integration: the full Fig. 1 pipeline under every cloaking
// algorithm, with continuous movement and a mixed query workload. The
// simulator holds every user's true location (the ground truth); the
// service holds only what its anonymizer forwards. The central assertion
// is the paper's promise: privacy-aware processing keeps the
// *functionality* of the location-based database server — private queries
// refined on the client are always exact.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>

#include "server/private_queries.h"
#include "service/cloak_db_service.h"
#include "sim/movement.h"
#include "sim/poi.h"
#include "sim/population.h"
#include "sim/workload.h"

namespace cloakdb {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
const Rect kSpace(0, 0, 100, 100);
constexpr Category kGas = poi_category::kGasStation;
constexpr Category kFood = poi_category::kRestaurant;

TimeOfDay Noon() { return TimeOfDay::FromHms(12, 0).value(); }

struct WorldOptions {
  size_t num_users = 200;
  PrivacyRequirement requirement{10, 0.0, kInf};
  size_t pois_per_category = 100;
  uint64_t seed = 0xC10ACULL;
  AnonymizerOptions anonymizer;  ///< `space` is overwritten by the service.
  bool batch_updates = false;  ///< EnqueueUpdate + Flush, not UpdateLocation.
};

/// Exact-answer tally of one query family.
struct Accuracy {
  uint64_t queries = 0;
  uint64_t exact = 0;
  void Add(bool is_exact) { ++queries; exact += is_exact ? 1 : 0; }
};

/// One Fig. 1 deployment: simulated users move and report through a
/// one-shard, one-worker CloakDbService (one anonymizer sees the whole
/// crowd), which answers their cloaked queries.
class World {
 public:
  explicit World(const WorldOptions& options)
      : movement_(kSpace, MoveOptions(options.seed)),
        batch_updates_(options.batch_updates) {
    CloakDbServiceOptions service;
    service.space = kSpace;
    service.num_shards = 1;
    service.worker_threads = 1;
    service.anonymizer = options.anonymizer;
    db = CloakDbService::Create(service).value();
    Rng rng(options.seed);
    for (Category cat : {kGas, kFood}) {
      PoiOptions poi;
      poi.count = options.pois_per_category;
      poi.category = cat;
      poi.first_id = 1'000'000ULL + 1'000'000ULL * cat;
      pois_[cat] = GeneratePois(kSpace, poi, &rng).value();
      EXPECT_TRUE(db->BulkLoadCategory(cat, pois_[cat]).ok());
    }
    PopulationOptions pop;
    pop.num_users = options.num_users;
    pop.model = PopulationModel::kGaussianClusters;
    const auto crowd = GeneratePopulation(kSpace, pop, &rng).value();
    const auto profile = PrivacyProfile::Uniform(options.requirement).value();
    for (const auto& u : crowd) {
      EXPECT_TRUE(movement_.AddUser(u.id, u.location).ok());
      EXPECT_TRUE(db->RegisterUser(u.id, profile).ok());
      users.push_back(u.id);
    }
    EXPECT_TRUE(Tick(0.0).ok());  // the initial reports
  }

  /// Advances the movement model and streams every user's location.
  Status Tick(double dt) {
    movement_.Step(dt);
    for (UserId user : users) {
      const Point at = TrueLocation(user);
      CLOAKDB_RETURN_IF_ERROR(batch_updates_
                                  ? db->EnqueueUpdate(user, at, Noon())
                                  : db->UpdateLocation(user, at, Noon())
                                        .status());
    }
    return db->Flush();
  }

  Point TrueLocation(UserId user) const {
    return movement_.LocationOf(user).value();
  }

  /// The region the server holds for `user`.
  Result<Rect> ServerRegion(UserId user) const {
    return db->shard(db->ShardOfUser(user)).CurrentRegionOfUser(user);
  }

  /// Mean candidates per private NN answer, from the service's metrics.
  double NnCandidatesMean() const {
    return db->metrics().SnapshotHistogram("query.private_nn.candidates")
        .mean();
  }

  /// Runs a private query for `user` end to end: the anonymizer cloaks
  /// the user into `request.region`, the service answers, and the
  /// candidates refined against the true location are scored against the
  /// same refinement over every POI (the brute-force, non-private answer).
  Status RunPrivate(UserId user, QueryRequest request) {
    auto cloaked = db->CloakForQuery(user, Noon());
    if (!cloaked.ok()) return cloaked.status();
    request.region = cloaked.value().cloaked.region;
    const QueryResponse answer = db->ExecuteQuery(request);
    if (!answer.ok()) return answer.status();
    const bool is_range = request.kind == QueryKind::kPrivateRange;
    const Point me = TrueLocation(user);
    auto refine = [&](const std::vector<PublicObject>& objects) {
      std::vector<ObjectId> ids;
      for (const auto& o : is_range
                               ? RefineRangeCandidates(objects, me,
                                                       request.radius)
                               : RefineKnnCandidates(objects, me, request.k))
        ids.push_back(o.id);
      std::sort(ids.begin(), ids.end());
      return ids;
    };
    (is_range ? range : nn)
        .Add(refine(answer.candidates) ==
             refine(pois_.at(request.category)));
    return Status::OK();
  }

  /// Runs one generated query; the service has no public NN, so mixes
  /// set `public_nn = 0`.
  Status RunQuery(const QuerySpec& spec) {
    const Category cat = spec.category;
    switch (spec.type) {
      case QueryType::kPrivateRange:
        return RunPrivate(spec.issuer,
                          QueryRequest::Range({}, spec.radius, cat));
      case QueryType::kPrivateNn:
        return RunPrivate(spec.issuer, QueryRequest::Nn({}, cat));
      case QueryType::kPrivateKnn:
        return RunPrivate(spec.issuer,
                          QueryRequest::Knn({}, spec.knn_k, cat));
      case QueryType::kPublicCount:
        return db->PublicCount(spec.window).status();
      default:
        return Status::InvalidArgument("not served by the service");
    }
  }

  std::unique_ptr<CloakDbService> db;
  std::vector<UserId> users;
  Accuracy nn;  ///< NN and k-NN.
  Accuracy range;

 private:
  static RandomWaypointModel::Options MoveOptions(uint64_t seed) {
    RandomWaypointModel::Options move;
    move.seed = seed ^ 0x5a5a5a5aULL;
    return move;
  }

  RandomWaypointModel movement_;
  bool batch_updates_;
  std::map<Category, std::vector<PublicObject>> pois_;
};

/// Every server-side region covers its user's true location, is never an
/// exact point and has at least `min_area`; the server holds no record
/// beyond one per user.
void ExpectServerHoldsOnlyCoveringRegions(const World& world,
                                          double min_area) {
  for (UserId user : world.users) {
    auto region = world.ServerRegion(user);
    ASSERT_TRUE(region.ok()) << region.status().ToString();
    EXPECT_TRUE(region.value().Contains(world.TrueLocation(user)));
    EXPECT_GT(region.value().Area(), 0.0) << "exact point stored";
    EXPECT_GE(region.value().Area(), min_area - 1e-9);
  }
  auto count = world.db->PublicCount(kSpace);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value().naive_count, world.users.size());
}

class EndToEndTest : public ::testing::TestWithParam<CloakingKind> {};

TEST_P(EndToEndTest, MovingUsersWithExactQueryAnswers) {
  WorldOptions options;
  options.num_users = 150;
  options.requirement = {8, 0.0, kInf};
  options.anonymizer.algorithm = GetParam();
  options.pois_per_category = 80;
  World world(options);
  for (int epoch = 0; epoch < 3; ++epoch) {
    ASSERT_TRUE(world.Tick(2.0).ok());
    for (size_t i = 0; i < 20; ++i) {
      UserId user = world.users[(epoch * 20 + i * 7) % 150];
      ASSERT_TRUE(world.RunPrivate(user, QueryRequest::Nn({}, kGas)).ok());
      ASSERT_TRUE(world.RunPrivate(user, QueryRequest::Range({}, 12.0, kFood))
                      .ok());
    }
  }
  EXPECT_EQ(world.nn.queries, 60u);
  EXPECT_EQ(world.nn.exact, world.nn.queries)
      << "cloaking must not cost NN correctness ("
      << CloakingKindName(GetParam()) << ")";
  EXPECT_EQ(world.range.exact, world.range.queries)
      << "cloaking must not cost range correctness ("
      << CloakingKindName(GetParam()) << ")";
}

TEST_P(EndToEndTest, ServerStateContainsOnlyRegions) {
  // With Amin = 1 every stored region is at least one square unit; with k
  // alone it must still never be an exact point. Checked from the first
  // report (a sparse crowd) on, and after every movement tick.
  for (double min_area : {1.0, 0.0}) {
    WorldOptions options;
    options.num_users = 100;
    options.requirement = {5, min_area, kInf};
    options.anonymizer.algorithm = GetParam();
    World world(options);
    for (int tick = 0; tick < 3; ++tick) {
      ExpectServerHoldsOnlyCoveringRegions(world, min_area);
      ASSERT_TRUE(world.Tick(1.0).ok());
    }
    ExpectServerHoldsOnlyCoveringRegions(world, min_area);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, EndToEndTest,
    ::testing::Values(CloakingKind::kNaive, CloakingKind::kMbr,
                      CloakingKind::kQuadtree, CloakingKind::kGrid,
                      CloakingKind::kMultiLevelGrid),
    [](const ::testing::TestParamInfo<CloakingKind>& info) {
      std::string name = CloakingKindName(info.param);
      for (auto& c : name)
        if (c == '-') c = '_';
      return name;
    });

TEST(Fig1ServiceTest, BatchTickKeepsAllGuarantees) {
  WorldOptions options;
  options.batch_updates = true;
  options.anonymizer.enable_shared_execution = true;
  World world(options);
  for (int step = 0; step < 3; ++step) ASSERT_TRUE(world.Tick(1.0).ok());
  EXPECT_GT(world.db->Stats().ingest.batches_drained, 0u);
  ExpectServerHoldsOnlyCoveringRegions(world, 0.0);
  for (size_t i = 0; i < 30; ++i)
    ASSERT_TRUE(
        world.RunPrivate(world.users[i * 6], QueryRequest::Nn({}, kGas)).ok());
  EXPECT_EQ(world.nn.exact, world.nn.queries);
}

// The suites below keep the names of the Fig. 1 tests that ran on the
// deleted hand-wired stack (`src/system/`), so their ids carry over; each
// now drives the service.
TEST(LbsSystemTest, ServerNeverSeesExactLocations) {
  World world({});
  ExpectServerHoldsOnlyCoveringRegions(world, 0.0);
}

TEST(LbsSystemTest, TickMovesAndRefreshesRegions) {
  World world({});
  const Point before = world.TrueLocation(world.users[0]);
  for (int step = 0; step < 5; ++step) ASSERT_TRUE(world.Tick(1.0).ok());
  EXPECT_NE(world.TrueLocation(world.users[0]), before);
  ExpectServerHoldsOnlyCoveringRegions(world, 0.0);
}

TEST(LbsSystemTest, PrivateNnAlwaysExact) {
  World world({});
  for (size_t i = 0; i < 50; ++i)
    ASSERT_TRUE(
        world.RunPrivate(world.users[i * 4], QueryRequest::Nn({}, kGas)).ok());
  EXPECT_EQ(world.nn.queries, 50u);
  EXPECT_EQ(world.nn.exact, world.nn.queries);
  EXPECT_GT(world.NnCandidatesMean(), 0.0);
}

TEST(LbsSystemTest, PrivateRangeAlwaysExact) {
  World world({});
  for (size_t i = 0; i < 50; ++i)
    ASSERT_TRUE(world.RunPrivate(world.users[i * 3],
                                 QueryRequest::Range({}, 10.0, kFood))
                    .ok());
  EXPECT_EQ(world.range.queries, 50u);
  EXPECT_EQ(world.range.exact, world.range.queries);
}

TEST(LbsSystemTest, RunQueryDispatchesAllTypes) {
  // Public NN is not served by the service (PublicNnQueryTest covers it).
  World world({});
  QuerySpec spec;
  spec.category = kGas;
  spec.type = QueryType::kPrivateRange;
  spec.issuer = world.users[0];
  spec.radius = 8.0;
  EXPECT_TRUE(world.RunQuery(spec).ok());
  spec.type = QueryType::kPrivateNn;
  spec.issuer = world.users[1];
  EXPECT_TRUE(world.RunQuery(spec).ok());
  spec.type = QueryType::kPrivateKnn;
  spec.knn_k = 3;
  EXPECT_TRUE(world.RunQuery(spec).ok());
  spec.type = QueryType::kPublicCount;
  spec.window = Rect(10, 10, 60, 60);
  EXPECT_TRUE(world.RunQuery(spec).ok());
  spec.type = QueryType::kPublicNn;
  EXPECT_EQ(world.RunQuery(spec).code(), StatusCode::kInvalidArgument);

  const std::array<uint64_t, kNumQueryKinds> one_each = {1, 1, 1, 1, 0};
  EXPECT_EQ(world.db->Stats().queries, one_each);
  EXPECT_EQ(world.nn.exact + world.range.exact, 3u);
}

TEST(MobileClientTest, DisconnectCleansBothSides) {
  World world({});
  CloakDbService& db = *world.db;
  const UserId guest = 99999;
  ASSERT_TRUE(db.RegisterUser(guest, PrivacyProfile::Public()).ok());
  ASSERT_TRUE(db.UpdateLocation(guest, {50, 50}, Noon()).ok());
  EXPECT_EQ(db.Stats().num_users, 201u);
  EXPECT_EQ(db.PublicCount(kSpace).value().naive_count, 201u);
  ASSERT_TRUE(db.UnregisterUser(guest).ok());
  EXPECT_EQ(db.Stats().num_users, 200u);
  EXPECT_EQ(db.PublicCount(kSpace).value().naive_count, 200u);
  EXPECT_FALSE(world.ServerRegion(guest).ok());
  EXPECT_TRUE(world.ServerRegion(world.users[0]).ok());  // crowd untouched
}

TEST(MobileClientTest, FindKNearestIsExact) {
  World world({});
  for (size_t i = 0; i < 20; ++i)
    ASSERT_TRUE(
        world.RunPrivate(world.users[i * 9], QueryRequest::Knn({}, 3, kGas))
            .ok());
  EXPECT_EQ(world.nn.queries, 20u);
  EXPECT_EQ(world.nn.exact, world.nn.queries);
}

TEST(MobileClientTest, QueryBeforeReportFails) {
  World world({});
  const UserId guest = 99999;
  ASSERT_TRUE(world.db->RegisterUser(guest, PrivacyProfile::Public()).ok());
  EXPECT_EQ(world.db->CloakForQuery(guest, Noon()).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(PseudonymRotationTest, RotationRetiresOldServerRecords) {
  WorldOptions options;
  options.anonymizer.pseudonym_rotation_period = 3;
  World world(options);
  CloakDbService& db = *world.db;
  std::vector<ObjectId> first;
  for (UserId user : world.users) first.push_back(db.PseudonymOf(user).value());
  // Enough ticks to trigger at least one rotation for every user.
  for (int step = 0; step < 5; ++step) ASSERT_TRUE(world.Tick(1.0).ok());

  // One region per user, under the new name, covering the user.
  ExpectServerHoldsOnlyCoveringRegions(world, 0.0);
  const auto count = db.PublicCount(kSpace).value();
  std::vector<ObjectId> stored;
  for (const auto& c : count.contributions) stored.push_back(c.pseudonym);
  std::sort(stored.begin(), stored.end());
  for (size_t i = 0; i < world.users.size(); ++i) {
    EXPECT_NE(db.PseudonymOf(world.users[i]).value(), first[i]);
    EXPECT_FALSE(std::binary_search(stored.begin(), stored.end(), first[i]))
        << "retired pseudonym still stored";
  }
}

TEST(PseudonymRotationTest, DisabledByDefault) {
  World world({});
  UserId user = world.users[0];
  ObjectId before = world.db->PseudonymOf(user).value();
  for (int step = 0; step < 5; ++step) ASSERT_TRUE(world.Tick(1.0).ok());
  EXPECT_EQ(world.db->PseudonymOf(user).value(), before);
}

TEST(EndToEndWorkloadTest, MixedWorkloadRunsClean) {
  World world({});
  WorkloadOptions workload;
  workload.categories = {kGas, kFood};
  workload.mix.private_knn = 0.2;  // exercise the k-NN extension too
  workload.mix.public_nn = 0.0;
  auto gen = WorkloadGenerator::Create(kSpace, world.users, workload).value();
  Rng rng(123);
  for (const auto& spec : gen.Batch(200, &rng))
    ASSERT_TRUE(world.RunQuery(spec).ok()) << QueryTypeName(spec.type);
  EXPECT_EQ(world.nn.exact, world.nn.queries);
  EXPECT_EQ(world.range.exact, world.range.queries);
  EXPECT_GT(world.db->Stats().bytes_to_clients, 0u);
}

TEST(EndToEndWorkloadTest, StricterPrivacyCostsMoreCandidateTraffic) {
  // The paper's central trade-off: larger k => larger regions => larger
  // candidate lists => more bytes for the same exact answers.
  auto run = [](uint32_t k) {
    WorldOptions options;
    options.num_users = 300;
    options.seed = 77;
    options.requirement = {k, 0.0, kInf};
    World world(options);
    for (size_t i = 0; i < 60; ++i)
      EXPECT_TRUE(
          world.RunPrivate(world.users[i * 5], QueryRequest::Nn({}, kGas))
              .ok());
    EXPECT_EQ(world.nn.exact, world.nn.queries);
    return world.NnCandidatesMean();
  };
  double lax = run(2);
  double strict = run(60);
  EXPECT_GT(strict, lax);
}

TEST(EndToEndWorkloadTest, PublicCountSeesCloakedUncertainty) {
  WorldOptions options;
  options.num_users = 300;
  options.requirement = {20, 0.0, kInf};
  World world(options);
  Rect window(25, 25, 75, 75);
  auto count = world.db->PublicCount(window);
  ASSERT_TRUE(count.ok());
  // Ground truth from the simulator.
  int truth = 0;
  for (UserId user : world.users)
    if (window.Contains(world.TrueLocation(user))) ++truth;
  EXPECT_GE(truth, count.value().answer.min_count);
  EXPECT_LE(truth, count.value().answer.max_count);
  // The probabilistic estimate lands in the right ballpark while the naive
  // non-zero-size answer overcounts.
  EXPECT_GE(static_cast<double>(count.value().naive_count),
            count.value().answer.expected);
  EXPECT_NEAR(count.value().answer.expected, truth, 0.5 * truth + 10.0);
}

// Reproducibility: every randomized component is seeded, so two identical
// Fig. 1 sessions agree bit for bit — the property that makes every number
// in EXPERIMENTS.md regenerable. Reports are synchronous on one shard and
// one worker, so no batch composition can race.
struct RunResult {
  std::vector<Rect> regions;
  ServiceStats stats;
  double nn_candidates_mean = 0.0;
};

RunResult RunOnce(uint64_t seed) {
  WorldOptions options;
  options.num_users = 150;
  options.requirement = {8, 0.0, kInf};
  options.pois_per_category = 200;
  options.seed = seed;
  World world(options);
  for (int step = 0; step < 3; ++step) EXPECT_TRUE(world.Tick(1.0).ok());
  WorkloadOptions workload;
  workload.categories = {kGas};
  workload.mix.public_nn = 0.0;
  auto gen = WorkloadGenerator::Create(kSpace, world.users, workload).value();
  Rng rng(seed ^ 0xfeed);
  for (const auto& spec : gen.Batch(60, &rng))
    EXPECT_TRUE(world.RunQuery(spec).ok());
  RunResult result;
  for (UserId user : world.users)
    result.regions.push_back(world.ServerRegion(user).value());
  result.stats = world.db->Stats();
  result.nn_candidates_mean = world.NnCandidatesMean();
  return result;
}

TEST(DeterminismTest, IdenticalSeedsGiveIdenticalSystems) {
  auto a = RunOnce(2006);
  auto b = RunOnce(2006);
  ASSERT_EQ(a.regions.size(), b.regions.size());
  for (size_t i = 0; i < a.regions.size(); ++i)
    EXPECT_EQ(a.regions[i], b.regions[i]) << "user index " << i;
  EXPECT_EQ(a.stats.bytes_to_clients, b.stats.bytes_to_clients);
  EXPECT_DOUBLE_EQ(a.nn_candidates_mean, b.nn_candidates_mean);
  EXPECT_EQ(a.stats.anonymizer.cloaks_computed,
            b.stats.anonymizer.cloaks_computed);
}

TEST(DeterminismTest, DifferentSeedsGiveDifferentSystems) {
  auto a = RunOnce(1);
  auto b = RunOnce(2);
  size_t same = 0;
  for (size_t i = 0; i < std::min(a.regions.size(), b.regions.size()); ++i)
    if (a.regions[i] == b.regions[i]) ++same;
  EXPECT_LT(same, a.regions.size() / 2);
}

}  // namespace
}  // namespace cloakdb
