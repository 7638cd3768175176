#include "core/anonymizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include "sim/population.h"
#include "util/random.h"

namespace cloakdb {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TimeOfDay Noon() { return TimeOfDay::FromHms(12, 0).value(); }

AnonymizerOptions DefaultOptions() {
  AnonymizerOptions options;
  options.space = Rect(0, 0, 100, 100);
  return options;
}

std::unique_ptr<Anonymizer> MakeAnonymizer(
    AnonymizerOptions options = DefaultOptions()) {
  auto a = Anonymizer::Create(options);
  EXPECT_TRUE(a.ok());
  return std::move(a).value();
}

PrivacyProfile KProfile(uint32_t k) {
  return PrivacyProfile::Uniform({k, 0.0, kInf}).value();
}

void Populate(Anonymizer* a, size_t n, uint32_t k, uint64_t seed = 7) {
  Rng rng(seed);
  for (ObjectId id = 1; id <= n; ++id) {
    ASSERT_TRUE(a->RegisterUser(id, KProfile(k)).ok());
    auto u = a->UpdateLocation(id, {rng.Uniform(0, 100), rng.Uniform(0, 100)},
                               Noon());
    ASSERT_TRUE(u.ok()) << u.status().ToString();
  }
}

TEST(AnonymizerTest, CreateRejectsEmptySpace) {
  AnonymizerOptions options;
  options.space = Rect();
  EXPECT_FALSE(Anonymizer::Create(options).ok());
}

TEST(AnonymizerTest, RegistrationLifecycle) {
  auto a = MakeAnonymizer();
  EXPECT_TRUE(a->RegisterUser(1, KProfile(5)).ok());
  EXPECT_EQ(a->RegisterUser(1, KProfile(5)).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(a->num_users(), 1u);
  EXPECT_TRUE(a->UnregisterUser(1).ok());
  EXPECT_EQ(a->UnregisterUser(1).code(), StatusCode::kNotFound);
  EXPECT_EQ(a->num_users(), 0u);
}

TEST(AnonymizerTest, PseudonymsAreStableAndUnique) {
  auto a = MakeAnonymizer();
  std::set<ObjectId> pseudonyms;
  for (ObjectId id = 1; id <= 100; ++id) {
    ASSERT_TRUE(a->RegisterUser(id, KProfile(1)).ok());
    auto p = a->PseudonymOf(id);
    ASSERT_TRUE(p.ok());
    EXPECT_NE(p.value(), id) << "pseudonym must not expose the user id";
    pseudonyms.insert(p.value());
  }
  EXPECT_EQ(pseudonyms.size(), 100u);
  // Stable across calls.
  EXPECT_EQ(a->PseudonymOf(50).value(), a->PseudonymOf(50).value());
  EXPECT_EQ(a->PseudonymOf(999).status().code(), StatusCode::kNotFound);
}

TEST(AnonymizerTest, PseudonymsDeterministicFromSeed) {
  auto opts = DefaultOptions();
  opts.pseudonym_seed = 12345;
  auto a = MakeAnonymizer(opts);
  auto b = MakeAnonymizer(opts);
  ASSERT_TRUE(a->RegisterUser(1, KProfile(1)).ok());
  ASSERT_TRUE(b->RegisterUser(1, KProfile(1)).ok());
  EXPECT_EQ(a->PseudonymOf(1).value(), b->PseudonymOf(1).value());
}

TEST(AnonymizerTest, UpdateLocationReturnsSatisfyingRegion) {
  auto a = MakeAnonymizer();
  Populate(a.get(), 200, 10);
  auto u = a->UpdateLocation(1, {50, 50}, Noon());
  ASSERT_TRUE(u.ok());
  EXPECT_TRUE(u.value().cloaked.region.Contains(Point{50, 50}));
  EXPECT_TRUE(u.value().cloaked.k_satisfied);
  EXPECT_GE(u.value().cloaked.achieved_k, 10u);
}

TEST(AnonymizerTest, UpdateErrors) {
  auto a = MakeAnonymizer();
  EXPECT_EQ(a->UpdateLocation(1, {1, 1}, Noon()).status().code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(a->RegisterUser(1, KProfile(1)).ok());
  EXPECT_EQ(a->UpdateLocation(1, {500, 1}, Noon()).status().code(),
            StatusCode::kOutOfRange);
}

TEST(AnonymizerTest, CloakForQueryNeedsLocation) {
  auto a = MakeAnonymizer();
  ASSERT_TRUE(a->RegisterUser(1, KProfile(1)).ok());
  EXPECT_EQ(a->CloakForQuery(1, Noon()).status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(a->UpdateLocation(1, {5, 5}, Noon()).ok());
  auto q = a->CloakForQuery(1, Noon());
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q.value().cloaked.region.Contains(Point{5, 5}));
}

TEST(AnonymizerTest, IncrementalReusesRegionForSmallMoves) {
  auto opts = DefaultOptions();
  opts.algorithm = CloakingKind::kGrid;
  auto a = MakeAnonymizer(opts);
  Populate(a.get(), 300, 10);
  // First update computed the region; a tiny move that stays inside it
  // should be served from cache.
  auto first = a->UpdateLocation(1, {50.0, 50.0}, Noon());
  ASSERT_TRUE(first.ok());
  Rect region = first.value().cloaked.region;
  Point inside = region.Center();
  auto second = a->UpdateLocation(1, inside, Noon());
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().reused_previous);
  EXPECT_EQ(second.value().cloaked.region, region);
  EXPECT_GT(a->stats().incremental_reuses, 0u);
}

TEST(AnonymizerTest, IncrementalRecomputesWhenLeavingRegion) {
  auto opts = DefaultOptions();
  opts.algorithm = CloakingKind::kGrid;
  auto a = MakeAnonymizer(opts);
  Populate(a.get(), 300, 10);
  auto first = a->UpdateLocation(1, {10.0, 10.0}, Noon());
  ASSERT_TRUE(first.ok());
  auto second = a->UpdateLocation(1, {90.0, 90.0}, Noon());
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second.value().reused_previous);
  EXPECT_TRUE(second.value().cloaked.region.Contains(Point{90, 90}));
}

TEST(AnonymizerTest, IncrementalDisabledAlwaysRecomputes) {
  auto opts = DefaultOptions();
  opts.enable_incremental = false;
  auto a = MakeAnonymizer(opts);
  Populate(a.get(), 100, 5);
  auto first = a->UpdateLocation(1, {50, 50}, Noon());
  ASSERT_TRUE(first.ok());
  auto second =
      a->UpdateLocation(1, first.value().cloaked.region.Center(), Noon());
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second.value().reused_previous);
  EXPECT_EQ(a->stats().incremental_reuses, 0u);
}

TEST(AnonymizerTest, ProfileChangeInvalidatesCache) {
  auto a = MakeAnonymizer();
  Populate(a.get(), 200, 5);
  auto first = a->UpdateLocation(1, {50, 50}, Noon());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(a->UpdateProfile(1, KProfile(50)).ok());
  auto second =
      a->UpdateLocation(1, first.value().cloaked.region.Center(), Noon());
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second.value().reused_previous);
  EXPECT_GE(second.value().cloaked.achieved_k, 50u);
}

TEST(AnonymizerTest, TemporalProfileSwitchesRequirement) {
  auto a = MakeAnonymizer();
  // Everyone else public so user 1's profile drives the region.
  Rng rng(3);
  for (ObjectId id = 2; id <= 300; ++id) {
    ASSERT_TRUE(a->RegisterUser(id, KProfile(1)).ok());
    ASSERT_TRUE(a->UpdateLocation(id, {rng.Uniform(0, 100),
                                       rng.Uniform(0, 100)},
                                  Noon())
                    .ok());
  }
  ASSERT_TRUE(a->RegisterUser(1, PrivacyProfile::PaperExample()).ok());
  // Daytime: k = 1, degenerate region allowed.
  auto day = a->UpdateLocation(1, {50, 50}, Noon());
  ASSERT_TRUE(day.ok());
  EXPECT_EQ(day.value().cloaked.requirement.k, 1u);
  // Evening (6 PM): k = 100, Amin = 1.
  auto evening =
      a->UpdateLocation(1, {50, 50}, TimeOfDay::FromHms(18, 0).value());
  ASSERT_TRUE(evening.ok());
  EXPECT_EQ(evening.value().cloaked.requirement.k, 100u);
  EXPECT_GE(evening.value().cloaked.achieved_k, 100u);
  EXPECT_GE(evening.value().cloaked.region.Area(), 1.0 - 1e-9);
  // Night (2 AM): k = 1000 (> population) -> best effort, unsatisfied.
  auto night =
      a->UpdateLocation(1, {50, 50}, TimeOfDay::FromHms(2, 0).value());
  ASSERT_TRUE(night.ok());
  EXPECT_EQ(night.value().cloaked.requirement.k, 1000u);
  EXPECT_FALSE(night.value().cloaked.k_satisfied);
  EXPECT_GT(a->stats().unsatisfied, 0u);
}

TEST(AnonymizerTest, BatchMatchesOrderAndCoversUsers) {
  auto a = MakeAnonymizer();
  Rng rng(9);
  std::vector<std::pair<UserId, Point>> updates;
  for (ObjectId id = 1; id <= 100; ++id) {
    ASSERT_TRUE(a->RegisterUser(id, KProfile(5)).ok());
    updates.push_back({id, {rng.Uniform(0, 100), rng.Uniform(0, 100)}});
  }
  auto results = a->UpdateLocationsBatch(updates, Noon());
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results.value().size(), 100u);
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_TRUE(
        results.value()[i].cloaked.region.Contains(updates[i].second))
        << "user " << updates[i].first;
    EXPECT_EQ(results.value()[i].pseudonym,
              a->PseudonymOf(updates[i].first).value());
  }
}

TEST(AnonymizerTest, SharedExecutionReusesGroupRegions) {
  auto opts = DefaultOptions();
  opts.algorithm = CloakingKind::kGrid;
  opts.enable_incremental = false;  // isolate the sharing effect
  auto a = MakeAnonymizer(opts);
  Rng rng(10);
  std::vector<std::pair<UserId, Point>> updates;
  // Many users in a small patch: they share grid cells.
  for (ObjectId id = 1; id <= 200; ++id) {
    ASSERT_TRUE(a->RegisterUser(id, KProfile(5)).ok());
    updates.push_back({id, {rng.Uniform(40, 44), rng.Uniform(40, 44)}});
  }
  auto results = a->UpdateLocationsBatch(updates, Noon());
  ASSERT_TRUE(results.ok());
  EXPECT_GT(a->stats().shared_reuses, 0u);
  EXPECT_LT(a->stats().cloaks_computed, 200u);
  for (size_t i = 0; i < updates.size(); ++i) {
    EXPECT_TRUE(results.value()[i].cloaked.region.Contains(updates[i].second));
  }
}

TEST(AnonymizerTest, SharedExecutionDisabledComputesPerUser) {
  auto opts = DefaultOptions();
  opts.algorithm = CloakingKind::kGrid;
  opts.enable_incremental = false;
  opts.enable_shared_execution = false;
  auto a = MakeAnonymizer(opts);
  Rng rng(10);
  std::vector<std::pair<UserId, Point>> updates;
  for (ObjectId id = 1; id <= 50; ++id) {
    ASSERT_TRUE(a->RegisterUser(id, KProfile(5)).ok());
    updates.push_back({id, {rng.Uniform(40, 44), rng.Uniform(40, 44)}});
  }
  auto results = a->UpdateLocationsBatch(updates, Noon());
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(a->stats().shared_reuses, 0u);
  EXPECT_EQ(a->stats().cloaks_computed, 50u);
}

TEST(AnonymizerTest, BatchFailsAtomicallyOnUnknownUser) {
  auto a = MakeAnonymizer();
  ASSERT_TRUE(a->RegisterUser(1, KProfile(1)).ok());
  std::vector<std::pair<UserId, Point>> updates{{1, {1, 1}}, {99, {2, 2}}};
  EXPECT_EQ(a->UpdateLocationsBatch(updates, Noon()).status().code(),
            StatusCode::kNotFound);
}

TEST(AnonymizerTest, UnregisterRemovesFromSnapshot) {
  auto a = MakeAnonymizer();
  Populate(a.get(), 10, 1);
  EXPECT_EQ(a->snapshot().size(), 10u);
  ASSERT_TRUE(a->UnregisterUser(3).ok());
  EXPECT_EQ(a->snapshot().size(), 9u);
  EXPECT_FALSE(a->snapshot().Contains(3));
}

TEST(AnonymizerTest, CloakForQueryHitsTheCache) {
  auto a = MakeAnonymizer();
  Populate(a.get(), 300, 10);
  // Refresh user 1 so its cached region is fully satisfied.
  ASSERT_TRUE(a->UpdateLocation(1, {50, 50}, Noon()).ok());
  a->ResetStats();
  auto q1 = a->CloakForQuery(1, Noon());
  ASSERT_TRUE(q1.ok());
  EXPECT_TRUE(q1.value().reused_previous);
  EXPECT_EQ(a->stats().incremental_reuses, 1u);
  EXPECT_EQ(a->stats().cloaks_computed, 0u);
}

TEST(AnonymizerTest, StatsAccumulateAndReset) {
  auto a = MakeAnonymizer();
  Populate(a.get(), 50, 5);
  EXPECT_EQ(a->stats().updates, 50u);
  a->ResetStats();
  EXPECT_EQ(a->stats().updates, 0u);
}

TEST(AnonymizerTest, PseudonymRotationPeriodHonored) {
  auto opts = DefaultOptions();
  opts.pseudonym_rotation_period = 3;
  auto a = MakeAnonymizer(opts);
  ASSERT_TRUE(a->RegisterUser(1, KProfile(1)).ok());
  std::set<ObjectId> seen;
  ObjectId current = a->PseudonymOf(1).value();
  seen.insert(current);
  for (int update = 1; update <= 9; ++update) {
    auto u = a->UpdateLocation(1, {50.0 + update * 0.01, 50.0}, Noon());
    ASSERT_TRUE(u.ok());
    if (update % 3 == 0) {
      EXPECT_EQ(u.value().retired_pseudonym, current)
          << "update " << update;
      EXPECT_NE(u.value().pseudonym, current);
      current = u.value().pseudonym;
      EXPECT_TRUE(seen.insert(current).second) << "pseudonym reused";
    } else {
      EXPECT_EQ(u.value().retired_pseudonym, 0u) << "update " << update;
      EXPECT_EQ(u.value().pseudonym, current);
    }
  }
  EXPECT_EQ(seen.size(), 4u);  // initial + 3 rotations
}

TEST(AnonymizerTest, BatchUpdateIsAtomicOnLateFailure) {
  auto a = MakeAnonymizer();
  ASSERT_TRUE(a->RegisterUser(1, KProfile(1)).ok());
  ASSERT_TRUE(a->RegisterUser(2, KProfile(1)).ok());
  ASSERT_TRUE(a->UpdateLocation(1, {10, 10}, Noon()).ok());
  ASSERT_TRUE(a->UpdateLocation(2, {20, 20}, Noon()).ok());
  const uint64_t updates_before = a->stats().updates;

  // The bad entry is LAST, so a non-atomic implementation would have moved
  // users 1 and 2 before noticing it.
  std::vector<std::pair<UserId, Point>> unregistered{
      {1, {30, 30}}, {2, {40, 40}}, {99, {50, 50}}};
  EXPECT_EQ(a->UpdateLocationsBatch(unregistered, Noon()).status().code(),
            StatusCode::kNotFound);
  std::vector<std::pair<UserId, Point>> out_of_space{
      {1, {30, 30}}, {2, {200, 200}}};
  EXPECT_EQ(a->UpdateLocationsBatch(out_of_space, Noon()).status().code(),
            StatusCode::kOutOfRange);

  EXPECT_EQ(a->snapshot().Locate(1).value(), (Point{10, 10}));
  EXPECT_EQ(a->snapshot().Locate(2).value(), (Point{20, 20}));
  EXPECT_EQ(a->stats().updates, updates_before);
}

TEST(AnonymizerTest, BatchUpdateRotatesPseudonyms) {
  auto opts = DefaultOptions();
  opts.pseudonym_rotation_period = 2;
  auto a = MakeAnonymizer(opts);
  ASSERT_TRUE(a->RegisterUser(1, KProfile(1)).ok());
  ASSERT_TRUE(a->RegisterUser(2, KProfile(1)).ok());
  ASSERT_TRUE(a->UpdateLocation(1, {10, 10}, Noon()).ok());
  ASSERT_TRUE(a->UpdateLocation(2, {20, 20}, Noon()).ok());
  const ObjectId old1 = a->PseudonymOf(1).value();
  const ObjectId old2 = a->PseudonymOf(2).value();

  // Second update per user -> both rotate inside the same batch.
  std::vector<std::pair<UserId, Point>> updates{{1, {11, 11}}, {2, {21, 21}}};
  auto results = a->UpdateLocationsBatch(updates, Noon().Plus(60));
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results.value().size(), 2u);
  EXPECT_EQ(results.value()[0].retired_pseudonym, old1);
  EXPECT_EQ(results.value()[1].retired_pseudonym, old2);
  EXPECT_NE(results.value()[0].pseudonym, old1);
  EXPECT_NE(results.value()[1].pseudonym, old2);
  EXPECT_EQ(a->PseudonymOf(1).value(), results.value()[0].pseudonym);
  EXPECT_EQ(a->PseudonymOf(2).value(), results.value()[1].pseudonym);
}

TEST(AnonymizerTest, CloakingKindNamesRoundTrip) {
  for (CloakingKind kind :
       {CloakingKind::kNaive, CloakingKind::kMbr, CloakingKind::kQuadtree,
        CloakingKind::kGrid, CloakingKind::kMultiLevelGrid}) {
    auto parsed = CloakingKindFromName(CloakingKindName(kind));
    ASSERT_TRUE(parsed.ok()) << CloakingKindName(kind);
    EXPECT_EQ(parsed.value(), kind);
  }
  EXPECT_EQ(CloakingKindFromName("voronoi").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(AnonymizerTest, AllAlgorithmsWorkThroughTheAnonymizer) {
  for (CloakingKind kind :
       {CloakingKind::kNaive, CloakingKind::kMbr, CloakingKind::kQuadtree,
        CloakingKind::kGrid, CloakingKind::kMultiLevelGrid}) {
    auto opts = DefaultOptions();
    opts.algorithm = kind;
    auto a = MakeAnonymizer(opts);
    Populate(a.get(), 100, 8);
    auto u = a->UpdateLocation(1, {33, 66}, Noon());
    ASSERT_TRUE(u.ok()) << CloakingKindName(kind);
    EXPECT_TRUE(u.value().cloaked.region.Contains(Point{33, 66}))
        << CloakingKindName(kind);
    EXPECT_TRUE(u.value().cloaked.k_satisfied) << CloakingKindName(kind);
  }
}

// ---------------------------------------------------------------------------
// One crowd index: kQuadtree and kMultiLevelGrid share the pyramid rule.
// ---------------------------------------------------------------------------

constexpr CloakingKind kAllKinds[] = {
    CloakingKind::kNaive, CloakingKind::kMbr, CloakingKind::kQuadtree,
    CloakingKind::kGrid, CloakingKind::kMultiLevelGrid};

// Everything a forwarded update carries except the `shared` marker.
void ExpectSameUpdate(const CloakedUpdate& a, const CloakedUpdate& b,
                      const std::string& what) {
  EXPECT_EQ(a.pseudonym, b.pseudonym) << what;
  EXPECT_EQ(a.cloaked.region, b.cloaked.region) << what;
  EXPECT_EQ(a.cloaked.achieved_k, b.cloaked.achieved_k) << what;
  EXPECT_EQ(a.cloaked.requirement, b.cloaked.requirement) << what;
  EXPECT_EQ(a.cloaked.k_satisfied, b.cloaked.k_satisfied) << what;
  EXPECT_EQ(a.cloaked.min_area_satisfied, b.cloaked.min_area_satisfied)
      << what;
  EXPECT_EQ(a.cloaked.max_area_satisfied, b.cloaked.max_area_satisfied)
      << what;
  EXPECT_EQ(a.reused_previous, b.reused_previous) << what;
  EXPECT_EQ(a.retired_pseudonym, b.retired_pseudonym) << what;
}

std::vector<PointEntry> Crowd(PopulationModel model, size_t n, uint64_t seed,
                              double cluster_stddev_fraction = 0.03) {
  PopulationOptions options;
  options.num_users = n;
  options.model = model;
  options.cluster_stddev_fraction = cluster_stddev_fraction;
  Rng rng(seed);
  return GeneratePopulation(Rect(0, 0, 100, 100), options, &rng).value();
}

// Paper Fig. 4a by brute force over the crowd: the smallest quadrant of
// the 100 x 100 space, at most `height` halvings deep, that contains `p`
// and holds at least k users and A_min of area (the whole space when even
// that falls short).
Rect ReferenceQuadrant(const std::vector<PointEntry>& crowd, const Point& p,
                       const PrivacyRequirement& req, uint32_t height) {
  auto cell_of = [](double v, uint32_t n) {
    return std::min(static_cast<uint32_t>(std::floor(v / 100.0 * n)), n - 1);
  };
  Rect best(0, 0, 100, 100);
  for (uint32_t level = 1; level <= height; ++level) {
    const uint32_t n = 1u << level;
    const uint32_t cx = cell_of(p.x, n), cy = cell_of(p.y, n);
    const double side = 100.0 / n;
    size_t count = 0;
    for (const auto& u : crowd) {
      if (cell_of(u.location.x, n) == cx && cell_of(u.location.y, n) == cy)
        ++count;
    }
    if (count < req.k || side * side < req.min_area) break;
    best = Rect(cx * side, cy * side, (cx + 1) * side, (cy + 1) * side);
  }
  return best;
}

TEST(AnonymizerTest, QuadtreeAndMultiLevelGridShareOneRule) {
  const std::vector<PrivacyRequirement> requirements = {
      {10, 0.0, kInf}, {10, 40.0, kInf}, {60, 0.0, 20.0}};
  for (PopulationModel model :
       {PopulationModel::kUniform, PopulationModel::kGaussianClusters}) {
    const auto crowd = Crowd(model, 800, 41);
    for (ConflictPolicy policy :
         {ConflictPolicy::kPreferPrivacy, ConflictPolicy::kPreferQos}) {
      for (const PrivacyRequirement& req : requirements) {
        std::unique_ptr<Anonymizer> by_kind[2];
        const CloakingKind kinds[2] = {CloakingKind::kQuadtree,
                                       CloakingKind::kMultiLevelGrid};
        for (int i = 0; i < 2; ++i) {
          auto opts = DefaultOptions();
          opts.algorithm = kinds[i];
          opts.policy = policy;
          opts.enable_incremental = false;  // cloak the final crowd
          by_kind[i] = MakeAnonymizer(opts);
          std::vector<std::pair<UserId, Point>> batch;
          for (const auto& u : crowd) {
            ASSERT_TRUE(
                by_kind[i]
                    ->RegisterUser(u.id, PrivacyProfile::Uniform(req).value())
                    .ok());
            batch.push_back({u.id, u.location});
          }
          ASSERT_TRUE(by_kind[i]->UpdateLocationsBatch(batch, Noon()).ok());
        }
        const uint32_t height = by_kind[0]->snapshot().pyramid().height();
        for (const auto& u : crowd) {
          auto quad = by_kind[0]->CloakForQuery(u.id, Noon());
          auto multi = by_kind[1]->CloakForQuery(u.id, Noon());
          ASSERT_TRUE(quad.ok());
          ASSERT_TRUE(multi.ok());
          const std::string what =
              "user " + std::to_string(u.id) + " model " +
              std::to_string(static_cast<int>(model)) + " policy " +
              std::to_string(static_cast<int>(policy)) + " k " +
              std::to_string(req.k);
          ExpectSameUpdate(quad.value(), multi.value(), what);
          if (policy == ConflictPolicy::kPreferPrivacy) {
            EXPECT_EQ(quad.value().cloaked.region,
                      ReferenceQuadrant(crowd, u.location, req, height))
                << what;
          }
        }
      }
    }
  }
}

TEST(AnonymizerTest, SharedExecutionMatchesPerUserCloaking) {
  // Tight clusters, so that some regions are pyramid cells finer than a
  // grid cell and grouping the pyramid kinds by grid cell would show.
  const auto crowd =
      Crowd(PopulationModel::kGaussianClusters, 1500, 43, 0.01);
  for (CloakingKind kind : {CloakingKind::kGrid, CloakingKind::kQuadtree,
                            CloakingKind::kMultiLevelGrid}) {
    for (ConflictPolicy policy :
         {ConflictPolicy::kPreferPrivacy, ConflictPolicy::kPreferQos}) {
      std::unique_ptr<Anonymizer> shared_on, shared_off;
      for (bool share : {true, false}) {
        auto opts = DefaultOptions();
        opts.algorithm = kind;
        opts.policy = policy;
        opts.enable_shared_execution = share;
        auto a = MakeAnonymizer(opts);
        for (const auto& u : crowd) {
          const PrivacyRequirement req{3u + static_cast<uint32_t>(u.id % 3) * 9,
                                       u.id % 2 == 0 ? 0.0 : 30.0,
                                       u.id % 5 == 0 ? 50.0 : kInf};
          ASSERT_TRUE(
              a->RegisterUser(u.id, PrivacyProfile::Uniform(req).value())
                  .ok());
        }
        (share ? shared_on : shared_off) = std::move(a);
      }
      // One batch that places everyone, then waves in which a random
      // third of the crowd jitters (some stay inside their previous
      // region, so incremental reuse runs beside the sharing).
      Rng rng(44);
      std::vector<Point> where;
      for (const auto& u : crowd) where.push_back(u.location);
      for (int wave = 0; wave < 4; ++wave) {
        std::vector<std::pair<UserId, Point>> batch;
        for (size_t i = 0; i < crowd.size(); ++i) {
          if (wave > 0 && rng.NextBelow(3) != 0) continue;
          if (wave > 0) {
            where[i].x = std::clamp(where[i].x + rng.Uniform(-2, 2), 0.0,
                                    100.0);
            where[i].y = std::clamp(where[i].y + rng.Uniform(-2, 2), 0.0,
                                    100.0);
          }
          batch.push_back({crowd[i].id, where[i]});
        }
        auto on = shared_on->UpdateLocationsBatch(batch, Noon());
        auto off = shared_off->UpdateLocationsBatch(batch, Noon());
        ASSERT_TRUE(on.ok());
        ASSERT_TRUE(off.ok());
        ASSERT_EQ(on.value().size(), off.value().size());
        for (size_t i = 0; i < on.value().size(); ++i) {
          ExpectSameUpdate(on.value()[i], off.value()[i],
                           std::string(CloakingKindName(kind)) + " wave " +
                               std::to_string(wave) + " entry " +
                               std::to_string(i));
        }
      }
      EXPECT_GT(shared_on->stats().shared_reuses, 0u)
          << CloakingKindName(kind);
      EXPECT_EQ(shared_off->stats().shared_reuses, 0u);
    }
  }
}

TEST(AnonymizerTest, RestoreReproducesEveryRegionBitExactly) {
  for (CloakingKind kind : kAllKinds) {
    auto opts = DefaultOptions();
    opts.algorithm = kind;
    opts.enable_incremental = false;  // cloak against the restored snapshot
    auto exporter = MakeAnonymizer(opts);
    // Users arrive in shuffled id order, then move and partly leave, so
    // the exporter's history differs from the restore's ascending-id
    // inserts.
    Rng rng(45);
    std::vector<UserId> ids(300);
    std::iota(ids.begin(), ids.end(), UserId{1});
    for (size_t i = ids.size() - 1; i > 0; --i) {
      std::swap(ids[i], ids[rng.NextBelow(i + 1)]);
    }
    for (UserId id : ids) {
      ASSERT_TRUE(exporter->RegisterUser(id, KProfile(2 + id % 25)).ok());
      ASSERT_TRUE(exporter
                      ->UpdateLocation(id, {rng.Uniform(0, 100),
                                            rng.Uniform(0, 100)},
                                       Noon())
                      .ok());
    }
    for (int i = 0; i < 600; ++i) {
      const UserId id = 1 + rng.NextBelow(ids.size());
      if (!exporter->IsRegistered(id)) continue;
      ASSERT_TRUE(exporter
                      ->UpdateLocation(id, {rng.Uniform(0, 100),
                                            rng.Uniform(0, 100)},
                                       Noon())
                      .ok());
      if (i % 9 == 0) {
        ASSERT_TRUE(exporter->UnregisterUser(id).ok());
      }
    }

    auto restored = MakeAnonymizer(opts);
    ASSERT_TRUE(restored->RestoreState(exporter->ExportState()).ok());
    ASSERT_EQ(restored->num_users(), exporter->num_users());
    size_t compared = 0;
    for (UserId id : ids) {
      if (!exporter->IsRegistered(id)) continue;
      auto want = exporter->CloakForQuery(id, Noon());
      auto got = restored->CloakForQuery(id, Noon());
      ASSERT_TRUE(want.ok());
      ASSERT_TRUE(got.ok());
      ExpectSameUpdate(want.value(), got.value(),
                       std::string(CloakingKindName(kind)) + " user " +
                           std::to_string(id));
      ++compared;
    }
    EXPECT_GT(compared, 200u) << CloakingKindName(kind);
  }
}

}  // namespace
}  // namespace cloakdb
