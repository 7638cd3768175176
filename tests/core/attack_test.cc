#include "core/attack.h"

#include <gtest/gtest.h>

#include "core/grid_cloaking.h"
#include "core/mbr_cloaking.h"
#include "core/multilevel_grid_cloaking.h"
#include "core/naive_cloaking.h"
#include "util/random.h"

namespace cloakdb {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(AttackTest, CenterAttackGuessesCenter) {
  CenterAttack attack;
  Rng rng(1);
  EXPECT_EQ(attack.Guess(Rect(0, 0, 4, 2), &rng), Point(2, 1));
}

TEST(AttackTest, BoundaryAttackStaysOnBoundary) {
  BoundaryAttack attack;
  Rng rng(2);
  Rect r(1, 2, 5, 7);
  for (int i = 0; i < 500; ++i) {
    Point g = attack.Guess(r, &rng);
    bool on_edge = g.x == r.min_x || g.x == r.max_x || g.y == r.min_y ||
                   g.y == r.max_y;
    EXPECT_TRUE(on_edge);
    EXPECT_TRUE(r.Contains(g));
  }
}

TEST(AttackTest, UniformAttackStaysInside) {
  UniformAttack attack;
  Rng rng(3);
  Rect r(1, 2, 5, 7);
  for (int i = 0; i < 500; ++i) {
    EXPECT_TRUE(r.Contains(attack.Guess(r, &rng)));
  }
}

TEST(AttackTest, DegenerateRegionIsFullyLeaked) {
  // A k=1 public user's region is a point: every adversary recovers it.
  Rng rng(4);
  Rect point_region = Rect::FromPoint({3, 3});
  CenterAttack center;
  BoundaryAttack boundary;
  UniformAttack uniform;
  EXPECT_EQ(center.Guess(point_region, &rng), Point(3, 3));
  EXPECT_EQ(boundary.Guess(point_region, &rng), Point(3, 3));
  EXPECT_EQ(uniform.Guess(point_region, &rng), Point(3, 3));
}

TEST(AttackTest, EvaluateLeakageEmptyObservations) {
  Rng rng(5);
  auto report = EvaluateLeakage(CenterAttack(), {}, &rng);
  EXPECT_EQ(report.normalized_error.count(), 0u);
  EXPECT_EQ(report.hit_rate, 0.0);
}

// Builds cloaking observations for an algorithm over a shared population.
template <typename Algo>
std::vector<CloakObservation> Observe(size_t trials, uint32_t k,
                                      uint64_t seed) {
  UserSnapshot snapshot(Rect(0, 0, 100, 100), UserSnapshot::Options{});
  Rng rng(seed);
  std::vector<PointEntry> users;
  for (ObjectId id = 1; id <= 2000; ++id) {
    Point p{rng.Uniform(0, 100), rng.Uniform(0, 100)};
    EXPECT_TRUE(snapshot.Insert(id, p).ok());
    users.push_back({id, p});
  }
  Algo algo(&snapshot);
  std::vector<CloakObservation> obs;
  for (size_t i = 0; i < trials; ++i) {
    const auto& user = users[rng.NextBelow(users.size())];
    auto r = algo.Cloak(user.id, user.location,
                        PrivacyRequirement{k, 0.0, kInf});
    EXPECT_TRUE(r.ok());
    obs.push_back({r.value().region, user.location});
  }
  return obs;
}

TEST(LeakageTest, CenterAttackDefeatsNaiveCloakingExactly) {
  auto obs = Observe<NaiveCloaking>(200, 10, 11);
  Rng rng(12);
  auto report = EvaluateLeakage(CenterAttack(), obs, &rng);
  EXPECT_NEAR(report.normalized_error.mean(), 0.0, 1e-9);
  EXPECT_NEAR(report.hit_rate, 1.0, 1e-9);
}

TEST(LeakageTest, CenterAttackDoesNotDefeatSpaceDependentCloaking) {
  auto grid_obs = Observe<GridCloaking>(300, 10, 13);
  // Quadtree cloaking (paper Fig. 4a) runs through the multi-level grid
  // cloaker, as in the Anonymizer.
  auto quad_obs = Observe<MultiLevelGridCloaking>(300, 10, 14);
  Rng rng(15);
  auto grid_report = EvaluateLeakage(CenterAttack(), grid_obs, &rng);
  auto quad_report = EvaluateLeakage(CenterAttack(), quad_obs, &rng);
  // The mean center-guess error for a uniform point in a square region is
  // ~0.54 half-diagonals; anything far above zero means no recovery.
  EXPECT_GT(grid_report.normalized_error.mean(), 0.3);
  EXPECT_GT(quad_report.normalized_error.mean(), 0.3);
  EXPECT_LT(grid_report.hit_rate, 0.1);
  EXPECT_LT(quad_report.hit_rate, 0.1);
}

TEST(LeakageTest, BoundaryAttackBeatsUniformOnMbrForSmallK) {
  // The paper's Fig. 3b argument: MBR edges carry users, so a boundary-
  // aware adversary pinpoints them far more often than blind uniform
  // guessing. Mean error barely moves (a boundary guess can be on the
  // wrong edge), so the discriminating metric is the near-exact hit rate.
  auto obs = Observe<MbrCloaking>(3000, 3, 16);
  Rng rng(17);
  auto boundary = EvaluateLeakage(BoundaryAttack(), obs, &rng, /*eps=*/0.1);
  auto uniform = EvaluateLeakage(UniformAttack(), obs, &rng, /*eps=*/0.1);
  EXPECT_GT(boundary.hit_rate, 1.5 * uniform.hit_rate);
}

TEST(LeakageTest, BoundaryAttackUselessOnSpaceDependentCloaking) {
  auto obs = Observe<MultiLevelGridCloaking>(400, 5, 18);
  Rng rng(19);
  auto boundary = EvaluateLeakage(BoundaryAttack(), obs, &rng);
  auto uniform = EvaluateLeakage(UniformAttack(), obs, &rng);
  // Grid-aligned regions give the boundary no special status: the boundary
  // guess is no better than (and typically worse than) uniform guessing.
  EXPECT_GE(boundary.normalized_error.mean(),
            uniform.normalized_error.mean() * 0.95);
}

TEST(LeakageTest, ReportRecordsAbsoluteErrorsToo) {
  auto obs = Observe<GridCloaking>(100, 10, 20);
  Rng rng(21);
  auto report = EvaluateLeakage(UniformAttack(), obs, &rng);
  EXPECT_EQ(report.absolute_error.count(), 100u);
  EXPECT_GT(report.absolute_error.mean(), 0.0);
  EXPECT_EQ(report.attack_name, "uniform");
}

TEST(AttackRiskTest, CenterRiskFlagsTrueLocationNearCenter) {
  const Rect region(0, 0, 10, 10);
  EXPECT_TRUE(CenterAttackCompromises(region, Point(5.0, 5.0)));
  EXPECT_TRUE(CenterAttackCompromises(region, Point(5.2, 5.1)));
  EXPECT_FALSE(CenterAttackCompromises(region, Point(8.0, 8.0)));
  EXPECT_FALSE(CenterAttackCompromises(region, Point(0.0, 0.0)));
}

TEST(AttackRiskTest, BoundaryRiskFlagsTrueLocationNearAnyEdge) {
  const Rect region(0, 0, 10, 10);
  EXPECT_TRUE(BoundaryAttackCompromises(region, Point(0.1, 5.0)));  // Left.
  EXPECT_TRUE(BoundaryAttackCompromises(region, Point(5.0, 9.9)));  // Top.
  EXPECT_FALSE(BoundaryAttackCompromises(region, Point(5.0, 5.0)));
  EXPECT_FALSE(BoundaryAttackCompromises(region, Point(3.0, 4.0)));
}

TEST(AttackRiskTest, EpsilonScalesWithRegionDiagonal) {
  // The threshold is a fraction of the half-diagonal, so the same absolute
  // center offset is safe in a small region and risky in a large one.
  EXPECT_FALSE(
      CenterAttackCompromises(Rect(0, 0, 100, 100), Point(55.0, 55.0)));
  EXPECT_TRUE(
      CenterAttackCompromises(Rect(0, 0, 1000, 1000), Point(505.0, 505.0)));
  EXPECT_FALSE(CenterAttackCompromises(Rect(0, 0, 100, 100), Point(50.05, 50.0),
                                       /*epsilon_fraction=*/0.0));
  EXPECT_TRUE(CenterAttackCompromises(Rect(0, 0, 100, 100), Point(60.0, 60.0),
                                      /*epsilon_fraction=*/0.5));
}

TEST(AttackRiskTest, DegenerateRegionAlwaysCompromises) {
  const Rect point_region(3, 4, 3, 4);
  EXPECT_TRUE(CenterAttackCompromises(point_region, Point(3, 4)));
  EXPECT_TRUE(BoundaryAttackCompromises(point_region, Point(3, 4)));
}

}  // namespace
}  // namespace cloakdb
