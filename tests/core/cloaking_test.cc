#include "core/cloaking.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/anonymizer.h"
#include "core/grid_cloaking.h"
#include "core/mbr_cloaking.h"
#include "core/multilevel_grid_cloaking.h"
#include "core/naive_cloaking.h"
#include "geom/distance.h"
#include "util/random.h"

namespace cloakdb {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::unique_ptr<CloakingAlgorithm> MakeAlgorithm(
    CloakingKind kind, const UserSnapshot* snapshot,
    ConflictPolicy policy = ConflictPolicy::kPreferPrivacy) {
  switch (kind) {
    case CloakingKind::kNaive:
      return std::make_unique<NaiveCloaking>(snapshot, policy);
    case CloakingKind::kMbr:
      return std::make_unique<MbrCloaking>(snapshot, policy);
    case CloakingKind::kGrid:
      return std::make_unique<GridCloaking>(snapshot, policy);
    case CloakingKind::kQuadtree:  // one rule, as in the Anonymizer
    case CloakingKind::kMultiLevelGrid:
      return std::make_unique<MultiLevelGridCloaking>(snapshot, policy);
  }
  return nullptr;
}

class SnapshotFixture {
 public:
  explicit SnapshotFixture(size_t num_users, uint64_t seed = 101)
      : space_(0, 0, 100, 100),
        snapshot_(space_, UserSnapshot::Options{}),
        rng_(seed) {
    for (ObjectId id = 1; id <= num_users; ++id) {
      Point p{rng_.Uniform(0, 100), rng_.Uniform(0, 100)};
      EXPECT_TRUE(snapshot_.Insert(id, p).ok());
      users_.push_back({id, p});
    }
  }

  const Rect& space() const { return space_; }
  UserSnapshot& snapshot() { return snapshot_; }
  const std::vector<PointEntry>& users() const { return users_; }
  Rng& rng() { return rng_; }

 private:
  Rect space_;
  UserSnapshot snapshot_;
  Rng rng_;
  std::vector<PointEntry> users_;
};

// ---------------------------------------------------------------------------
// Properties shared by every algorithm.
// ---------------------------------------------------------------------------

class AllAlgorithmsTest : public ::testing::TestWithParam<CloakingKind> {};

TEST_P(AllAlgorithmsTest, RegionAlwaysContainsTrueLocation) {
  SnapshotFixture fx(500);
  auto algo = MakeAlgorithm(GetParam(), &fx.snapshot());
  for (size_t i = 0; i < 100; ++i) {
    const auto& user = fx.users()[i * 5];
    for (uint32_t k : {1u, 5u, 25u, 100u}) {
      auto r = algo->Cloak(user.id, user.location,
                           PrivacyRequirement{k, 0.0, kInf});
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_TRUE(r.value().region.Contains(user.location))
          << algo->Name() << " k=" << k;
    }
  }
}

TEST_P(AllAlgorithmsTest, KSatisfiedWhenFeasible) {
  SnapshotFixture fx(500);
  auto algo = MakeAlgorithm(GetParam(), &fx.snapshot());
  for (size_t i = 0; i < 50; ++i) {
    const auto& user = fx.users()[i * 7];
    for (uint32_t k : {2u, 10u, 50u}) {
      auto r = algo->Cloak(user.id, user.location,
                           PrivacyRequirement{k, 0.0, kInf});
      ASSERT_TRUE(r.ok());
      EXPECT_TRUE(r.value().k_satisfied) << algo->Name() << " k=" << k;
      EXPECT_GE(r.value().achieved_k, k);
      EXPECT_GE(r.value().RelativeAnonymity(), 1.0);
    }
  }
}

TEST_P(AllAlgorithmsTest, AchievedKMatchesSnapshotCount) {
  SnapshotFixture fx(300);
  auto algo = MakeAlgorithm(GetParam(), &fx.snapshot());
  const auto& user = fx.users()[42];
  auto r = algo->Cloak(user.id, user.location,
                       PrivacyRequirement{20, 0.0, kInf});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().achieved_k,
            fx.snapshot().CountInRect(r.value().region));
}

TEST_P(AllAlgorithmsTest, MinAreaRespected) {
  SnapshotFixture fx(500);
  auto algo = MakeAlgorithm(GetParam(), &fx.snapshot());
  const auto& user = fx.users()[10];
  for (double amin : {1.0, 10.0, 100.0}) {
    auto r = algo->Cloak(user.id, user.location,
                         PrivacyRequirement{1, amin, kInf});
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().min_area_satisfied) << algo->Name();
    EXPECT_GE(r.value().region.Area(), amin * (1.0 - 1e-9));
  }
}

TEST_P(AllAlgorithmsTest, BestEffortWhenKExceedsPopulation) {
  SnapshotFixture fx(5);
  auto algo = MakeAlgorithm(GetParam(), &fx.snapshot());
  const auto& user = fx.users()[0];
  auto r = algo->Cloak(user.id, user.location,
                       PrivacyRequirement{1000, 0.0, kInf});
  ASSERT_TRUE(r.ok()) << "best effort must not fail";
  EXPECT_FALSE(r.value().k_satisfied);
  EXPECT_EQ(r.value().achieved_k, 5u);  // the whole population
  EXPECT_TRUE(r.value().region.Contains(user.location));
}

TEST_P(AllAlgorithmsTest, UnknownUserFails) {
  SnapshotFixture fx(10);
  auto algo = MakeAlgorithm(GetParam(), &fx.snapshot());
  auto r = algo->Cloak(999, {50, 50}, PrivacyRequirement{2, 0.0, kInf});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_P(AllAlgorithmsTest, InvalidRequirementFails) {
  SnapshotFixture fx(10);
  auto algo = MakeAlgorithm(GetParam(), &fx.snapshot());
  const auto& user = fx.users()[0];
  auto r = algo->Cloak(user.id, user.location,
                       PrivacyRequirement{0, 0.0, kInf});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_P(AllAlgorithmsTest, MaxAreaFlagReportsViolations) {
  SnapshotFixture fx(200);
  auto algo = MakeAlgorithm(GetParam(), &fx.snapshot());
  const auto& user = fx.users()[3];
  // Generous cap: satisfied.
  auto relaxed = algo->Cloak(user.id, user.location,
                             PrivacyRequirement{2, 0.0, 20000.0});
  ASSERT_TRUE(relaxed.ok());
  EXPECT_TRUE(relaxed.value().max_area_satisfied);
  // Contradictory: huge k with tiny cap. Privacy-first policy keeps k and
  // reports the area violation.
  auto tight = algo->Cloak(user.id, user.location,
                           PrivacyRequirement{150, 0.0, 1e-6});
  ASSERT_TRUE(tight.ok());
  EXPECT_TRUE(tight.value().k_satisfied);
  EXPECT_FALSE(tight.value().max_area_satisfied);
}

TEST_P(AllAlgorithmsTest, LargerKNeverShrinksArea) {
  SnapshotFixture fx(400);
  auto algo = MakeAlgorithm(GetParam(), &fx.snapshot());
  const auto& user = fx.users()[77];
  double prev_area = 0.0;
  for (uint32_t k : {2u, 8u, 32u, 128u}) {
    auto r = algo->Cloak(user.id, user.location,
                         PrivacyRequirement{k, 0.0, kInf});
    ASSERT_TRUE(r.ok());
    EXPECT_GE(r.value().region.Area(), prev_area * (1.0 - 1e-9))
        << algo->Name() << " k=" << k;
    prev_area = r.value().region.Area();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cloaking, AllAlgorithmsTest,
    ::testing::Values(CloakingKind::kNaive, CloakingKind::kMbr,
                      CloakingKind::kQuadtree, CloakingKind::kGrid,
                      CloakingKind::kMultiLevelGrid),
    [](const ::testing::TestParamInfo<CloakingKind>& info) {
      std::string name = CloakingKindName(info.param);
      for (auto& c : name)
        if (c == '-') c = '_';
      return name;
    });

// ---------------------------------------------------------------------------
// Algorithm-specific behaviour.
// ---------------------------------------------------------------------------

TEST(NaiveCloakingTest, RegionIsCenteredOnUser) {
  SnapshotFixture fx(300);
  NaiveCloaking algo(&fx.snapshot());
  const auto& user = fx.users()[5];
  auto r = algo.Cloak(user.id, user.location,
                      PrivacyRequirement{25, 0.0, kInf});
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value().region.Center().x, user.location.x, 1e-9);
  EXPECT_NEAR(r.value().region.Center().y, user.location.y, 1e-9);
  EXPECT_FALSE(algo.IsSpaceDependent());
}

TEST(NaiveCloakingTest, RegionIsMinimalSquare) {
  SnapshotFixture fx(300);
  NaiveCloaking algo(&fx.snapshot());
  const auto& user = fx.users()[5];
  auto r = algo.Cloak(user.id, user.location,
                      PrivacyRequirement{25, 0.0, kInf});
  ASSERT_TRUE(r.ok());
  const Rect& region = r.value().region;
  EXPECT_NEAR(region.Width(), region.Height(), 1e-9);
  // Slightly smaller square must violate k.
  double side = region.Width() * 0.999;
  Rect smaller = Rect::CenteredSquare(user.location, side);
  EXPECT_LT(fx.snapshot().CountInRect(smaller), 25u);
}

TEST(NaiveCloakingTest, QosPolicyCapsArea) {
  SnapshotFixture fx(300);
  NaiveCloaking algo(&fx.snapshot(), ConflictPolicy::kPreferQos);
  const auto& user = fx.users()[5];
  auto r = algo.Cloak(user.id, user.location,
                      PrivacyRequirement{290, 0.0, 4.0});
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r.value().region.Area(), 4.0 * (1.0 + 1e-9));
  EXPECT_TRUE(r.value().max_area_satisfied);
  EXPECT_FALSE(r.value().k_satisfied);  // QoS sacrificed privacy
  EXPECT_TRUE(r.value().region.Contains(user.location));
}

TEST(MbrCloakingTest, RegionCoversKNearestNeighbors) {
  SnapshotFixture fx(300);
  MbrCloaking algo(&fx.snapshot());
  const auto& user = fx.users()[9];
  const uint32_t k = 12;
  auto r = algo.Cloak(user.id, user.location,
                      PrivacyRequirement{k, 0.0, kInf});
  ASSERT_TRUE(r.ok());
  auto neighbors = fx.snapshot().grid().KNearest(user.location, k - 1, user.id);
  for (const auto& n : neighbors) {
    EXPECT_TRUE(r.value().region.Contains(n.location));
  }
  EXPECT_GE(r.value().achieved_k, k);
}

TEST(MbrCloakingTest, TightMbrHasUserOnBoundaryForK2) {
  // For k = 2 without an Amin, the MBR degenerates to the segment box of
  // the user and her nearest neighbor — both on the boundary (the leakage
  // the paper warns about).
  SnapshotFixture fx(100);
  MbrCloaking algo(&fx.snapshot());
  const auto& user = fx.users()[15];
  auto r = algo.Cloak(user.id, user.location,
                      PrivacyRequirement{2, 0.0, kInf});
  ASSERT_TRUE(r.ok());
  const Rect& region = r.value().region;
  bool on_boundary = user.location.x == region.min_x ||
                     user.location.x == region.max_x ||
                     user.location.y == region.min_y ||
                     user.location.y == region.max_y;
  EXPECT_TRUE(on_boundary);
}

TEST(MbrCloakingTest, PadsToMinAreaExactly) {
  SnapshotFixture fx(100);
  MbrCloaking algo(&fx.snapshot());
  const auto& user = fx.users()[20];
  auto r = algo.Cloak(user.id, user.location,
                      PrivacyRequirement{3, 50.0, kInf});
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r.value().region.Area(), 50.0 * (1 - 1e-9));
  // Padding is minimal: within rounding of the target when the raw MBR was
  // smaller than Amin.
  auto raw = algo.Cloak(user.id, user.location,
                        PrivacyRequirement{3, 0.0, kInf});
  ASSERT_TRUE(raw.ok());
  if (raw.value().region.Area() < 50.0) {
    EXPECT_NEAR(r.value().region.Area(), 50.0, 50.0 * 1e-6);
  }
}

TEST(MultiLevelGridCloakingTest, RequiresPyramidStructure) {
  UserSnapshot snapshot(Rect(0, 0, 10, 10), UserSnapshot::Options{},
                        /*with_pyramid=*/false);
  ASSERT_TRUE(snapshot.Insert(1, {5, 5}).ok());
  MultiLevelGridCloaking algo(&snapshot);
  auto r = algo.Cloak(1, {5, 5}, PrivacyRequirement{2, 0.0, kInf});
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

// Quadtree cloaking (paper Fig. 4a) is the multi-level grid cloaker: the
// pyramid is a complete quadtree, and its cells on the user's path are the
// quadrants a quadtree descent would visit.
TEST(QuadtreeCloakingTest, RegionIsAQuadtreeNode) {
  SnapshotFixture fx(400);
  MultiLevelGridCloaking algo(&fx.snapshot());
  const auto& user = fx.users()[33];
  auto r = algo.Cloak(user.id, user.location,
                      PrivacyRequirement{30, 0.0, kInf});
  ASSERT_TRUE(r.ok());
  const Pyramid& pyramid = fx.snapshot().pyramid();
  bool is_node = false;
  for (uint32_t level = 0; level <= pyramid.height(); ++level) {
    if (pyramid.CellRect(pyramid.CellAt(level, user.location)) ==
        r.value().region) {
      is_node = true;
    }
  }
  EXPECT_TRUE(is_node);
  EXPECT_TRUE(algo.IsSpaceDependent());
}

TEST(QuadtreeCloakingTest, SameCellUsersGetSameRegion) {
  // Space-dependence: two users in the same final quadrant produce the
  // identical region regardless of exact position.
  UserSnapshot snapshot(Rect(0, 0, 64, 64), UserSnapshot::Options{});
  // 40 users crowded bottom-left, 2 probes close together top-right.
  Rng rng(55);
  for (ObjectId id = 1; id <= 40; ++id) {
    ASSERT_TRUE(snapshot.Insert(id, {rng.Uniform(0, 8), rng.Uniform(0, 8)})
                    .ok());
  }
  ASSERT_TRUE(snapshot.Insert(100, {62.0, 62.0}).ok());
  ASSERT_TRUE(snapshot.Insert(101, {63.5, 60.5}).ok());
  MultiLevelGridCloaking algo(&snapshot);
  auto a = algo.Cloak(100, {62.0, 62.0}, PrivacyRequirement{2, 0.0, kInf});
  auto b = algo.Cloak(101, {63.5, 60.5}, PrivacyRequirement{2, 0.0, kInf});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().region, b.value().region);
}

TEST(GridCloakingTest, RegionIsCellAligned) {
  SnapshotFixture fx(400);
  GridCloaking algo(&fx.snapshot());
  const GridIndex& grid = fx.snapshot().grid();
  double cw = grid.CellRect(0, 0).Width();
  double ch = grid.CellRect(0, 0).Height();
  for (size_t i = 0; i < 30; ++i) {
    const auto& user = fx.users()[i * 3];
    auto r = algo.Cloak(user.id, user.location,
                        PrivacyRequirement{15, 0.0, kInf});
    ASSERT_TRUE(r.ok());
    const Rect& region = r.value().region;
    // All four edges lie on grid lines.
    auto aligned = [](double v, double step) {
      double m = std::fmod(v, step);
      return std::abs(m) < 1e-9 || std::abs(m - step) < 1e-9;
    };
    EXPECT_TRUE(aligned(region.min_x - grid.bounds().min_x, cw));
    EXPECT_TRUE(aligned(region.max_x - grid.bounds().min_x, cw));
    EXPECT_TRUE(aligned(region.min_y - grid.bounds().min_y, ch));
    EXPECT_TRUE(aligned(region.max_y - grid.bounds().min_y, ch));
  }
}

TEST(GridCloakingTest, SingleCellWhenAlreadySatisfying) {
  UserSnapshot::Options opts;
  opts.grid_cells_per_side = 4;  // 25x25 cells over 100x100
  UserSnapshot snapshot(Rect(0, 0, 100, 100), opts);
  // Crowd one cell.
  Rng rng(66);
  for (ObjectId id = 1; id <= 20; ++id) {
    ASSERT_TRUE(snapshot.Insert(id, {rng.Uniform(30, 45), rng.Uniform(30, 45)})
                    .ok());
  }
  GridCloaking algo(&snapshot);
  auto r = algo.Cloak(1, snapshot.Locate(1).value(),
                      PrivacyRequirement{5, 0.0, kInf});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().region, snapshot.grid().CellRect(1, 1));
}

TEST(GridCloakingTest, SharedBlockForCoversWholeCell) {
  SnapshotFixture fx(300);
  GridCloaking algo(&fx.snapshot());
  const GridIndex& grid = fx.snapshot().grid();
  PrivacyRequirement req{40, 0.0, kInf};
  Rect block = algo.BlockFor(10, 10, req);
  EXPECT_TRUE(block.Contains(grid.CellRect(10, 10)));
  EXPECT_GE(fx.snapshot().CountInRect(block), req.k);
}

TEST(MultiLevelGridCloakingTest, RegionIsAPyramidCell) {
  SnapshotFixture fx(400);
  MultiLevelGridCloaking algo(&fx.snapshot());
  const Pyramid& pyramid = fx.snapshot().pyramid();
  const auto& user = fx.users()[21];
  auto r = algo.Cloak(user.id, user.location,
                      PrivacyRequirement{20, 0.0, kInf});
  ASSERT_TRUE(r.ok());
  bool is_cell = false;
  for (uint32_t level = 0; level <= pyramid.height(); ++level) {
    if (pyramid.CellRect(pyramid.CellAt(level, user.location)) ==
        r.value().region) {
      is_cell = true;
    }
  }
  EXPECT_TRUE(is_cell);
}

TEST(MultiLevelGridCloakingTest, PicksMinimalSatisfyingLevel) {
  SnapshotFixture fx(400);
  MultiLevelGridCloaking algo(&fx.snapshot());
  const Pyramid& pyramid = fx.snapshot().pyramid();
  const auto& user = fx.users()[8];
  PrivacyRequirement req{25, 0.0, kInf};
  auto r = algo.Cloak(user.id, user.location, req);
  ASSERT_TRUE(r.ok());
  PyramidCell cell = algo.CellFor(user.location, req);
  EXPECT_EQ(pyramid.CellRect(cell), r.value().region);
  // A child cell (if any) must not satisfy the requirement.
  if (cell.level < pyramid.height()) {
    PyramidCell child = pyramid.CellAt(cell.level + 1, user.location);
    EXPECT_LT(pyramid.CellCount(child), req.k);
  }
}

TEST(MultiLevelGridCloakingTest, QosPolicyDescendsForAmax) {
  SnapshotFixture fx(400);
  MultiLevelGridCloaking privacy_first(&fx.snapshot(),
                                       ConflictPolicy::kPreferPrivacy);
  MultiLevelGridCloaking qos_first(&fx.snapshot(),
                                   ConflictPolicy::kPreferQos);
  const auto& user = fx.users()[8];
  // k that forces a large cell, with a small Amax.
  PrivacyRequirement req{200, 0.0, 100.0};
  auto keep = privacy_first.Cloak(user.id, user.location, req);
  auto cap = qos_first.Cloak(user.id, user.location, req);
  ASSERT_TRUE(keep.ok());
  ASSERT_TRUE(cap.ok());
  EXPECT_GE(keep.value().region.Area(), cap.value().region.Area());
  EXPECT_TRUE(keep.value().k_satisfied);
  EXPECT_LE(cap.value().region.Area(), 100.0 * (1 + 1e-9));
}

TEST(NaiveCloakingTest, QosShrinkKeepsEdgeUserInside) {
  // A user hugging the space boundary: the QoS shrink must translate the
  // capped region so she stays inside it.
  UserSnapshot snapshot(Rect(0, 0, 100, 100), UserSnapshot::Options{});
  Rng rng(123);
  for (ObjectId id = 1; id <= 200; ++id) {
    ASSERT_TRUE(
        snapshot.Insert(id, {rng.Uniform(0, 100), rng.Uniform(0, 100)}).ok());
  }
  ASSERT_TRUE(snapshot.Insert(999, {0.05, 99.9}).ok());
  NaiveCloaking algo(&snapshot, ConflictPolicy::kPreferQos);
  auto r = algo.Cloak(999, {0.05, 99.9},
                      PrivacyRequirement{150, 0.0, 25.0});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().region.Contains(Point{0.05, 99.9}));
  EXPECT_LE(r.value().region.Area(), 25.0 * (1 + 1e-9));
}

TEST(GridCloakingTest, CornerUserExpandsInward) {
  // A user in the corner cell can only merge inward; the block must stay
  // inside the space and still reach k.
  UserSnapshot snapshot(Rect(0, 0, 100, 100), UserSnapshot::Options{});
  Rng rng(124);
  for (ObjectId id = 1; id <= 300; ++id) {
    ASSERT_TRUE(
        snapshot.Insert(id, {rng.Uniform(0, 100), rng.Uniform(0, 100)}).ok());
  }
  ASSERT_TRUE(snapshot.Insert(999, {0.1, 0.1}).ok());
  GridCloaking algo(&snapshot);
  auto r = algo.Cloak(999, {0.1, 0.1}, PrivacyRequirement{40, 0.0, kInf});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().k_satisfied);
  EXPECT_TRUE(Rect(0, 0, 100, 100).Contains(r.value().region));
  EXPECT_TRUE(r.value().region.Contains(Point{0.1, 0.1}));
}

TEST(AllAlgorithmsEdgeTest, SingleUserPopulationStillCloaks) {
  UserSnapshot snapshot(Rect(0, 0, 100, 100), UserSnapshot::Options{});
  ASSERT_TRUE(snapshot.Insert(1, {50, 50}).ok());
  for (CloakingKind kind :
       {CloakingKind::kNaive, CloakingKind::kMbr, CloakingKind::kQuadtree,
        CloakingKind::kGrid, CloakingKind::kMultiLevelGrid}) {
    auto algo = MakeAlgorithm(kind, &snapshot);
    auto r = algo->Cloak(1, {50, 50}, PrivacyRequirement{1, 0.0, kInf});
    ASSERT_TRUE(r.ok()) << CloakingKindName(kind);
    EXPECT_TRUE(r.value().k_satisfied);
    EXPECT_EQ(r.value().achieved_k, 1u);
  }
}

TEST(UserSnapshotTest, StructuresStayInSync) {
  UserSnapshot snapshot(Rect(0, 0, 100, 100), UserSnapshot::Options{});
  Rng rng(88);
  for (ObjectId id = 1; id <= 100; ++id) {
    ASSERT_TRUE(
        snapshot.Insert(id, {rng.Uniform(0, 100), rng.Uniform(0, 100)}).ok());
  }
  for (ObjectId id = 1; id <= 50; ++id) {
    ASSERT_TRUE(
        snapshot.Move(id, {rng.Uniform(0, 100), rng.Uniform(0, 100)}).ok());
  }
  for (ObjectId id = 51; id <= 70; ++id) {
    ASSERT_TRUE(snapshot.Remove(id).ok());
  }
  EXPECT_EQ(snapshot.size(), 80u);
  // Every pyramid cell counts exactly the grid's users inside it.
  const Pyramid& pyramid = snapshot.pyramid();
  for (uint32_t level = 0; level <= 4; ++level) {
    for (uint32_t cy = 0; cy < (1u << level); ++cy) {
      for (uint32_t cx = 0; cx < (1u << level); ++cx) {
        const PyramidCell cell{level, cx, cy};
        size_t want = 0;
        for (ObjectId id = 1; id <= 100; ++id) {
          auto loc = snapshot.Locate(id);
          if (loc.ok() && pyramid.CellAt(level, loc.value()) == cell) ++want;
        }
        EXPECT_EQ(pyramid.CellCount(cell), want)
            << "cell " << level << "/" << cx << "/" << cy;
      }
    }
  }
  EXPECT_EQ(pyramid.CellCount({0, 0, 0}), 80u);
}

TEST(UserSnapshotTest, SelectiveMaintenance) {
  UserSnapshot snapshot(Rect(0, 0, 10, 10), UserSnapshot::Options{},
                        /*with_pyramid=*/false);
  ASSERT_TRUE(snapshot.Insert(1, {5, 5}).ok());
  EXPECT_FALSE(snapshot.has_pyramid());
  EXPECT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot.CountInRect(Rect(0, 0, 10, 10)), 1u);
  ASSERT_TRUE(snapshot.Move(1, {9, 9}).ok());
  EXPECT_EQ(snapshot.Locate(1).value(), Point(9, 9));
  ASSERT_TRUE(snapshot.Remove(1).ok());
  EXPECT_EQ(snapshot.size(), 0u);
}

// The grid is the snapshot's only validator: a rejected insert, move or
// remove must leave every pyramid count where it was.
TEST(UserSnapshotTest, RejectedUpdatesLeavePyramidCountsUnchanged) {
  UserSnapshot snapshot(Rect(0, 0, 16, 16), UserSnapshot::Options{});
  ASSERT_TRUE(snapshot.Insert(1, {1, 1}).ok());
  EXPECT_EQ(snapshot.Insert(1, {15, 15}).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(snapshot.Insert(2, {99, 1}).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(snapshot.Remove(2).code(), StatusCode::kNotFound);
  EXPECT_EQ(snapshot.Move(2, {15, 15}).code(), StatusCode::kNotFound);
  EXPECT_EQ(snapshot.Move(1, {-1, 0}).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(snapshot.Locate(2).status().code(), StatusCode::kNotFound);

  const Pyramid& pyramid = snapshot.pyramid();
  EXPECT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot.Locate(1).value(), Point(1, 1));
  for (uint32_t level = 0; level <= pyramid.height(); ++level) {
    EXPECT_EQ(pyramid.CellCount(pyramid.CellAt(level, {1, 1})), 1u)
        << "level " << level;
    EXPECT_EQ(pyramid.CellCount(pyramid.CellAt(level, {15, 15})),
              level == 0 ? 1u : 0u)
        << "level " << level;
  }
}

}  // namespace
}  // namespace cloakdb
