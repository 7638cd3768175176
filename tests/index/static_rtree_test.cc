// StaticRTree oracle suite: every query on the packed tree must agree with
// a brute-force scan of the same points over randomized worlds, at sizes
// that cover the page-boundary edge cases (0, 1, 63, 64, 65, ..., 20k).

#include "index/static_rtree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <vector>

#include "geom/distance.h"
#include "point_model.h"
#include "util/random.h"

namespace cloakdb {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<PointEntry> RandomPoints(size_t n, uint64_t seed,
                                     double extent = 100.0) {
  Rng rng(seed);
  std::vector<PointEntry> out;
  out.reserve(n);
  for (ObjectId id = 1; id <= n; ++id) {
    out.push_back({id, {rng.Uniform(0, extent), rng.Uniform(0, extent)}});
  }
  return out;
}

std::vector<PointEntry> StaticRange(const StaticRTree& tree,
                                    const Rect& window) {
  std::vector<PointEntry> out;
  tree.RangeSearchInto(window, nullptr, &out);
  return out;
}

std::set<ObjectId> Ids(const std::vector<PointEntry>& entries) {
  std::set<ObjectId> out;
  for (const auto& e : entries) out.insert(e.id);
  return out;
}

/// The full query battery: static answers == brute-force answers, bit for
/// bit where the contract promises it.
void ExpectMatchesOracle(const StaticRTree& tree,
                         const std::vector<PointEntry>& points,
                         uint64_t seed) {
  const testing::PointModel oracle = testing::ModelOf(points);
  ASSERT_EQ(oracle.size(), points.size());
  ASSERT_EQ(tree.size(), points.size());

  Rng rng(seed);
  for (int trial = 0; trial < 30; ++trial) {
    Rect w(rng.Uniform(-10, 80), rng.Uniform(-10, 80), 0, 0);
    w.max_x = w.min_x + rng.Uniform(0, 50);
    w.max_y = w.min_y + rng.Uniform(0, 50);
    auto hits = StaticRange(tree, w);
    EXPECT_EQ(Ids(hits), testing::ModelRangeIds(oracle, w));
    EXPECT_EQ(tree.RangeCount(w, nullptr), testing::ModelCount(oracle, w));
    // Exact coordinates must round-trip bit-identically.
    for (const auto& h : hits) {
      auto loc = oracle.find(h.id);
      ASSERT_TRUE(loc != oracle.end());
      EXPECT_EQ(h.location.x, loc->second.x);
      EXPECT_EQ(h.location.y, loc->second.y);
    }

    Point q{rng.Uniform(-5, 105), rng.Uniform(-5, 105)};
    for (size_t k : {size_t{1}, size_t{3}, size_t{17}}) {
      auto got = tree.KNearest(q, k, nullptr);
      auto want = testing::ModelKNearest(oracle, q, k);
      ASSERT_EQ(got.size(), want.size());
      // Distances must agree exactly (ids can differ only on exact ties).
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(Distance(got[i].location, q), Distance(want[i].location, q));
      }
    }
    EXPECT_EQ(tree.NearestDistance(q, nullptr),
              testing::ModelNearestDistance(oracle, q));
  }

  // Point lookups.
  for (const auto& e : points) {
    EXPECT_TRUE(tree.ContainsId(e.id));
    auto loc = tree.Locate(e.id);
    ASSERT_TRUE(loc.ok());
    EXPECT_EQ(loc.value().x, e.location.x);
    EXPECT_EQ(loc.value().y, e.location.y);
  }
  EXPECT_FALSE(tree.ContainsId(0));
  EXPECT_EQ(tree.Locate(std::numeric_limits<ObjectId>::max()).status().code(),
            StatusCode::kNotFound);
}

TEST(StaticRTreeTest, SizesAcrossPageBoundaries) {
  for (size_t n : {size_t{1}, size_t{2}, size_t{63}, size_t{64}, size_t{65},
                   size_t{128}, size_t{4095}, size_t{4096}, size_t{4097}}) {
    auto points = RandomPoints(n, 100 + n);
    auto tree = StaticRTree::Build(points);
    ASSERT_TRUE(tree.ok()) << "n=" << n << ": " << tree.status().message();
    ExpectMatchesOracle(tree.value(), points, 200 + n);
  }
}

TEST(StaticRTreeTest, LargeWorld) {
  auto points = RandomPoints(20000, 7);
  auto tree = StaticRTree::Build(points);
  ASSERT_TRUE(tree.ok());
  EXPECT_GE(tree.value().Height(), 2u);
  ExpectMatchesOracle(tree.value(), points, 8);
}

TEST(StaticRTreeTest, EmptyTree) {
  StaticRTree tree;
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.Height(), 0u);
  EXPECT_TRUE(StaticRange(tree, Rect(-kInf, -kInf, kInf, kInf)).empty());
  EXPECT_TRUE(tree.KNearest({0, 0}, 5, nullptr).empty());
  EXPECT_EQ(tree.NearestDistance({0, 0}, nullptr), kInf);

  auto built = StaticRTree::Build({});
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(built.value().size(), 0u);
}

TEST(StaticRTreeTest, InfiniteAndEmptyWindows) {
  auto points = RandomPoints(300, 21);
  auto tree = StaticRTree::Build(points);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(StaticRange(tree.value(), Rect(-kInf, -kInf, kInf, kInf)).size(),
            points.size());
  EXPECT_TRUE(StaticRange(tree.value(), Rect()).empty());
  EXPECT_EQ(tree.value().RangeCount(Rect(), nullptr), 0u);
}

TEST(StaticRTreeTest, DuplicateCoordinatesAndTies) {
  // Many objects on identical coordinates: ids disambiguate everything.
  std::vector<PointEntry> points;
  for (ObjectId id = 1; id <= 200; ++id) {
    points.push_back({id, {static_cast<double>(id % 5), 2.0}});
  }
  auto tree = StaticRTree::Build(points);
  ASSERT_TRUE(tree.ok());
  ExpectMatchesOracle(tree.value(), points, 22);

  // kNN output is sorted by (distance, id) — with everything equidistant
  // the ids must come back ascending.
  auto knn = tree.value().KNearest({0.0, 2.0}, 10, nullptr);
  ASSERT_EQ(knn.size(), 10u);
  for (size_t i = 1; i < knn.size(); ++i) {
    double d_prev = Distance(knn[i - 1].location, Point{0.0, 2.0});
    double d_cur = Distance(knn[i].location, Point{0.0, 2.0});
    EXPECT_TRUE(d_prev < d_cur ||
                (d_prev == d_cur && knn[i - 1].id < knn[i].id));
  }
}

TEST(StaticRTreeTest, DegenerateFrames) {
  // All points identical: both axes degenerate, scale 0.
  std::vector<PointEntry> same;
  for (ObjectId id = 1; id <= 70; ++id) same.push_back({id, {3.25, -7.5}});
  auto tree = StaticRTree::Build(same);
  ASSERT_TRUE(tree.ok());
  ExpectMatchesOracle(tree.value(), same, 23);

  // Collinear points: one degenerate axis.
  std::vector<PointEntry> line;
  for (ObjectId id = 1; id <= 100; ++id) {
    line.push_back({id, {static_cast<double>(id) * 0.5, 42.0}});
  }
  auto line_tree = StaticRTree::Build(line);
  ASSERT_TRUE(line_tree.ok());
  ExpectMatchesOracle(line_tree.value(), line, 24);
}

TEST(StaticRTreeTest, RejectsBadInput) {
  EXPECT_EQ(StaticRTree::Build({{1, {0, 0}}, {1, {1, 1}}}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(StaticRTree::Build({{1, {kInf, 0}}}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      StaticRTree::Build({{1, {0, std::nan("")}}}).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(StaticRTreeTest, IdFilterHidesEntries) {
  auto points = RandomPoints(500, 31);
  auto tree = StaticRTree::Build(points);
  ASSERT_TRUE(tree.ok());
  StaticRTree::IdFilter skip{3, 77, 210};
  Rect everything(-kInf, -kInf, kInf, kInf);
  std::vector<PointEntry> hits;
  tree.value().RangeSearchInto(everything, &skip, &hits);
  EXPECT_EQ(hits.size(), points.size() - skip.size());
  for (const auto& h : hits) EXPECT_EQ(skip.count(h.id), 0u);
  EXPECT_EQ(tree.value().RangeCount(everything, &skip),
            points.size() - skip.size());
  auto knn = tree.value().KNearest(points[2].location, 1, &skip);
  ASSERT_EQ(knn.size(), 1u);
  EXPECT_NE(knn[0].id, 3u);
}

TEST(StaticRTreeTest, ForEachEntryVisitsEverythingOnce) {
  auto points = RandomPoints(777, 71);
  auto tree = StaticRTree::Build(points);
  ASSERT_TRUE(tree.ok());
  std::set<ObjectId> seen;
  tree.value().ForEachEntry([&](ObjectId id, const Point& p) {
    EXPECT_TRUE(seen.insert(id).second);
    auto loc = tree.value().Locate(id);
    ASSERT_TRUE(loc.ok());
    EXPECT_EQ(p.x, loc.value().x);
    EXPECT_EQ(p.y, loc.value().y);
  });
  EXPECT_EQ(seen.size(), points.size());
}

}  // namespace
}  // namespace cloakdb
