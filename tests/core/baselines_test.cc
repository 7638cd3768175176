#include "core/baselines.h"

#include <gtest/gtest.h>

#include <set>

#include "geom/distance.h"

namespace cloakdb {
namespace {

const Rect kSpace(0, 0, 100, 100);

PublicCategoryIndex MakePois(size_t n, uint64_t seed) {
  PublicCategoryIndex tree;
  Rng rng(seed);
  std::vector<PointEntry> entries;
  for (ObjectId id = 1; id <= n; ++id) {
    entries.push_back({id, {rng.Uniform(0, 100), rng.Uniform(0, 100)}});
  }
  EXPECT_TRUE(tree.BulkLoad(entries).ok());
  return tree;
}

TEST(DummyTest, Validation) {
  Rng rng(1);
  DummyOptions options;
  options.num_points = 0;
  EXPECT_FALSE(MakeDummyUpdate({5, 5}, kSpace, options, &rng).ok());
  EXPECT_FALSE(
      MakeDummyUpdate({500, 5}, kSpace, DummyOptions{}, &rng).ok());
}

TEST(DummyTest, ContainsTrueLocationAtHiddenIndex) {
  Rng rng(2);
  DummyOptions options;
  options.num_points = 10;
  for (int trial = 0; trial < 50; ++trial) {
    Point truth{rng.Uniform(0, 100), rng.Uniform(0, 100)};
    auto update = MakeDummyUpdate(truth, kSpace, options, &rng);
    ASSERT_TRUE(update.ok());
    ASSERT_EQ(update.value().points.size(), 10u);
    EXPECT_EQ(update.value().points[update.value().real_index], truth);
    for (const auto& p : update.value().points) {
      EXPECT_TRUE(kSpace.Contains(p));
    }
  }
}

TEST(DummyTest, RealIndexIsUniform) {
  Rng rng(3);
  DummyOptions options;
  options.num_points = 5;
  std::vector<int> counts(5, 0);
  for (int trial = 0; trial < 5000; ++trial) {
    auto update = MakeDummyUpdate({50, 50}, kSpace, options, &rng);
    ASSERT_TRUE(update.ok());
    ++counts[update.value().real_index];
  }
  for (int c : counts) EXPECT_NEAR(c, 1000, 150);
}

TEST(DummyTest, LocalityRadiusBoundsDummies) {
  Rng rng(4);
  DummyOptions options;
  options.num_points = 20;
  options.locality_radius = 5.0;
  Point truth{50, 50};
  auto update = MakeDummyUpdate(truth, kSpace, options, &rng);
  ASSERT_TRUE(update.ok());
  for (const auto& p : update.value().points) {
    EXPECT_LE(std::abs(p.x - truth.x), 5.0 + 1e-9);
    EXPECT_LE(std::abs(p.y - truth.y), 5.0 + 1e-9);
  }
}

TEST(DummyTest, IdentificationRateIsOneOverN) {
  Rng rng(5);
  DummyOptions options;
  options.num_points = 10;
  std::vector<DummyUpdate> updates;
  for (int i = 0; i < 5000; ++i) {
    updates.push_back(
        MakeDummyUpdate({50, 50}, kSpace, options, &rng).value());
  }
  auto report = EvaluateDummyLeakage(updates, &rng);
  EXPECT_NEAR(report.identification_rate, 0.1, 0.02);
  EXPECT_GT(report.guess_error.mean(), 0.0);
}

TEST(DummyTest, SinglePointIsFullyExposed) {
  Rng rng(6);
  DummyOptions options;
  options.num_points = 1;
  std::vector<DummyUpdate> updates{
      MakeDummyUpdate({50, 50}, kSpace, options, &rng).value()};
  auto report = EvaluateDummyLeakage(updates, &rng);
  EXPECT_DOUBLE_EQ(report.identification_rate, 1.0);
  EXPECT_DOUBLE_EQ(report.guess_error.mean(), 0.0);
}

TEST(DummyTest, RangeQueryCoversTruePointAnswer) {
  auto pois = MakePois(300, 7);
  Rng rng(8);
  DummyOptions options;
  options.num_points = 8;
  for (int trial = 0; trial < 20; ++trial) {
    Point truth{rng.Uniform(10, 90), rng.Uniform(10, 90)};
    auto update = MakeDummyUpdate(truth, kSpace, options, &rng);
    ASSERT_TRUE(update.ok());
    double radius = 6.0;
    auto ids = DummyRangeQuery(pois, update.value(), radius);
    std::set<ObjectId> got(ids.begin(), ids.end());
    // Every object within `radius` of the true point must be present.
    for (const auto& hit :
         pois.RangeSearch(Rect::CenteredSquare(truth, 2 * radius))) {
      if (Distance(hit.location, truth) <= radius) {
        EXPECT_TRUE(got.count(hit.id) > 0);
      }
    }
  }
}

TEST(DummyTest, NnQueryContainsTrueAnswerAndScalesWithN) {
  auto pois = MakePois(300, 9);
  Rng rng(10);
  size_t prev = 0;
  for (size_t n : {1u, 4u, 16u}) {
    DummyOptions options;
    options.num_points = n;
    options.locality_radius = 20.0;
    Point truth{50, 50};
    auto update = MakeDummyUpdate(truth, kSpace, options, &rng);
    ASSERT_TRUE(update.ok());
    auto ids = DummyNnQuery(pois, update.value());
    auto true_nn = pois.KNearest(truth, 1).front().id;
    EXPECT_NE(std::find(ids.begin(), ids.end(), true_nn), ids.end());
    EXPECT_GE(ids.size(), std::min<size_t>(prev, ids.size()));
    prev = ids.size();
  }
}

TEST(LandmarkTest, ReportsNearestLandmark) {
  auto landmarks = MakePois(50, 11);
  Point truth{33, 44};
  auto update = MakeLandmarkUpdate(truth, landmarks);
  ASSERT_TRUE(update.ok());
  auto nn = landmarks.KNearest(truth, 1).front();
  EXPECT_EQ(update.value().landmark_id, nn.id);
  EXPECT_DOUBLE_EQ(update.value().displacement,
                   Distance(truth, nn.location));
}

TEST(LandmarkTest, EmptyIndexFails) {
  PublicCategoryIndex empty;
  EXPECT_EQ(MakeLandmarkUpdate({1, 1}, empty).status().code(),
            StatusCode::kNotFound);
}

TEST(LandmarkTest, DenserLandmarksMeanLessPrivacy) {
  Rng rng(12);
  std::vector<Point> users;
  for (int i = 0; i < 500; ++i) {
    users.push_back({rng.Uniform(0, 100), rng.Uniform(0, 100)});
  }
  auto sparse = EvaluateLandmarks(users, MakePois(20, 13));
  auto dense = EvaluateLandmarks(users, MakePois(2000, 14));
  // Privacy radius (= displacement = adversary error) shrinks with
  // density: the landmark approach cannot hold a privacy level.
  EXPECT_LT(dense.displacement.mean(), sparse.displacement.mean());
}

TEST(LandmarkTest, UserAtLandmarkIsExposed) {
  PublicCategoryIndex landmarks;
  ASSERT_TRUE(landmarks.Insert(1, {5, 5}).ok());
  auto report = EvaluateLandmarks({{5, 5}, {50, 50}}, landmarks);
  EXPECT_DOUBLE_EQ(report.exposed_rate, 0.5);
}

}  // namespace
}  // namespace cloakdb
