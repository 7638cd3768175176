// PublicCategoryIndex facade oracle: the facade (sealed tree + overlay +
// tombstones) fed a randomized op stream must answer exactly like a
// brute-force scan of the same live set — before and after compactions.

#include "index/public_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "geom/distance.h"
#include "point_model.h"
#include "util/random.h"

namespace cloakdb {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

PublicCategoryIndex::Config StaticConfig(size_t compact_limit = 1024) {
  PublicCategoryIndex::Config config;
  config.overlay_compact_limit = compact_limit;
  return config;
}

std::set<ObjectId> Ids(const std::vector<IndexHit>& entries) {
  std::set<ObjectId> out;
  for (const auto& e : entries) out.insert(e.id);
  return out;
}

/// Compares the whole query surface of `facade` against the brute-force
/// oracle.
void ExpectSameAnswers(const PublicCategoryIndex& facade,
                       const testing::PointModel& oracle, Rng* rng) {
  ASSERT_EQ(facade.size(), oracle.size());
  for (int trial = 0; trial < 12; ++trial) {
    Rect w(rng->Uniform(-10, 80), rng->Uniform(-10, 80), 0, 0);
    w.max_x = w.min_x + rng->Uniform(0, 60);
    w.max_y = w.min_y + rng->Uniform(0, 60);
    EXPECT_EQ(Ids(facade.RangeSearch(w)), testing::ModelRangeIds(oracle, w));
    EXPECT_EQ(facade.RangeCount(w), testing::ModelCount(oracle, w));

    Point q{rng->Uniform(-5, 105), rng->Uniform(-5, 105)};
    for (size_t k : {size_t{1}, size_t{5}}) {
      auto got = facade.KNearest(q, k);
      auto want = testing::ModelKNearest(oracle, q, k);
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(Distance(got[i].location, q), Distance(want[i].location, q));
      }
    }
    EXPECT_EQ(facade.NearestDistance(q),
              testing::ModelNearestDistance(oracle, q));
  }
}

TEST(PublicCategoryIndexTest, NeverSealedIndexIsItsOverlay) {
  PublicCategoryIndex facade;  // default config, no bulk load
  ASSERT_TRUE(facade.Insert(1, {1, 1}).ok());
  ASSERT_TRUE(facade.Insert(2, {2, 2}).ok());
  EXPECT_EQ(facade.Insert(1, {3, 3}).code(), StatusCode::kAlreadyExists);
  // A non-finite x would break the overlay's sort order; BulkLoad rejects
  // it too.
  EXPECT_EQ(facade.Insert(3, {std::nan(""), 1}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(facade.size(), 2u);
  ASSERT_TRUE(facade.Remove(1).ok());
  EXPECT_EQ(facade.Remove(1).code(), StatusCode::kNotFound);
  EXPECT_FALSE(facade.HasSealedTree());
}

TEST(PublicCategoryIndexTest, RandomOpStreamMatchesOracle) {
  // Three regimes: compaction effectively off, aggressive inline
  // compaction, and something in between.
  for (size_t limit : {size_t{100000}, size_t{8}, size_t{64}}) {
    PublicCategoryIndex facade{StaticConfig(limit)};
    testing::PointModel oracle;
    Rng rng(1000 + limit);

    // Seed with a sealed bulk.
    std::vector<PointEntry> seed;
    for (ObjectId id = 1; id <= 400; ++id) {
      seed.push_back({id, {rng.Uniform(0, 100), rng.Uniform(0, 100)}});
    }
    ASSERT_TRUE(facade.BulkLoad(seed).ok());
    oracle = testing::ModelOf(seed);
    ASSERT_EQ(oracle.size(), seed.size());
    EXPECT_TRUE(facade.HasSealedTree());

    std::vector<ObjectId> live;
    for (const auto& e : seed) live.push_back(e.id);
    ObjectId next_id = 10000;

    for (int step = 0; step < 600; ++step) {
      const uint64_t op = rng.NextBelow(10);
      if (op < 4 || live.empty()) {  // insert (post-seal -> overlay)
        Point p{rng.Uniform(0, 100), rng.Uniform(0, 100)};
        ObjectId id = next_id++;
        ASSERT_TRUE(facade.Insert(id, p).ok());
        ASSERT_TRUE(oracle.emplace(id, p).second);
        live.push_back(id);
      } else if (op < 7) {  // remove (sealed ones become tombstones)
        size_t pick = rng.NextBelow(live.size());
        ObjectId id = live[pick];
        ASSERT_TRUE(facade.Remove(id).ok());
        ASSERT_EQ(oracle.erase(id), 1u);
        live[pick] = live.back();
        live.pop_back();
      } else if (op < 9) {  // move = remove + insert
        size_t pick = rng.NextBelow(live.size());
        ObjectId id = live[pick];
        Point p{rng.Uniform(0, 100), rng.Uniform(0, 100)};
        ASSERT_TRUE(facade.Remove(id).ok());
        ASSERT_TRUE(facade.Insert(id, p).ok());
        ASSERT_EQ(oracle.erase(id), 1u);
        ASSERT_TRUE(oracle.emplace(id, p).second);
      } else {  // explicit compaction
        ASSERT_TRUE(facade.Compact().ok());
        EXPECT_EQ(facade.overlay_size(), 0u);
        EXPECT_EQ(facade.tombstone_count(), 0u);
      }
      if (step % 50 == 0) ExpectSameAnswers(facade, oracle, &rng);
    }
    ExpectSameAnswers(facade, oracle, &rng);

    // Duplicate / missing ids fail with AlreadyExists / NotFound.
    ASSERT_FALSE(live.empty());
    EXPECT_EQ(facade.Insert(live[0], {1, 1}).code(),
              StatusCode::kAlreadyExists);
    EXPECT_EQ(facade.Remove(999999999).code(), StatusCode::kNotFound);
  }
}

TEST(PublicCategoryIndexTest, InlineCompactionKeepsSpillBounded) {
  PublicCategoryIndex facade{StaticConfig(16)};
  std::vector<PointEntry> seed;
  for (ObjectId id = 1; id <= 100; ++id) {
    seed.push_back({id, {static_cast<double>(id), 1.0}});
  }
  ASSERT_TRUE(facade.BulkLoad(seed).ok());
  for (ObjectId id = 200; id < 400; ++id) {
    ASSERT_TRUE(facade.Insert(id, {static_cast<double>(id % 90), 2.0}).ok());
    EXPECT_LE(facade.overlay_size() + facade.tombstone_count(), 16u);
  }
  EXPECT_EQ(facade.size(), 300u);
}

TEST(PublicCategoryIndexTest, HandlesDuplicateLocations) {
  // Equal x everywhere: the overlay's (x, id) order falls back to ids.
  PublicCategoryIndex facade;
  for (ObjectId id = 1; id <= 50; ++id) {
    ASSERT_TRUE(facade.Insert(id, {5.0, 5.0}).ok());
  }
  EXPECT_EQ(facade.RangeCount(Rect(5, 5, 5, 5)), 50u);
  auto nearest = facade.KNearest({5, 5}, 50);
  ASSERT_EQ(nearest.size(), 50u);
  for (size_t i = 0; i < nearest.size(); ++i) {
    EXPECT_EQ(nearest[i].id, i + 1);  // ties broken by id
  }
  for (ObjectId id = 1; id <= 50; ++id) ASSERT_TRUE(facade.Remove(id).ok());
  EXPECT_EQ(facade.size(), 0u);
}

TEST(PublicCategoryIndexTest, RemoveAllThenReuse) {
  PublicCategoryIndex facade;
  EXPECT_EQ(facade.NearestDistance({0, 0}), kInf);
  Rng rng(18);
  for (ObjectId id = 1; id <= 100; ++id) {
    ASSERT_TRUE(
        facade.Insert(id, {rng.Uniform(0, 100), rng.Uniform(0, 100)}).ok());
  }
  for (ObjectId id = 1; id <= 100; ++id) ASSERT_TRUE(facade.Remove(id).ok());
  EXPECT_EQ(facade.size(), 0u);
  EXPECT_EQ(facade.NearestDistance({0, 0}), kInf);
  ASSERT_TRUE(facade.Insert(7, {3, 4}).ok());
  EXPECT_EQ(facade.KNearest({0, 0}, 1).front().id, 7u);
  EXPECT_DOUBLE_EQ(facade.NearestDistance({0, 0}), 5.0);
}

TEST(PublicCategoryIndexTest, ObsCountersTrackLifecycle) {
  obs::Counter seals, sealed_objects, overlay_inserts, tombstones,
      compactions;
  StaticIndexObs obs;
  obs.seals_total = &seals;
  obs.sealed_objects_total = &sealed_objects;
  obs.overlay_inserts_total = &overlay_inserts;
  obs.tombstones_total = &tombstones;
  obs.compactions_total = &compactions;

  PublicCategoryIndex::Config config = StaticConfig();
  config.obs = &obs;
  PublicCategoryIndex facade{config};
  ASSERT_TRUE(facade.BulkLoad({{1, {1, 1}}, {2, {2, 2}}, {3, {3, 3}}}).ok());
  EXPECT_EQ(seals.Value(), 1u);
  EXPECT_EQ(sealed_objects.Value(), 3u);
  ASSERT_TRUE(facade.Insert(9, {9, 9}).ok());
  EXPECT_EQ(overlay_inserts.Value(), 1u);
  ASSERT_TRUE(facade.Remove(1).ok());
  EXPECT_EQ(tombstones.Value(), 1u);
  ASSERT_TRUE(facade.Compact().ok());
  EXPECT_EQ(compactions.Value(), 1u);
  EXPECT_EQ(facade.size(), 3u);
}

}  // namespace
}  // namespace cloakdb
