// PublicCategoryIndex facade oracle: the facade (sealed tree + overlay +
// tombstones) fed a randomized op stream must answer exactly like a plain
// dynamic RTree fed the same stream — before and after compactions, and
// across the AdoptSealed recovery path.

#include "index/public_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <vector>

#include "geom/distance.h"
#include "util/random.h"

namespace cloakdb {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

PublicCategoryIndex::Config StaticConfig(size_t compact_limit = 1024) {
  PublicCategoryIndex::Config config;
  config.overlay_compact_limit = compact_limit;
  return config;
}

std::set<ObjectId> Ids(const std::vector<PointEntry>& entries) {
  std::set<ObjectId> out;
  for (const auto& e : entries) out.insert(e.id);
  return out;
}

/// Compares the whole query surface of `facade` against the RTree oracle.
void ExpectSameAnswers(const PublicCategoryIndex& facade, const RTree& oracle,
                       Rng* rng) {
  ASSERT_EQ(facade.size(), oracle.size());
  for (int trial = 0; trial < 12; ++trial) {
    Rect w(rng->Uniform(-10, 80), rng->Uniform(-10, 80), 0, 0);
    w.max_x = w.min_x + rng->Uniform(0, 60);
    w.max_y = w.min_y + rng->Uniform(0, 60);
    EXPECT_EQ(Ids(facade.RangeSearch(w)), Ids(oracle.RangeSearch(w)));
    EXPECT_EQ(facade.RangeCount(w), oracle.RangeCount(w));

    Point q{rng->Uniform(-5, 105), rng->Uniform(-5, 105)};
    for (size_t k : {size_t{1}, size_t{5}}) {
      auto got = facade.KNearest(q, k);
      auto want = oracle.KNearest(q, k);
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(Distance(got[i].location, q), Distance(want[i].location, q));
      }
    }
    EXPECT_EQ(facade.NearestDistance(q), oracle.NearestDistance(q));
  }
}

TEST(PublicCategoryIndexTest, NeverSealedIndexIsItsOverlay) {
  PublicCategoryIndex facade;  // default config, no bulk load
  ASSERT_TRUE(facade.Insert(1, {1, 1}).ok());
  ASSERT_TRUE(facade.Insert(2, {2, 2}).ok());
  EXPECT_EQ(facade.Insert(1, {3, 3}).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(facade.size(), 2u);
  ASSERT_TRUE(facade.Remove(1).ok());
  EXPECT_EQ(facade.Remove(1).code(), StatusCode::kNotFound);
  EXPECT_FALSE(facade.HasSealedTree());
  EXPECT_TRUE(facade.SerializeSealedBlob().empty());
}

TEST(PublicCategoryIndexTest, RandomOpStreamMatchesOracle) {
  // Three regimes: compaction effectively off, aggressive inline
  // compaction, and something in between.
  for (size_t limit : {size_t{100000}, size_t{8}, size_t{64}}) {
    PublicCategoryIndex facade{StaticConfig(limit)};
    RTree oracle;
    Rng rng(1000 + limit);

    // Seed with a sealed bulk.
    std::vector<PointEntry> seed;
    for (ObjectId id = 1; id <= 400; ++id) {
      seed.push_back({id, {rng.Uniform(0, 100), rng.Uniform(0, 100)}});
    }
    ASSERT_TRUE(facade.BulkLoad(seed).ok());
    ASSERT_TRUE(oracle.BulkLoad(seed).ok());
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
        ASSERT_TRUE(oracle.Insert(id, p).ok());
        live.push_back(id);
      } else if (op < 7) {  // remove (sealed ones become tombstones)
        size_t pick = rng.NextBelow(live.size());
        ObjectId id = live[pick];
        ASSERT_TRUE(facade.Remove(id).ok());
        ASSERT_TRUE(oracle.Remove(id).ok());
        live[pick] = live.back();
        live.pop_back();
      } else if (op < 9) {  // move = remove + insert
        size_t pick = rng.NextBelow(live.size());
        ObjectId id = live[pick];
        Point p{rng.Uniform(0, 100), rng.Uniform(0, 100)};
        ASSERT_TRUE(facade.Remove(id).ok());
        ASSERT_TRUE(facade.Insert(id, p).ok());
        ASSERT_TRUE(oracle.Remove(id).ok());
        ASSERT_TRUE(oracle.Insert(id, p).ok());
      } else {  // explicit compaction
        ASSERT_TRUE(facade.Compact().ok());
        EXPECT_EQ(facade.overlay_size(), 0u);
        EXPECT_EQ(facade.tombstone_count(), 0u);
      }
      if (step % 50 == 0) ExpectSameAnswers(facade, oracle, &rng);
    }
    ExpectSameAnswers(facade, oracle, &rng);

    // Duplicate / missing ids fail identically to the RTree contract.
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

TEST(PublicCategoryIndexTest, AdoptSealedReconcilesOverlayAndTombstones) {
  // The sealed tree from "before the crash"...
  std::vector<PointEntry> sealed_set;
  for (ObjectId id = 1; id <= 50; ++id) {
    sealed_set.push_back({id, {static_cast<double>(id), 5.0}});
  }
  auto sealed = StaticRTree::Build(sealed_set);
  ASSERT_TRUE(sealed.ok());

  // ...and the authoritative snapshot set: ids 3 and 7 were removed after
  // the seal, ids 100 and 101 were added.
  std::vector<PointEntry> snapshot;
  for (const auto& e : sealed_set) {
    if (e.id == 3 || e.id == 7) continue;
    snapshot.push_back(e);
  }
  snapshot.push_back({100, {90.0, 90.0}});
  snapshot.push_back({101, {91.0, 91.0}});

  PublicCategoryIndex facade{StaticConfig()};
  ASSERT_TRUE(facade.AdoptSealed(std::move(sealed).value(), snapshot).ok());
  EXPECT_EQ(facade.size(), snapshot.size());
  EXPECT_EQ(facade.tombstone_count(), 2u);
  EXPECT_EQ(facade.overlay_size(), 2u);
  EXPECT_FALSE(facade.Locate(3).ok());
  EXPECT_TRUE(facade.Locate(100).ok());

  RTree oracle;
  ASSERT_TRUE(oracle.BulkLoad(snapshot).ok());
  Rng rng(77);
  ExpectSameAnswers(facade, oracle, &rng);
}

TEST(PublicCategoryIndexTest, AdoptSealedRejectsDivergedLocations) {
  std::vector<PointEntry> sealed_set{{1, {1, 1}}, {2, {2, 2}}};
  auto sealed = StaticRTree::Build(sealed_set);
  ASSERT_TRUE(sealed.ok());

  // Same id, different stored location: the sidecar lies — reject.
  std::vector<PointEntry> snapshot{{1, {1, 1}}, {2, {2.5, 2}}};
  PublicCategoryIndex facade{StaticConfig()};
  EXPECT_EQ(facade.AdoptSealed(std::move(sealed).value(), snapshot).code(),
            StatusCode::kInternal);
  // Failure left the facade untouched.
  EXPECT_EQ(facade.size(), 0u);
  EXPECT_FALSE(facade.HasSealedTree());
}

TEST(PublicCategoryIndexTest, ObsCountersTrackLifecycle) {
  obs::Counter seals, sealed_objects, overlay_inserts, tombstones,
      compactions, adoptions, rebuilds;
  StaticIndexObs obs;
  obs.seals_total = &seals;
  obs.sealed_objects_total = &sealed_objects;
  obs.overlay_inserts_total = &overlay_inserts;
  obs.tombstones_total = &tombstones;
  obs.compactions_total = &compactions;
  obs.adoptions_total = &adoptions;
  obs.rebuilds_total = &rebuilds;

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

TEST(PublicCategoryIndexTest, SerializedBlobSurvivesSealGenerations) {
  PublicCategoryIndex facade{StaticConfig()};
  ASSERT_TRUE(facade.BulkLoad({{1, {1, 1}}, {2, {2, 2}}}).ok());
  const uint64_t gen0 = facade.seal_generation();
  const std::string blob0 = facade.SerializeSealedBlob();
  EXPECT_FALSE(blob0.empty());

  ASSERT_TRUE(facade.Insert(3, {3, 3}).ok());
  // The sealed blob does not include the overlay...
  EXPECT_EQ(facade.SerializeSealedBlob(), blob0);
  // ...until a compaction folds it in and bumps the generation.
  ASSERT_TRUE(facade.Compact().ok());
  EXPECT_GT(facade.seal_generation(), gen0);
  EXPECT_NE(facade.SerializeSealedBlob(), blob0);
  auto parsed = StaticRTree::FromBlob(facade.SerializeSealedBlob());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().size(), 3u);

  // Everything-window sanity after the round trip.
  Rect everything(-kInf, -kInf, kInf, kInf);
  EXPECT_EQ(facade.RangeSearch(everything).size(), 3u);
}

}  // namespace
}  // namespace cloakdb
