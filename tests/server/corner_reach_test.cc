// CornerReachTwinTest: the NN/kNN plans fix their fetch radius from the
// k-th nearest distance of each cloak corner, found by one joint probe
// (PublicCategoryIndex::MaxKthDistanceSquared). Its twin is the per-corner
// reference it replaced, max over the corners of
// Distance(c, KNearest(c, k).back()), and the two must agree bit for bit:
// on sealed categories, with tombstones and spill entries on both sides
// of a corner's x, at distance ties, at exactly k + 1 objects and for a
// zero-area cloak.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <thread>
#include <vector>

#include "geom/distance.h"
#include "server/private_queries.h"
#include "util/random.h"

namespace cloakdb {
namespace {

constexpr Category kCat = 1;

PublicObject Poi(ObjectId id, double x, double y) {
  PublicObject o;
  o.id = id;
  o.location = {x, y};
  o.category = kCat;
  return o;
}

/// `n` uniform POIs over [0, 100]^2, ids 1..n, sealed by one bulk load.
ObjectStore SealedStore(size_t n, uint64_t seed) {
  ObjectStore store(Rect(0, 0, 100, 100));
  Rng rng(seed);
  std::vector<PublicObject> pois;
  for (ObjectId id = 1; id <= n; ++id)
    pois.push_back(Poi(id, rng.Uniform(0, 100), rng.Uniform(0, 100)));
  EXPECT_TRUE(store.BulkLoadCategory(kCat, std::move(pois)).ok());
  return store;
}

const PublicCategoryIndex& IndexOf(const ObjectStore& store) {
  return *store.CategoryIndex(kCat).value();
}

/// The per-corner reference: the largest k-th nearest distance of a
/// corner, one KNearest call per corner.
double ReferenceMaxKth(const PublicCategoryIndex& index, const Rect& cloaked,
                       size_t k) {
  double max_kth = 0.0;
  for (const Point& corner : cloaked.Corners()) {
    max_kth = std::max(
        max_kth, Distance(corner, index.KNearest(corner, k).back().location));
  }
  return max_kth;
}

/// Holds the joint probe, and the reach the NN/kNN plans derive from it,
/// to the reference on `cloaked`.
void ExpectTwins(const ObjectStore& store, const Rect& cloaked, size_t k) {
  const PublicCategoryIndex& index = IndexOf(store);
  ASSERT_GT(index.size(), k);
  const std::array<Point, 4> corners = cloaked.Corners();
  const double want = ReferenceMaxKth(index, cloaked, k);
  EXPECT_EQ(std::sqrt(index.MaxKthDistanceSquared(corners, k)), want)
      << "k=" << k << " cloak " << cloaked.min_x << "," << cloaked.min_y
      << " - " << cloaked.max_x << "," << cloaked.max_y;
  const double reach = want + cloaked.HalfDiagonal();
  auto knn = KnnFetchRadius(store, cloaked, k, kCat);
  ASSERT_TRUE(knn.ok());
  EXPECT_EQ(knn.value(), reach) << "k=" << k;
  if (k == 1) {
    auto nn = PlanPrivateNn(store, cloaked, kCat);
    ASSERT_TRUE(nn.ok());
    EXPECT_EQ(nn.value().refine.reach, reach);
  }
}

Rect RandomCloak(Rng* rng, double max_side) {
  const double x = rng->Uniform(-5, 105);
  const double y = rng->Uniform(-5, 105);
  return Rect(x, y, x + rng->Uniform(0, max_side),
              y + rng->Uniform(0, max_side));
}

constexpr std::array<size_t, 4> kKs = {1, 5, 20, 50};

TEST(CornerReachTwinTest, MatchesPerCornerKNearestOnSealedCategories) {
  const ObjectStore store = SealedStore(3000, 7);
  ASSERT_TRUE(IndexOf(store).HasSealedTree());
  Rng rng(11);
  for (int trial = 0; trial < 60; ++trial) {
    const Rect cloaked = RandomCloak(&rng, trial % 2 == 0 ? 3.0 : 40.0);
    for (size_t k : kKs) ExpectTwins(store, cloaked, k);
  }
}

TEST(CornerReachTwinTest, TombstonesAndSpillOnBothSidesOfACornersX) {
  ObjectStore store = SealedStore(2000, 13);
  Rng rng(17);
  // Tombstones: remove a fifth of the sealed objects, and move a few more
  // (a move leaves a tombstone and a spill entry).
  for (ObjectId id = 1; id <= 2000; id += 5)
    ASSERT_TRUE(store.RemovePublicObject(id).ok());
  for (ObjectId id = 2; id <= 200; id += 10)
    ASSERT_TRUE(
        store.MovePublicObject(id, {rng.Uniform(0, 100), rng.Uniform(0, 100)})
            .ok());
  // Spill entries close to fixed cloak corners, just left and just right
  // of each corner's x, so they displace sealed neighbours from the heaps.
  const std::vector<Rect> cloaks = {Rect(30, 30, 32, 33), Rect(60, 10, 61, 14),
                                    Rect(5, 80, 25, 95)};
  ObjectId next = 10'000;
  for (const Rect& cloaked : cloaks) {
    for (const Point& c : cloaked.Corners()) {
      for (double dx : {-0.3, -0.05, 0.0, 0.05, 0.3}) {
        ASSERT_TRUE(store
                        .AddPublicObject(Poi(next++, c.x + dx,
                                             c.y + rng.Uniform(-0.4, 0.4)))
                        .ok());
      }
    }
  }
  // Per corner of one more cloak: on each side a spill entry near in x
  // but not in y, and on the right one a little farther in x and nearer
  // overall. The fold must reach it although its x gap (0.1) passes the
  // first entry's squared distance (0.0229): gaps are squared too.
  const Rect staircase(80, 80, 81, 81);
  for (const Point& c : staircase.Corners()) {
    for (double side : {-1.0, 1.0}) {
      ASSERT_TRUE(
          store.AddPublicObject(Poi(next++, c.x + side * 0.02, c.y + 0.15))
              .ok());
    }
    ASSERT_TRUE(store.AddPublicObject(Poi(next++, c.x + 0.1, c.y)).ok());
  }
  const PublicCategoryIndex& index = IndexOf(store);
  ASSERT_GT(index.tombstone_count(), 0u);
  ASSERT_GT(index.overlay_size(), 0u);
  for (const Rect& cloaked : cloaks) {
    for (size_t k : kKs) ExpectTwins(store, cloaked, k);
  }
  for (size_t k : kKs) ExpectTwins(store, staircase, k);
  for (int trial = 0; trial < 40; ++trial) {
    const Rect cloaked = RandomCloak(&rng, 10.0);
    for (size_t k : kKs) ExpectTwins(store, cloaked, k);
  }
}

TEST(CornerReachTwinTest, SpillOnlyCategory) {
  // A category that was never sealed is served by its spill alone.
  ObjectStore store(Rect(0, 0, 100, 100));
  Rng rng(19);
  for (ObjectId id = 1; id <= 300; ++id) {
    ASSERT_TRUE(store
                    .AddPublicObject(
                        Poi(id, rng.Uniform(0, 100), rng.Uniform(0, 100)))
                    .ok());
  }
  ASSERT_FALSE(IndexOf(store).HasSealedTree());
  for (int trial = 0; trial < 30; ++trial) {
    const Rect cloaked = RandomCloak(&rng, 20.0);
    for (size_t k : kKs) ExpectTwins(store, cloaked, k);
  }
}

TEST(CornerReachTwinTest, DistanceTies) {
  // A unit lattice, sealed, plus a few spill points on it: lattice corners
  // and half-way corners see many objects at exactly equal distances.
  ObjectStore store(Rect(0, 0, 100, 100));
  std::vector<PublicObject> pois;
  ObjectId id = 1;
  for (int x = 0; x <= 40; ++x) {
    for (int y = 0; y <= 40; ++y) pois.push_back(Poi(id++, x, y));
  }
  ASSERT_TRUE(store.BulkLoadCategory(kCat, std::move(pois)).ok());
  ASSERT_TRUE(store.AddPublicObject(Poi(id++, 10.5, 10)).ok());
  ASSERT_TRUE(store.AddPublicObject(Poi(id++, 21, 20.5)).ok());
  ASSERT_TRUE(store.RemovePublicObject(1 + 10 * 41 + 11).ok());
  for (const Rect& cloaked :
       {Rect(10, 10, 12, 12), Rect(10.5, 10.5, 11.5, 13.5),
        Rect(20, 20, 21, 21), Rect(0, 0, 2, 2), Rect(39.5, 0.5, 40, 1)}) {
    for (size_t k : kKs) ExpectTwins(store, cloaked, k);
  }
}

TEST(CornerReachTwinTest, CategoryOfExactlyKPlusOneObjects) {
  Rng rng(23);
  for (size_t k : kKs) {
    ObjectStore store(Rect(0, 0, 100, 100));
    std::vector<PublicObject> pois;
    for (ObjectId id = 1; id <= k + 1; ++id)
      pois.push_back(Poi(id, rng.Uniform(0, 100), rng.Uniform(0, 100)));
    ASSERT_TRUE(store.BulkLoadCategory(kCat, std::move(pois)).ok());
    for (int trial = 0; trial < 10; ++trial)
      ExpectTwins(store, RandomCloak(&rng, 30.0), k);
    // One object fewer and every object is a candidate: no probe.
    ASSERT_TRUE(store.RemovePublicObject(1).ok());
    EXPECT_EQ(KnnFetchRadius(store, Rect(10, 10, 20, 20), k, kCat).value(),
              0.0);
  }
}

TEST(CornerReachTwinTest, ZeroAreaCloak) {
  ObjectStore store = SealedStore(1500, 29);
  ASSERT_TRUE(store.AddPublicObject(Poi(5000, 50.01, 49.99)).ok());
  Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    const Point p{rng.Uniform(0, 100), rng.Uniform(0, 100)};
    const Rect cloaked(p.x, p.y, p.x, p.y);
    ASSERT_EQ(cloaked.HalfDiagonal(), 0.0);
    for (size_t k : kKs) ExpectTwins(store, cloaked, k);
  }
  for (size_t k : kKs) ExpectTwins(store, Rect(50, 50, 50, 50), k);
}

TEST(CornerReachTwinTest, ConcurrentProbesKeepTheirOwnScratch) {
  // Each thread's heaps and pending nodes are its own: probes from several
  // threads, at k on both sides of the kept scratch, give the one-thread
  // answers.
  const ObjectStore store = SealedStore(6000, 37);
  const PublicCategoryIndex& index = IndexOf(store);
  Rng rng(41);
  std::vector<Rect> cloaks;
  for (int i = 0; i < 40; ++i) cloaks.push_back(RandomCloak(&rng, 15.0));
  const std::array<size_t, 3> ks = {1, 50, 5000};
  std::vector<double> want;
  for (const Rect& c : cloaks) {
    for (size_t k : ks) want.push_back(ReferenceMaxKth(index, c, k));
  }
  std::vector<int> mismatches(4, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < mismatches.size(); ++t) {
    threads.emplace_back([&, t] {
      for (size_t round = 0; round < 3; ++round) {
        for (size_t i = 0; i < cloaks.size(); ++i) {
          const size_t c = (i + t * 7) % cloaks.size();
          const std::array<Point, 4> corners = cloaks[c].Corners();
          for (size_t j = 0; j < ks.size(); ++j) {
            if (std::sqrt(index.MaxKthDistanceSquared(corners, ks[j])) !=
                want[c * ks.size() + j])
              ++mismatches[t];
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int m : mismatches) EXPECT_EQ(m, 0);
}

}  // namespace
}  // namespace cloakdb
