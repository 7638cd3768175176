// Properties of the Fig. 5 NN/kNN k-dominance kernel (KDominancePrune):
//  - it keeps a subset of whole-cloak k-dominance (the pre-tile rule);
//  - it keeps a superset of the true k nearest, ties included, at every
//    point of a 33x33 sample of the cloak, boundary included;
//  - its verdicts equal a quadratic per-tile reference bit for bit;
//  - it preserves hit order and prunes pointers like values.
// Inputs mix lattice coordinates (distance ties), duplicate locations,
// zero-width and zero-height cloaks, hit counts at or below k, and
// k in {1, 2, 5, 64, 4096}. A service twin holds 1-, 2- and 4-shard NN/kNN
// answers to each other bit for bit, and a large call must not leave its
// scratch on the thread.

#include "server/dominance.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "geom/distance.h"
#include "service/cloak_db_service.h"
#include "util/random.h"

namespace cloakdb {
namespace {

/// A coordinate on a coarse lattice half the time (ties and duplicate
/// locations), uniform otherwise.
double Coord(Rng& rng, double span) {
  return rng.Bernoulli(0.5)
             ? span * static_cast<double>(rng.UniformInt(0, 16)) / 16.0
             : rng.Uniform(0.0, span);
}

std::vector<PublicObject> RandomObjects(Rng& rng, size_t n, double span) {
  std::vector<PublicObject> objects;
  for (size_t i = 0; i < n; ++i) {
    PublicObject o;
    o.id = 1 + i;
    o.location = {Coord(rng, span), Coord(rng, span)};
    if (i > 0 && rng.Bernoulli(0.1))
      o.location = objects[rng.NextBelow(i)].location;
    objects.push_back(o);
  }
  return objects;
}

/// A point, a segment either way, or a proper rectangle inside the span.
Rect RandomCloak(Rng& rng, double span) {
  const double x = Coord(rng, span * 0.8);
  const double y = Coord(rng, span * 0.8);
  const double w = rng.Uniform(0.0, span * 0.2);
  const double h = rng.Uniform(0.0, span * 0.2);
  switch (rng.NextBelow(4)) {
    case 0:
      return Rect(x, y, x, y);
    case 1:
      return Rect(x, y, x + w, y);
    case 2:
      return Rect(x, y, x, y + h);
    default:
      return Rect(x, y, x + w, y + h);
  }
}

std::vector<ObjectId> Ids(const std::vector<PublicObject>& objects) {
  std::vector<ObjectId> ids;
  for (const auto& o : objects) ids.push_back(o.id);
  return ids;
}

/// Whole-cloak k-dominance: o survives iff fewer than k objects have
/// MaxDist(o', R) < MinDist(o, R) (sorted MaxDist, one count per object).
std::vector<ObjectId> WholeCloakSurvivors(
    const std::vector<PublicObject>& objects, const Rect& cloaked, size_t k) {
  std::vector<double> max_dists;
  for (const auto& o : objects) max_dists.push_back(MaxDist(o.location, cloaked));
  std::sort(max_dists.begin(), max_dists.end());
  std::vector<ObjectId> ids;
  for (const auto& o : objects) {
    const double min_d = MinDist(o.location, cloaked);
    const auto closer = static_cast<size_t>(
        std::lower_bound(max_dists.begin(), max_dists.end(), min_d) -
        max_dists.begin());
    if (closer < k) ids.push_back(o.id);
  }
  return ids;
}

/// The quadratic per-tile rule on the kernel's tile bounds.
std::vector<ObjectId> PerTileSurvivors(const std::vector<PublicObject>& objects,
                                       const Rect& cloaked, size_t k) {
  std::vector<ObjectId> ids;
  for (const auto& o : objects) {
    bool keep = false;
    for (size_t i = 0; i < kDominanceTiles && !keep; ++i) {
      for (size_t j = 0; j < kDominanceTiles && !keep; ++j) {
        const Rect tile = DominanceTile(cloaked, i, j);
        size_t dominators = 0;
        for (const auto& d : objects) {
          if (MaxDistSquared(d.location, tile) <
              MinDistSquared(o.location, tile))
            ++dominators;
        }
        keep = dominators < k;
      }
    }
    if (keep) ids.push_back(o.id);
  }
  return ids;
}

/// Sample coordinate a of 0..32 over [lo, hi], both ends included.
double Sample(double lo, double hi, int a) {
  if (a == 32) return hi;
  return std::min(hi, lo + (hi - lo) * (static_cast<double>(a) / 32.0));
}

/// Ids of every object at most as far from `p` as its k-th nearest: the
/// true k nearest with all ties at the k-th distance.
std::vector<ObjectId> TrueNearest(const std::vector<PublicObject>& objects,
                                  const Point& p, size_t k) {
  std::vector<double> d2;
  for (const auto& o : objects) {
    const double dx = o.location.x - p.x;
    const double dy = o.location.y - p.y;
    d2.push_back(dx * dx + dy * dy);
  }
  if (objects.size() <= k) return Ids(objects);
  std::vector<double> order = d2;
  std::nth_element(order.begin(), order.begin() + (k - 1), order.end());
  const double kth = order[k - 1];
  std::vector<ObjectId> ids;
  for (size_t i = 0; i < objects.size(); ++i) {
    if (d2[i] <= kth) ids.push_back(objects[i].id);
  }
  return ids;
}

bool IsSubset(const std::vector<ObjectId>& small_sorted,
              const std::vector<ObjectId>& big_sorted) {
  return std::includes(big_sorted.begin(), big_sorted.end(),
                       small_sorted.begin(), small_sorted.end());
}

/// Runs every property on one input.
void CheckProperties(const std::vector<PublicObject>& objects,
                     const Rect& cloaked, size_t k, bool with_reference) {
  std::vector<PublicObject> kept = objects;
  const size_t pruned = KDominancePrune(&kept, cloaked, k);
  ASSERT_EQ(pruned + kept.size(), objects.size());
  const std::vector<ObjectId> kept_ids = Ids(kept);  // Ids ascend in input.
  ASSERT_TRUE(std::is_sorted(kept_ids.begin(), kept_ids.end()));
  if (objects.size() <= k) {
    ASSERT_EQ(kept.size(), objects.size());
  }

  std::vector<const PublicObject*> pointers;
  for (const auto& o : objects) pointers.push_back(&o);
  ASSERT_EQ(KDominancePrune(&pointers, cloaked, k), pruned);
  for (size_t i = 0; i < kept.size(); ++i) {
    ASSERT_EQ(pointers[i]->id, kept[i].id);
  }

  ASSERT_TRUE(IsSubset(kept_ids, WholeCloakSurvivors(objects, cloaked, k)));
  if (with_reference) {
    ASSERT_EQ(kept_ids, PerTileSurvivors(objects, cloaked, k));
  }

  for (int a = 0; a <= 32; ++a) {
    for (int b = 0; b <= 32; ++b) {
      const Point p{Sample(cloaked.min_x, cloaked.max_x, a),
                    Sample(cloaked.min_y, cloaked.max_y, b)};
      ASSERT_TRUE(IsSubset(TrueNearest(objects, p, k), kept_ids))
          << "sample (" << a << ", " << b << ")";
    }
  }
}

TEST(DominanceKernelTest, KeepsTrueNearestWithinWholeCloakDominance) {
  Rng rng(20261018);
  size_t nontrivial = 0;
  for (int trial = 0; trial < 400; ++trial) {
    static constexpr size_t kKs[] = {1, 2, 5, 64};
    const size_t k = kKs[trial % 4];
    // Some draws hold at most k objects; k = 64 needs more to prune.
    const size_t n = rng.Bernoulli(0.1) ? rng.NextBelow(k + 1)
                                        : k + rng.NextBelow(k == 64 ? 160 : 60);
    const auto objects = RandomObjects(rng, n, 20.0);
    const Rect cloaked = RandomCloak(rng, 20.0);
    SCOPED_TRACE(testing::Message() << "trial " << trial << " k " << k);
    CheckProperties(objects, cloaked, k, /*with_reference=*/true);
    std::vector<PublicObject> kept = objects;
    KDominancePrune(&kept, cloaked, k);
    if (kept.size() < WholeCloakSurvivors(objects, cloaked, k).size())
      ++nontrivial;
  }
  // The tiles must prune beyond whole-cloak dominance on most draws.
  EXPECT_GT(nontrivial, 150u);
}

TEST(DominanceKernelTest, LargeKKeepsTrueNearest) {
  Rng rng(4096);
  for (int trial = 0; trial < 4; ++trial) {
    constexpr size_t k = 4096;
    const size_t n = trial == 0 ? k : k + 600 + rng.NextBelow(1000);
    const auto objects = RandomObjects(rng, n, 100.0);
    const Rect cloaked = trial == 3 ? Rect(40, 40, 40, 60)
                                    : RandomCloak(rng, 100.0);
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    CheckProperties(objects, cloaked, k, /*with_reference=*/false);
  }
}

TEST(DominanceKernelTest, LargeCallDoesNotKeepItsScratch) {
  Rng rng(1024);
  std::vector<double>& scratch = dominance_internal::Scratch();
  // 5,000 hits need 80,000 doubles of tile columns, above what a thread
  // keeps; 300 hits fit, so their scratch stays for the next call.
  const auto many = RandomObjects(rng, 5000, 100.0);
  std::vector<PublicObject> kept = many;
  KDominancePrune(&kept, Rect(0, 0, 100, 100), 2);
  EXPECT_LE(scratch.capacity(), dominance_internal::kScratchKeep);

  const auto few = RandomObjects(rng, 300, 100.0);
  kept = few;
  KDominancePrune(&kept, Rect(40, 40, 60, 60), 2);
  EXPECT_GE(scratch.capacity(), dominance_internal::kTiles * few.size());
  EXPECT_LE(scratch.capacity(), dominance_internal::kScratchKeep);
}

TEST(DominanceKernelTest, ShardCountsGiveBitIdenticalNearestAnswers) {
  constexpr Category kCat = 7;
  Rng rng(515);
  std::vector<PublicObject> pois;
  for (ObjectId id = 1; id <= 600; ++id) {
    PublicObject o;
    o.id = id;
    o.category = kCat;
    o.name = "poi";
    o.location = {Coord(rng, 100.0), Coord(rng, 100.0)};
    if (id > 1 && rng.Bernoulli(0.1))
      o.location = pois[rng.NextBelow(pois.size())].location;
    pois.push_back(o);
  }
  std::vector<std::unique_ptr<CloakDbService>> services;
  for (uint32_t shards : {1u, 2u, 4u}) {
    CloakDbServiceOptions options;
    options.space = Rect(0, 0, 100, 100);
    options.num_shards = shards;
    services.push_back(CloakDbService::Create(options).value());
    ASSERT_TRUE(services.back()->BulkLoadCategory(kCat, pois).ok());
  }
  auto same = [](const std::vector<PublicObject>& a,
                 const std::vector<PublicObject>& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].id != b[i].id || a[i].name != b[i].name ||
          std::memcmp(&a[i].location, &b[i].location, sizeof(Point)) != 0)
        return false;
    }
    return true;
  };
  size_t compared = 0;
  for (int q = 0; q < 300; ++q) {
    // Cloaks straddle the stripe edges at 25, 50 and 75 often.
    const Rect cloaked = RandomCloak(rng, 100.0);
    for (size_t k : {1, 2, 5, 64}) {
      std::vector<std::vector<PublicObject>> answers;
      for (const auto& db : services) {
        if (k == 1) {
          auto nn = db->PrivateNn(cloaked, kCat);
          ASSERT_TRUE(nn.ok());
          answers.push_back(nn.value().candidates);
        } else {
          auto knn = db->PrivateKnn(cloaked, k, kCat);
          ASSERT_TRUE(knn.ok());
          answers.push_back(knn.value().candidates);
        }
      }
      for (size_t s = 1; s < answers.size(); ++s) {
        ASSERT_TRUE(same(answers[0], answers[s]))
            << "query " << q << " k " << k << " service " << s << ": "
            << answers[0].size() << " vs " << answers[s].size();
      }
      ++compared;
    }
  }
  EXPECT_EQ(compared, 1200u);
}

}  // namespace
}  // namespace cloakdb
