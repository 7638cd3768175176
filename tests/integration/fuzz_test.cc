// Differential fuzzing: long randomized operation sequences on every index
// structure, checked step by step against a brute-force reference model.
// Seeds are fixed, so failures are reproducible.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/cloaking.h"
#include "geom/distance.h"
#include "index/grid_index.h"
#include "index/public_index.h"
#include "index/rect_grid.h"
#include "service/cloak_db_service.h"
#include "sim/poi.h"
#include "util/random.h"
#include "../index/point_model.h"

namespace cloakdb {
namespace {

const Rect kSpace(0, 0, 100, 100);

Point RandomPoint(Rng* rng) {
  return {rng->Uniform(0, 100), rng->Uniform(0, 100)};
}

Rect RandomWindow(Rng* rng) {
  Rect w(rng->Uniform(0, 85), rng->Uniform(0, 85), 0, 0);
  w.max_x = w.min_x + rng->Uniform(0.1, 25);
  w.max_y = w.min_y + rng->Uniform(0.1, 25);
  return w;
}

// Reference model: id -> point, queried by brute force.
using testing::ModelCount;
using testing::PointModel;

template <typename Index>
void RunPointIndexFuzz(Index* index, uint64_t seed, size_t ops) {
  Rng rng(seed);
  PointModel model;
  ObjectId next_id = 1;
  for (size_t op = 0; op < ops; ++op) {
    double dice = rng.NextDouble();
    if (dice < 0.45 || model.empty()) {
      // Insert.
      ObjectId id = next_id++;
      Point p = RandomPoint(&rng);
      ASSERT_TRUE(index->Insert(id, p).ok()) << "op " << op;
      model.emplace(id, p);
    } else if (dice < 0.75) {
      // Move a random existing object.
      auto it = model.begin();
      std::advance(it, rng.NextBelow(model.size()));
      Point p = RandomPoint(&rng);
      ASSERT_TRUE(index->Move(it->first, p).ok()) << "op " << op;
      it->second = p;
    } else if (dice < 0.9) {
      // Remove.
      auto it = model.begin();
      std::advance(it, rng.NextBelow(model.size()));
      ASSERT_TRUE(index->Remove(it->first).ok()) << "op " << op;
      model.erase(it);
    } else {
      // Check a window count.
      Rect w = RandomWindow(&rng);
      ASSERT_EQ(index->CountInRect(w), ModelCount(model, w)) << "op " << op;
    }
    if (op % 97 == 0) {
      ASSERT_EQ(index->size(), model.size()) << "op " << op;
    }
  }
  // Final deep check: several windows + full size.
  ASSERT_EQ(index->size(), model.size());
  for (int i = 0; i < 20; ++i) {
    Rect w = RandomWindow(&rng);
    EXPECT_EQ(index->CountInRect(w), ModelCount(model, w));
  }
}

TEST(FuzzTest, GridIndexAgainstReference) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    GridIndex index(kSpace, 16);
    RunPointIndexFuzz(&index, seed, 3000);
  }
}

// The anonymizer's snapshot: the grid validates every update and the
// pyramid follows with point-in / point-out counts, so after any mix of
// valid and rejected updates each pyramid cell must count exactly the
// model's points inside it.
TEST(FuzzTest, UserSnapshotPyramidAgainstReference) {
  for (uint64_t seed : {4u, 5u, 6u}) {
    UserSnapshot::Options options;
    options.pyramid_height = 4;
    UserSnapshot snapshot(kSpace, options);
    RunPointIndexFuzz(&snapshot, seed, 3000);

    // Continue from the state the generic fuzz left (its ids are 1..3000).
    Rng rng(seed + 100);
    PointModel model;
    for (ObjectId id = 1; id <= 3000; ++id) {
      if (snapshot.Contains(id)) model.emplace(id, snapshot.Locate(id).value());
    }
    ObjectId next_id = 1000000;
    for (size_t op = 0; op < 3000; ++op) {
      const double dice = rng.NextDouble();
      if (dice < 0.3 || model.empty()) {
        ObjectId id = next_id++;
        Point p = RandomPoint(&rng);
        ASSERT_TRUE(snapshot.Insert(id, p).ok()) << "op " << op;
        model.emplace(id, p);
      } else if (dice < 0.6) {
        auto it = model.begin();
        std::advance(it, rng.NextBelow(model.size()));
        Point p = RandomPoint(&rng);
        ASSERT_TRUE(snapshot.Move(it->first, p).ok()) << "op " << op;
        it->second = p;
      } else if (dice < 0.75) {
        auto it = model.begin();
        std::advance(it, rng.NextBelow(model.size()));
        ASSERT_TRUE(snapshot.Remove(it->first).ok()) << "op " << op;
        model.erase(it);
      } else {
        // Rejected updates: duplicate id, unknown id, out of space.
        const ObjectId known = model.begin()->first;
        ASSERT_FALSE(snapshot.Insert(known, RandomPoint(&rng)).ok());
        ASSERT_FALSE(snapshot.Move(next_id, RandomPoint(&rng)).ok());
        ASSERT_FALSE(snapshot.Remove(next_id).ok());
        ASSERT_FALSE(
            snapshot.Move(known, {rng.Uniform(101, 200), 50}).ok());
        ASSERT_FALSE(snapshot.Insert(next_id, {50, -1}).ok());
      }
      if (op % 97 != 0) continue;
      const Pyramid& pyramid = snapshot.pyramid();
      for (uint32_t level = 0; level <= pyramid.height(); ++level) {
        std::map<std::pair<uint32_t, uint32_t>, size_t> want;
        for (const auto& [id, p] : model) {
          PyramidCell c = pyramid.CellAt(level, p);
          ++want[{c.cx, c.cy}];
        }
        for (uint32_t cy = 0; cy < (1u << level); ++cy) {
          for (uint32_t cx = 0; cx < (1u << level); ++cx) {
            auto it = want.find({cx, cy});
            ASSERT_EQ(pyramid.CellCount({level, cx, cy}),
                      it == want.end() ? 0u : it->second)
                << "op " << op << " cell " << level << "/" << cx << "/"
                << cy;
          }
        }
      }
    }
  }
}

TEST(FuzzTest, PublicIndexAgainstReference) {
  // A compact limit of 8 keeps the sealed tree, the overlay, tombstones
  // and inline compactions all in play; every op is followed by a check of
  // the whole query surface and of the spill bound.
  constexpr size_t kLimit = 8;
  for (uint64_t seed : {7u, 8u}) {
    PublicCategoryIndex::Config config;
    config.overlay_compact_limit = kLimit;
    PublicCategoryIndex index(config);
    Rng rng(seed);
    PointModel model;
    ObjectId next_id = 1;
    ObjectId removed = 0;  // the last id removed, if any
    for (size_t op = 0; op < 2000; ++op) {
      const double dice = rng.NextDouble();
      if (dice < 0.5 || model.empty()) {
        ObjectId id = next_id++;
        Point p = RandomPoint(&rng);
        ASSERT_TRUE(index.Insert(id, p).ok()) << "op " << op;
        model.emplace(id, p);
      } else if (dice < 0.85) {
        auto it = model.begin();
        std::advance(it, rng.NextBelow(model.size()));
        ASSERT_TRUE(index.Remove(it->first).ok()) << "op " << op;
        removed = it->first;
        model.erase(it);
      } else if (dice < 0.87) {
        std::vector<PointEntry> fresh;
        for (size_t i = 1 + rng.NextBelow(300); i > 0; --i) {
          fresh.push_back({next_id++, RandomPoint(&rng)});
        }
        model = testing::ModelOf(fresh);
        ASSERT_TRUE(index.BulkLoad(std::move(fresh)).ok()) << "op " << op;
      } else if (dice < 0.92) {
        ASSERT_TRUE(index.Compact().ok()) << "op " << op;
      }

      ASSERT_LE(index.overlay_size() + index.tombstone_count(), kLimit)
          << "op " << op;
      ASSERT_EQ(index.size(), model.size()) << "op " << op;
      Rect w = RandomWindow(&rng);
      std::set<ObjectId> got_ids;
      for (const auto& e : index.RangeSearch(w)) got_ids.insert(e.id);
      ASSERT_EQ(got_ids, testing::ModelRangeIds(model, w)) << "op " << op;
      ASSERT_EQ(index.RangeCount(w), ModelCount(model, w)) << "op " << op;
      Point q = RandomPoint(&rng);
      size_t k = 1 + rng.NextBelow(5);
      auto got = index.KNearest(q, k);
      auto want = testing::ModelKNearest(model, q, k);
      ASSERT_EQ(got.size(), want.size()) << "op " << op;
      for (size_t j = 0; j < got.size(); ++j) {
        ASSERT_EQ(got[j].id, want[j].id) << "op " << op << " rank " << j;
      }
      ASSERT_EQ(index.NearestDistance(q),
                testing::ModelNearestDistance(model, q))
          << "op " << op;
      if (!model.empty()) {
        auto it = model.begin();
        std::advance(it, rng.NextBelow(model.size()));
        auto loc = index.Locate(it->first);
        ASSERT_TRUE(loc.ok()) << "op " << op;
        ASSERT_EQ(loc.value(), it->second) << "op " << op;
      }
      for (ObjectId gone : {removed, next_id}) {
        if (model.count(gone) != 0) continue;
        ASSERT_EQ(index.Locate(gone).status().code(), StatusCode::kNotFound)
            << "op " << op << " id " << gone;
      }
    }
  }
}

TEST(FuzzTest, RectGridAgainstReference) {
  for (uint64_t seed : {9u, 10u}) {
    RectGrid index(kSpace, 12);
    Rng rng(seed);
    std::map<ObjectId, Rect> model;
    ObjectId next_id = 1;
    for (size_t op = 0; op < 3000; ++op) {
      double dice = rng.NextDouble();
      if (dice < 0.4 || model.empty()) {
        ObjectId id = next_id++;
        Rect r = RandomWindow(&rng);
        ASSERT_TRUE(index.Insert(id, r).ok());
        model.emplace(id, r);
      } else if (dice < 0.7) {
        auto it = model.begin();
        std::advance(it, rng.NextBelow(model.size()));
        Rect r = RandomWindow(&rng);
        ASSERT_TRUE(index.Update(it->first, r).ok());
        it->second = r;
      } else if (dice < 0.85) {
        auto it = model.begin();
        std::advance(it, rng.NextBelow(model.size()));
        ASSERT_TRUE(index.Remove(it->first).ok());
        model.erase(it);
      } else {
        Rect w = RandomWindow(&rng);
        std::set<ObjectId> want;
        for (const auto& [id, r] : model) {
          if (r.Intersects(w)) want.insert(id);
        }
        std::set<ObjectId> got;
        for (const auto& e : index.IntersectingRects(w)) got.insert(e.id);
        ASSERT_EQ(got, want) << "op " << op;
      }
    }
    ASSERT_EQ(index.size(), model.size());
  }
}

// --- Shared-execution configuration sweep ---------------------------------
//
// Replays one seeded trace of mixed updates and queries against a shared-
// off baseline service and a sweep of shared-execution configurations
// (cache capacity including the 0/1 degenerates) with the same shard
// count, and diffs every query result. Sharing must be invisible in the
// answers.

std::string QuerySignature(const std::vector<PublicObject>& candidates) {
  std::vector<ObjectId> ids;
  ids.reserve(candidates.size());
  for (const auto& o : candidates) ids.push_back(o.id);
  std::sort(ids.begin(), ids.end());
  std::ostringstream out;
  for (ObjectId id : ids) out << id << ',';
  return out.str();
}

// Runs the trace for `seed` and returns one signature per query issued.
// Updates go through the synchronous path so every configuration sees the
// identical anonymizer state at each step.
std::vector<std::string> ReplayTrace(CloakDbService* db, uint64_t seed) {
  const Category category = poi_category::kGasStation;
  {
    Rng poi_rng(seed);
    PoiOptions poi_options;
    poi_options.count = 120;
    poi_options.category = category;
    EXPECT_TRUE(
        db->BulkLoadCategory(
              category,
              GeneratePois(kSpace, poi_options, &poi_rng).value())
            .ok());
  }
  const PrivacyProfile profile =
      PrivacyProfile::Uniform(
          {3, 0.0, std::numeric_limits<double>::infinity()})
          .value();
  constexpr UserId kUsers = 20;
  for (UserId user = 1; user <= kUsers; ++user) {
    EXPECT_TRUE(db->RegisterUser(user, profile).ok());
  }

  std::vector<std::string> signatures;
  Rng rng(seed * 131 + 7);
  TimeOfDay now = TimeOfDay::FromHms(9, 0).value();
  ObjectId next_object = 500000;
  for (int op = 0; op < 150; ++op) {
    double dice = rng.NextDouble();
    if (dice < 0.25) {
      UserId user = 1 + rng.NextBelow(kUsers);
      EXPECT_TRUE(
          db->UpdateLocation(user, RandomPoint(&rng), now).ok());
      now = now.Plus(30);
    } else if (dice < 0.32) {
      PublicObject object;
      object.id = next_object++;
      object.category = category;
      object.location = RandomPoint(&rng);
      object.name = "fuzz";
      EXPECT_TRUE(db->AddPublicObject(object).ok());
    } else {
      double x = rng.Uniform(0, 88), y = rng.Uniform(0, 88);
      Rect cloaked(x, y, x + rng.Uniform(0.5, 10), y + rng.Uniform(0.5, 10));
      double sub = rng.NextDouble();
      if (sub < 0.3) {
        auto result = db->PrivateRange(cloaked, rng.Uniform(0.5, 6.0),
                                       category);
        signatures.push_back(result.ok()
                                 ? QuerySignature(result.value().candidates)
                                 : result.status().ToString());
      } else if (sub < 0.55) {
        auto result = db->PrivateNn(cloaked, category);
        signatures.push_back(result.ok()
                                 ? QuerySignature(result.value().candidates)
                                 : result.status().ToString());
      } else if (sub < 0.8) {
        auto result = db->PrivateKnn(cloaked, 1 + rng.NextBelow(5), category);
        signatures.push_back(result.ok()
                                 ? QuerySignature(result.value().candidates)
                                 : result.status().ToString());
      } else {
        // Counts revisit 16 hot windows, so the count cache hits between
        // the updates that invalidate it.
        const double wx = 20.0 * rng.NextBelow(4);
        const double wy = 20.0 * rng.NextBelow(4);
        auto result = db->PublicCount(Rect(wx, wy, wx + 20, wy + 20));
        std::ostringstream out;
        if (result.ok()) {
          out << result.value().naive_count << '/'
              << result.value().answer.expected << '/'
              << result.value().answer.min_count << '/'
              << result.value().answer.max_count;
        } else {
          out << result.status().ToString();
        }
        signatures.push_back(out.str());
      }
    }
  }
  return signatures;
}

TEST(FuzzTest, SharedExecutionConfigSweepMatchesIsolatedReplay) {
  for (uint64_t seed : {21u, 22u}) {
    for (uint32_t shards : {1u, 3u}) {
      CloakDbServiceOptions base;
      base.space = kSpace;
      base.num_shards = shards;
      base.worker_threads = 1;
      auto baseline_db = CloakDbService::Create(base).value();
      const std::vector<std::string> baseline =
          ReplayTrace(baseline_db.get(), seed);
      ASSERT_FALSE(baseline.empty());

      for (size_t cache_capacity : {size_t{0}, size_t{1}, size_t{32}}) {
        auto options = base;
        options.enable_shared_execution = true;
        options.cache_capacity = cache_capacity;
        auto db = CloakDbService::Create(options).value();
        const std::vector<std::string> got = ReplayTrace(db.get(), seed);
        ASSERT_EQ(got.size(), baseline.size());
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i], baseline[i])
              << "seed " << seed << " shards " << shards << " cache "
              << cache_capacity << " query " << i;
        }
        if (cache_capacity >= 32) {
          EXPECT_GT(db->metrics().counter("cache.hits_total")->Value(), 0u);
          EXPECT_GT(
              db->metrics().counter("cache.invalidations_total")->Value(),
              0u);
        }
      }
    }
  }
}

// Error-path fuzz: operations that must fail never corrupt the structure.
TEST(FuzzTest, ErrorPathsLeaveStructuresConsistent) {
  GridIndex grid(kSpace, 8);
  Rng rng(11);
  ASSERT_TRUE(grid.Insert(1, {50, 50}).ok());
  for (int i = 0; i < 500; ++i) {
    // All of these must fail without side effects.
    EXPECT_FALSE(grid.Insert(1, RandomPoint(&rng)).ok());
    EXPECT_FALSE(grid.Insert(2, {rng.Uniform(101, 500), 0}).ok());
    EXPECT_FALSE(grid.Remove(99).ok());
    EXPECT_FALSE(grid.Move(99, RandomPoint(&rng)).ok());
    EXPECT_FALSE(grid.Move(1, {-5, rng.Uniform(0, 100)}).ok());
  }
  EXPECT_EQ(grid.size(), 1u);
  EXPECT_EQ(grid.Locate(1).value(), Point(50, 50));
  EXPECT_EQ(grid.CountInRect(kSpace), 1u);
}

}  // namespace
}  // namespace cloakdb
