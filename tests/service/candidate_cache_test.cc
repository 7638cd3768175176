// CandidateCache unit tests plus the cache-coherence property suite: no
// stale count part may survive an overlapping update, while
// non-overlapping entries stay resident. The concurrency stress at the
// bottom runs under TSan in CI.

#include "service/candidate_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <thread>
#include <vector>

#include "service/cloak_db_service.h"
#include "sim/poi.h"
#include "util/random.h"

namespace cloakdb {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr Category kCat = poi_category::kGasStation;

TimeOfDay Noon() { return TimeOfDay::FromHms(12, 0).value(); }

PrivacyProfile KProfile(uint32_t k) {
  return PrivacyProfile::Uniform({k, 0.0, kInf}).value();
}

PublicCountPart PartOf(size_t contributions) {
  PublicCountPart part;
  part.contributions.resize(contributions);
  return part;
}

TEST(CandidateCacheTest, ZeroCapacityDisablesEverything) {
  CandidateCache cache(0);
  EXPECT_FALSE(cache.enabled());
  cache.Insert(Rect(0, 0, 1, 1), PartOf(1));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Lookup(Rect(0, 0, 1, 1)), nullptr);
}

TEST(CandidateCacheTest, LruEvictsLeastRecentlyUsed) {
  obs::Counter evictions, hits, misses;
  CandidateCacheObs obs;
  obs.lru_evictions = &evictions;
  obs.hits = &hits;
  obs.misses = &misses;
  CandidateCache cache(2);
  cache.SetObs(obs);

  const Rect w1(0, 0, 1, 1), w2(2, 2, 3, 3), w3(4, 4, 5, 5);
  cache.Insert(w1, PartOf(1));
  cache.Insert(w2, PartOf(2));
  ASSERT_NE(cache.Lookup(w1), nullptr);  // refresh w1 -> w2 is now LRU
  cache.Insert(w3, PartOf(3));

  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(evictions.Value(), 1u);
  EXPECT_NE(cache.Lookup(w1), nullptr);
  EXPECT_EQ(cache.Lookup(w2), nullptr);
  EXPECT_NE(cache.Lookup(w3), nullptr);
  EXPECT_EQ(hits.Value(), 3u);
  EXPECT_EQ(misses.Value(), 1u);
}

TEST(CandidateCacheTest, InsertSameKeyReplacesInPlace) {
  CandidateCache cache(2);
  const Rect window(0, 0, 1, 1);
  cache.Insert(window, PartOf(1));
  cache.Insert(window, PartOf(5));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Lookup(window)->contributions.size(), 5u);
  // Keys are exact windows: a window inside a cached one is a miss.
  EXPECT_EQ(cache.Lookup(Rect(0, 0, 0.5, 0.5)), nullptr);
}

CloakDbServiceOptions SharedOptions(uint32_t shards, size_t cache_capacity) {
  CloakDbServiceOptions options;
  options.space = Rect(0, 0, 100, 100);
  options.num_shards = shards;
  options.enable_shared_execution = true;
  options.cache_capacity = cache_capacity;
  return options;
}

std::vector<PublicObject> MakePois(size_t count, uint64_t seed) {
  Rng rng(seed);
  PoiOptions options;
  options.count = count;
  options.category = kCat;
  options.name_prefix = "poi";
  auto pois = GeneratePois(Rect(0, 0, 100, 100), options, &rng);
  EXPECT_TRUE(pois.ok());
  return std::move(pois).value();
}

// Only a cloaked update whose region touches a cached window evicts it;
// public writes never do (no public object enters a count), even one
// inside the window — while the private queries see that object at once.
TEST(CandidateCacheTest, InvalidationIsRegionAndGroupPrecise) {
  obs::Counter invalidations;
  CandidateCacheObs obs;
  obs.invalidations = &invalidations;
  CandidateCache cache(16);
  cache.SetObs(obs);
  const Rect west(0, 0, 10, 10), east(80, 80, 90, 90);
  cache.Insert(west, PartOf(1));
  cache.Insert(east, PartOf(1));
  cache.InvalidatePrivateRegion(Rect(85, 85, 86, 86));
  EXPECT_NE(cache.Lookup(west), nullptr);
  EXPECT_EQ(cache.Lookup(east), nullptr);
  EXPECT_EQ(invalidations.Value(), 1u);
  cache.InvalidatePrivateRegion(Rect(50, 50, 60, 60));
  EXPECT_NE(cache.Lookup(west), nullptr);
  cache.InvalidatePrivateRegion(Rect(10, 10, 12, 12));  // Shares a corner.
  EXPECT_EQ(cache.Lookup(west), nullptr);
  EXPECT_EQ(invalidations.Value(), 2u);

  auto db = CloakDbService::Create(SharedOptions(1, 64)).value();
  ASSERT_TRUE(db->BulkLoadCategory(kCat, MakePois(100, 7)).ok());
  for (UserId user = 1; user <= 10; ++user) {
    ASSERT_TRUE(db->RegisterUser(user, KProfile(2)).ok());
    ASSERT_TRUE(
        db->UpdateLocation(user, {20.0 + user, 20.0 + user}, Noon()).ok());
  }
  const Rect window(15, 15, 35, 35);
  auto first = db->PublicCount(window);
  ASSERT_TRUE(first.ok());
  obs::Counter* hits = db->metrics().counter("cache.hits_total");
  PublicObject inside;
  inside.id = 100002;
  inside.category = kCat;
  inside.location = {25, 25};
  inside.name = "inside";
  ASSERT_TRUE(db->AddPublicObject(inside).ok());
  const uint64_t hits_before = hits->Value();
  auto again = db->PublicCount(window);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(hits->Value(), hits_before + 1);
  EXPECT_EQ(again.value().answer.expected, first.value().answer.expected);
  EXPECT_EQ(again.value().naive_count, first.value().naive_count);
  auto range = db->PrivateRange(Rect(20, 20, 30, 30), 5.0, kCat);
  ASSERT_TRUE(range.ok());
  bool found = false;
  for (const auto& o : range.value().candidates)
    found = found || o.id == inside.id;
  EXPECT_TRUE(found) << "a public insert is missing from the next query";
}

// --- Coherence through the service ---------------------------------------

// Interleaves cloaked location updates with cached public counts: after
// every Flush, the cached count must equal the count of a shared-off twin
// service that saw the identical update stream (no stale entry survives an
// overlapping update).
TEST(CandidateCacheTest, NoStaleCountSurvivesOverlappingUpdates) {
  auto shared_opts = SharedOptions(2, 128);
  auto isolated_opts = shared_opts;
  isolated_opts.enable_shared_execution = false;
  auto shared_db = CloakDbService::Create(shared_opts).value();
  auto isolated_db = CloakDbService::Create(isolated_opts).value();

  constexpr UserId kUsers = 40;
  for (UserId user = 1; user <= kUsers; ++user) {
    ASSERT_TRUE(shared_db->RegisterUser(user, KProfile(3)).ok());
    ASSERT_TRUE(isolated_db->RegisterUser(user, KProfile(3)).ok());
  }
  const std::vector<Rect> windows = {Rect(0, 0, 50, 50), Rect(25, 25, 75, 75),
                                     Rect(50, 50, 100, 100),
                                     Rect(0, 0, 100, 100)};
  Rng rng(91);
  TimeOfDay now = Noon();
  for (int round = 0; round < 12; ++round) {
    // Prime the cache on every window, twice (second is a hit).
    for (const Rect& window : windows) {
      for (int repeat = 0; repeat < 2; ++repeat) {
        auto ours = shared_db->PublicCount(window);
        auto truth = isolated_db->PublicCount(window);
        ASSERT_TRUE(ours.ok());
        ASSERT_TRUE(truth.ok());
        EXPECT_DOUBLE_EQ(ours.value().answer.expected,
                         truth.value().answer.expected)
            << "round " << round;
        EXPECT_EQ(ours.value().naive_count, truth.value().naive_count);
      }
    }
    // Move a random slice of the population. Updates go through the
    // synchronous path: batch cloaking depends on batch boundaries (the
    // batch cloaks against its settled snapshot), so only the serial path
    // guarantees both services produce identical cloaked regions under
    // load. The queued path races the cache in the stress test below.
    for (int move = 0; move < 10; ++move) {
      UserId user = 1 + rng.NextBelow(kUsers);
      Point location{rng.Uniform(0, 100), rng.Uniform(0, 100)};
      ASSERT_TRUE(shared_db->UpdateLocation(user, location, now).ok());
      ASSERT_TRUE(isolated_db->UpdateLocation(user, location, now).ok());
    }
    now = now.Plus(60);
  }
  EXPECT_GT(shared_db->metrics().counter("cache.hits_total")->Value(), 0u);
  EXPECT_GT(shared_db->metrics().counter("cache.invalidations_total")->Value(),
            0u);
}

// Concurrent cached counts and private queries racing location updates,
// public inserts and LRU evictions (tiny capacity). Run under TSan in CI;
// the invariant checks are done by the racing readers themselves.
TEST(CandidateCacheTest, ConcurrentHitEvictInvalidateStress) {
  auto options = SharedOptions(2, 8);  // tiny: constant LRU churn
  options.worker_threads = 2;
  auto db = CloakDbService::Create(options).value();
  ASSERT_TRUE(db->BulkLoadCategory(kCat, MakePois(150, 13)).ok());
  constexpr UserId kUsers = 24;
  for (UserId user = 1; user <= kUsers; ++user) {
    ASSERT_TRUE(db->RegisterUser(user, KProfile(2)).ok());
  }

  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (int reader = 0; reader < 3; ++reader) {
    threads.emplace_back([&, reader] {
      Rng rng(500 + reader);
      while (!done.load(std::memory_order_acquire)) {
        double x = rng.Uniform(0, 85), y = rng.Uniform(0, 85);
        Rect cloaked(x, y, x + 8, y + 8);
        auto range = db->PrivateRange(cloaked, 3.0, kCat);
        ASSERT_TRUE(range.ok());
        // Candidate lists are never empty here: the extended region
        // always overlaps a dense 150-POI field.
        auto nn = db->PrivateNn(cloaked, kCat);
        ASSERT_TRUE(nn.ok());
        ASSERT_FALSE(nn.value().candidates.empty());
        // Counts over 16 hot windows: hits race evictions and updates.
        const double cx = 10.0 * rng.NextBelow(4);
        const double cy = 10.0 * rng.NextBelow(4);
        ASSERT_TRUE(db->PublicCount(Rect(cx, cy, cx + 20, cy + 20)).ok());
      }
    });
  }
  threads.emplace_back([&] {
    Rng rng(900);
    TimeOfDay now = Noon();
    for (int round = 0; round < 50; ++round) {
      for (UserId user = 1; user <= kUsers; ++user) {
        ASSERT_TRUE(
            db->EnqueueUpdate(user, {rng.Uniform(0, 100), rng.Uniform(0, 100)},
                              now)
                .ok());
      }
      ASSERT_TRUE(db->Flush().ok());
      now = now.Plus(60);
    }
    for (int i = 0; i < 30; ++i) {
      PublicObject object;
      object.id = 200000 + i;
      object.category = kCat;
      object.location = {rng.Uniform(0, 100), rng.Uniform(0, 100)};
      object.name = "hot";
      ASSERT_TRUE(db->AddPublicObject(object).ok());
    }
  });
  threads.back().join();
  done.store(true, std::memory_order_release);
  for (int reader = 0; reader < 3; ++reader) threads[reader].join();

  auto& metrics = db->metrics();
  EXPECT_GT(metrics.counter("cache.hits_total")->Value() +
                metrics.counter("cache.misses_total")->Value(),
            0u);
  EXPECT_GT(metrics.counter("cache.lru_evictions_total")->Value(), 0u);
}

}  // namespace
}  // namespace cloakdb
