// CountWindows unit tests plus the count-part coherence suite: a cached
// part is dropped exactly when its window's scan changes (a record entering
// or leaving the window's closed extent, or its contribution moving), and
// otherwise stays resident. The concurrency stress at the bottom runs
// under TSan in CI.

#include "service/count_windows.h"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "service/cloak_db_service.h"
#include "sim/poi.h"
#include "util/random.h"

namespace cloakdb {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr Category kCat = poi_category::kGasStation;
const Rect kSpace(0, 0, 100, 100);

TimeOfDay Noon() { return TimeOfDay::FromHms(12, 0).value(); }

PrivacyProfile KProfile(uint32_t k) {
  return PrivacyProfile::Uniform({k, 0.0, kInf}).value();
}

PublicCountPart PartOf(size_t contributions) {
  PublicCountPart part;
  part.contributions.resize(contributions);
  return part;
}

TEST(CountWindowsTest, ZeroCapacityDisablesEverything) {
  CountWindows windows(kSpace, 0, {});
  windows.Insert(Rect(0, 0, 1, 1), PartOf(1));
  EXPECT_EQ(windows.size(), 0u);
  EXPECT_EQ(windows.Lookup(Rect(0, 0, 1, 1)), nullptr);
  // Standing counts do not need the cache.
  ASSERT_TRUE(windows.Register(7, Rect(0, 0, 1, 1)).ok());
  EXPECT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows.Standing(7).value().generation, 1u);
  EXPECT_EQ(windows.OnRegionChanged(std::nullopt, Rect(0.5, 0.5, 2, 2)), 1u);
  EXPECT_EQ(windows.Standing(7).value().generation, 2u);
  ASSERT_TRUE(windows.Unregister(7).ok());
  EXPECT_EQ(windows.size(), 0u);
}

TEST(CountWindowsTest, LruEvictsLeastRecentlyUsed) {
  obs::Counter evictions, hits, misses;
  CountWindowsObs obs;
  obs.lru_evictions = &evictions;
  obs.hits = &hits;
  obs.misses = &misses;
  CountWindows windows(kSpace, 2, obs);

  const Rect w1(0, 0, 1, 1), w2(2, 2, 3, 3), w3(4, 4, 5, 5);
  windows.Insert(w1, PartOf(1));
  windows.Insert(w2, PartOf(2));
  ASSERT_NE(windows.Lookup(w1), nullptr);  // refresh w1 -> w2 is now LRU
  windows.Insert(w3, PartOf(3));

  EXPECT_EQ(windows.size(), 2u);
  EXPECT_EQ(evictions.Value(), 1u);
  EXPECT_NE(windows.Lookup(w1), nullptr);
  EXPECT_EQ(windows.Lookup(w2), nullptr);
  EXPECT_NE(windows.Lookup(w3), nullptr);
  EXPECT_EQ(hits.Value(), 3u);
  EXPECT_EQ(misses.Value(), 1u);

  // A standing window outlives the eviction of its part.
  ASSERT_TRUE(windows.Register(1, w1).ok());
  windows.Insert(w2, PartOf(2));  // Evicts w1's part (w3 was used last).
  EXPECT_EQ(windows.Lookup(w1), nullptr);
  EXPECT_EQ(evictions.Value(), 2u);
  EXPECT_EQ(windows.size(), 3u);  // w1 (standing), w2 and w3 (cached).
  EXPECT_EQ(windows.Standing(1).value().window, w1);
}

TEST(CountWindowsTest, InsertSameKeyReplacesInPlace) {
  CountWindows windows(kSpace, 2, {});
  const Rect window(0, 0, 1, 1);
  windows.Insert(window, PartOf(1));
  windows.Insert(window, PartOf(5));
  EXPECT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows.Lookup(window)->contributions.size(), 5u);
  // Keys are exact windows: a window inside a cached one is a miss.
  EXPECT_EQ(windows.Lookup(Rect(0, 0, 0.5, 0.5)), nullptr);
  // -0.0 and 0.0 are one window.
  EXPECT_NE(windows.Lookup(Rect(-0.0, -0.0, 1, 1)), nullptr);
}

CloakDbServiceOptions SharedOptions(uint32_t shards, size_t cache_capacity) {
  CloakDbServiceOptions options;
  options.space = kSpace;
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
  auto pois = GeneratePois(kSpace, options, &rng);
  EXPECT_TRUE(pois.ok());
  return std::move(pois).value();
}

// Only a region change that changes a cached window's scan drops its part:
// a record entering (a shared corner counts) or leaving, or moving its
// contribution. Public writes never do (no public object enters a count),
// even one inside the window — while the private queries see that object
// at once.
TEST(CountWindowsTest, InvalidationIsRegionAndGroupPrecise) {
  obs::Counter invalidations;
  CountWindowsObs obs;
  obs.invalidations = &invalidations;
  CountWindows windows(kSpace, 16, obs);
  const Rect west(0, 0, 10, 10), east(80, 80, 90, 90);
  windows.Insert(west, PartOf(1));
  windows.Insert(east, PartOf(1));
  windows.OnRegionChanged(std::nullopt, Rect(85, 85, 86, 86));
  EXPECT_NE(windows.Lookup(west), nullptr);
  EXPECT_EQ(windows.Lookup(east), nullptr);
  EXPECT_EQ(invalidations.Value(), 1u);
  windows.OnRegionChanged(std::nullopt, Rect(50, 50, 60, 60));
  EXPECT_NE(windows.Lookup(west), nullptr);
  // Inside -> inside: the record still counts 1.0, the scan is unchanged.
  windows.OnRegionChanged(Rect(1, 1, 2, 2), Rect(3, 3, 5, 5));
  EXPECT_NE(windows.Lookup(west), nullptr);
  EXPECT_EQ(invalidations.Value(), 1u);
  windows.OnRegionChanged(std::nullopt, Rect(10, 10, 12, 12));  // Corner.
  EXPECT_EQ(windows.Lookup(west), nullptr);
  EXPECT_EQ(invalidations.Value(), 2u);
  EXPECT_EQ(windows.size(), 0u);

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

// A cache-on service and a cache-off twin fed the same synchronous
// updates: the cached shard part must equal the twin's fresh scan,
// contributions (p = 0 boundary touches included) and naive count alike.
class PartOracle {
 public:
  explicit PartOracle(CloakDbServiceOptions options) {
    options.num_shards = 1;
    options.enable_shared_execution = true;
    options.cache_capacity = 16;
    cached_ = CloakDbService::Create(options).value();
    options.enable_shared_execution = false;
    fresh_ = CloakDbService::Create(options).value();
  }

  void RegisterUser(UserId user, uint32_t k) {
    ASSERT_TRUE(cached_->RegisterUser(user, KProfile(k)).ok());
    ASSERT_TRUE(fresh_->RegisterUser(user, KProfile(k)).ok());
  }
  void UnregisterUser(UserId user) {
    ASSERT_TRUE(cached_->UnregisterUser(user).ok());
    ASSERT_TRUE(fresh_->UnregisterUser(user).ok());
  }
  /// Moves `user` in both services; returns the cached side's update.
  CloakedUpdate Move(UserId user, const Point& to) {
    auto ours = cached_->UpdateLocation(user, to, Noon());
    auto twin = fresh_->UpdateLocation(user, to, Noon());
    EXPECT_TRUE(ours.ok() && twin.ok());
    EXPECT_EQ(ours.value().cloaked.region, twin.value().cloaked.region);
    return ours.value();
  }

  /// Reads `window` from both sides (priming the cache for the next step).
  void ExpectFresh(const Rect& window, const std::string& what) {
    auto ours = cached_->shard(0).PublicCount(window);
    auto truth = fresh_->shard(0).PublicCount(window);
    ASSERT_TRUE(ours.ok() && truth.ok()) << what;
    EXPECT_EQ(ours.value().naive_count, truth.value().naive_count) << what;
    const auto& got = ours.value().contributions;
    const auto& want = truth.value().contributions;
    ASSERT_EQ(got.size(), want.size()) << what;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].pseudonym, want[i].pseudonym) << what;
      EXPECT_EQ(got[i].probability, want[i].probability) << what;
    }
  }

  uint64_t Counter(const char* name) const {
    return cached_->metrics().CounterValue(name);
  }

 private:
  std::unique_ptr<CloakDbService> cached_;
  std::unique_ptr<CloakDbService> fresh_;
};

// The drop rule is presence and p, not p alone: a boundary touch is listed
// with p = 0, so a record that stops or starts touching a window, or
// touches it under a fresh pseudonym, changes the part while p stays 0.
TEST(CountWindowsTest, DropRuleIsBoundaryExact) {
  CloakDbServiceOptions options;
  options.space = kSpace;
  // k = 1 grid cloaks are the user's 10 x 10 cell, edges on multiples of
  // 10, so a region can touch the window's edge exactly.
  options.anonymizer.algorithm = CloakingKind::kGrid;
  options.anonymizer.snapshot.grid_cells_per_side = 10;
  options.anonymizer.pseudonym_rotation_period = 8;
  PartOracle oracle(options);
  oracle.RegisterUser(1, 1);
  oracle.RegisterUser(2, 1);
  oracle.Move(2, {45, 45});  // Bystander, p = 1.
  const Rect window(30, 30, 60, 60);

  struct Step {
    Point to;
    const char* what;
    bool stays_cached;
  };
  const std::vector<Step> steps = {
      {{25, 45}, "new record touching", false},          // Update 1.
      {{15, 45}, "touch -> disjoint", false},            // 2.
      {{25, 45}, "disjoint -> touch", false},            // 3.
      {{35, 45}, "touch -> inside", false},              // 4.
      {{36, 46}, "inside -> inside, same region", true},  // 5.
      {{55, 45}, "inside -> inside, other cell", true},  // 6.
      {{25, 45}, "inside -> touch", false},              // 7.
      {{25, 46}, "touch -> touch with rotation", false},  // 8.
  };
  oracle.ExpectFresh(window, "primed");
  for (const Step& step : steps) {
    const uint64_t hits = oracle.Counter("cache.hits_total");
    const uint64_t drops = oracle.Counter("cache.invalidations_total");
    const CloakedUpdate update = oracle.Move(1, step.to);
    EXPECT_EQ(update.retired_pseudonym != 0,
              std::string(step.what).find("rotation") != std::string::npos)
        << step.what;
    oracle.ExpectFresh(window, step.what);
    EXPECT_EQ(oracle.Counter("cache.hits_total") - hits,
              step.stays_cached ? 1u : 0u)
        << step.what;
    EXPECT_EQ(oracle.Counter("cache.invalidations_total") - drops,
              step.stays_cached ? 0u : 1u)
        << step.what;
  }
  oracle.UnregisterUser(1);  // Drops a touching record.
  oracle.ExpectFresh(window, "unregister");
}

// Naive cloaks that cannot reach k are the maximal centered square, twice
// the space's side: every window meets them, inside the space, across its
// edge, or wholly outside it (where the private index holds nothing).
TEST(CountWindowsTest, NaiveRegionsLargerThanTheSpace) {
  CloakDbServiceOptions options;
  options.space = kSpace;
  options.anonymizer.algorithm = CloakingKind::kNaive;
  PartOracle oracle(options);
  oracle.RegisterUser(1, 5);
  oracle.RegisterUser(2, 1);
  oracle.Move(2, {50, 50});
  const std::vector<Rect> windows = {Rect(30, 30, 60, 60),
                                     Rect(90, 90, 120, 120),
                                     Rect(150, 150, 160, 160)};
  for (const Rect& window : windows) oracle.ExpectFresh(window, "primed");
  for (const Point& to : {Point{60, 60}, Point{10, 90}, Point{99, 99}}) {
    const CloakedUpdate update = oracle.Move(1, to);
    ASSERT_FALSE(kSpace.Contains(update.cloaked.region));
    for (const Rect& window : windows)
      oracle.ExpectFresh(window, "move to " + update.cloaked.region.ToString());
  }
  oracle.UnregisterUser(1);
  for (const Rect& window : windows) oracle.ExpectFresh(window, "unregister");
}

// Interleaves cloaked location updates with cached public counts: after
// every round, the cached count must equal the count of a shared-off twin
// service that saw the identical update stream (no stale part survives an
// update that changed its window's scan).
TEST(CountWindowsTest, NoStaleCountSurvivesOverlappingUpdates) {
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

// Concurrent cached and standing counts and private queries racing
// location updates, public inserts, LRU evictions (tiny capacity) and
// standing registrations. Run under TSan in CI; the invariant checks are
// done by the racing readers themselves.
TEST(CountWindowsTest, ConcurrentHitEvictInvalidateStress) {
  auto options = SharedOptions(2, 8);  // tiny: constant LRU churn
  options.worker_threads = 2;
  auto db = CloakDbService::Create(options).value();
  ASSERT_TRUE(db->BulkLoadCategory(kCat, MakePois(150, 13)).ok());
  constexpr UserId kUsers = 24;
  for (UserId user = 1; user <= kUsers; ++user) {
    ASSERT_TRUE(db->RegisterUser(user, KProfile(2)).ok());
  }
  const ContinuousQueryId standing =
      db->RegisterContinuousCount(Rect(10, 10, 30, 30)).value();

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
        ASSERT_TRUE(db->AnswerContinuous(standing).ok());
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
      // A standing window comes and goes on a hot window.
      auto id = db->RegisterContinuousCount(Rect(0, 0, 20, 20));
      ASSERT_TRUE(id.ok());
      ASSERT_TRUE(db->Flush().ok());
      ASSERT_TRUE(db->UnregisterContinuous(id.value()).ok());
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
  // The standing answer still equals the one-shot count.
  auto answer = db->AnswerContinuous(standing);
  auto one_shot = db->PublicCount(Rect(10, 10, 30, 30));
  ASSERT_TRUE(answer.ok() && one_shot.ok());
  EXPECT_DOUBLE_EQ(answer.value().count.expected,
                   one_shot.value().answer.expected);
}

}  // namespace
}  // namespace cloakdb
