// Oracle equivalence suite for shared execution (each shard caching its
// public-count parts): across many seeded workloads, a shared service must
// answer every query — private range/NN/kNN, and public counts issued
// between waves of cloaked updates — exactly like a shared-off twin fed the
// same stream. The private candidate lists must also match the isolated
// single-shard QueryProcessor's, and both paths must uphold the paper's
// containment guarantee (the exact answer for every possible true location
// inside the cloaked region is in the candidate list).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <thread>
#include <vector>

#include "server/private_queries.h"
#include "service/cloak_db_service.h"
#include "sim/poi.h"
#include "util/random.h"

namespace cloakdb {
namespace {

constexpr Category kCat = poi_category::kGasStation;

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

std::vector<ObjectId> SortedIds(const std::vector<PublicObject>& objects) {
  std::vector<ObjectId> ids;
  ids.reserve(objects.size());
  for (const auto& o : objects) ids.push_back(o.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

Rect RandomCloak(Rng* rng) {
  double x = rng->Uniform(0, 90), y = rng->Uniform(0, 90);
  return Rect(x, y, x + rng->Uniform(0.5, 9.0), y + rng->Uniform(0.5, 9.0));
}

// Brute-force exact answers over the raw POI list, for the containment
// checks (independent of every index and cache under test).
std::vector<ObjectId> BruteRange(const std::vector<PublicObject>& pois,
                                 const Point& p, double radius) {
  std::vector<ObjectId> ids;
  for (const auto& o : pois) {
    if (Distance(o.location, p) <= radius) ids.push_back(o.id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<ObjectId> BruteKnn(const std::vector<PublicObject>& pois,
                               const Point& p, size_t k) {
  std::vector<std::pair<double, ObjectId>> by_dist;
  by_dist.reserve(pois.size());
  for (const auto& o : pois) by_dist.push_back({Distance(o.location, p), o.id});
  std::sort(by_dist.begin(), by_dist.end());
  std::vector<ObjectId> ids;
  for (size_t i = 0; i < std::min(k, by_dist.size()); ++i)
    ids.push_back(by_dist[i].second);
  return ids;
}

// Every field of a candidate record, in list order.
void ExpectSameCandidates(const std::vector<PublicObject>& got,
                          const std::vector<PublicObject>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << "at " << i;
    EXPECT_EQ(got[i].location, want[i].location) << "at " << i;
    EXPECT_EQ(got[i].category, want[i].category) << "at " << i;
    EXPECT_EQ(got[i].name, want[i].name) << "at " << i;
  }
}

// A cached answer against its isolated twin, field by field.
void ExpectSameRange(const PrivateRangeResult& got,
                     const PrivateRangeResult& want) {
  ExpectSameCandidates(got.candidates, want.candidates);
  EXPECT_EQ(got.extended_region, want.extended_region);
  EXPECT_EQ(got.rounded_rect_pruned, want.rounded_rect_pruned);
  EXPECT_EQ(got.degraded, want.degraded);
  EXPECT_EQ(got.covered_shards, want.covered_shards);
}

template <typename R>  // PrivateNnResult or PrivateKnnResult.
void ExpectSameNearest(const R& got, const R& want) {
  ExpectSameCandidates(got.candidates, want.candidates);
  EXPECT_EQ(got.fetch_radius, want.fetch_radius);
  EXPECT_EQ(got.dominance_pruned, want.dominance_pruned);
  EXPECT_EQ(got.degraded, want.degraded);
  EXPECT_EQ(got.covered_shards, want.covered_shards);
}

// Extra categories of the twin test: POIs on a coarse lattice (distance
// ties), a single object, and fewer objects than the largest k.
constexpr Category kLatticeCat = 201;
constexpr Category kSoloCat = 202;
constexpr Category kFewCat = 203;

std::vector<PublicObject> LatticePois(Category category) {
  std::vector<PublicObject> pois;
  ObjectId id = 50000 + category * 1000;
  for (int i = 0; i < 10; ++i) {
    for (int j = 0; j < 10; ++j) {
      PublicObject o;
      o.id = id++;
      o.location = {5.0 + 10.0 * i, 5.0 + 10.0 * j};
      o.category = category;
      o.name = "lattice";
      pois.push_back(o);
    }
  }
  return pois;
}

std::vector<PublicObject> FirstPois(const std::vector<PublicObject>& pois,
                                    size_t count, Category category) {
  std::vector<PublicObject> out(pois.begin(), pois.begin() + count);
  for (auto& o : out) {
    o.id += 90000 + category * 1000;
    o.category = category;
  }
  return out;
}

/// Point, horizontal and vertical segment cloaks inside `cloaked`, and
/// `cloaked` snapped outward to the POI lattice.
std::vector<Rect> DerivedCloaks(const Rect& cloaked) {
  const double x = cloaked.min_x, y = cloaked.min_y;
  return {Rect(x, y, x, y), Rect(x, y, cloaked.max_x, y),
          Rect(x, y, x, cloaked.max_y),
          Rect(5.0 * std::floor(x / 5.0), 5.0 * std::floor(y / 5.0),
               5.0 * std::ceil(cloaked.max_x / 5.0),
               5.0 * std::ceil(cloaked.max_y / 5.0))};
}

bool ContainsAll(const std::vector<ObjectId>& haystack_sorted,
                 const std::vector<ObjectId>& needles) {
  for (ObjectId id : needles) {
    if (!std::binary_search(haystack_sorted.begin(), haystack_sorted.end(),
                            id))
      return false;
  }
  return true;
}

// --- Counts between update waves ------------------------------------------

constexpr UserId kUsers = 30;

void RegisterUsers(CloakDbService* db, CloakDbService* twin) {
  const PrivacyProfile profile =
      PrivacyProfile::Uniform({3, 0.0, std::numeric_limits<double>::infinity()})
          .value();
  for (UserId user = 1; user <= kUsers; ++user) {
    ASSERT_TRUE(db->RegisterUser(user, profile).ok());
    ASSERT_TRUE(twin->RegisterUser(user, profile).ok());
  }
}

// `moves` random users report a fresh location to both services. Through
// the synchronous path: batch cloaking depends on batch boundaries, so only
// the serial path gives both services identical cloaked regions.
void UpdateWave(CloakDbService* db, CloakDbService* twin, int moves, Rng* rng,
                TimeOfDay* now) {
  for (int move = 0; move < moves; ++move) {
    const UserId user = 1 + rng->NextBelow(kUsers);
    const Point location{rng->Uniform(0, 100), rng->Uniform(0, 100)};
    ASSERT_TRUE(db->UpdateLocation(user, location, *now).ok());
    ASSERT_TRUE(twin->UpdateLocation(user, location, *now).ok());
  }
  *now = now->Plus(60);
}

// Every user reports once.
void FirstWave(CloakDbService* db, CloakDbService* twin, Rng* rng,
               TimeOfDay* now) {
  for (UserId user = 1; user <= kUsers; ++user) {
    const Point location{rng->Uniform(0, 100), rng->Uniform(0, 100)};
    ASSERT_TRUE(db->UpdateLocation(user, location, *now).ok());
    ASSERT_TRUE(twin->UpdateLocation(user, location, *now).ok());
  }
  *now = now->Plus(60);
}

// The hot count windows: large ones a wave nearly always touches, small
// ones it often misses.
const std::vector<Rect>& CountWindows() {
  static const std::vector<Rect> windows = {
      Rect(0, 0, 50, 50),    Rect(25, 25, 75, 75), Rect(50, 50, 100, 100),
      Rect(0, 0, 100, 100),  Rect(10, 60, 25, 75), Rect(70, 5, 85, 20)};
  return windows;
}

void ExpectSameCount(const PublicCountResult& got,
                     const PublicCountResult& want) {
  EXPECT_EQ(got.answer.expected, want.answer.expected);
  EXPECT_EQ(got.answer.variance, want.answer.variance);
  EXPECT_EQ(got.answer.min_count, want.answer.min_count);
  EXPECT_EQ(got.answer.max_count, want.answer.max_count);
  EXPECT_EQ(got.answer.pmf, want.answer.pmf);
  EXPECT_EQ(got.naive_count, want.naive_count);
  ASSERT_EQ(got.contributions.size(), want.contributions.size());
  for (size_t i = 0; i < got.contributions.size(); ++i) {
    EXPECT_EQ(got.contributions[i].pseudonym, want.contributions[i].pseudonym);
    EXPECT_EQ(got.contributions[i].probability,
              want.contributions[i].probability);
  }
}

// Counts every hot window twice on `db` (the repeat hits the cache) and
// expects the twin's answer both times.
void ExpectSameCounts(const CloakDbService& db, const CloakDbService& twin) {
  for (const Rect& window : CountWindows()) {
    auto want = twin.PublicCount(window);
    ASSERT_TRUE(want.ok());
    for (int repeat = 0; repeat < 2; ++repeat) {
      auto got = db.PublicCount(window);
      ASSERT_TRUE(got.ok());
      ExpectSameCount(got.value(), want.value());
    }
  }
}

// The cache served counts, and update waves evicted some.
void ExpectHitsAndInvalidations(const CloakDbService& db) {
  EXPECT_GT(db.metrics().CounterValue("cache.hits_total"), 0u);
  EXPECT_GT(db.metrics().CounterValue("cache.invalidations_total"), 0u);
}

// The tentpole acceptance check, across >= 10 seeded workloads:
//  - private range candidate lists are set-equal to the single-shard
//    isolated QueryProcessor oracle's (the range filter is exact, so the
//    merge is too);
//  - NN/kNN candidate lists are set-equal to a shared-off twin service
//    with the identical shard count (the multi-shard NN merge is by design
//    a conservative superset of a single-shard plan, so the twin — not the
//    single-shard processor — is the "isolated" oracle sharing must not
//    perturb), and refine to the single-shard oracle's exact answer;
//  - after every trial an update wave moves users, and every hot count
//    window, counted twice, equals the twin's.
TEST(SharedExecutionTest, CandidateListsMatchIsolatedOracleAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    auto pois = MakePois(180, seed);
    auto shared_opts = SharedOptions(4, 512);
    auto isolated_opts = shared_opts;
    isolated_opts.enable_shared_execution = false;
    auto db = CloakDbService::Create(shared_opts).value();
    auto twin = CloakDbService::Create(isolated_opts).value();
    ASSERT_TRUE(db->BulkLoadCategory(kCat, pois).ok());
    ASSERT_TRUE(twin->BulkLoadCategory(kCat, pois).ok());
    QueryProcessor oracle(Rect(0, 0, 100, 100));
    ASSERT_TRUE(oracle.store().BulkLoadCategory(kCat, pois).ok());
    for (Category cat : {kLatticeCat, kSoloCat, kFewCat}) {
      const auto extra = cat == kLatticeCat ? LatticePois(cat)
                                            : FirstPois(pois,
                                                        cat == kSoloCat ? 1 : 3,
                                                        cat);
      ASSERT_TRUE(db->BulkLoadCategory(cat, extra).ok());
      ASSERT_TRUE(twin->BulkLoadCategory(cat, extra).ok());
      ASSERT_TRUE(oracle.store().BulkLoadCategory(cat, extra).ok());
    }

    Rng rng(seed * 7919 + 1);
    TimeOfDay now = TimeOfDay::FromHms(9, 0).value();
    RegisterUsers(db.get(), twin.get());
    FirstWave(db.get(), twin.get(), &rng, &now);
    for (int trial = 0; trial < 12; ++trial) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " trial " << trial);
      Rect cloaked = RandomCloak(&rng);
      double radius = rng.Uniform(0.5, 8.0);
      size_t k = 1 + rng.NextBelow(5);
      auto range = db->PrivateRange(cloaked, radius, kCat);
      auto range_truth = oracle.PrivateRange(cloaked, radius, kCat);
      ASSERT_TRUE(range.ok());
      ASSERT_TRUE(range_truth.ok());
      EXPECT_EQ(SortedIds(range.value().candidates),
                SortedIds(range_truth.value().candidates));
      EXPECT_EQ(range.value().extended_region,
                range_truth.value().extended_region);

      auto nn = db->PrivateNn(cloaked, kCat);
      auto nn_twin = twin->PrivateNn(cloaked, kCat);
      auto nn_truth = oracle.PrivateNn(cloaked, kCat);
      ASSERT_TRUE(nn.ok());
      ASSERT_TRUE(nn_twin.ok());
      ASSERT_TRUE(nn_truth.ok());
      EXPECT_EQ(SortedIds(nn.value().candidates),
                SortedIds(nn_twin.value().candidates));

      auto knn = db->PrivateKnn(cloaked, k, kCat);
      auto knn_twin = twin->PrivateKnn(cloaked, k, kCat);
      auto knn_truth = oracle.PrivateKnn(cloaked, k, kCat);
      ASSERT_TRUE(knn.ok());
      ASSERT_TRUE(knn_twin.ok());
      ASSERT_TRUE(knn_truth.ok());
      EXPECT_EQ(SortedIds(knn.value().candidates),
                SortedIds(knn_twin.value().candidates))
          << "k " << k;

      // Both shared lists still refine to the single-shard oracle's exact
      // answer everywhere in the cloaked region.
      for (double fx = 0.1; fx < 1.0; fx += 0.2) {
        for (double fy = 0.1; fy < 1.0; fy += 0.2) {
          Point p{cloaked.min_x + fx * cloaked.Width(),
                  cloaked.min_y + fy * cloaked.Height()};
          EXPECT_EQ(RefineNnCandidates(nn.value().candidates, p).value().id,
                    RefineNnCandidates(nn_truth.value().candidates, p)
                        .value()
                        .id);
          EXPECT_EQ(
              SortedIds(RefineKnnCandidates(knn.value().candidates, p, k)),
              SortedIds(
                  RefineKnnCandidates(knn_truth.value().candidates, p, k)));
        }
      }

      // The shared answers equal their isolated twins in every field.
      auto range_twin = twin->PrivateRange(cloaked, radius, kCat);
      ASSERT_TRUE(range_twin.ok());
      ExpectSameRange(range.value(), range_twin.value());
      ExpectSameNearest(nn.value(), nn_twin.value());
      ExpectSameNearest(knn.value(), knn_twin.value());

      // Point and segment cloaks, lattice ties, the one-object and the
      // pigeonhole (<= k objects) categories, and the MBR-only range
      // filter.
      for (const Rect& shape : DerivedCloaks(cloaked)) {
        for (Category cat : {kCat, kLatticeCat, kSoloCat, kFewCat}) {
          SCOPED_TRACE(testing::Message()
                       << "cat " << cat << " shape " << shape.min_x << ","
                       << shape.min_y << "," << shape.max_x << ","
                       << shape.max_y);
          for (bool exact : {true, false}) {
            PrivateRangeOptions opts;
            opts.exact_rounded_rect = exact;
            auto r = db->PrivateRange(shape, radius, cat, opts);
            auto r_twin = twin->PrivateRange(shape, radius, cat, opts);
            auto r_truth = oracle.PrivateRange(shape, radius, cat, opts);
            ASSERT_TRUE(r.ok());
            ASSERT_TRUE(r_twin.ok());
            ASSERT_TRUE(r_truth.ok());
            ExpectSameRange(r.value(), r_twin.value());
            EXPECT_EQ(SortedIds(r.value().candidates),
                      SortedIds(r_truth.value().candidates));
          }
          auto n = db->PrivateNn(shape, cat);
          auto n_twin = twin->PrivateNn(shape, cat);
          ASSERT_TRUE(n.ok());
          ASSERT_TRUE(n_twin.ok());
          ExpectSameNearest(n.value(), n_twin.value());
          auto kn = db->PrivateKnn(shape, k, cat);
          auto kn_twin = twin->PrivateKnn(shape, k, cat);
          ASSERT_TRUE(kn.ok());
          ASSERT_TRUE(kn_twin.ok());
          ExpectSameNearest(kn.value(), kn_twin.value());
        }
      }

      UpdateWave(db.get(), twin.get(), 10, &rng, &now);
      ExpectSameCounts(*db, *twin);
    }
    ExpectHitsAndInvalidations(*db);
  }
}

// Containment: for sample grid points of the cloaked region, the exact
// brute-force answer must be inside the candidate list — with sharing on
// and off.
TEST(SharedExecutionTest, ContainmentGuaranteeHoldsOnBothPaths) {
  for (uint64_t seed : {3u, 41u, 97u}) {
    auto pois = MakePois(150, seed);
    auto shared_opts = SharedOptions(3, 256);
    auto isolated_opts = shared_opts;
    isolated_opts.enable_shared_execution = false;
    auto shared_db = CloakDbService::Create(shared_opts).value();
    auto isolated_db = CloakDbService::Create(isolated_opts).value();
    ASSERT_TRUE(shared_db->BulkLoadCategory(kCat, pois).ok());
    ASSERT_TRUE(isolated_db->BulkLoadCategory(kCat, pois).ok());

    Rng rng(seed + 5);
    for (int trial = 0; trial < 8; ++trial) {
      Rect cloaked = RandomCloak(&rng);
      double radius = rng.Uniform(1.0, 6.0);
      for (CloakDbService* db : {shared_db.get(), isolated_db.get()}) {
        auto range = db->PrivateRange(cloaked, radius, kCat);
        auto nn = db->PrivateNn(cloaked, kCat);
        auto knn = db->PrivateKnn(cloaked, 4, kCat);
        ASSERT_TRUE(range.ok());
        ASSERT_TRUE(nn.ok());
        ASSERT_TRUE(knn.ok());
        auto range_ids = SortedIds(range.value().candidates);
        auto nn_ids = SortedIds(nn.value().candidates);
        auto knn_ids = SortedIds(knn.value().candidates);
        for (double fx = 0.1; fx < 1.0; fx += 0.2) {
          for (double fy = 0.1; fy < 1.0; fy += 0.2) {
            Point p{cloaked.min_x + fx * cloaked.Width(),
                    cloaked.min_y + fy * cloaked.Height()};
            EXPECT_TRUE(ContainsAll(range_ids, BruteRange(pois, p, radius)));
            EXPECT_TRUE(ContainsAll(nn_ids, BruteKnn(pois, p, 1)));
            EXPECT_TRUE(ContainsAll(knn_ids, BruteKnn(pois, p, 4)));
          }
        }
      }
    }
  }
}

// Envelope queries one by one: a hot set of overlapping queries around one
// anchor plus independent singles, of all three private kinds, then an
// update wave and the hot count windows (each twice), all through
// ExecuteQuery; every result still equals the isolated twin's.
TEST(SharedExecutionTest, EnvelopeQueriesMatchIsolatedOracle) {
  auto pois = MakePois(200, 77);
  auto shared_opts = SharedOptions(4, 256);
  auto isolated_opts = shared_opts;
  isolated_opts.enable_shared_execution = false;
  auto db = CloakDbService::Create(shared_opts).value();
  auto twin = CloakDbService::Create(isolated_opts).value();
  ASSERT_TRUE(db->BulkLoadCategory(kCat, pois).ok());
  ASSERT_TRUE(twin->BulkLoadCategory(kCat, pois).ok());

  Rng rng(78);
  TimeOfDay now = TimeOfDay::FromHms(9, 0).value();
  RegisterUsers(db.get(), twin.get());
  FirstWave(db.get(), twin.get(), &rng, &now);
  for (int round = 0; round < 6; ++round) {
    std::vector<QueryRequest> requests;
    // Overlapping queries around one anchor (kept clear of the space
    // border so jittered copies stay non-empty), plus independent singles
    // elsewhere.
    double ax = rng.Uniform(10, 80), ay = rng.Uniform(10, 80);
    Rect anchor(ax, ay, ax + rng.Uniform(2.0, 8.0),
                ay + rng.Uniform(2.0, 8.0));
    for (int i = 0; i < 5; ++i) {
      QueryRequest q;
      q.kind = static_cast<QueryKind>(i % 3);
      double dx = rng.Uniform(-2, 2), dy = rng.Uniform(-2, 2);
      q.region = Rect(anchor.min_x + dx, anchor.min_y + dy,
                      anchor.max_x + dx, anchor.max_y + dy)
                     .Intersection(Rect(0, 0, 100, 100));
      q.radius = rng.Uniform(0.5, 5.0);
      q.k = 1 + rng.NextBelow(4);
      q.category = kCat;
      requests.push_back(q);
    }
    for (int i = 0; i < 3; ++i) {
      QueryRequest q;
      q.kind = static_cast<QueryKind>(i % 3);
      q.region = RandomCloak(&rng);
      q.radius = rng.Uniform(0.5, 5.0);
      q.k = 1 + rng.NextBelow(4);
      q.category = kCat;
      requests.push_back(q);
    }
    for (const QueryRequest& q : requests) {
      const QueryResponse response = db->ExecuteQuery(q);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      EXPECT_EQ(response.kind, q.kind);
      switch (q.kind) {
        case QueryKind::kPrivateRange: {
          auto truth = twin->PrivateRange(q.region, q.radius, q.category);
          ASSERT_TRUE(truth.ok());
          EXPECT_EQ(SortedIds(response.candidates),
                    SortedIds(truth.value().candidates));
          break;
        }
        case QueryKind::kPrivateNn: {
          auto truth = twin->PrivateNn(q.region, q.category);
          ASSERT_TRUE(truth.ok());
          EXPECT_EQ(SortedIds(response.candidates),
                    SortedIds(truth.value().candidates));
          break;
        }
        case QueryKind::kPrivateKnn: {
          auto truth = twin->PrivateKnn(q.region, q.k, q.category);
          ASSERT_TRUE(truth.ok());
          EXPECT_EQ(SortedIds(response.candidates),
                    SortedIds(truth.value().candidates));
          break;
        }
        default:
          FAIL() << "unexpected kind";
      }
    }

    UpdateWave(db.get(), twin.get(), 10, &rng, &now);
    for (const Rect& window : CountWindows()) {
      auto truth = twin->PublicCount(window);
      ASSERT_TRUE(truth.ok());
      for (int repeat = 0; repeat < 2; ++repeat) {
        const QueryResponse response =
            db->ExecuteQuery(QueryRequest::Count(window));
        ASSERT_TRUE(response.ok()) << response.status().ToString();
        EXPECT_EQ(response.kind, QueryKind::kPublicCount);
        EXPECT_EQ(response.expected_count, truth.value().answer.expected);
        EXPECT_EQ(response.count_min,
                  static_cast<uint64_t>(truth.value().answer.min_count));
        EXPECT_EQ(response.count_max,
                  static_cast<uint64_t>(truth.value().answer.max_count));
      }
    }
  }
  ExpectHitsAndInvalidations(*db);
}

// Concurrent submitters through the plain query API share each shard's
// count cache and must all receive the isolated twin's answer. Update
// waves land between the concurrent rounds, so every round reads one
// settled state on both services.
TEST(SharedExecutionTest, ConcurrentQueriesMatchIsolatedTwin) {
  auto pois = MakePois(150, 31);
  auto shared_opts = SharedOptions(2, 256);
  auto isolated_opts = shared_opts;
  isolated_opts.enable_shared_execution = false;
  auto db = CloakDbService::Create(shared_opts).value();
  auto twin = CloakDbService::Create(isolated_opts).value();
  ASSERT_TRUE(db->BulkLoadCategory(kCat, pois).ok());
  ASSERT_TRUE(twin->BulkLoadCategory(kCat, pois).ok());

  Rng wave_rng(32);
  TimeOfDay now = TimeOfDay::FromHms(9, 0).value();
  RegisterUsers(db.get(), twin.get());
  FirstWave(db.get(), twin.get(), &wave_rng, &now);
  constexpr int kRounds = 3;
  constexpr int kThreads = 6;
  constexpr int kQueriesPerThread = 40;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Rng rng(1000 + 10 * round + t);
        for (int i = 0; i < kQueriesPerThread; ++i) {
          Rect cloaked = RandomCloak(&rng);
          switch (rng.NextBelow(3)) {
            case 0: {
              double radius = rng.Uniform(1.0, 5.0);
              auto ours = db->PrivateRange(cloaked, radius, kCat);
              auto truth = twin->PrivateRange(cloaked, radius, kCat);
              ASSERT_TRUE(ours.ok());
              ASSERT_TRUE(truth.ok());
              EXPECT_EQ(SortedIds(ours.value().candidates),
                        SortedIds(truth.value().candidates));
              break;
            }
            case 1: {
              auto ours = db->PrivateNn(cloaked, kCat);
              auto truth = twin->PrivateNn(cloaked, kCat);
              ASSERT_TRUE(ours.ok());
              ASSERT_TRUE(truth.ok());
              EXPECT_EQ(SortedIds(ours.value().candidates),
                        SortedIds(truth.value().candidates));
              break;
            }
            default: {
              const Rect& window =
                  CountWindows()[rng.NextBelow(CountWindows().size())];
              auto ours = db->PublicCount(window);
              auto truth = twin->PublicCount(window);
              ASSERT_TRUE(ours.ok());
              ASSERT_TRUE(truth.ok());
              ExpectSameCount(ours.value(), truth.value());
            }
          }
        }
      });
    }
    for (auto& thread : threads) thread.join();
    UpdateWave(db.get(), twin.get(), 10, &wave_rng, &now);
  }
  ExpectSameCounts(*db, *twin);
  ExpectHitsAndInvalidations(*db);
  // Error statuses still come back typed on the shared path.
  EXPECT_EQ(db->PrivateRange(Rect(), 1.0, kCat).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db->PrivateKnn(Rect(1, 1, 2, 2), 0, kCat).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db->PrivateNn(Rect(1, 1, 2, 2), 777).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(db->PublicCount(Rect()).status().code(),
            StatusCode::kInvalidArgument);
}

// Degenerate shared configurations stay correct: cache disabled and
// capacity 1 (constant eviction), beside a roomy one.
TEST(SharedExecutionTest, DegenerateConfigurationsStayExact) {
  auto pois = MakePois(120, 59);
  for (size_t cache_capacity : {size_t{0}, size_t{1}, size_t{64}}) {
    SCOPED_TRACE(testing::Message() << "capacity " << cache_capacity);
    auto db = CloakDbService::Create(SharedOptions(3, cache_capacity)).value();
    auto twin_opts = SharedOptions(3, cache_capacity);
    twin_opts.enable_shared_execution = false;
    auto twin = CloakDbService::Create(twin_opts).value();
    ASSERT_TRUE(db->BulkLoadCategory(kCat, pois).ok());
    ASSERT_TRUE(twin->BulkLoadCategory(kCat, pois).ok());
    Rng rng(60);
    TimeOfDay now = TimeOfDay::FromHms(9, 0).value();
    RegisterUsers(db.get(), twin.get());
    FirstWave(db.get(), twin.get(), &rng, &now);
    for (int trial = 0; trial < 10; ++trial) {
      Rect cloaked = RandomCloak(&rng);
      double radius = rng.Uniform(1.0, 5.0);
      auto range = db->PrivateRange(cloaked, radius, kCat);
      auto truth = twin->PrivateRange(cloaked, radius, kCat);
      ASSERT_TRUE(range.ok());
      ASSERT_TRUE(truth.ok());
      EXPECT_EQ(SortedIds(range.value().candidates),
                SortedIds(truth.value().candidates));
      auto knn = db->PrivateKnn(cloaked, 3, kCat);
      auto knn_truth = twin->PrivateKnn(cloaked, 3, kCat);
      ASSERT_TRUE(knn.ok());
      ASSERT_TRUE(knn_truth.ok());
      EXPECT_EQ(SortedIds(knn.value().candidates),
                SortedIds(knn_truth.value().candidates));
      ExpectSameCounts(*db, *twin);
      UpdateWave(db.get(), twin.get(), 5, &rng, &now);
    }
  }
}

}  // namespace
}  // namespace cloakdb
