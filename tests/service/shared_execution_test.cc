// Oracle equivalence suite for the shared-execution engine: across many
// seeded workloads, the candidate lists produced with shared execution on
// (cache + clustering + batch window) must be set-equal to the isolated
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
#include "service/query_batcher.h"
#include "sim/poi.h"
#include "util/random.h"

namespace cloakdb {
namespace {

constexpr Category kCat = poi_category::kGasStation;

CloakDbServiceOptions SharedOptions(uint32_t shards, size_t cache_capacity,
                                    uint32_t batch_window_us = 0) {
  CloakDbServiceOptions options;
  options.space = Rect(0, 0, 100, 100);
  options.num_shards = shards;
  options.enable_shared_execution = true;
  options.cache_capacity = cache_capacity;
  options.signature_grid_cells = 16;
  options.batch_window_us = batch_window_us;
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

// The tentpole acceptance check, across >= 10 seeded workloads:
//  - private range candidate lists are set-equal to the single-shard
//    isolated QueryProcessor oracle's (the range filter is exact, so the
//    merge is too);
//  - NN/kNN candidate lists are set-equal to a shared-off twin service
//    with the identical shard count (the multi-shard NN merge is by design
//    a conservative superset of a single-shard plan, so the twin — not the
//    single-shard processor — is the "isolated" oracle sharing must not
//    perturb), and refine to the single-shard oracle's exact answer.
// Each query is issued twice so the second hit is served from the cache.
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
    for (int trial = 0; trial < 12; ++trial) {
      Rect cloaked = RandomCloak(&rng);
      double radius = rng.Uniform(0.5, 8.0);
      size_t k = 1 + rng.NextBelow(5);
      for (int repeat = 0; repeat < 2; ++repeat) {
        auto range = db->PrivateRange(cloaked, radius, kCat);
        auto range_truth = oracle.PrivateRange(cloaked, radius, kCat);
        ASSERT_TRUE(range.ok());
        ASSERT_TRUE(range_truth.ok());
        EXPECT_EQ(SortedIds(range.value().candidates),
                  SortedIds(range_truth.value().candidates))
            << "seed " << seed << " trial " << trial << " repeat " << repeat;
        EXPECT_EQ(range.value().extended_region,
                  range_truth.value().extended_region);

        auto nn = db->PrivateNn(cloaked, kCat);
        auto nn_twin = twin->PrivateNn(cloaked, kCat);
        auto nn_truth = oracle.PrivateNn(cloaked, kCat);
        ASSERT_TRUE(nn.ok());
        ASSERT_TRUE(nn_twin.ok());
        ASSERT_TRUE(nn_truth.ok());
        EXPECT_EQ(SortedIds(nn.value().candidates),
                  SortedIds(nn_twin.value().candidates))
            << "seed " << seed << " trial " << trial;

        auto knn = db->PrivateKnn(cloaked, k, kCat);
        auto knn_twin = twin->PrivateKnn(cloaked, k, kCat);
        auto knn_truth = oracle.PrivateKnn(cloaked, k, kCat);
        ASSERT_TRUE(knn.ok());
        ASSERT_TRUE(knn_twin.ok());
        ASSERT_TRUE(knn_truth.ok());
        EXPECT_EQ(SortedIds(knn.value().candidates),
                  SortedIds(knn_twin.value().candidates))
            << "seed " << seed << " trial " << trial << " k " << k;

        // Both shared lists still refine to the single-shard oracle's
        // exact answer everywhere in the cloaked region.
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

        // The cached answers equal their isolated twins in every field.
        auto range_twin = twin->PrivateRange(cloaked, radius, kCat);
        ASSERT_TRUE(range_twin.ok());
        ExpectSameRange(range.value(), range_twin.value());
        ExpectSameNearest(nn.value(), nn_twin.value());
        ExpectSameNearest(knn.value(), knn_twin.value());
      }

      // Point and segment cloaks, lattice ties, the one-object and the
      // pigeonhole (<= k objects) categories, and the MBR-only range
      // filter, each issued twice so the repeat is a cache hit.
      for (const Rect& shape : DerivedCloaks(cloaked)) {
        for (Category cat : {kCat, kLatticeCat, kSoloCat, kFewCat}) {
          for (int repeat = 0; repeat < 2; ++repeat) {
            SCOPED_TRACE(testing::Message()
                         << "seed " << seed << " trial " << trial << " cat "
                         << cat << " shape " << shape.min_x << ","
                         << shape.min_y << "," << shape.max_x << ","
                         << shape.max_y << " repeat " << repeat);
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
      }
    }
    // The repeats above must have been served out of the cache.
    EXPECT_GT(db->metrics().counter("cache.hits_total")->Value(), 0u)
        << "seed " << seed;
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

// Explicit batches: overlapping queries cluster onto one shared probe, and
// every member's refined result still equals the isolated oracle's.
TEST(SharedExecutionTest, ExecuteQueryBatchMatchesIsolatedOracle) {
  auto pois = MakePois(200, 77);
  auto shared_opts = SharedOptions(4, 256);
  auto isolated_opts = shared_opts;
  isolated_opts.enable_shared_execution = false;
  auto db = CloakDbService::Create(shared_opts).value();
  auto twin = CloakDbService::Create(isolated_opts).value();
  ASSERT_TRUE(db->BulkLoadCategory(kCat, pois).ok());
  ASSERT_TRUE(twin->BulkLoadCategory(kCat, pois).ok());

  Rng rng(78);
  for (int round = 0; round < 6; ++round) {
    std::vector<BatchQuery> batch;
    // A hot cluster of overlapping queries around one anchor (kept clear of
    // the space border so jittered copies stay non-empty), plus independent
    // singles elsewhere, of all three kinds.
    double ax = rng.Uniform(10, 80), ay = rng.Uniform(10, 80);
    Rect anchor(ax, ay, ax + rng.Uniform(2.0, 8.0),
                ay + rng.Uniform(2.0, 8.0));
    for (int i = 0; i < 5; ++i) {
      BatchQuery q;
      q.request.kind = static_cast<QueryKind>(i % 3);
      double dx = rng.Uniform(-2, 2), dy = rng.Uniform(-2, 2);
      q.request.region = Rect(anchor.min_x + dx, anchor.min_y + dy,
                              anchor.max_x + dx, anchor.max_y + dy)
                             .Intersection(Rect(0, 0, 100, 100));
      q.request.radius = rng.Uniform(0.5, 5.0);
      q.request.k = 1 + rng.NextBelow(4);
      q.request.category = kCat;
      batch.push_back(q);
    }
    for (int i = 0; i < 3; ++i) {
      BatchQuery q;
      q.request.kind = static_cast<QueryKind>(i % 3);
      q.request.region = RandomCloak(&rng);
      q.request.radius = rng.Uniform(0.5, 5.0);
      q.request.k = 1 + rng.NextBelow(4);
      q.request.category = kCat;
      batch.push_back(q);
    }

    auto results = db->ExecuteQueryBatch(batch);
    ASSERT_EQ(results.size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      const QueryRequest& q = batch[i].request;
      ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
      EXPECT_EQ(results[i].kind, q.kind);
      switch (q.kind) {
        case QueryKind::kPrivateRange: {
          auto truth = twin->PrivateRange(q.region, q.radius, q.category);
          ASSERT_TRUE(truth.ok());
          EXPECT_EQ(SortedIds(results[i].candidates),
                    SortedIds(truth.value().candidates));
          break;
        }
        case QueryKind::kPrivateNn: {
          auto truth = twin->PrivateNn(q.region, q.category);
          ASSERT_TRUE(truth.ok());
          EXPECT_EQ(SortedIds(results[i].candidates),
                    SortedIds(truth.value().candidates));
          break;
        }
        case QueryKind::kPrivateKnn: {
          auto truth = twin->PrivateKnn(q.region, q.k, q.category);
          ASSERT_TRUE(truth.ok());
          EXPECT_EQ(SortedIds(results[i].candidates),
                    SortedIds(truth.value().candidates));
          break;
        }
        default:
          FAIL() << "unexpected kind";
      }
    }
  }
  // Clustering happened: some cluster had fan-in > 1, and its followers hit
  // the probe the first member cached.
  EXPECT_GT(db->metrics().SnapshotHistogram("query.shared.cluster_fanin").max,
            1.0);
  EXPECT_GT(db->metrics().counter("cache.hits_total")->Value(), 0u);
}

// Clustering invariants on the raw ClusterBatch function: every query lands
// in exactly one cluster, members share (kind, category), and the cover
// contains every member's cloaked region.
TEST(SharedExecutionTest, ClusterBatchPartitionsAndCovers) {
  CellSignature signature(Rect(0, 0, 100, 100), 16);
  Rng rng(11);
  std::vector<BatchQuery> batch;
  for (int i = 0; i < 40; ++i) {
    BatchQuery q;
    q.request.kind = static_cast<QueryKind>(rng.NextBelow(3));
    q.request.region = RandomCloak(&rng);
    q.request.category =
        rng.NextBelow(2) == 0 ? kCat : poi_category::kRestaurant;
    batch.push_back(q);
  }
  auto clusters = ClusterBatch(batch, signature);
  std::vector<int> seen(batch.size(), 0);
  for (const auto& cluster : clusters) {
    ASSERT_FALSE(cluster.members.empty());
    const QueryRequest& head = batch[cluster.members.front()].request;
    for (size_t m : cluster.members) {
      ASSERT_LT(m, batch.size());
      ++seen[m];
      EXPECT_EQ(batch[m].request.kind, head.kind);
      EXPECT_EQ(batch[m].request.category, head.category);
      EXPECT_TRUE(cluster.cover.Contains(batch[m].request.region));
    }
  }
  for (int count : seen) EXPECT_EQ(count, 1);

  // Two overlapping queries of the same kind+category share a cluster.
  std::vector<BatchQuery> pair(2);
  pair[0].request.kind = pair[1].request.kind = QueryKind::kPrivateNn;
  pair[0].request.category = pair[1].request.category = kCat;
  pair[0].request.region = Rect(10, 10, 20, 20);
  pair[1].request.region = Rect(15, 15, 25, 25);
  EXPECT_EQ(ClusterBatch(pair, signature).size(), 1u);
  // Same geometry, different kind: no sharing.
  pair[1].request.kind = QueryKind::kPrivateRange;
  EXPECT_EQ(ClusterBatch(pair, signature).size(), 2u);
}

// The batch window: concurrent submitters through the plain query API get
// batched by the leader and must all receive the exact oracle answer.
TEST(SharedExecutionTest, BatchWindowDeliversIdenticalResultsConcurrently) {
  auto pois = MakePois(150, 31);
  auto shared_opts = SharedOptions(2, 256, /*batch_window_us=*/500);
  auto isolated_opts = shared_opts;
  isolated_opts.enable_shared_execution = false;
  isolated_opts.batch_window_us = 0;
  auto db = CloakDbService::Create(shared_opts).value();
  auto twin = CloakDbService::Create(isolated_opts).value();
  ASSERT_TRUE(db->BulkLoadCategory(kCat, pois).ok());
  ASSERT_TRUE(twin->BulkLoadCategory(kCat, pois).ok());

  constexpr int kThreads = 6;
  constexpr int kQueriesPerThread = 40;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + t);
      for (int i = 0; i < kQueriesPerThread; ++i) {
        Rect cloaked = RandomCloak(&rng);
        if (rng.NextBelow(2) == 0) {
          double radius = rng.Uniform(1.0, 5.0);
          auto ours = db->PrivateRange(cloaked, radius, kCat);
          auto truth = twin->PrivateRange(cloaked, radius, kCat);
          ASSERT_TRUE(ours.ok());
          ASSERT_TRUE(truth.ok());
          EXPECT_EQ(SortedIds(ours.value().candidates),
                    SortedIds(truth.value().candidates));
        } else {
          auto ours = db->PrivateNn(cloaked, kCat);
          auto truth = twin->PrivateNn(cloaked, kCat);
          ASSERT_TRUE(ours.ok());
          ASSERT_TRUE(truth.ok());
          EXPECT_EQ(SortedIds(ours.value().candidates),
                    SortedIds(truth.value().candidates));
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  // Every query went through a batch (width histogram saw them all).
  EXPECT_GT(db->metrics().SnapshotHistogram("query.shared.batch_width").count,
            0u);
  // Error statuses still round-trip through the batcher.
  EXPECT_EQ(db->PrivateRange(Rect(), 1.0, kCat).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db->PrivateKnn(Rect(1, 1, 2, 2), 0, kCat).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db->PrivateNn(Rect(1, 1, 2, 2), 777).status().code(),
            StatusCode::kNotFound);
}

// Degenerate shared configurations stay correct: cache disabled (pure
// clustering), capacity 1 (constant eviction), and a single signature cell
// (everything shares one probe cover).
TEST(SharedExecutionTest, DegenerateConfigurationsStayExact) {
  auto pois = MakePois(120, 59);
  auto twin_opts = SharedOptions(3, 0);
  twin_opts.enable_shared_execution = false;
  auto twin = CloakDbService::Create(twin_opts).value();
  ASSERT_TRUE(twin->BulkLoadCategory(kCat, pois).ok());

  struct Config {
    size_t cache_capacity;
    uint32_t cells;
  };
  for (const Config& config :
       {Config{0, 16}, Config{1, 16}, Config{64, 1}}) {
    auto options = SharedOptions(3, config.cache_capacity);
    options.signature_grid_cells = config.cells;
    auto db = CloakDbService::Create(options).value();
    ASSERT_TRUE(db->BulkLoadCategory(kCat, pois).ok());
    Rng rng(60);
    for (int trial = 0; trial < 10; ++trial) {
      Rect cloaked = RandomCloak(&rng);
      double radius = rng.Uniform(1.0, 5.0);
      auto range = db->PrivateRange(cloaked, radius, kCat);
      auto truth = twin->PrivateRange(cloaked, radius, kCat);
      ASSERT_TRUE(range.ok());
      ASSERT_TRUE(truth.ok());
      EXPECT_EQ(SortedIds(range.value().candidates),
                SortedIds(truth.value().candidates))
          << "capacity " << config.cache_capacity << " cells " << config.cells;
      auto knn = db->PrivateKnn(cloaked, 3, kCat);
      auto knn_truth = twin->PrivateKnn(cloaked, 3, kCat);
      ASSERT_TRUE(knn.ok());
      ASSERT_TRUE(knn_truth.ok());
      EXPECT_EQ(SortedIds(knn.value().candidates),
                SortedIds(knn_truth.value().candidates));
    }
  }
}

}  // namespace
}  // namespace cloakdb
