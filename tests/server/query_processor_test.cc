#include "server/query_processor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/random.h"

namespace cloakdb {
namespace {

// QueryProcessor is pinned in place (it owns a stats lock), so the fixture
// populates an instance the caller constructed.
void Populate(QueryProcessor* server, size_t pois, uint64_t seed = 41) {
  Rng rng(seed);
  for (ObjectId id = 1; id <= pois; ++id) {
    PublicObject o;
    o.id = id;
    o.location = {rng.Uniform(0, 100), rng.Uniform(0, 100)};
    o.category = 1;
    EXPECT_TRUE(server->store().AddPublicObject(o).ok());
  }
}

std::vector<PublicObject> MakePois(size_t count, ObjectId first_id,
                                   uint64_t seed) {
  Rng rng(seed);
  std::vector<PublicObject> pois;
  for (ObjectId id = first_id; id < first_id + count; ++id) {
    PublicObject o;
    o.id = id;
    o.location = {rng.Uniform(0, 100), rng.Uniform(0, 100)};
    o.category = 1;
    pois.push_back(o);
  }
  return pois;
}

std::vector<ObjectId> CandidateIds(const PrivateNnResult& answer) {
  std::vector<ObjectId> ids;
  for (const auto& o : answer.candidates) ids.push_back(o.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(QueryProcessorTest, BulkLoadSealsTheCategory) {
  // The plain (LbsSystem) server serves public data from the same sealed
  // StaticRTree as the service shards.
  QueryProcessor server(Rect(0, 0, 100, 100));
  ASSERT_TRUE(server.store().BulkLoadCategory(1, MakePois(100, 1, 7)).ok());
  auto index = server.store().CategoryIndex(1);
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE(index.value()->HasSealedTree());
  EXPECT_EQ(index.value()->size(), 100u);
}

TEST(QueryProcessorTest, RejectedReloadChangesNothing) {
  QueryProcessor server(Rect(0, 0, 100, 100));
  ASSERT_TRUE(server.store().BulkLoadCategory(1, MakePois(100, 1, 7)).ok());
  const Rect cloaked(40, 40, 50, 50);
  auto before = server.PrivateNn(cloaked, 1);
  ASSERT_TRUE(before.ok());
  ASSERT_FALSE(before.value().candidates.empty());

  // A replacement batch with a duplicate id must fail as a whole.
  std::vector<PublicObject> reload = MakePois(100, 1000, 8);
  reload.back().id = reload.front().id;
  EXPECT_EQ(server.store().BulkLoadCategory(1, reload).code(),
            StatusCode::kInvalidArgument);

  EXPECT_EQ(server.store().num_public(), 100u);
  auto after = server.PrivateNn(cloaked, 1);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(CandidateIds(after.value()), CandidateIds(before.value()));
  EXPECT_EQ(after.value().fetch_radius, before.value().fetch_radius);
}

TEST(QueryProcessorTest, CloakedUpdateLifecycle) {
  QueryProcessor server(Rect(0, 0, 100, 100));
  Populate(&server, 10);
  ASSERT_TRUE(server.ApplyCloakedUpdate(1001, Rect(10, 10, 20, 20)).ok());
  EXPECT_EQ(server.store().num_private(), 1u);
  EXPECT_EQ(server.stats().cloaked_updates, 1u);
  // Update replaces (a moving user).
  ASSERT_TRUE(server.ApplyCloakedUpdate(1001, Rect(30, 30, 40, 40)).ok());
  EXPECT_EQ(server.store().num_private(), 1u);
  EXPECT_EQ(server.stats().cloaked_updates, 2u);
  ASSERT_TRUE(server.DropPseudonym(1001).ok());
  EXPECT_EQ(server.store().num_private(), 0u);
  EXPECT_EQ(server.DropPseudonym(1001).code(), StatusCode::kNotFound);
}

TEST(QueryProcessorTest, PrivateQueriesUpdateStats) {
  QueryProcessor server(Rect(0, 0, 100, 100));
  Populate(&server, 200);
  Rect cloaked(40, 40, 50, 50);
  auto range = server.PrivateRange(cloaked, 5.0, 1);
  ASSERT_TRUE(range.ok());
  auto nn = server.PrivateNn(cloaked, 1);
  ASSERT_TRUE(nn.ok());
  EXPECT_EQ(server.stats().private_range_queries, 1u);
  EXPECT_EQ(server.stats().private_nn_queries, 1u);
  EXPECT_EQ(server.stats().range_candidates.count(), 1u);
  EXPECT_EQ(server.stats().nn_candidates.count(), 1u);
  size_t expected_bytes =
      (range.value().candidates.size() + nn.value().candidates.size()) *
      server.wire_cost().bytes_per_object;
  EXPECT_EQ(server.stats().bytes_to_clients, expected_bytes);
}

TEST(QueryProcessorTest, FailedQueriesDoNotCountInStats) {
  QueryProcessor server(Rect(0, 0, 100, 100));
  Populate(&server, 10);
  EXPECT_FALSE(server.PrivateRange(Rect(), 5.0, 1).ok());
  EXPECT_FALSE(server.PrivateNn(Rect(1, 1, 2, 2), 99).ok());
  EXPECT_EQ(server.stats().private_range_queries, 0u);
  EXPECT_EQ(server.stats().private_nn_queries, 0u);
}

// Regression: only accepted queries may count, on every entry point —
// including the shared-execution ones. A rejected query must leave all of
// query count, candidate moments and wire bytes untouched.
TEST(QueryProcessorTest, RejectedQueriesLeaveAllStatsUntouched) {
  QueryProcessor server(Rect(0, 0, 100, 100));
  Populate(&server, 50);
  std::vector<PublicObject> superset;

  EXPECT_FALSE(server.PrivateRange(Rect(1, 1, 2, 2), -1.0, 1).ok());
  EXPECT_FALSE(server.PrivateKnn(Rect(1, 1, 2, 2), 0, 1).ok());
  EXPECT_FALSE(server.PrivateRangeShared(superset, Rect(), 5.0, 1).ok());
  EXPECT_FALSE(server.PrivateNnShared(superset, Rect(), 1).ok());
  EXPECT_FALSE(server.PrivateKnnShared(superset, Rect(1, 1, 2, 2), 0, 1).ok());
  EXPECT_FALSE(server.PublicCount(Rect()).ok());

  const ServerStats& stats = server.stats();
  EXPECT_EQ(stats.private_range_queries, 0u);
  EXPECT_EQ(stats.private_nn_queries, 0u);
  EXPECT_EQ(stats.private_knn_queries, 0u);
  EXPECT_EQ(stats.public_count_queries, 0u);
  EXPECT_EQ(stats.range_candidates.count(), 0u);
  EXPECT_EQ(stats.nn_candidates.count(), 0u);
  EXPECT_EQ(stats.bytes_to_clients, 0u);
}

// The shared entry points count through the same counters as the isolated
// ones, so ServerStats stays comparable whether a query was answered from
// a shared probe or its own.
TEST(QueryProcessorTest, SharedQueriesCountLikeIsolatedOnes) {
  QueryProcessor server(Rect(0, 0, 100, 100));
  Populate(&server, 200);
  const Rect cloaked(40, 40, 50, 50);

  auto superset = server.SharedProbe(Rect(20, 20, 70, 70), 1);
  ASSERT_TRUE(superset.ok());
  auto range = server.PrivateRangeShared(superset.value(), cloaked, 5.0, 1);
  ASSERT_TRUE(range.ok());
  auto nn = server.PrivateNnShared(superset.value(), cloaked, 1);
  ASSERT_TRUE(nn.ok());
  auto knn = server.PrivateKnnShared(superset.value(), cloaked, 3, 1);
  ASSERT_TRUE(knn.ok());

  const ServerStats& stats = server.stats();
  EXPECT_EQ(stats.private_range_queries, 1u);
  EXPECT_EQ(stats.private_nn_queries, 1u);
  EXPECT_EQ(stats.private_knn_queries, 1u);
  EXPECT_EQ(stats.range_candidates.count(), 1u);
  EXPECT_EQ(stats.nn_candidates.count(), 2u);  // NN + kNN share the moment
  size_t expected_bytes = (range.value().candidates.size() +
                           nn.value().candidates.size() +
                           knn.value().candidates.size()) *
                          server.wire_cost().bytes_per_object;
  EXPECT_EQ(stats.bytes_to_clients, expected_bytes);
}

// Regression for the stats miscount: Heatmap used to increment
// public_count_queries, inflating the count-query rate. It now has its own
// counter.
TEST(QueryProcessorTest, HeatmapCountsItsOwnQueries) {
  QueryProcessor server(Rect(0, 0, 100, 100));
  Populate(&server, 10);
  ASSERT_TRUE(server.ApplyCloakedUpdate(1, Rect(0, 0, 50, 50)).ok());
  ASSERT_TRUE(server.Heatmap(4).ok());
  ASSERT_TRUE(server.Heatmap(8).ok());
  EXPECT_EQ(server.stats().heatmap_queries, 2u);
  EXPECT_EQ(server.stats().public_count_queries, 0u);
  ASSERT_TRUE(server.PublicCount(Rect(0, 0, 50, 50)).ok());
  EXPECT_EQ(server.stats().heatmap_queries, 2u);
  EXPECT_EQ(server.stats().public_count_queries, 1u);
  // A rejected heatmap does not count either.
  EXPECT_FALSE(server.Heatmap(0).ok());
  EXPECT_EQ(server.stats().heatmap_queries, 2u);
}

TEST(QueryProcessorTest, PublicQueriesRouted) {
  QueryProcessor server(Rect(0, 0, 100, 100));
  Populate(&server, 10);
  ASSERT_TRUE(server.ApplyCloakedUpdate(1001, Rect(10, 10, 20, 20)).ok());
  auto count = server.PublicCount(Rect(0, 0, 50, 50));
  ASSERT_TRUE(count.ok());
  EXPECT_DOUBLE_EQ(count.value().answer.expected, 1.0);
  auto nn = server.PublicNn({0, 0});
  ASSERT_TRUE(nn.ok());
  EXPECT_EQ(nn.value().most_likely, 1001u);
  EXPECT_EQ(server.stats().public_count_queries, 1u);
  EXPECT_EQ(server.stats().public_nn_queries, 1u);
}

TEST(QueryProcessorTest, KnnAndPrivatePrivateRouted) {
  QueryProcessor server(Rect(0, 0, 100, 100));
  Populate(&server, 200);
  ASSERT_TRUE(server.ApplyCloakedUpdate(1001, Rect(10, 10, 20, 20)).ok());
  ASSERT_TRUE(server.ApplyCloakedUpdate(1002, Rect(30, 30, 40, 40)).ok());

  auto knn = server.PrivateKnn(Rect(40, 40, 50, 50), 3, 1);
  ASSERT_TRUE(knn.ok());
  EXPECT_GE(knn.value().candidates.size(), 3u);
  EXPECT_EQ(server.stats().private_knn_queries, 1u);

  PrivatePrivateOptions options;
  options.exclude = 1001;
  auto pp_range =
      server.PrivatePrivateRange(Rect(10, 10, 20, 20), 50.0, options);
  ASSERT_TRUE(pp_range.ok());
  EXPECT_EQ(pp_range.value().matches.size(), 1u);
  auto pp_nn = server.PrivatePrivateNn(Rect(10, 10, 20, 20), options);
  ASSERT_TRUE(pp_nn.ok());
  EXPECT_EQ(pp_nn.value().most_likely, 1002u);
  EXPECT_EQ(server.stats().private_private_queries, 2u);
}

TEST(QueryProcessorTest, HeatmapFacade) {
  QueryProcessor server(Rect(0, 0, 100, 100));
  Populate(&server, 10);
  ASSERT_TRUE(server.ApplyCloakedUpdate(1, Rect(0, 0, 50, 50)).ok());
  auto map = server.Heatmap(4);
  ASSERT_TRUE(map.ok());
  EXPECT_NEAR(map.value().TotalMass(), 1.0, 1e-9);
  EXPECT_FALSE(server.Heatmap(0).ok());
}

TEST(QueryProcessorTest, ResetStatsClearsEverything) {
  QueryProcessor server(Rect(0, 0, 100, 100));
  Populate(&server, 50);
  ASSERT_TRUE(server.ApplyCloakedUpdate(1, Rect(1, 1, 2, 2)).ok());
  ASSERT_TRUE(server.PrivateNn(Rect(10, 10, 20, 20), 1).ok());
  server.ResetStats();
  EXPECT_EQ(server.stats().cloaked_updates, 0u);
  EXPECT_EQ(server.stats().private_nn_queries, 0u);
  EXPECT_EQ(server.stats().bytes_to_clients, 0u);
}

}  // namespace
}  // namespace cloakdb
