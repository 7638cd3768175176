#include "server/query_processor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "obs/metrics.h"
#include "util/random.h"

namespace cloakdb {
namespace {

// Populates an instance the caller constructed.
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

// Probe sinks in a registry of the test's own, installed into `server`.
// Count(kind) reads how many probes of that kind were booked.
class ProbeSinks {
 public:
  explicit ProbeSinks(QueryProcessor* server) {
    QueryProcessorObs obs;
    obs.range_probe_us = registry_.histogram("range");
    obs.nn_probe_us = registry_.histogram("nn");
    obs.knn_probe_us = registry_.histogram("knn");
    obs.count_probe_us = registry_.histogram("count");
    obs.heatmap_probe_us = registry_.histogram("heatmap");
    server->SetObs(obs);
  }
  uint64_t Count(const char* kind) const {
    return registry_.SnapshotHistogram(kind).count;
  }
  uint64_t Total() const {
    uint64_t total = 0;
    for (const char* kind : {"range", "nn", "knn", "count", "heatmap"})
      total += Count(kind);
    return total;
  }

 private:
  obs::MetricsRegistry registry_;
};

std::vector<ObjectId> CandidateIds(const PrivateNnResult& answer) {
  std::vector<ObjectId> ids;
  for (const auto& o : answer.candidates) ids.push_back(o.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(QueryProcessorTest, BulkLoadSealsTheCategory) {
  // A standalone server serves public data from the same sealed
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
  // Update replaces (a moving user).
  ASSERT_TRUE(server.ApplyCloakedUpdate(1001, Rect(30, 30, 40, 40)).ok());
  EXPECT_EQ(server.store().num_private(), 1u);
  ASSERT_TRUE(server.DropPseudonym(1001).ok());
  EXPECT_EQ(server.store().num_private(), 0u);
  EXPECT_EQ(server.DropPseudonym(1001).code(), StatusCode::kNotFound);
}

// Each private kind books one probe into its own sink; query counts,
// candidates and wire bytes are the service's, booked after the merge.
TEST(QueryProcessorTest, PrivateQueriesUpdateStats) {
  QueryProcessor server(Rect(0, 0, 100, 100));
  ProbeSinks sinks(&server);
  Populate(&server, 200);
  Rect cloaked(40, 40, 50, 50);
  ASSERT_TRUE(server.PrivateRange(cloaked, 5.0, 1).ok());
  ASSERT_TRUE(server.PrivateNn(cloaked, 1).ok());
  ASSERT_TRUE(server.PrivateKnn(cloaked, 3, 1).ok());
  ASSERT_TRUE(server.PrivateKnn(cloaked, 4, 1).ok());
  EXPECT_EQ(sinks.Count("range"), 1u);
  EXPECT_EQ(sinks.Count("nn"), 1u);
  EXPECT_EQ(sinks.Count("knn"), 2u);
  EXPECT_EQ(sinks.Total(), 4u);
}

TEST(QueryProcessorTest, FailedQueriesDoNotCountInStats) {
  QueryProcessor server(Rect(0, 0, 100, 100));
  ProbeSinks sinks(&server);
  Populate(&server, 10);
  EXPECT_FALSE(server.PrivateRange(Rect(), 5.0, 1).ok());
  EXPECT_FALSE(server.PrivateNn(Rect(1, 1, 2, 2), 99).ok());
  EXPECT_EQ(sinks.Total(), 0u);
}

// Regression: only accepted queries may count, on every entry point. A
// rejected query must leave every probe sink untouched, including the
// count's, whose scan validates its window after the timer starts.
TEST(QueryProcessorTest, RejectedQueriesLeaveAllStatsUntouched) {
  QueryProcessor server(Rect(0, 0, 100, 100));
  ProbeSinks sinks(&server);
  Populate(&server, 50);

  EXPECT_FALSE(server.PrivateRange(Rect(1, 1, 2, 2), -1.0, 1).ok());
  EXPECT_FALSE(server.PrivateNn(Rect(), 1).ok());
  EXPECT_FALSE(server.PrivateKnn(Rect(1, 1, 2, 2), 0, 1).ok());
  // The plans reject what the entry points reject.
  EXPECT_FALSE(PlanPrivateRange(server.store(), Rect(), 5.0, 1).ok());
  EXPECT_FALSE(PlanPrivateNn(server.store(), Rect(), 1).ok());
  EXPECT_FALSE(PlanPrivateKnn(server.store(), Rect(1, 1, 2, 2), 0, 1).ok());
  EXPECT_FALSE(server.PublicCount(Rect()).ok());
  EXPECT_FALSE(server.ScanPublicCount(Rect()).ok());
  EXPECT_FALSE(server.Heatmap(0).ok());
  EXPECT_EQ(sinks.Total(), 0u);
}

// Index and record table are maintained together, so a hit whose row does
// not hold its id is a broken invariant: Materialize fails with Internal
// rather than ship a shorter or wrong candidate list.
TEST(QueryProcessorTest, UnknownHitFailsTheAnswerLoudly) {
  QueryProcessor server(Rect(0, 0, 100, 100));
  Populate(&server, 50);
  auto hits = server.SharedProbe(Rect(30, 30, 60, 60), 1);
  ASSERT_TRUE(hits.ok());
  ASSERT_GE(hits.value().size(), 2u);
  auto baseline = Materialize(server.store(), 1, hits.value());
  ASSERT_TRUE(baseline.ok());
  ASSERT_EQ(baseline.value().size(), hits.value().size());
  for (size_t i = 0; i < hits.value().size(); ++i)
    EXPECT_EQ(baseline.value()[i].id, hits.value()[i].id);

  auto code = [&](const std::vector<IndexHit>& bad) {
    return Materialize(server.store(), 1, bad).status().code();
  };
  // An id no row holds, named through a live row and past the table.
  std::vector<IndexHit> unknown = hits.value();
  unknown.push_back({999999, {45.0, 45.0}, hits.value()[0].row});
  EXPECT_EQ(code(unknown), StatusCode::kInternal);
  EXPECT_EQ(code({{999999, {45.0, 45.0}, 1u << 30}}), StatusCode::kInternal);

  // A stored id read through another object's row.
  std::vector<IndexHit> misrowed = hits.value();
  std::swap(misrowed[0].row, misrowed[1].row);
  EXPECT_EQ(code(misrowed), StatusCode::kInternal);

  // Id 0 read through a dead row, which holds an empty record of id 0.
  const IndexHit gone = hits.value()[0];
  ASSERT_TRUE(server.store().RemovePublicObject(gone.id).ok());
  EXPECT_EQ(code({{0, {45.0, 45.0}, gone.row}}), StatusCode::kInternal);
}

// Regression for the stats miscount: Heatmap used to count as a public
// count query. It books its own probe sink.
TEST(QueryProcessorTest, HeatmapCountsItsOwnQueries) {
  QueryProcessor server(Rect(0, 0, 100, 100));
  ProbeSinks sinks(&server);
  Populate(&server, 10);
  ASSERT_TRUE(server.ApplyCloakedUpdate(1, Rect(0, 0, 50, 50)).ok());
  ASSERT_TRUE(server.Heatmap(4).ok());
  ASSERT_TRUE(server.Heatmap(8).ok());
  EXPECT_EQ(sinks.Count("heatmap"), 2u);
  EXPECT_EQ(sinks.Count("count"), 0u);
  ASSERT_TRUE(server.PublicCount(Rect(0, 0, 50, 50)).ok());
  EXPECT_EQ(sinks.Count("heatmap"), 2u);
  EXPECT_EQ(sinks.Count("count"), 1u);
  // A rejected heatmap does not count either.
  EXPECT_FALSE(server.Heatmap(0).ok());
  EXPECT_EQ(sinks.Count("heatmap"), 2u);
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
}

TEST(QueryProcessorTest, KnnAndPrivatePrivateRouted) {
  QueryProcessor server(Rect(0, 0, 100, 100));
  Populate(&server, 200);
  ASSERT_TRUE(server.ApplyCloakedUpdate(1001, Rect(10, 10, 20, 20)).ok());
  ASSERT_TRUE(server.ApplyCloakedUpdate(1002, Rect(30, 30, 40, 40)).ok());

  auto knn = server.PrivateKnn(Rect(40, 40, 50, 50), 3, 1);
  ASSERT_TRUE(knn.ok());
  EXPECT_GE(knn.value().candidates.size(), 3u);

  PrivatePrivateOptions options;
  options.exclude = 1001;
  auto pp_range =
      server.PrivatePrivateRange(Rect(10, 10, 20, 20), 50.0, options);
  ASSERT_TRUE(pp_range.ok());
  EXPECT_EQ(pp_range.value().matches.size(), 1u);
  auto pp_nn = server.PrivatePrivateNn(Rect(10, 10, 20, 20), options);
  ASSERT_TRUE(pp_nn.ok());
  EXPECT_EQ(pp_nn.value().most_likely, 1002u);
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

}  // namespace
}  // namespace cloakdb
