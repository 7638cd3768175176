// A cached probe superset against a re-sealed index. Shared execution keeps
// the index hits of widened probes, and a public write only evicts the
// entries whose coverage it touches. A write far from a cached coverage can
// still re-seal the category (an inline compaction past
// static_index_compact_limit), and a re-seal renumbers every record row the
// cached hits name. The cached service must then answer exactly like a
// cache-off twin fed the same writes: same ids, names, categories and
// order.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "service/cloak_db_service.h"
#include "sim/poi.h"
#include "util/random.h"

namespace cloakdb {
namespace {

constexpr Category kCat = poi_category::kGasStation;
constexpr size_t kCompactLimit = 8;

std::unique_ptr<CloakDbService> MakeService(bool shared) {
  CloakDbServiceOptions options;
  options.space = Rect(0, 0, 100, 100);
  options.num_shards = 2;
  options.enable_shared_execution = shared;
  options.signature_grid_cells = 16;
  options.static_index_compact_limit = kCompactLimit;
  auto service = CloakDbService::Create(options);
  EXPECT_TRUE(service.ok()) << service.status().message();
  return std::move(service).value();
}

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

// The cached queries: cloaks in the lower-left of stripe 0, aligned with
// the 6.25-wide signature cells. With 8,000 POIs every NN and kNN (k = 3)
// reach stays under one cell, so each widened probe stays within the
// shard's bloat bound and is cached.
const std::vector<Rect>& Cloaks() {
  static const std::vector<Rect> cloaks = {Rect(6.25, 6.25, 12.5, 12.5),
                                           Rect(12.5, 18.75, 18.75, 25),
                                           Rect(25, 6.25, 31.25, 12.5)};
  return cloaks;
}

void ExpectSameAnswers(const CloakDbService& cached,
                       const CloakDbService& twin) {
  for (const Rect& cloaked : Cloaks()) {
    auto range = cached.PrivateRange(cloaked, 6.25, kCat);
    auto range_twin = twin.PrivateRange(cloaked, 6.25, kCat);
    ASSERT_TRUE(range.ok()) << range.status().message();
    ASSERT_TRUE(range_twin.ok());
    ExpectSameCandidates(range.value().candidates,
                         range_twin.value().candidates);
    EXPECT_EQ(range.value().rounded_rect_pruned,
              range_twin.value().rounded_rect_pruned);

    auto nn = cached.PrivateNn(cloaked, kCat);
    auto nn_twin = twin.PrivateNn(cloaked, kCat);
    ASSERT_TRUE(nn.ok()) << nn.status().message();
    ASSERT_TRUE(nn_twin.ok());
    ExpectSameCandidates(nn.value().candidates, nn_twin.value().candidates);
    EXPECT_EQ(nn.value().fetch_radius, nn_twin.value().fetch_radius);
    EXPECT_EQ(nn.value().dominance_pruned, nn_twin.value().dominance_pruned);

    auto knn = cached.PrivateKnn(cloaked, 3, kCat);
    auto knn_twin = twin.PrivateKnn(cloaked, 3, kCat);
    ASSERT_TRUE(knn.ok()) << knn.status().message();
    ASSERT_TRUE(knn_twin.ok());
    ExpectSameCandidates(knn.value().candidates,
                         knn_twin.value().candidates);
    EXPECT_EQ(knn.value().fetch_radius, knn_twin.value().fetch_radius);
    EXPECT_EQ(knn.value().dominance_pruned,
              knn_twin.value().dominance_pruned);
  }
}

// Adds `count` POIs to both services in the upper part of stripe 0, far
// from every cached coverage, so region-precise invalidation keeps the
// cached entries.
void AddFarPois(CloakDbService* cached, CloakDbService* twin, ObjectId first,
                size_t count) {
  Rng rng(first);
  for (ObjectId id = first; id < first + count; ++id) {
    PublicObject o;
    o.id = id;
    o.category = kCat;
    o.location = Point{rng.Uniform(20, 45), rng.Uniform(80, 95)};
    o.name = "far" + std::to_string(id);
    ASSERT_TRUE(cached->AddPublicObject(o).ok());
    ASSERT_TRUE(twin->AddPublicObject(o).ok());
  }
}

TEST(CacheResealTest, CachedSupersetSurvivesReseal) {
  auto cached = MakeService(/*shared=*/true);
  auto twin = MakeService(/*shared=*/false);
  Rng rng(12);
  PoiOptions poi;
  poi.count = 8000;
  poi.category = kCat;
  auto pois = GeneratePois(Rect(0, 0, 100, 100), poi, &rng).value();
  ASSERT_TRUE(cached->BulkLoadCategory(kCat, pois).ok());
  ASSERT_TRUE(twin->BulkLoadCategory(kCat, pois).ok());

  // Warm a range, NN and kNN entry per cloak; the second pass hits them.
  ExpectSameAnswers(*cached, *twin);
  const uint64_t hits_before =
      cached->metrics().counter("cache.hits_total")->Value();
  ExpectSameAnswers(*cached, *twin);
  ASSERT_EQ(cached->metrics().counter("cache.hits_total")->Value() -
                hits_before,
            3 * Cloaks().size());

  // Past the compact limit: the overlay folds back into a fresh sealed
  // tree inline, and every row moves.
  const uint64_t compactions_before =
      cached->metrics().counter("index.static.compactions_total")->Value();
  AddFarPois(cached.get(), twin.get(), 900000, 3 * kCompactLimit);
  EXPECT_GT(
      cached->metrics().counter("index.static.compactions_total")->Value(),
      compactions_before);
  ExpectSameAnswers(*cached, *twin);
  ExpectSameAnswers(*cached, *twin);

  // A spill below the limit, answered from the cache, then adds past the
  // limit re-seal again.
  AddFarPois(cached.get(), twin.get(), 910000, kCompactLimit / 2);
  ExpectSameAnswers(*cached, *twin);
  const uint64_t compactions_mid =
      cached->metrics().counter("index.static.compactions_total")->Value();
  AddFarPois(cached.get(), twin.get(), 920000, 2 * kCompactLimit);
  EXPECT_GT(
      cached->metrics().counter("index.static.compactions_total")->Value(),
      compactions_mid);
  ExpectSameAnswers(*cached, *twin);
  ExpectSameAnswers(*cached, *twin);
}

}  // namespace
}  // namespace cloakdb
