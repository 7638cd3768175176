// Records across inline re-seals. A public write past
// static_index_compact_limit folds the category's overlay back into a
// fresh sealed tree, and that renumbers every record row the index hits
// name. A service re-sealing that way must answer exactly like a twin that
// never re-seals after its bulk load: same ids, locations, categories,
// names and order, same prune counts and fetch radii.

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

std::unique_ptr<CloakDbService> MakeService(size_t compact_limit) {
  CloakDbServiceOptions options;
  options.space = Rect(0, 0, 100, 100);
  options.num_shards = 2;
  options.static_index_compact_limit = compact_limit;
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

// Cloaks in the lower-left of stripe 0, away from the added POIs.
const std::vector<Rect>& Cloaks() {
  static const std::vector<Rect> cloaks = {Rect(6.25, 6.25, 12.5, 12.5),
                                           Rect(12.5, 18.75, 18.75, 25),
                                           Rect(25, 6.25, 31.25, 12.5)};
  return cloaks;
}

void ExpectSameAnswers(const CloakDbService& resealed,
                       const CloakDbService& twin) {
  for (const Rect& cloaked : Cloaks()) {
    auto range = resealed.PrivateRange(cloaked, 6.25, kCat);
    auto range_twin = twin.PrivateRange(cloaked, 6.25, kCat);
    ASSERT_TRUE(range.ok()) << range.status().message();
    ASSERT_TRUE(range_twin.ok());
    ExpectSameCandidates(range.value().candidates,
                         range_twin.value().candidates);
    EXPECT_EQ(range.value().rounded_rect_pruned,
              range_twin.value().rounded_rect_pruned);

    auto nn = resealed.PrivateNn(cloaked, kCat);
    auto nn_twin = twin.PrivateNn(cloaked, kCat);
    ASSERT_TRUE(nn.ok()) << nn.status().message();
    ASSERT_TRUE(nn_twin.ok());
    ExpectSameCandidates(nn.value().candidates, nn_twin.value().candidates);
    EXPECT_EQ(nn.value().fetch_radius, nn_twin.value().fetch_radius);
    EXPECT_EQ(nn.value().dominance_pruned, nn_twin.value().dominance_pruned);

    auto knn = resealed.PrivateKnn(cloaked, 3, kCat);
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
// from the queried cloaks: only the row numbers of their answers move.
void AddFarPois(CloakDbService* resealed, CloakDbService* twin,
                ObjectId first, size_t count) {
  Rng rng(first);
  for (ObjectId id = first; id < first + count; ++id) {
    PublicObject o;
    o.id = id;
    o.category = kCat;
    o.location = Point{rng.Uniform(20, 45), rng.Uniform(80, 95)};
    o.name = "far" + std::to_string(id);
    ASSERT_TRUE(resealed->AddPublicObject(o).ok());
    ASSERT_TRUE(twin->AddPublicObject(o).ok());
  }
}

uint64_t Compactions(const CloakDbService& db) {
  return db.metrics().CounterValue("index.static.compactions_total");
}

TEST(ResealTwinTest, RecordsMatchANeverResealedTwin) {
  auto resealed = MakeService(kCompactLimit);
  auto twin = MakeService(/*compact_limit=*/1024);
  Rng rng(12);
  PoiOptions poi;
  poi.count = 8000;
  poi.category = kCat;
  auto pois = GeneratePois(Rect(0, 0, 100, 100), poi, &rng).value();
  ASSERT_TRUE(resealed->BulkLoadCategory(kCat, pois).ok());
  ASSERT_TRUE(twin->BulkLoadCategory(kCat, pois).ok());
  ExpectSameAnswers(*resealed, *twin);

  // Past the compact limit: the overlay folds back into a fresh sealed
  // tree inline, and every row moves.
  AddFarPois(resealed.get(), twin.get(), 900000, 3 * kCompactLimit);
  const uint64_t compactions_mid = Compactions(*resealed);
  EXPECT_GT(compactions_mid, 0u);
  ExpectSameAnswers(*resealed, *twin);

  // A spill below the limit, then adds past the limit re-seal again.
  AddFarPois(resealed.get(), twin.get(), 910000, kCompactLimit / 2);
  ExpectSameAnswers(*resealed, *twin);
  AddFarPois(resealed.get(), twin.get(), 920000, 2 * kCompactLimit);
  EXPECT_GT(Compactions(*resealed), compactions_mid);
  ExpectSameAnswers(*resealed, *twin);
  // The twin answered from its bulk-load seal plus a spill throughout.
  EXPECT_EQ(Compactions(*twin), 0u);
}

}  // namespace
}  // namespace cloakdb
