#include "server/object_store.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

namespace cloakdb {
namespace {

PublicObject Poi(ObjectId id, double x, double y, Category cat = 1) {
  PublicObject o;
  o.id = id;
  o.location = {x, y};
  o.category = cat;
  o.name = "poi-" + std::to_string(id);
  return o;
}

TEST(ObjectStoreTest, AddGetRemovePublic) {
  ObjectStore store(Rect(0, 0, 100, 100));
  ASSERT_TRUE(store.AddPublicObject(Poi(1, 10, 10)).ok());
  EXPECT_EQ(store.num_public(), 1u);
  auto got = store.GetPublicObject(1);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().location, Point(10, 10));
  EXPECT_EQ(got.value().name, "poi-1");
  ASSERT_TRUE(store.RemovePublicObject(1).ok());
  EXPECT_EQ(store.num_public(), 0u);
  EXPECT_EQ(store.GetPublicObject(1).status().code(), StatusCode::kNotFound);
}

TEST(ObjectStoreTest, DuplicateIdAcrossCategoriesRejected) {
  ObjectStore store(Rect(0, 0, 100, 100));
  ASSERT_TRUE(store.AddPublicObject(Poi(1, 10, 10, 1)).ok());
  EXPECT_EQ(store.AddPublicObject(Poi(1, 20, 20, 2)).code(),
            StatusCode::kAlreadyExists);
}

TEST(ObjectStoreTest, CategoryIndexesAreSeparate) {
  ObjectStore store(Rect(0, 0, 100, 100));
  ASSERT_TRUE(store.AddPublicObject(Poi(1, 10, 10, 1)).ok());
  ASSERT_TRUE(store.AddPublicObject(Poi(2, 20, 20, 2)).ok());
  auto cat1 = store.CategoryIndex(1);
  ASSERT_TRUE(cat1.ok());
  EXPECT_EQ(cat1.value()->size(), 1u);
  auto cat2 = store.CategoryIndex(2);
  ASSERT_TRUE(cat2.ok());
  EXPECT_EQ(cat2.value()->size(), 1u);
  EXPECT_EQ(store.CategoryIndex(3).status().code(), StatusCode::kNotFound);
  // Categories 1 and 2 hold every stored object, each in its own table.
  EXPECT_TRUE(store.CategoryTable(1).ok());
  EXPECT_TRUE(store.CategoryTable(2).ok());
  EXPECT_EQ(store.num_public(), cat1.value()->size() + cat2.value()->size());
}

TEST(ObjectStoreTest, RemovingLastObjectDropsCategory) {
  ObjectStore store(Rect(0, 0, 100, 100));
  ASSERT_TRUE(store.AddPublicObject(Poi(1, 10, 10, 7)).ok());
  ASSERT_TRUE(store.RemovePublicObject(1).ok());
  EXPECT_EQ(store.CategoryIndex(7).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.CategoryTable(7).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.num_public(), 0u);
}

TEST(ObjectStoreTest, MovePublicObject) {
  ObjectStore store(Rect(0, 0, 100, 100));
  ASSERT_TRUE(store.AddPublicObject(Poi(1, 10, 10)).ok());
  ASSERT_TRUE(store.MovePublicObject(1, {90, 90}).ok());
  EXPECT_EQ(store.GetPublicObject(1).value().location, Point(90, 90));
  auto index = store.CategoryIndex(1);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index.value()->KNearest({89, 89}, 1).front().id, 1u);
  EXPECT_EQ(store.MovePublicObject(2, {1, 1}).code(), StatusCode::kNotFound);
}

TEST(ObjectStoreTest, BulkLoadReplacesCategory) {
  ObjectStore store(Rect(0, 0, 100, 100));
  ASSERT_TRUE(store.AddPublicObject(Poi(1, 10, 10, 1)).ok());
  std::vector<PublicObject> fresh{Poi(5, 50, 50, 1), Poi(6, 60, 60, 1)};
  ASSERT_TRUE(store.BulkLoadCategory(1, fresh).ok());
  EXPECT_EQ(store.num_public(), 2u);
  EXPECT_EQ(store.GetPublicObject(1).status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(store.GetPublicObject(5).ok());
}

TEST(ObjectStoreTest, BulkLoadRejectsCrossCategoryConflict) {
  ObjectStore store(Rect(0, 0, 100, 100));
  ASSERT_TRUE(store.AddPublicObject(Poi(1, 10, 10, 1)).ok());
  std::vector<PublicObject> conflicting{Poi(1, 50, 50, 2)};
  EXPECT_EQ(store.BulkLoadCategory(2, conflicting).code(),
            StatusCode::kAlreadyExists);
}

TEST(ObjectStoreTest, BulkLoadEmptyClearsCategory) {
  ObjectStore store(Rect(0, 0, 100, 100));
  ASSERT_TRUE(store.AddPublicObject(Poi(1, 10, 10, 1)).ok());
  ASSERT_TRUE(store.BulkLoadCategory(1, {}).ok());
  EXPECT_EQ(store.num_public(), 0u);
  EXPECT_EQ(store.CategoryIndex(1).status().code(), StatusCode::kNotFound);
}

TEST(ObjectStoreTest, NonFinitePublicLocationsAreRejected) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // A compact limit of 0: the first spill folds back into the sealed tree
  // at once.
  PublicCategoryIndex::Config compact_at_once;
  compact_at_once.overlay_compact_limit = 0;
  ObjectStore store(Rect(0, 0, 100, 100), 64, compact_at_once);
  std::vector<PublicObject> pois;
  for (ObjectId id = 1; id <= 100; ++id) pois.push_back(Poi(id, id % 97, id));
  ASSERT_TRUE(store.BulkLoadCategory(1, pois).ok());

  EXPECT_EQ(store.AddPublicObject(Poi(500, nan, 10)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store.AddPublicObject(Poi(501, 10, -inf)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store.MovePublicObject(7, {inf, 5}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store.GetPublicObject(7).value().location, Point(7, 7));
  pois.push_back(Poi(502, 5, nan));
  EXPECT_EQ(store.BulkLoadCategory(1, pois).code(),
            StatusCode::kInvalidArgument);

  // Nothing was stored, so the index and the record table still agree —
  // also after a compaction re-enumerates the index.
  EXPECT_EQ(store.num_public(), 100u);
  EXPECT_EQ(store.GetPublicObject(500).status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(store.MovePublicObject(7, {7, 7}).ok());  // a spill, folded
  EXPECT_EQ(store.CategoryIndex(1).value()->size(), 100u);
  EXPECT_EQ(store.AllPublicObjects().size(), 100u);
  EXPECT_EQ(store.CategoryIndex(1).value()->overlay_size(), 0u);
  EXPECT_EQ(store.GetPublicObject(7).value().location, Point(7, 7));
}

TEST(ObjectStoreTest, CheckPublicBatchRejectsDuplicatesAndNonFinite) {
  EXPECT_TRUE(CheckPublicBatch({Poi(1, 1, 1), Poi(2, 2, 2)}).ok());
  EXPECT_EQ(CheckPublicBatch({Poi(1, 1, 1), Poi(1, 2, 2)}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      CheckPublicBatch({Poi(1, std::numeric_limits<double>::infinity(), 1)})
          .code(),
      StatusCode::kInvalidArgument);
}

TEST(ObjectStoreTest, PrivateRegionLifecycle) {
  ObjectStore store(Rect(0, 0, 100, 100));
  ASSERT_TRUE(store.UpsertPrivateRegion(77, Rect(10, 10, 20, 20)).ok());
  EXPECT_EQ(store.num_private(), 1u);
  EXPECT_EQ(store.GetPrivateRegion(77).value(), Rect(10, 10, 20, 20));
  // Upsert replaces.
  ASSERT_TRUE(store.UpsertPrivateRegion(77, Rect(30, 30, 40, 40)).ok());
  EXPECT_EQ(store.num_private(), 1u);
  EXPECT_EQ(store.GetPrivateRegion(77).value(), Rect(30, 30, 40, 40));
  ASSERT_TRUE(store.RemovePrivateRegion(77).ok());
  EXPECT_EQ(store.num_private(), 0u);
  EXPECT_EQ(store.RemovePrivateRegion(77).code(), StatusCode::kNotFound);
}

TEST(ObjectStoreTest, PrivateRegionValidation) {
  ObjectStore store(Rect(0, 0, 100, 100));
  EXPECT_EQ(store.UpsertPrivateRegion(1, Rect()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store.UpsertPrivateRegion(1, Rect(200, 200, 300, 300)).code(),
            StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace cloakdb
