// Static-index recovery: a restarting service re-seals every public
// category from its checkpoint snapshot and replays the WAL tail on top.
// Its records and answers must equal a never-restarted twin's, whatever
// the spill held at the checkpoint, and a stray static_index.blob in a
// shard directory (the sidecar file older builds wrote) is never read.
// The re-seal lays each category's records out in its new slot order.

#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "server/object_store.h"
#include "server/private_queries.h"
#include "service/cloak_db_service.h"
#include "sim/poi.h"
#include "storage/shard_durability.h"
#include "storage/shard_snapshot.h"
#include "util/atomic_file.h"
#include "util/random.h"

namespace cloakdb {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr Category kCat = poi_category::kGasStation;
constexpr Category kOtherCat = poi_category::kRestaurant;

TimeOfDay Noon() { return TimeOfDay::FromHms(12, 0).value(); }

std::string TempDataDir(const std::string& tag) {
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("cloakdb_sidx_" + tag + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  return dir.string();
}

CloakDbServiceOptions BaseOptions(const std::string& data_dir) {
  CloakDbServiceOptions options;
  options.space = Rect(0, 0, 100, 100);
  options.num_shards = 2;
  options.worker_threads = 1;
  options.checkpoint_interval = 0;  // explicit Checkpoint() only
  options.durability_mode = storage::DurabilityMode::kFsync;
  options.data_dir = data_dir;
  return options;
}

std::unique_ptr<CloakDbService> MakeService(const CloakDbServiceOptions& o) {
  auto service = CloakDbService::Create(o);
  EXPECT_TRUE(service.ok()) << service.status().message();
  return std::move(service).value();
}

std::vector<PublicObject> MakePois(size_t count, uint64_t seed) {
  Rng rng(seed);
  PoiOptions options;
  options.count = count;
  options.category = kCat;
  options.name_prefix = "poi";
  return GeneratePois(Rect(0, 0, 100, 100), options, &rng).value();
}

void AddLatePois(CloakDbService* db, ObjectId first, size_t count,
                 Category category) {
  Rng rng(first);
  for (ObjectId id = first; id < first + count; ++id) {
    PublicObject o;
    o.id = id;
    o.category = category;
    o.location = Point{rng.Uniform(0, 100), rng.Uniform(0, 100)};
    o.name = "late" + std::to_string(id);
    ASSERT_TRUE(db->AddPublicObject(o).ok());
  }
}

/// Users, a sealed category, and a spill in both categories that the
/// checkpoint then writes as plain records (nothing compacts it first).
void SeedWorld(CloakDbService* db) {
  PrivacyProfile profile = PrivacyProfile::Uniform({3, 0.0, kInf}).value();
  Rng rng(3);
  // One update per Flush: batch composition is racy against the drain
  // worker (see determinism_test.cc) and cloaking depends on it; the
  // recovered/twin comparison needs width-one batches.
  for (UserId u = 1; u <= 30; ++u) {
    ASSERT_TRUE(db->RegisterUser(u, profile).ok());
    Point p{rng.Uniform(5, 95), rng.Uniform(5, 95)};
    ASSERT_TRUE(db->EnqueueUpdate(u, p, Noon()).ok());
    ASSERT_TRUE(db->Flush().ok());
  }
  ASSERT_TRUE(db->BulkLoadCategory(kCat, MakePois(600, 4)).ok());
  AddLatePois(db, 40000, 50, kCat);
  AddLatePois(db, 60000, 30, kOtherCat);
}

/// The writes after the checkpoint, which live only in the WAL.
void AddPostCheckpointPois(CloakDbService* db) {
  AddLatePois(db, 50000, 80, kCat);
  AddLatePois(db, 61000, 20, kOtherCat);
}

std::vector<PublicObject> ById(std::vector<PublicObject> objects) {
  std::sort(objects.begin(), objects.end(),
            [](const PublicObject& a, const PublicObject& b) {
              return a.id < b.id;
            });
  return objects;
}

void ExpectSameRecords(const std::vector<PublicObject>& got,
                       const std::vector<PublicObject>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << "at " << i;
    EXPECT_EQ(got[i].location, want[i].location) << "id " << want[i].id;
    EXPECT_EQ(got[i].category, want[i].category) << "id " << want[i].id;
    EXPECT_EQ(got[i].name, want[i].name) << "id " << want[i].id;
  }
}

/// 40 private range, NN and kNN queries per category: the candidate
/// records (compared by id, since a re-seal may reorder range hits) and
/// the fetch radii must equal the twin's.
void ExpectSameAnswers(CloakDbService* recovered, CloakDbService* twin) {
  ASSERT_TRUE(recovered->Flush().ok());
  ASSERT_TRUE(twin->Flush().ok());
  Rng rng(9);
  for (int trial = 0; trial < 40; ++trial) {
    const Category category = trial % 4 == 3 ? kOtherCat : kCat;
    const Point c{rng.Uniform(5, 95), rng.Uniform(5, 95)};
    const Rect cloaked = Rect::CenteredSquare(c, rng.Uniform(0.5, 6.0));

    auto range = recovered->PrivateRange(cloaked, 8.0, category);
    auto range_twin = twin->PrivateRange(cloaked, 8.0, category);
    ASSERT_TRUE(range.ok() && range_twin.ok());
    ExpectSameRecords(ById(range.value().candidates),
                      ById(range_twin.value().candidates));

    auto nn = recovered->PrivateNn(cloaked, category);
    auto nn_twin = twin->PrivateNn(cloaked, category);
    ASSERT_TRUE(nn.ok() && nn_twin.ok());
    ExpectSameRecords(ById(nn.value().candidates),
                      ById(nn_twin.value().candidates));
    EXPECT_EQ(nn.value().fetch_radius, nn_twin.value().fetch_radius);

    auto knn = recovered->PrivateKnn(cloaked, 4, category);
    auto knn_twin = twin->PrivateKnn(cloaked, 4, category);
    ASSERT_TRUE(knn.ok() && knn_twin.ok());
    ExpectSameRecords(ById(knn.value().candidates),
                      ById(knn_twin.value().candidates));
    EXPECT_EQ(knn.value().fetch_radius, knn_twin.value().fetch_radius);
  }
}

/// Every public record `db` holds: a fresh checkpoint writes each shard's
/// ObjectStore::AllPublicObjects (sorted by id), read back here.
std::vector<PublicObject> AllPublicObjects(CloakDbService* db,
                                           const std::string& data_dir) {
  EXPECT_TRUE(db->Checkpoint().ok());
  std::vector<PublicObject> out;
  for (uint32_t s = 0; s < db->num_shards(); ++s) {
    auto bytes = util::ReadFile(data_dir + "/shard-" + std::to_string(s) +
                                "/checkpoint.db");
    EXPECT_TRUE(bytes.ok()) << bytes.status().message();
    auto file = storage::DecodeCheckpointFile(bytes.value());
    EXPECT_TRUE(file.ok()) << file.status().message();
    auto snapshot = storage::DecodeShardSnapshot(file.value().blob);
    EXPECT_TRUE(snapshot.ok()) << snapshot.status().message();
    for (PublicObject& o : snapshot.value().public_objects)
      out.push_back(std::move(o));
  }
  return ById(std::move(out));
}

/// Checkpoints a seeded world, adds more and closes without a final
/// checkpoint; with `junk_sidecar`, each shard directory then gets a
/// static_index.blob of junk. The reopened service must hold the twin's
/// records and give its answers, and leave the junk file as it was.
void CheckRecovery(const std::string& tag, bool junk_sidecar) {
  const std::string data_dir = TempDataDir(tag);
  const std::string twin_dir = TempDataDir(tag + "_twin");
  {
    auto db = MakeService(BaseOptions(data_dir));
    SeedWorld(db.get());
    ASSERT_TRUE(db->Checkpoint().ok());
    AddPostCheckpointPois(db.get());
    ASSERT_TRUE(db->SyncWal().ok());
  }
  const std::string junk = "not a static index: never read";
  const std::vector<std::string> sidecars = {
      data_dir + "/shard-0/static_index.blob",
      data_dir + "/shard-1/static_index.blob"};
  if (junk_sidecar) {
    for (const std::string& path : sidecars)
      ASSERT_TRUE(util::WriteFileAtomic(path, junk).ok());
  }

  // The never-restarted twin: the same writes, one process lifetime.
  auto twin = MakeService(BaseOptions(twin_dir));
  SeedWorld(twin.get());
  AddPostCheckpointPois(twin.get());

  auto recovered = MakeService(BaseOptions(data_dir));
  EXPECT_TRUE(recovered->recovery_info().performed);
  EXPECT_EQ(recovered->recovery_info().checkpoints_loaded, 2u);
  EXPECT_GT(recovered->recovery_info().replayed_records, 0u);
  EXPECT_EQ(recovered->recovery_info().static_indexes_adopted, 0u);
  ExpectSameAnswers(recovered.get(), twin.get());

  const std::vector<PublicObject> all = AllPublicObjects(twin.get(), twin_dir);
  EXPECT_EQ(all.size(), 600u + 50 + 30 + 80 + 20);
  ExpectSameRecords(AllPublicObjects(recovered.get(), data_dir), all);
  // A second restart, now with every write inside the checkpoint.
  recovered.reset();
  recovered = MakeService(BaseOptions(data_dir));
  EXPECT_EQ(recovered->recovery_info().replayed_records, 0u);
  ExpectSameAnswers(recovered.get(), twin.get());

  for (const std::string& path : sidecars) {
    auto bytes = util::ReadFile(path);
    if (junk_sidecar) {
      ASSERT_TRUE(bytes.ok()) << bytes.status().message();
      EXPECT_EQ(bytes.value(), junk);
    } else {
      EXPECT_EQ(bytes.status().code(), StatusCode::kNotFound);
    }
  }
  std::filesystem::remove_all(data_dir);
  std::filesystem::remove_all(twin_dir);
}

TEST(StaticIndexRecoveryTest, PostCheckpointWritesAreReconstructed) {
  CheckRecovery("wal", /*junk_sidecar=*/false);
}

TEST(StaticIndexRecoveryTest, LeftoverSidecarIsIgnored) {
  CheckRecovery("junk", /*junk_sidecar=*/true);
}

// A checkpoint and nothing after it: the reopen reads the snapshot alone
// (no WAL record to replay, no index file written or looked for) and must
// still hold the twin's records and give its answers.
TEST(StaticIndexRecoveryTest, MissingSidecarStillRecovers) {
  const std::string data_dir = TempDataDir("missing");
  const std::string twin_dir = TempDataDir("missing_twin");
  {
    auto db = MakeService(BaseOptions(data_dir));
    SeedWorld(db.get());
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  const std::vector<std::string> sidecars = {
      data_dir + "/shard-0/static_index.blob",
      data_dir + "/shard-1/static_index.blob"};
  for (const std::string& path : sidecars)
    EXPECT_FALSE(std::filesystem::exists(path)) << path;

  auto twin = MakeService(BaseOptions(twin_dir));
  SeedWorld(twin.get());

  auto recovered = MakeService(BaseOptions(data_dir));
  EXPECT_TRUE(recovered->recovery_info().performed);
  EXPECT_EQ(recovered->recovery_info().checkpoints_loaded, 2u);
  EXPECT_EQ(recovered->recovery_info().replayed_records, 0u);
  EXPECT_EQ(recovered->recovery_info().static_indexes_adopted, 0u);
  ExpectSameAnswers(recovered.get(), twin.get());
  const std::vector<PublicObject> all = AllPublicObjects(twin.get(), twin_dir);
  EXPECT_EQ(all.size(), 600u + 50 + 30);
  ExpectSameRecords(AllPublicObjects(recovered.get(), data_dir), all);
  for (const std::string& path : sidecars)
    EXPECT_FALSE(std::filesystem::exists(path)) << path;
  std::filesystem::remove_all(data_dir);
  std::filesystem::remove_all(twin_dir);
}

// --- Record tables of re-sealed categories ---------------------------------
//
// A store keeps each category's records in index-row order, and a sealed
// row is a leaf slot. Shard::RestoreSnapshot re-seals each category of
// the snapshot with one BulkLoadCategory, so the tombstones, moves and
// spill the checkpointed store carried must all land in fresh slots whose
// rows hold the right records. The oracle is the checkpointed store.

TEST(StaticIndexRecoveryTest, AdoptionLaysRecordsOutInSlotOrder) {
  ObjectStore checkpointed(Rect(0, 0, 100, 100));
  const std::vector<PublicObject> sealed_pois = MakePois(600, 21);
  ASSERT_TRUE(checkpointed.BulkLoadCategory(kCat, sealed_pois).ok());

  // 40 sealed objects gone (tombstones), 20 moved, 30 added (spill), and
  // a second category with a spill only.
  std::vector<ObjectId> gone;
  Rng rng(22);
  for (size_t i = 0; i < sealed_pois.size(); ++i) {
    if (i % 15 == 7) {
      gone.push_back(sealed_pois[i].id);
      ASSERT_TRUE(checkpointed.RemovePublicObject(sealed_pois[i].id).ok());
    } else if (i % 30 == 11) {
      ASSERT_TRUE(checkpointed
                      .MovePublicObject(sealed_pois[i].id,
                                        Point{rng.Uniform(0, 100),
                                              rng.Uniform(0, 100)})
                      .ok());
    }
  }
  for (ObjectId id = 70000; id < 70030; ++id) {
    PublicObject o;
    o.id = id;
    o.category = id < 70020 ? kCat : kOtherCat;
    o.location = Point{rng.Uniform(0, 100), rng.Uniform(0, 100)};
    o.name = "spill" + std::to_string(id);
    ASSERT_TRUE(checkpointed.AddPublicObject(o).ok());
  }
  ASSERT_EQ(gone.size(), 40u);
  const PublicCategoryIndex& before = *checkpointed.CategoryIndex(kCat).value();
  EXPECT_GT(before.overlay_size(), 0u);
  EXPECT_GT(before.tombstone_count(), 0u);

  // The snapshot a checkpoint writes, through its codec, re-sealed the way
  // Shard::RestoreSnapshot does it.
  storage::ShardSnapshot written;
  written.public_objects = checkpointed.AllPublicObjects();
  auto snapshot =
      storage::DecodeShardSnapshot(storage::EncodeShardSnapshot(written));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().message();
  std::vector<PublicObject> cat_objects, other_objects;
  for (const PublicObject& o : snapshot.value().public_objects)
    (o.category == kCat ? cat_objects : other_objects).push_back(o);
  ObjectStore resealed(Rect(0, 0, 100, 100));
  ASSERT_TRUE(resealed.BulkLoadCategory(kCat, cat_objects).ok());
  ASSERT_TRUE(resealed.BulkLoadCategory(kOtherCat, other_objects).ok());

  EXPECT_EQ(resealed.num_public(), checkpointed.num_public());
  EXPECT_EQ(resealed.num_public(), 600u - 40 + 30);
  ExpectSameRecords(resealed.AllPublicObjects(),
                    checkpointed.AllPublicObjects());
  for (Category category : {kCat, kOtherCat}) {
    const ObjectStore::PublicTable& table =
        *resealed.CategoryTable(category).value();
    const PublicCategoryIndex& index = table.index;
    EXPECT_TRUE(index.HasSealedTree());
    EXPECT_EQ(index.overlay_size(), 0u);
    EXPECT_EQ(index.tombstone_count(), 0u);
    // Every slot is a live row, and row r holds the record of the entry
    // sealed in slot r.
    ASSERT_EQ(index.row_count(), index.size());
    ASSERT_EQ(table.rows.size(), index.row_count());
    for (uint64_t r = 0; r < index.row_count(); ++r) {
      ASSERT_TRUE(table.live[r]) << "row " << r;
      const PublicObject& record = table.rows[r];
      EXPECT_EQ(index.RowOf(record.id), std::optional<uint64_t>(r));
      EXPECT_EQ(index.Locate(record.id).value(), record.location);
      ExpectSameRecords({record},
                        {checkpointed.GetPublicObject(record.id).value()});
    }
  }
  for (ObjectId id : gone) {
    EXPECT_EQ(resealed.GetPublicObject(id).status().code(),
              StatusCode::kNotFound);
  }

  for (int trial = 0; trial < 40; ++trial) {
    const Category category = trial % 4 == 3 ? kOtherCat : kCat;
    const Point c{rng.Uniform(5, 95), rng.Uniform(5, 95)};
    const Rect cloaked = Rect::CenteredSquare(c, rng.Uniform(0.5, 6.0));
    auto range = PrivateRangeQuery(resealed, cloaked, 6.0, category);
    auto range_want = PrivateRangeQuery(checkpointed, cloaked, 6.0, category);
    ASSERT_TRUE(range.ok() && range_want.ok());
    ExpectSameRecords(ById(range.value().candidates),
                      ById(range_want.value().candidates));
    auto nn = PrivateNnQuery(resealed, cloaked, category);
    auto nn_want = PrivateNnQuery(checkpointed, cloaked, category);
    ASSERT_TRUE(nn.ok() && nn_want.ok());
    ExpectSameRecords(ById(nn.value().candidates),
                      ById(nn_want.value().candidates));
    auto knn = PrivateKnnQuery(resealed, cloaked, 5, category);
    auto knn_want = PrivateKnnQuery(checkpointed, cloaked, 5, category);
    ASSERT_TRUE(knn.ok() && knn_want.ok());
    ExpectSameRecords(ById(knn.value().candidates),
                      ById(knn_want.value().candidates));
  }
}

}  // namespace
}  // namespace cloakdb
