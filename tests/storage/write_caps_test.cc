// Acknowledged writes must survive a reopen. A public write the WAL or
// checkpoint reader would reject (a name over the string cap, a record
// over the WAL record cap) is refused up front, and a write the object
// store rejects logs nothing — otherwise the reopen either drops the
// poisoned record and every acknowledged one after it, or replays a write
// that was never applied.

#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "service/cloak_db_service.h"

namespace cloakdb {
namespace {

std::string TempDataDir(const std::string& tag) {
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("cloakdb_caps_" + tag + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  return dir.string();
}

std::unique_ptr<CloakDbService> OpenService(const std::string& data_dir) {
  CloakDbServiceOptions options;
  options.space = Rect(0, 0, 100, 100);
  options.num_shards = 1;
  options.worker_threads = 1;
  options.checkpoint_interval = 0;
  options.durability_mode = storage::DurabilityMode::kFsync;
  options.data_dir = data_dir;
  auto service = CloakDbService::Create(options);
  EXPECT_TRUE(service.ok()) << service.status().message();
  return service.ok() ? std::move(service).value() : nullptr;
}

PublicObject Poi(ObjectId id, double x, std::string name) {
  PublicObject o;
  o.id = id;
  o.location = Point(x, 50.0);
  o.category = 1;
  o.name = std::move(name);
  return o;
}

TEST(WriteCapsTest, OverCapNameIsRejectedAndLaterAddsSurviveReopen) {
  for (const bool checkpoint : {false, true}) {
    SCOPED_TRACE(checkpoint ? "with checkpoint" : "wal only");
    const std::string dir =
        TempDataDir(checkpoint ? "name_ckpt" : "name_wal");
    {
      auto db = OpenService(dir);
      ASSERT_NE(db, nullptr);
      ASSERT_TRUE(db->AddPublicObject(Poi(1, 10, "first")).ok());
      EXPECT_EQ(db->AddPublicObject(Poi(2, 20, std::string(70000, 'n')))
                    .code(),
                StatusCode::kInvalidArgument);
      ASSERT_TRUE(db->AddPublicObject(Poi(3, 30, "third")).ok());
      if (checkpoint) {
        ASSERT_TRUE(db->Checkpoint().ok());
      }
    }
    auto db = OpenService(dir);
    ASSERT_NE(db, nullptr);
    EXPECT_EQ(db->recovery_info().truncated_records, 0u);
    EXPECT_EQ(db->recovery_info().replayed_records, checkpoint ? 0u : 2u);
    auto knn = db->PrivateKnn(Rect(0, 0, 100, 100), 10, 1);
    ASSERT_TRUE(knn.ok()) << knn.status().message();
    std::vector<ObjectId> ids;
    for (const auto& o : knn.value().candidates) ids.push_back(o.id);
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(ids, (std::vector<ObjectId>{1, 3}));
  }
}

TEST(WriteCapsTest, BulkLoadOverTheWalRecordCapIsRejectedUpFront) {
  const std::string dir = TempDataDir("bulk");
  {
    auto db = OpenService(dir);
    ASSERT_NE(db, nullptr);
    std::vector<PublicObject> objects;
    objects.reserve(600000);
    for (ObjectId id = 1; id <= 600000; ++id) {
      objects.push_back(Poi(id, static_cast<double>(id % 100), "poi"));
    }
    EXPECT_EQ(db->BulkLoadCategory(1, std::move(objects)).code(),
              StatusCode::kInvalidArgument);
    ASSERT_TRUE(db->AddPublicObject(Poi(700000, 5, "after")).ok());
  }
  auto db = OpenService(dir);
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(db->recovery_info().replayed_records, 1u);
  EXPECT_EQ(db->recovery_info().truncated_records, 0u);
  auto nn = db->PrivateNn(Rect(0, 0, 100, 100), 1);
  ASSERT_TRUE(nn.ok()) << nn.status().message();
  ASSERT_EQ(nn.value().candidates.size(), 1u);
  EXPECT_EQ(nn.value().candidates[0].id, 700000u);
}

TEST(WriteCapsTest, RejectedPublicWritesLogNothing) {
  const std::string dir = TempDataDir("rejected");
  {
    auto db = OpenService(dir);
    ASSERT_NE(db, nullptr);
    ASSERT_TRUE(db->AddPublicObject(Poi(1, 10, "good")).ok());
    EXPECT_FALSE(
        db->AddPublicObject(
              Poi(2, std::numeric_limits<double>::quiet_NaN(), "nan"))
            .ok());
    EXPECT_EQ(db->AddPublicObject(Poi(1, 40, "duplicate")).code(),
              StatusCode::kAlreadyExists);
  }
  auto db = OpenService(dir);
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(db->recovery_info().replayed_records, 1u);
  EXPECT_EQ(db->recovery_info().truncated_records, 0u);
}

TEST(WriteCapsTest, LogAndCommitRefusesAnOversizedRecord) {
  const std::string dir = TempDataDir("engine");
  storage::WalRecord small;
  small.type = storage::WalRecordType::kUnregisterUser;
  small.user = 7;
  {
    auto engine = storage::ShardDurability::Open(
                      dir, storage::DurabilityMode::kFsync, {})
                      .value();
    storage::WalRecord bulk;
    bulk.type = storage::WalRecordType::kBulkLoadCategory;
    bulk.objects.resize(storage::kMaxWalRecordBytes / kMinPublicObjectBytes);
    EXPECT_EQ(engine->LogAndCommit(bulk).code(),
              StatusCode::kInvalidArgument);
    ASSERT_TRUE(engine->LogAndCommit(small).ok());
  }
  auto engine =
      storage::ShardDurability::Open(dir, storage::DurabilityMode::kFsync, {})
          .value();
  ASSERT_EQ(engine->recovered().records.size(), 1u);
  EXPECT_EQ(engine->recovered().records[0].lsn, 1u);
  EXPECT_EQ(engine->recovered().truncated_records, 0u);
}

TEST(WriteCapsTest, ProfileOverTheReaderCapIsRejected) {
  std::vector<ProfileEntry> entries;
  for (size_t i = 0; i <= kMaxProfileEntries; ++i) {
    const int start = static_cast<int>(i) * 20;
    entries.push_back({DailyInterval(TimeOfDay::FromSeconds(start),
                                     TimeOfDay::FromSeconds(start + 10)),
                       {2, 0.0, std::numeric_limits<double>::infinity()}});
  }
  EXPECT_EQ(PrivacyProfile::Create(entries).status().code(),
            StatusCode::kInvalidArgument);
  entries.pop_back();
  EXPECT_TRUE(PrivacyProfile::Create(entries).ok());
}

TEST(WriteCapsTest, MaxBatchOverTheWalRecordCapIsRejected) {
  CloakDbServiceOptions options;
  options.space = Rect(0, 0, 100, 100);
  options.max_batch = storage::kMaxBatchUpdates + 1;
  EXPECT_EQ(CloakDbService::Create(options).status().code(),
            StatusCode::kInvalidArgument);
  // The largest accepted batch encodes to a record the scanner accepts.
  storage::WalRecord batch;
  batch.updates.resize(storage::kMaxBatchUpdates);
  EXPECT_LE(storage::EncodeWalRecord(batch).size(),
            storage::kMaxWalRecordBytes);
}

}  // namespace
}  // namespace cloakdb
