// Static-index recovery: a checkpointed shard writes its sealed-tree
// sidecar; a restarting service must adopt the mmap'd trees (fast path)
// and answer exactly like a never-closed twin. The sidecar is untrusted —
// tampering, truncation, or deletion must degrade to an STR rebuild,
// never to a wrong answer or a failed recovery.

#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "service/cloak_db_service.h"
#include "sim/poi.h"
#include "util/random.h"

namespace cloakdb {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr Category kCat = poi_category::kGasStation;

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
  if (!data_dir.empty()) {
    options.durability_mode = storage::DurabilityMode::kFsync;
    options.data_dir = data_dir;
  }
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

/// Seeds users + sealed POIs + post-seal adds into `db`.
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
}

void AddLatePois(CloakDbService* db, ObjectId first, size_t count) {
  Rng rng(first);
  for (ObjectId id = first; id < first + count; ++id) {
    PublicObject o;
    o.id = id;
    o.category = kCat;
    o.location = Point{rng.Uniform(0, 100), rng.Uniform(0, 100)};
    o.name = "late";
    ASSERT_TRUE(db->AddPublicObject(o).ok());
  }
}

/// Query battery: recovered must answer exactly like the uninterrupted twin.
void ExpectSameAnswers(CloakDbService* recovered, CloakDbService* twin) {
  ASSERT_TRUE(recovered->Flush().ok());
  ASSERT_TRUE(twin->Flush().ok());
  Rng rng(9);
  auto ids = [](const std::vector<PublicObject>& objects) {
    std::vector<ObjectId> out;
    for (const auto& o : objects) out.push_back(o.id);
    std::sort(out.begin(), out.end());
    return out;
  };
  for (int trial = 0; trial < 20; ++trial) {
    Point c{rng.Uniform(5, 95), rng.Uniform(5, 95)};
    const Rect cloaked = Rect::CenteredSquare(c, rng.Uniform(0.5, 6.0));

    auto r_r = recovered->PrivateRange(cloaked, 8.0, kCat);
    auto r_t = twin->PrivateRange(cloaked, 8.0, kCat);
    ASSERT_EQ(r_r.ok(), r_t.ok());
    if (r_r.ok())
      EXPECT_EQ(ids(r_r.value().candidates), ids(r_t.value().candidates));

    auto nn_r = recovered->PrivateNn(cloaked, kCat);
    auto nn_t = twin->PrivateNn(cloaked, kCat);
    ASSERT_EQ(nn_r.ok(), nn_t.ok());
    if (nn_r.ok()) {
      EXPECT_EQ(ids(nn_r.value().candidates), ids(nn_t.value().candidates));
      EXPECT_EQ(nn_r.value().fetch_radius, nn_t.value().fetch_radius);
    }

    auto knn_r = recovered->PrivateKnn(cloaked, 4, kCat);
    auto knn_t = twin->PrivateKnn(cloaked, 4, kCat);
    ASSERT_EQ(knn_r.ok(), knn_t.ok());
    if (knn_r.ok())
      EXPECT_EQ(ids(knn_r.value().candidates), ids(knn_t.value().candidates));
  }
}

std::vector<std::filesystem::path> SidecarPaths(const std::string& data_dir) {
  std::vector<std::filesystem::path> out;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(data_dir)) {
    if (entry.path().filename() == "static_index.blob")
      out.push_back(entry.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(StaticIndexRecoveryTest, CheckpointWritesSidecarAndReopenAdopts) {
  const std::string data_dir = TempDataDir("adopt");
  {
    auto db = MakeService(BaseOptions(data_dir));
    SeedWorld(db.get());
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  ASSERT_FALSE(SidecarPaths(data_dir).empty());

  // The uninterrupted twin: same ops, in-memory.
  auto twin = MakeService(BaseOptions(""));
  SeedWorld(twin.get());

  auto recovered = MakeService(BaseOptions(data_dir));
  EXPECT_TRUE(recovered->recovery_info().performed);
  EXPECT_GT(recovered->recovery_info().static_indexes_adopted, 0u);
  EXPECT_EQ(recovered->recovery_info().static_indexes_rebuilt, 0u);
  EXPECT_GT(recovered->metrics().counter("mmap.bytes_mapped_total")->Value(),
            0u);
  ExpectSameAnswers(recovered.get(), twin.get());
  std::filesystem::remove_all(data_dir);
}

TEST(StaticIndexRecoveryTest, PostCheckpointWritesAreReconstructed) {
  const std::string data_dir = TempDataDir("wal");
  {
    auto db = MakeService(BaseOptions(data_dir));
    SeedWorld(db.get());
    ASSERT_TRUE(db->Checkpoint().ok());
    // Post-checkpoint adds live only in the WAL; replay must land them in
    // the adopted trees' overlays.
    AddLatePois(db.get(), 50000, 80);
    ASSERT_TRUE(db->SyncWal().ok());
  }

  auto twin = MakeService(BaseOptions(""));
  SeedWorld(twin.get());
  AddLatePois(twin.get(), 50000, 80);

  auto recovered = MakeService(BaseOptions(data_dir));
  EXPECT_GT(recovered->recovery_info().static_indexes_adopted, 0u);
  EXPECT_GT(recovered->recovery_info().replayed_records, 0u);
  ExpectSameAnswers(recovered.get(), twin.get());
  std::filesystem::remove_all(data_dir);
}

TEST(StaticIndexRecoveryTest, TamperedSidecarFallsBackToRebuild) {
  const std::string data_dir = TempDataDir("tamper");
  {
    auto db = MakeService(BaseOptions(data_dir));
    SeedWorld(db.get());
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  // Flip one byte inside every sidecar's blob region (past the 4096-byte
  // directory block) — the tree CRC must catch it.
  for (const auto& path : SidecarPaths(data_dir)) {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 4096 + 200, SEEK_SET), 0);
    int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, 4096 + 200, SEEK_SET), 0);
    std::fputc(c ^ 0x20, f);
    std::fclose(f);
  }

  auto twin = MakeService(BaseOptions(""));
  SeedWorld(twin.get());

  auto recovered = MakeService(BaseOptions(data_dir));
  EXPECT_TRUE(recovered->recovery_info().performed);
  EXPECT_GT(recovered->recovery_info().static_indexes_rebuilt, 0u);
  EXPECT_GT(recovered->metrics().counter("mmap.verify_failures_total")->Value(),
            0u);
  // Degraded path, identical answers.
  ExpectSameAnswers(recovered.get(), twin.get());
  std::filesystem::remove_all(data_dir);
}

TEST(StaticIndexRecoveryTest, MissingSidecarStillRecovers) {
  const std::string data_dir = TempDataDir("missing");
  {
    auto db = MakeService(BaseOptions(data_dir));
    SeedWorld(db.get());
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  for (const auto& path : SidecarPaths(data_dir))
    std::filesystem::remove(path);

  auto twin = MakeService(BaseOptions(""));
  SeedWorld(twin.get());

  auto recovered = MakeService(BaseOptions(data_dir));
  EXPECT_TRUE(recovered->recovery_info().performed);
  EXPECT_EQ(recovered->recovery_info().static_indexes_adopted, 0u);
  EXPECT_EQ(recovered->metrics().counter("mmap.opens_total")->Value(), 0u);
  ExpectSameAnswers(recovered.get(), twin.get());
  std::filesystem::remove_all(data_dir);
}

TEST(StaticIndexRecoveryTest, ReadFallbackAdoptsWithoutMmap) {
  const std::string data_dir = TempDataDir("fallback");
  {
    auto db = MakeService(BaseOptions(data_dir));
    SeedWorld(db.get());
    ASSERT_TRUE(db->Checkpoint().ok());
  }

  auto twin = MakeService(BaseOptions(""));
  SeedWorld(twin.get());

  auto options = BaseOptions(data_dir);
  options.index_mmap_read_fallback = true;
  auto recovered = MakeService(options);
  EXPECT_GT(recovered->recovery_info().static_indexes_adopted, 0u);
  EXPECT_GT(
      recovered->metrics().counter("mmap.read_fallbacks_total")->Value(), 0u);
  EXPECT_EQ(recovered->metrics().counter("mmap.bytes_mapped_total")->Value(),
            0u);
  ExpectSameAnswers(recovered.get(), twin.get());
  std::filesystem::remove_all(data_dir);
}

}  // namespace
}  // namespace cloakdb
