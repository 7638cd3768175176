// Golden bytes: every wire frame, admin payload, WAL record, WAL file,
// snapshot blob, checkpoint file, StaticRTree blob and index-sidecar
// header is encoded from a fixed value and compared with the hex fixture
// committed under tests/corpus/. A codec change that moves a single byte
// fails here; an intended format change bumps its version and rewrites
// the fixtures (run with CLOAKDB_WRITE_GOLDEN=1, then review the diff).

#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "corpus.h"
#include "index/static_rtree.h"
#include "net/protocol.h"
#include "storage/index_blob.h"
#include "storage/shard_durability.h"
#include "storage/shard_snapshot.h"
#include "storage/wal.h"
#include "storage/wal_record.h"

namespace cloakdb {
namespace {

using testing::ReadHexFixture;
using testing::ToHex;

constexpr double kInf = std::numeric_limits<double>::infinity();

void ExpectGolden(const std::string& name, const std::string& bytes) {
  if (std::getenv("CLOAKDB_WRITE_GOLDEN") != nullptr) {
    std::ofstream out(testing::CorpusPath(name), std::ios::trunc);
    out << "# " << name << ": " << bytes.size() << " bytes\n" << ToHex(bytes);
  }
  EXPECT_EQ(ToHex(ReadHexFixture(name)), ToHex(bytes)) << "fixture " << name;
}

std::string TempDir(const std::string& tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("cloakdb_golden_" + tag + "_" +
                    std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::string ReadFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f),
                     std::istreambuf_iterator<char>());
}

PublicObject Object(ObjectId id, double x, double y, Category category,
                    std::string name) {
  PublicObject o;
  o.id = id;
  o.location = Point(x, y);
  o.category = category;
  o.name = std::move(name);
  return o;
}

ProfileEntry Entry(int start, int end, uint32_t k, double min_area,
                   double max_area) {
  ProfileEntry e;
  e.interval = DailyInterval(TimeOfDay::FromSeconds(start),
                             TimeOfDay::FromSeconds(end));
  e.requirement = {k, min_area, max_area};
  return e;
}

// --- Wire frames ------------------------------------------------------------

TEST(GoldenBytesTest, WireFrames) {
  QueryRequest query;
  query.kind = QueryKind::kPrivateKnn;
  query.exact_rounded_rect = true;
  query.category = 7;
  query.resolution = 0;
  query.region = Rect(1.5, -2.25, 3.75, 4e10);
  query.radius = 0.5;
  query.k = 5;
  query.deadline_us = 123456;
  std::string frame;
  net::AppendQueryFrame(0x0102030405060708ull, query, &frame);
  ExpectGolden("frame_query", frame);

  QueryResponse response;
  response.kind = QueryKind::kPrivateRange;
  response.error = ErrorCode::kOk;
  response.degraded = true;
  response.degraded_admission = false;
  response.message = "partial";
  response.trace_id = 0xfeedface;
  response.server_latency_us = 321;
  response.covered_shards = 0b101;
  response.extended_region = Rect(-1, -1, 11, 11);
  response.fetch_radius = 2.5;
  response.pruned = 4;
  response.expected_count = 1.75;
  response.count_min = 1;
  response.count_max = 3;
  response.resolution = 2;
  response.space = Rect(0, 0, 100, 100);
  response.candidates = {Object(9, 1.0, 2.0, 7, ""),
                         Object(10, -0.0, kInf, 7, "caf\xc3\xa9")};
  response.heat = {0.0, -0.0, 0.25, kInf};
  frame.clear();
  net::AppendResponseFrame(42, response, &frame);
  ExpectGolden("frame_response", frame);

  frame.clear();
  net::AppendErrorFrame(43, ErrorCode::kResourceExhausted, "queue full",
                        &frame);
  ExpectGolden("frame_error", frame);

  frame.clear();
  net::AppendPingFrame(44, &frame);
  ExpectGolden("frame_ping", frame);

  frame.clear();
  net::AppendPongFrame(45, &frame);
  ExpectGolden("frame_pong", frame);

  frame.clear();
  net::AppendAdminRequestFrame(46, net::AdminCommand::kSlowQueries, 10,
                               &frame);
  ExpectGolden("frame_admin_request", frame);

  frame.clear();
  net::AppendAdminResponseFrame(47, net::AdminCommand::kStatus,
                                "{\"ok\":true}", &frame);
  ExpectGolden("frame_admin_response", frame);
}

// --- WAL --------------------------------------------------------------------

std::vector<std::pair<std::string, storage::WalRecord>> GoldenWalRecords() {
  using storage::WalRecord;
  using storage::WalRecordType;
  std::vector<std::pair<std::string, WalRecord>> out;
  WalRecord r;

  r = {};
  r.type = WalRecordType::kRegisterUser;
  r.lsn = 1;
  r.user = 1001;
  r.profile = {Entry(0, 28800, 5, 1.0, 50.0), Entry(28800, 86399, 1, 0, kInf)};
  out.emplace_back("wal_record_register_user", r);

  r = {};
  r.type = WalRecordType::kUpdateProfile;
  r.lsn = 2;
  r.user = 1001;
  r.profile = {Entry(3600, 7200, 12, 0.5, 1e6)};
  out.emplace_back("wal_record_update_profile", r);

  r = {};
  r.type = WalRecordType::kUnregisterUser;
  r.lsn = 3;
  r.user = 1002;
  out.emplace_back("wal_record_unregister_user", r);

  r = {};
  r.type = WalRecordType::kUpdateBatch;
  r.lsn = 4;
  r.updates = {{1001, Point(10.5, 20.25), 3600}, {7, Point(-0.0, 99.0), 0}};
  out.emplace_back("wal_record_update_batch", r);

  r = {};
  r.type = WalRecordType::kAddPublicObject;
  r.lsn = 5;
  r.object = Object(77, 3.0, 4.0, 2, "caf\xc3\xa9");
  out.emplace_back("wal_record_add_public_object", r);

  r = {};
  r.type = WalRecordType::kBulkLoadCategory;
  r.lsn = 6;
  r.category = 3;
  r.objects = {Object(1, 0.0, 0.0, 3, "a"), Object(2, 5.5, 6.5, 3, "")};
  out.emplace_back("wal_record_bulk_load_category", r);

  r = {};
  r.type = WalRecordType::kCqRegister;
  r.lsn = 7;
  r.cq_id = 55;
  r.cq_kind = 2;
  r.cq_issuer = 1001;
  r.cq_radius = 0.0;
  r.cq_k = 4;
  r.cq_category = 3;
  r.cq_window = Rect(1, 2, 3, 4);
  out.emplace_back("wal_record_cq_register", r);

  r = {};
  r.type = WalRecordType::kCqUnregister;
  r.lsn = 8;
  r.cq_id = 55;
  out.emplace_back("wal_record_cq_unregister", r);
  return out;
}

TEST(GoldenBytesTest, WalRecords) {
  for (const auto& [name, record] : GoldenWalRecords()) {
    const std::string bytes = storage::EncodeWalRecord(record);
    ExpectGolden(name, bytes);
    auto decoded = storage::DecodeWalRecord(ReadHexFixture(name));
    ASSERT_TRUE(decoded.ok()) << name << ": " << decoded.status().message();
    EXPECT_EQ(storage::EncodeWalRecord(decoded.value()), bytes) << name;
  }
}

TEST(GoldenBytesTest, WalFileHeaderAndFrames) {
  const std::string path = TempDir("wal") + "/wal.log";
  const auto records = GoldenWalRecords();
  {
    auto wal = storage::WalAppender::Open(path, 0).value();
    wal->Append(storage::EncodeWalRecord(records[2].second));
    wal->Append(storage::EncodeWalRecord(records[3].second));
    ASSERT_TRUE(wal->Commit(/*sync=*/false).ok());
  }
  ExpectGolden("wal_file", ReadFile(path));
  auto scan = storage::ScanWal(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan.value().payloads.size(), 2u);
  EXPECT_EQ(scan.value().truncated_records, 0u);
}

// --- Checkpoint -------------------------------------------------------------

TEST(GoldenBytesTest, ShardSnapshot) {
  storage::ShardSnapshot snap;
  ExportedUserState user;
  user.user = 1001;
  user.profile = {Entry(0, 86399, 3, 0.0, kInf)};
  user.pseudonym = 0xabcdef;
  user.has_location = true;
  user.location = Point(12.5, 13.5);
  user.has_cached_region = true;
  user.cached.region = Rect(10, 10, 15, 15);
  user.cached.achieved_k = 4;
  user.cached.requirement = {3, 0.0, kInf};
  user.cached.k_satisfied = true;
  user.cached.min_area_satisfied = true;
  user.cached.max_area_satisfied = false;
  user.updates_since_rotation = 2;
  snap.anonymizer.users = {user};
  snap.anonymizer.used_pseudonyms = {0x1234, 0xabcdef};
  snap.anonymizer.pseudonym_rng.s[0] = 1;
  snap.anonymizer.pseudonym_rng.s[1] = 2;
  snap.anonymizer.pseudonym_rng.s[2] = 3;
  snap.anonymizer.pseudonym_rng.s[3] = 0xffffffffffffffffull;
  snap.anonymizer.pseudonym_rng.have_cached_gaussian = true;
  snap.anonymizer.pseudonym_rng.cached_gaussian = -0.75;
  snap.anonymizer.stats = {10, 6, 3, 1, 2};
  snap.public_objects = {Object(5, 1.0, 1.0, 2, "poi")};
  snap.private_regions = {{0xabcdef, Rect(10, 10, 15, 15)}};
  storage::SnapshotCq cq;
  cq.id = 55;
  cq.kind = 0;
  cq.issuer = 1001;
  cq.radius = 2.0;
  cq.k = 1;
  cq.category = 2;
  cq.window = Rect(0, 0, 0, 0);
  snap.cqs = {cq};
  const std::string blob = storage::EncodeShardSnapshot(snap);
  ExpectGolden("shard_snapshot", blob);
  auto decoded = storage::DecodeShardSnapshot(ReadHexFixture("shard_snapshot"));
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(storage::EncodeShardSnapshot(decoded.value()), blob);
}

TEST(GoldenBytesTest, CheckpointFile) {
  const std::string dir = TempDir("checkpoint");
  {
    auto engine = storage::ShardDurability::Open(
                      dir, storage::DurabilityMode::kFsync,
                      storage::DurabilityObs{})
                      .value();
    storage::WalRecord r;
    r.type = storage::WalRecordType::kUnregisterUser;
    r.user = 1;
    ASSERT_TRUE(engine->LogAndCommit(r).ok());
    ASSERT_TRUE(engine->LogAndCommit(r).ok());
    ASSERT_TRUE(engine->WriteCheckpoint("snapshot-bytes").ok());
  }
  ExpectGolden("checkpoint_file", ReadFile(dir + "/checkpoint.db"));
}

// --- Index files ------------------------------------------------------------

std::string GoldenTreeBlob() {
  std::vector<PointEntry> entries = {{3, Point(1.0, 1.0)},
                                     {1, Point(4.0, 2.0)},
                                     {2, Point(2.5, 7.0)},
                                     {5, Point(-1.0, 3.0)},
                                     {4, Point(9.0, 9.0)}};
  return StaticRTree::Build(std::move(entries)).value().SerializeBlob();
}

TEST(GoldenBytesTest, StaticRTreeBlob) {
  ExpectGolden("static_rtree", GoldenTreeBlob());
  EXPECT_TRUE(StaticRTree::FromBlob(ReadHexFixture("static_rtree")).ok());
}

TEST(GoldenBytesTest, IndexSidecarHeader) {
  const std::string path = TempDir("sidecar") + "/static_index.blob";
  const std::string tree = GoldenTreeBlob();
  ASSERT_TRUE(storage::WriteIndexBlobFile(path, {{3, tree}, {4, ""}}).ok());
  const std::string file = ReadFile(path);
  // The header and one directory entry; the rest of block 0 is padding
  // and the tree blob sits at the next 4096-byte boundary.
  constexpr size_t kPrefix = 24 + 24;
  ASSERT_EQ(file.size(), 8192u);
  ExpectGolden("index_sidecar_header", file.substr(0, kPrefix));
  EXPECT_EQ(file.substr(kPrefix, 4096 - kPrefix),
            std::string(4096 - kPrefix, '\0'));
  EXPECT_EQ(file.substr(4096, tree.size()), tree);
  EXPECT_EQ(file.substr(4096 + tree.size()),
            std::string(4096 - tree.size(), '\0'));
}

}  // namespace
}  // namespace cloakdb
