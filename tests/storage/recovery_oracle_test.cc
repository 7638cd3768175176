// Crash-recovery oracle: at every simulated crash point the reopened
// service must be bit-identical to an uninterrupted twin that executed
// exactly the durable prefix of the operation stream — and must stay
// bit-identical while both continue with the remaining operations.
//
// The setup makes "durable prefix" exactly computable: one shard, one
// worker, the grid cloaker (whose regions depend only on applied state,
// not insertion order), and one WAL record per operation (location updates
// are enqueued one at a time with a Flush between, so every drained batch
// has width one). Arming a crash at the k-th WAL append then yields a
// durable prefix of k-1 (pre-append, torn tail) or k (post-append
// pre-fsync: in-process simulation keeps the page-cache copy — process
// crash semantics, see ShardDurability's header).

#include <sys/resource.h>
#include <unistd.h>

#include <csignal>

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "service/cloak_db_service.h"
#include "storage/shard_durability.h"

namespace cloakdb {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr Category kCat = 7;

TimeOfDay Noon() { return TimeOfDay::FromHms(12, 0).value(); }

std::string TempDataDir(const std::string& tag) {
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("cloakdb_oracle_" + tag + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  return dir.string();
}

CloakDbServiceOptions BaseOptions() {
  CloakDbServiceOptions options;
  options.space = Rect(0, 0, 100, 100);
  options.num_shards = 1;
  options.worker_threads = 1;
  options.anonymizer.algorithm = CloakingKind::kGrid;
  options.checkpoint_interval = 0;  // only explicit Checkpoint() calls
  return options;
}

std::unique_ptr<CloakDbService> MakeDurable(const std::string& data_dir,
                                            storage::CrashPoint crash_point,
                                            uint64_t crash_at) {
  auto options = BaseOptions();
  options.durability_mode = storage::DurabilityMode::kFsync;
  options.data_dir = data_dir;
  if (crash_point != storage::CrashPoint::kNone) {
    options.fault_injection.enabled = true;
    options.fault_injection.crash_point = crash_point;
    options.fault_injection.crash_at = crash_at;
  }
  auto service = CloakDbService::Create(options);
  EXPECT_TRUE(service.ok()) << service.status().message();
  return std::move(service).value();
}

std::unique_ptr<CloakDbService> MakeTwin() {
  auto service = CloakDbService::Create(BaseOptions());
  EXPECT_TRUE(service.ok());
  return std::move(service).value();
}

// --- The operation stream -------------------------------------------------

struct Op {
  enum Kind {
    kRegister,
    kUpdate,
    kProfile,
    kAddObject,
    kCqRegister,
  } kind = kUpdate;
  UserId user = 0;
  Point location;
  uint32_t k = 2;
  PublicObject object;
};

PrivacyProfile KProfile(uint32_t k) {
  return PrivacyProfile::Uniform({k, 0.0, kInf}).value();
}

/// Every op appends exactly one WAL record (registers, profile changes,
/// object adds, standing registrations, and width-one update batches).
std::vector<Op> OperationStream() {
  std::vector<Op> ops;
  for (UserId u = 1; u <= 6; ++u) {
    Op op;
    op.kind = Op::kRegister;
    op.user = u;
    ops.push_back(op);
  }
  for (UserId u = 1; u <= 6; ++u) {
    Op op;
    op.kind = Op::kUpdate;
    op.user = u;
    op.location = Point(10.0 + 13.0 * static_cast<double>(u),
                        8.0 + 11.0 * static_cast<double>(u));
    ops.push_back(op);
  }
  {
    Op op;
    op.kind = Op::kProfile;
    op.user = 1;
    op.k = 3;
    ops.push_back(op);
  }
  for (int i = 0; i < 2; ++i) {
    Op op;
    op.kind = Op::kAddObject;
    op.object.id = 9000 + static_cast<ObjectId>(i);
    op.object.category = kCat;
    op.object.location = Point(20.0 + 30.0 * i, 40.0 + 10.0 * i);
    op.object.name = "poi" + std::to_string(i);
    ops.push_back(op);
  }
  {
    Op op;
    op.kind = Op::kCqRegister;
    op.user = 2;
    ops.push_back(op);
  }
  for (UserId u = 1; u <= 6; ++u) {
    Op op;
    op.kind = Op::kUpdate;
    op.user = u;
    op.location = Point(90.0 - 9.0 * static_cast<double>(u),
                        5.0 + 14.0 * static_cast<double>(u));
    ops.push_back(op);
  }
  return ops;
}

void ApplyOp(CloakDbService* db, const Op& op) {
  switch (op.kind) {
    case Op::kRegister:
      (void)db->RegisterUser(op.user, KProfile(op.k));
      break;
    case Op::kUpdate:
      (void)db->EnqueueUpdate(op.user, op.location, Noon());
      (void)db->Flush();
      break;
    case Op::kProfile:
      (void)db->UpdateProfile(op.user, KProfile(op.k));
      break;
    case Op::kAddObject:
      (void)db->AddPublicObject(op.object);
      break;
    case Op::kCqRegister:
      (void)db->RegisterContinuousRange(op.user, 15.0, kCat);
      break;
  }
}

void ApplyRange(CloakDbService* db, const std::vector<Op>& ops, size_t from,
                size_t to) {
  for (size_t i = from; i < to; ++i) ApplyOp(db, ops[i]);
  ASSERT_TRUE(db->Flush().ok());
}

// --- The oracle comparison ------------------------------------------------

/// Full observable state: exact pseudonyms, exact region doubles, exact
/// query answers, exact standing-query count. EXPECT_EQ on doubles is the
/// point — recovery must reproduce the state bit for bit.
void ExpectBitIdentical(CloakDbService* recovered, CloakDbService* twin) {
  ASSERT_TRUE(recovered->Flush().ok());
  ASSERT_TRUE(twin->Flush().ok());
  for (UserId u = 1; u <= 8; ++u) {
    auto p_r = recovered->PseudonymOf(u);
    auto p_t = twin->PseudonymOf(u);
    ASSERT_EQ(p_r.ok(), p_t.ok()) << "user " << u;
    if (!p_r.ok()) continue;
    EXPECT_EQ(p_r.value(), p_t.value()) << "pseudonym of user " << u;
    auto r_r = recovered->shard(0).CurrentRegionOfUser(u);
    auto r_t = twin->shard(0).CurrentRegionOfUser(u);
    ASSERT_EQ(r_r.ok(), r_t.ok()) << "region of user " << u;
    if (r_r.ok()) {
      EXPECT_EQ(r_r.value(), r_t.value()) << "user " << u;
    }
  }
  EXPECT_EQ(recovered->Stats().num_users, twin->Stats().num_users);
  EXPECT_EQ(recovered->NumContinuousQueries(),
            twin->NumContinuousQueries());

  // Query battery over the public data both sides hold.
  const Rect probe(15, 15, 85, 85);
  auto range_r = recovered->PrivateRange(probe, 25.0, kCat);
  auto range_t = twin->PrivateRange(probe, 25.0, kCat);
  ASSERT_EQ(range_r.ok(), range_t.ok());
  if (range_r.ok()) {
    auto ids = [](const PrivateRangeResult& res) {
      std::vector<ObjectId> out;
      for (const auto& c : res.candidates) out.push_back(c.id);
      std::sort(out.begin(), out.end());
      return out;
    };
    EXPECT_EQ(ids(range_r.value()), ids(range_t.value()));
  }
}

// --- Crash-point scenarios ------------------------------------------------

struct CrashCase {
  storage::CrashPoint point;
  uint64_t crash_at;      // which WAL append dies
  uint64_t durable_ops;   // expected durable prefix length M
  const char* name;
};

class RecoveryOracleTest : public ::testing::TestWithParam<CrashCase> {};

TEST_P(RecoveryOracleTest, CrashRecoverMatchesUninterruptedTwin) {
  const CrashCase& c = GetParam();
  const auto ops = OperationStream();
  ASSERT_LT(c.durable_ops, ops.size());
  const std::string data_dir = TempDataDir(c.name);

  // Doomed run: the crash fires mid-stream; the in-memory service keeps
  // running (the modelled process is dying, not stopping cleanly) and its
  // post-crash state is discarded with it.
  {
    auto doomed = MakeDurable(data_dir, c.point, c.crash_at);
    ApplyRange(doomed.get(), ops, 0, ops.size());
    ASSERT_TRUE(doomed->fault_injector()->crash_fired())
        << "crash point never reached";
  }

  // Twin: uninterrupted, in-memory, fed exactly the durable prefix.
  auto twin = MakeTwin();
  ApplyRange(twin.get(), ops, 0, c.durable_ops);

  // Reopen from disk and compare.
  auto recovered =
      MakeDurable(data_dir, storage::CrashPoint::kNone, 0);
  EXPECT_TRUE(recovered->recovery_info().performed);
  EXPECT_EQ(recovered->recovery_info().replayed_records, c.durable_ops);
  if (c.point == storage::CrashPoint::kWalTornTail) {
    EXPECT_GE(recovered->recovery_info().truncated_records, 1u);
  }
  ExpectBitIdentical(recovered.get(), twin.get());

  // Both continue with the rest of the stream and must stay identical.
  ApplyRange(recovered.get(), ops, c.durable_ops, ops.size());
  ApplyRange(twin.get(), ops, c.durable_ops, ops.size());
  ExpectBitIdentical(recovered.get(), twin.get());
}

INSTANTIATE_TEST_SUITE_P(
    AllCrashPoints, RecoveryOracleTest,
    ::testing::Values(
        // Record k never reaches the log: durable prefix k-1.
        CrashCase{storage::CrashPoint::kWalPreAppend, 4, 3, "pre_append"},
        CrashCase{storage::CrashPoint::kWalPreAppend, 15, 14,
                  "pre_append_late"},
        // Half a frame reaches the disk: scanner truncates, prefix k-1.
        CrashCase{storage::CrashPoint::kWalTornTail, 9, 8, "torn_tail"},
        CrashCase{storage::CrashPoint::kWalTornTail, 16, 15,
                  "torn_tail_cq"},
        // Written, not fsynced: in-process simulation keeps the record
        // (process-crash semantics), prefix k.
        CrashCase{storage::CrashPoint::kWalPreFsync, 7, 7, "pre_fsync"}),
    [](const ::testing::TestParamInfo<CrashCase>& info) {
      return info.param.name;
    });

// Checkpoint crash points need an explicit Checkpoint() call mid-stream;
// the durable prefix is all ops before the call in both cases.
TEST(RecoveryOracleCheckpointTest, CrashMidCheckpointKeepsOldStateAndWal) {
  const auto ops = OperationStream();
  const size_t before_checkpoint = 13;
  const std::string data_dir = TempDataDir("ckpt_mid");
  {
    auto doomed =
        MakeDurable(data_dir, storage::CrashPoint::kCheckpointMid, 1);
    ApplyRange(doomed.get(), ops, 0, before_checkpoint);
    // Crashes inside: temp file fsynced, never renamed.
    ASSERT_TRUE(doomed->Checkpoint().ok());
    ASSERT_TRUE(doomed->fault_injector()->crash_fired());
  }
  auto twin = MakeTwin();
  ApplyRange(twin.get(), ops, 0, before_checkpoint);
  auto recovered = MakeDurable(data_dir, storage::CrashPoint::kNone, 0);
  // No checkpoint committed: everything came back via WAL replay.
  EXPECT_EQ(recovered->recovery_info().checkpoints_loaded, 0u);
  EXPECT_EQ(recovered->recovery_info().replayed_records,
            before_checkpoint);
  ExpectBitIdentical(recovered.get(), twin.get());
  ApplyRange(recovered.get(), ops, before_checkpoint, ops.size());
  ApplyRange(twin.get(), ops, before_checkpoint, ops.size());
  ExpectBitIdentical(recovered.get(), twin.get());
}

TEST(RecoveryOracleCheckpointTest, CrashBeforeWalTruncateSkipsStaleRecords) {
  const auto ops = OperationStream();
  const size_t before_checkpoint = 13;
  const std::string data_dir = TempDataDir("ckpt_pretrunc");
  {
    auto doomed = MakeDurable(
        data_dir, storage::CrashPoint::kCheckpointPreTruncate, 1);
    ApplyRange(doomed.get(), ops, 0, before_checkpoint);
    // Crashes after the rename: checkpoint committed, stale WAL
    // records left behind for replay to skip by LSN.
    ASSERT_TRUE(doomed->Checkpoint().ok());
    ASSERT_TRUE(doomed->fault_injector()->crash_fired());
  }
  auto twin = MakeTwin();
  ApplyRange(twin.get(), ops, 0, before_checkpoint);
  auto recovered = MakeDurable(data_dir, storage::CrashPoint::kNone, 0);
  EXPECT_EQ(recovered->recovery_info().checkpoints_loaded, 1u);
  EXPECT_EQ(recovered->recovery_info().replayed_records, 0u);
  EXPECT_EQ(recovered->recovery_info().skipped_records, before_checkpoint);
  ExpectBitIdentical(recovered.get(), twin.get());
  ApplyRange(recovered.get(), ops, before_checkpoint, ops.size());
  ApplyRange(twin.get(), ops, before_checkpoint, ops.size());
  ExpectBitIdentical(recovered.get(), twin.get());
}

// Clean shutdown + checkpoint mid-stream: replay starts from the snapshot
// and re-applies only the post-checkpoint suffix.
TEST(RecoveryOracleCheckpointTest, CheckpointPlusWalSuffixRecoversAll) {
  const auto ops = OperationStream();
  const size_t checkpoint_after = 10;
  const std::string data_dir = TempDataDir("ckpt_suffix");
  {
    auto durable =
        MakeDurable(data_dir, storage::CrashPoint::kNone, 0);
    ApplyRange(durable.get(), ops, 0, checkpoint_after);
    ASSERT_TRUE(durable->Checkpoint().ok());
    ApplyRange(durable.get(), ops, checkpoint_after, ops.size());
  }
  auto twin = MakeTwin();
  ApplyRange(twin.get(), ops, 0, ops.size());
  auto recovered = MakeDurable(data_dir, storage::CrashPoint::kNone, 0);
  EXPECT_EQ(recovered->recovery_info().checkpoints_loaded, 1u);
  EXPECT_EQ(recovered->recovery_info().replayed_records,
            ops.size() - checkpoint_after);
  EXPECT_EQ(recovered->recovery_info().cq_reregistered, 1u);
  ExpectBitIdentical(recovered.get(), twin.get());
  // The recovered standing query answers like the twin's.
  auto ans_r = recovered->AnswerContinuous(1);
  auto ans_t = twin->AnswerContinuous(1);
  ASSERT_EQ(ans_r.ok(), ans_t.ok());
}

// The synchronous update path is write-ahead logged like a drained batch:
// an acknowledged UpdateLocation survives a clean close and reopen with
// its region reproduced bit for bit.
TEST(SyncUpdateDurabilityTest, AcknowledgedUpdateSurvivesReopen) {
  const std::string data_dir = TempDataDir("sync_update");
  auto twin = MakeTwin();
  Rect live_region;
  ObjectId live_pseudonym = 0;
  {
    auto durable = MakeDurable(data_dir, storage::CrashPoint::kNone, 0);
    for (CloakDbService* db : {durable.get(), twin.get()}) {
      for (UserId u = 1; u <= 20; ++u) {
        ASSERT_TRUE(db->RegisterUser(u, KProfile(3)).ok());
        ASSERT_TRUE(db->EnqueueUpdate(u, Point(3.0 * u, 2.5 * u), Noon()).ok());
        ASSERT_TRUE(db->Flush().ok());  // width-one batches, as above
      }
      ASSERT_TRUE(db->UpdateLocation(1, Point(90, 90), Noon()).ok());
      // Rejected calls still fail, and are not applied on replay either.
      EXPECT_EQ(db->UpdateLocation(999, Point(5, 5), Noon()).status().code(),
                StatusCode::kNotFound);
      EXPECT_EQ(db->UpdateLocation(2, Point(500, 5), Noon()).status().code(),
                StatusCode::kOutOfRange);
    }
    live_region = durable->shard(0).CurrentRegionOfUser(1).value();
    live_pseudonym = durable->PseudonymOf(1).value();
  }
  auto recovered = MakeDurable(data_dir, storage::CrashPoint::kNone, 0);
  EXPECT_EQ(recovered->shard(0).CurrentRegionOfUser(1).value(), live_region);
  EXPECT_EQ(recovered->PseudonymOf(1).value(), live_pseudonym);
  ExpectBitIdentical(recovered.get(), twin.get());
}

// A WAL write that fails mid-drain refuses its batch outright: the live
// server region stays put, the batch counts as rejected, and neither the
// failed frame nor its LSN resurfaces with the next successful commit, so
// the reopened service equals the live one bit for bit.
TEST(WalWriteFailureTest, FailedBatchIsNeitherAppliedNorReplayed) {
  const std::string data_dir = TempDataDir("wal_write_failure");
  auto twin = MakeTwin();
  std::vector<Rect> live_regions;
  std::vector<ObjectId> live_pseudonyms;
  {
    auto durable = MakeDurable(data_dir, storage::CrashPoint::kNone, 0);
    for (CloakDbService* db : {durable.get(), twin.get()}) {
      for (UserId u = 1; u <= 8; ++u) {
        ASSERT_TRUE(db->RegisterUser(u, KProfile(3)).ok());
        ASSERT_TRUE(db->EnqueueUpdate(u, Point(10.0 * u, 7.0 * u), Noon())
                        .ok());
        ASSERT_TRUE(db->Flush().ok());
      }
    }
    const Rect before = durable->shard(0).CurrentRegionOfUser(1).value();
    const obs::Counter* rejected =
        durable->metrics().counter("ingest.rejected_total");
    const uint64_t rejected_before = rejected->Value();

    // Cap this process's file size a few bytes past the WAL's end: the
    // next frame's write comes up short, the one after fails outright.
    const uintmax_t wal_bytes =
        std::filesystem::file_size(data_dir + "/shard-0/wal.log");
    rlimit saved{};
    ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
    const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
    rlimit capped = saved;
    capped.rlim_cur = static_cast<rlim_t>(wal_bytes + 4);
    ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &capped), 0);
    const Status enqueued = durable->EnqueueUpdate(1, Point(95, 95), Noon());
    const Status flushed = durable->Flush();
    ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &saved), 0);
    std::signal(SIGXFSZ, old_handler);
    ASSERT_TRUE(enqueued.ok());
    ASSERT_TRUE(flushed.ok()) << flushed.ToString();

    EXPECT_EQ(durable->shard(0).CurrentRegionOfUser(1).value(), before);
    EXPECT_EQ(rejected->Value(), rejected_before + 1);
    EXPECT_EQ(std::filesystem::file_size(data_dir + "/shard-0/wal.log"),
              wal_bytes);

    // The next batch commits normally, after the last durable record.
    for (CloakDbService* db : {durable.get(), twin.get()}) {
      ASSERT_TRUE(db->EnqueueUpdate(2, Point(60, 40), Noon()).ok());
      ASSERT_TRUE(db->Flush().ok());
    }
    for (UserId u = 1; u <= 8; ++u) {
      live_regions.push_back(durable->shard(0).CurrentRegionOfUser(u).value());
      live_pseudonyms.push_back(durable->PseudonymOf(u).value());
    }
  }
  auto recovered = MakeDurable(data_dir, storage::CrashPoint::kNone, 0);
  EXPECT_EQ(recovered->recovery_info().truncated_records, 0u);
  for (UserId u = 1; u <= 8; ++u) {
    EXPECT_EQ(recovered->shard(0).CurrentRegionOfUser(u).value(),
              live_regions[u - 1])
        << "user " << u;
    EXPECT_EQ(recovered->PseudonymOf(u).value(), live_pseudonyms[u - 1])
        << "user " << u;
  }
  ExpectBitIdentical(recovered.get(), twin.get());
}

}  // namespace
}  // namespace cloakdb
