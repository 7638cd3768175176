// WAL corruption battery: every way a crash or bit-rot can mangle the log
// — torn tails, truncation, flipped CRC bytes, duplicated segments, absurd
// length fields — must shorten the recovered prefix, surface a
// truncated-records count, and never crash or mis-apply a record. A
// damaged checkpoint.db instead fails Open closed: it is the source of
// truth, so recovery must never silently fall back to the WAL alone.

#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "storage/shard_durability.h"
#include "storage/wal.h"
#include "storage/wal_record.h"
#include "util/byte_codec.h"
#include "util/random.h"

namespace cloakdb {
namespace storage {
namespace {

std::string TempDir(const std::string& tag) {
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("cloakdb_wal_" + tag + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// A payload the frame layer accepts: u64 LSN + an arbitrary body.
std::string Payload(uint64_t lsn, const std::string& body) {
  std::string out;
  util::ByteWriter w(&out);
  w.U64(lsn);
  w.Bytes(body);
  return out;
}

/// Writes a fresh WAL holding `payloads` and returns its path.
std::string MakeWal(const std::string& dir,
                    const std::vector<std::string>& payloads) {
  const std::string path = dir + "/wal.log";
  auto wal = WalAppender::Open(path, 0).value();
  for (const auto& p : payloads) wal->Append(p);
  EXPECT_TRUE(wal->Commit(/*sync=*/true).ok());
  return path;
}

std::vector<std::string> SequentialPayloads(size_t n) {
  std::vector<std::string> payloads;
  for (size_t i = 0; i < n; ++i) {
    payloads.push_back(
        Payload(i + 1, "record body " + std::to_string(i + 1)));
  }
  return payloads;
}

std::string ReadFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& data) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(data.data(), static_cast<std::streamsize>(data.size()));
}

TEST(WalScanTest, MissingFileIsEmptyNotError) {
  auto scan = ScanWal(TempDir("missing") + "/wal.log").value();
  EXPECT_FALSE(scan.exists);
  EXPECT_TRUE(scan.payloads.empty());
  EXPECT_EQ(scan.truncated_records, 0u);
}

TEST(WalScanTest, CleanLogRoundTrips) {
  const auto payloads = SequentialPayloads(5);
  auto scan = ScanWal(MakeWal(TempDir("clean"), payloads)).value();
  ASSERT_EQ(scan.payloads.size(), 5u);
  EXPECT_EQ(scan.payloads, payloads);
  EXPECT_EQ(scan.first_lsn, 1u);
  EXPECT_EQ(scan.last_lsn, 5u);
  EXPECT_EQ(scan.truncated_records, 0u);
}

TEST(WalScanTest, TornTailIsDroppedAndCounted) {
  const std::string dir = TempDir("torn");
  const auto payloads = SequentialPayloads(3);
  const std::string path = MakeWal(dir, payloads);
  {
    auto wal = WalAppender::Open(path, ScanWal(path).value().valid_bytes)
                   .value();
    wal->AppendTorn(Payload(4, "never finished"), 7);  // half a frame
    ASSERT_TRUE(wal->Commit(/*sync=*/true).ok());
  }
  auto scan = ScanWal(path).value();
  ASSERT_EQ(scan.payloads.size(), 3u);
  EXPECT_EQ(scan.last_lsn, 3u);
  EXPECT_EQ(scan.truncated_records, 1u);
  // Reopening the appender at valid_bytes physically removes the tail.
  { auto wal = WalAppender::Open(path, scan.valid_bytes).value(); }
  EXPECT_EQ(std::filesystem::file_size(path), scan.valid_bytes);
}

TEST(WalScanTest, TruncationMidRecordRecoversPrefix) {
  const std::string dir = TempDir("trunc");
  const auto payloads = SequentialPayloads(4);
  const std::string path = MakeWal(dir, payloads);
  auto full = ScanWal(path).value();
  // Chop the file 3 bytes into the last record's frame.
  const uint64_t cut = full.record_ends[2] + 3;
  std::filesystem::resize_file(path, cut);
  auto scan = ScanWal(path).value();
  ASSERT_EQ(scan.payloads.size(), 3u);
  EXPECT_EQ(scan.payloads[2], payloads[2]);
  EXPECT_EQ(scan.truncated_records, 1u);
}

TEST(WalScanTest, FlippedCrcByteEndsThePrefixThere) {
  const std::string dir = TempDir("crcflip");
  const auto payloads = SequentialPayloads(5);
  const std::string path = MakeWal(dir, payloads);
  auto full = ScanWal(path).value();
  // Corrupt one payload byte inside record 3: records 1-2 survive,
  // everything from record 3 on is dropped — a mid-log flip must not let
  // later (individually valid) records reorder history.
  std::string raw = ReadFile(path);
  raw[full.record_ends[1] + 12] ^= 0x01;
  WriteFile(path, raw);
  auto scan = ScanWal(path).value();
  ASSERT_EQ(scan.payloads.size(), 2u);
  EXPECT_EQ(scan.last_lsn, 2u);
  EXPECT_GE(scan.truncated_records, 1u);
}

TEST(WalScanTest, DuplicatedSegmentIsRejectedByLsnSequence) {
  const std::string dir = TempDir("dup");
  const auto payloads = SequentialPayloads(4);
  const std::string path = MakeWal(dir, payloads);
  auto full = ScanWal(path).value();
  // Replay frames 2-3 after the end (a misdirected-write / double-flush
  // artifact). Their CRCs are perfectly valid — only the LSN sequence
  // check can reject them.
  std::string raw = ReadFile(path);
  raw += raw.substr(full.record_ends[0],
                    full.record_ends[2] - full.record_ends[0]);
  WriteFile(path, raw);
  auto scan = ScanWal(path).value();
  ASSERT_EQ(scan.payloads.size(), 4u);
  EXPECT_EQ(scan.last_lsn, 4u);
  EXPECT_GE(scan.truncated_records, 1u);
}

TEST(WalScanTest, AbsurdLengthFieldDoesNotAllocate) {
  const std::string dir = TempDir("hugelen");
  const std::string path = MakeWal(dir, SequentialPayloads(2));
  std::string raw = ReadFile(path);
  // Append a frame whose length field claims ~4 GiB.
  raw += std::string("\xff\xff\xff\xff", 4) + std::string(12, 'x');
  WriteFile(path, raw);
  auto scan = ScanWal(path).value();
  ASSERT_EQ(scan.payloads.size(), 2u);
  EXPECT_EQ(scan.truncated_records, 1u);
}

TEST(WalScanTest, BadFileHeaderFails) {
  const std::string dir = TempDir("badheader");
  const std::string path = dir + "/wal.log";
  WriteFile(path,
            std::string("NOPE\x01\x00\x00\x00 and some garbage", 24));
  EXPECT_FALSE(ScanWal(path).ok());
}

// --- Engine-level recovery ------------------------------------------------

WalRecord UnregisterRecord(uint64_t user) {
  WalRecord rec;
  rec.type = WalRecordType::kUnregisterUser;
  rec.user = user;
  return rec;
}

std::unique_ptr<ShardDurability> OpenEngine(const std::string& dir) {
  auto engine =
      ShardDurability::Open(dir, DurabilityMode::kFsync, DurabilityObs{});
  EXPECT_TRUE(engine.ok()) << engine.status().message();
  return std::move(engine).value();
}

TEST(ShardDurabilityTest, RecoveryStopsAtFirstInvalidRecord) {
  const std::string dir = TempDir("engine_stop");
  {
    auto engine = OpenEngine(dir);
    for (uint64_t u = 1; u <= 5; ++u) {
      ASSERT_TRUE(engine->LogAndCommit(UnregisterRecord(u)).ok());
    }
  }
  // Flip a byte in record 4's body: recovery must surface records 1-3,
  // count 4-5 as truncated, and reopen writable at the shortened prefix.
  const std::string wal_path = dir + "/wal.log";
  auto full = ScanWal(wal_path).value();
  std::string raw = ReadFile(wal_path);
  raw[full.record_ends[2] + 12] ^= 0x40;
  WriteFile(wal_path, raw);

  auto engine = OpenEngine(dir);
  ASSERT_EQ(engine->recovered().records.size(), 3u);
  EXPECT_EQ(engine->recovered().records.back().user, 3u);
  EXPECT_GE(engine->recovered().truncated_records, 1u);
  EXPECT_EQ(engine->last_lsn(), 3u);
  // The log keeps working: the next record continues the LSN sequence.
  ASSERT_TRUE(engine->LogAndCommit(UnregisterRecord(99)).ok());
  auto scan = ScanWal(wal_path).value();
  EXPECT_EQ(scan.last_lsn, 4u);
  EXPECT_EQ(scan.truncated_records, 0u);
}

TEST(ShardDurabilityTest, FrameValidButUndecodablePayloadIsTruncated) {
  const std::string dir = TempDir("engine_undecodable");
  {
    auto engine = OpenEngine(dir);
    ASSERT_TRUE(engine->LogAndCommit(UnregisterRecord(1)).ok());
    ASSERT_TRUE(engine->LogAndCommit(UnregisterRecord(2)).ok());
  }
  // Append a frame whose CRC and LSN are fine but whose body is not a
  // decodable record (unknown type byte): the decode layer must truncate
  // back to the last record it accepted.
  {
    const std::string wal_path = dir + "/wal.log";
    auto scan = ScanWal(wal_path).value();
    auto wal = WalAppender::Open(wal_path, scan.valid_bytes).value();
    std::string payload;
    util::ByteWriter w(&payload);
    w.U64(3);    // next LSN in sequence
    w.U8(200);   // no such record type
    w.U64(777);
    wal->Append(payload);
    ASSERT_TRUE(wal->Commit(/*sync=*/true).ok());
  }
  auto engine = OpenEngine(dir);
  ASSERT_EQ(engine->recovered().records.size(), 2u);
  EXPECT_EQ(engine->recovered().truncated_records, 1u);
  EXPECT_EQ(engine->last_lsn(), 2u);
  // The poisoned frame was physically dropped at reopen.
  EXPECT_EQ(ScanWal(dir + "/wal.log").value().payloads.size(), 2u);
}

// --- Checkpoint file --------------------------------------------------------

/// Magic, version, LSN, payload length and CRC precede the payload.
constexpr uint64_t kCheckpointHeaderBytes = 32;

/// Open without asserting success, for the fail-closed cases.
Result<std::unique_ptr<ShardDurability>> TryOpenEngine(
    const std::string& dir) {
  return ShardDurability::Open(dir, DurabilityMode::kFsync, DurabilityObs{});
}

/// Logs two records, checkpoints `blob` over them, and closes the engine.
void WriteOneCheckpoint(const std::string& dir, const std::string& blob) {
  auto engine = OpenEngine(dir);
  ASSERT_TRUE(engine->LogAndCommit(UnregisterRecord(1)).ok());
  ASSERT_TRUE(engine->LogAndCommit(UnregisterRecord(2)).ok());
  ASSERT_TRUE(engine->WriteCheckpoint(blob).ok());
}

TEST(ShardDurabilityTest, CheckpointRoundTripsThroughReopen) {
  const std::string dir = TempDir("ckpt_roundtrip");
  const std::string blob(10000, 'a');
  WriteOneCheckpoint(dir, blob);
  auto engine = OpenEngine(dir);
  EXPECT_TRUE(engine->recovered().had_checkpoint);
  EXPECT_EQ(engine->recovered().checkpoint_blob, blob);
  EXPECT_EQ(engine->recovered().checkpoint_lsn, 2u);
  EXPECT_TRUE(engine->recovered().records.empty());
  EXPECT_EQ(engine->last_lsn(), 2u);
}

TEST(ShardDurabilityTest, EmptyAndBinaryBlobsSurviveReopen) {
  std::string binary;
  for (size_t i = 0; i < 3 * 4096 + 17; ++i) {
    binary.push_back(static_cast<char>(i * 7 % 256));  // every byte value
  }
  for (const std::string& blob : {std::string(), binary}) {
    const std::string dir = TempDir("ckpt_blob_" + std::to_string(blob.size()));
    WriteOneCheckpoint(dir, blob);
    auto engine = OpenEngine(dir);
    EXPECT_TRUE(engine->recovered().had_checkpoint);
    EXPECT_EQ(engine->recovered().checkpoint_blob, blob);
    EXPECT_EQ(engine->recovered().checkpoint_lsn, 2u);
  }
}

TEST(ShardDurabilityTest, FlippedPayloadByteFailsClosed) {
  const std::string dir = TempDir("ckpt_flip");
  WriteOneCheckpoint(dir, std::string(5000, 'b'));
  const std::string path = dir + "/checkpoint.db";
  std::string raw = ReadFile(path);
  raw[kCheckpointHeaderBytes + 4321] ^= 0x10;
  WriteFile(path, raw);
  auto engine = TryOpenEngine(dir);
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ShardDurabilityTest, TruncatedCheckpointFailsClosed) {
  const std::string dir = TempDir("ckpt_truncated");
  WriteOneCheckpoint(dir, std::string(5000, 'c'));
  const std::string path = dir + "/checkpoint.db";
  const std::string raw = ReadFile(path);
  // Cut inside the payload, inside the header, and to nothing at all.
  for (size_t keep : {raw.size() - 1, size_t{20}, size_t{0}}) {
    WriteFile(path, raw.substr(0, keep));
    auto engine = TryOpenEngine(dir);
    ASSERT_FALSE(engine.ok()) << "kept " << keep << " bytes";
    EXPECT_EQ(engine.status().code(), StatusCode::kFailedPrecondition);
  }
}

TEST(ShardDurabilityTest, ForeignMagicFailsClosed) {
  const std::string dir = TempDir("ckpt_magic");
  WriteOneCheckpoint(dir, std::string(100, 'd'));
  const std::string path = dir + "/checkpoint.db";
  std::string raw = ReadFile(path);
  raw.replace(0, 8, "CDBPAGE1");
  WriteFile(path, raw);
  auto engine = TryOpenEngine(dir);
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ShardDurabilityTest, LeftoverTempFileIsIgnored) {
  const std::string dir = TempDir("ckpt_leftover");
  const std::string blob(3000, 'e');
  WriteOneCheckpoint(dir, blob);
  {
    auto engine = OpenEngine(dir);
    ASSERT_TRUE(engine->LogAndCommit(UnregisterRecord(3)).ok());
  }
  // A checkpoint that died mid-write leaves a partial temp file behind.
  WriteFile(dir + "/checkpoint.db.tmp", "CDBCKPT1 and then nothing");
  auto engine = OpenEngine(dir);
  EXPECT_EQ(engine->recovered().checkpoint_blob, blob);
  EXPECT_EQ(engine->recovered().checkpoint_lsn, 2u);
  ASSERT_EQ(engine->recovered().records.size(), 1u);
  EXPECT_EQ(engine->recovered().records[0].user, 3u);
  // The next checkpoint simply writes over the stray file.
  ASSERT_TRUE(engine->WriteCheckpoint(std::string(10, 'f')).ok());
  EXPECT_FALSE(std::filesystem::exists(dir + "/checkpoint.db.tmp"));
}

TEST(ShardDurabilityTest, CrashMidCheckpointKeepsPreviousCheckpoint) {
  const std::string dir = TempDir("ckpt_crash_mid");
  const std::string first(2000, 'j');
  WriteOneCheckpoint(dir, first);
  {
    auto engine = ShardDurability::Open(dir, DurabilityMode::kFsync,
                                        DurabilityObs{},
                                        [](CrashPoint point) {
                                          return point ==
                                                 CrashPoint::kCheckpointMid;
                                        })
                      .value();
    ASSERT_TRUE(engine->LogAndCommit(UnregisterRecord(3)).ok());
    ASSERT_TRUE(engine->WriteCheckpoint(std::string(4000, 'k')).ok());
    EXPECT_TRUE(engine->crashed());
  }
  // The new checkpoint reached only the temp file: reopen reads the
  // previous checkpoint and replays the WAL record it does not cover.
  EXPECT_TRUE(std::filesystem::exists(dir + "/checkpoint.db.tmp"));
  auto engine = OpenEngine(dir);
  EXPECT_EQ(engine->recovered().checkpoint_blob, first);
  EXPECT_EQ(engine->recovered().checkpoint_lsn, 2u);
  ASSERT_EQ(engine->recovered().records.size(), 1u);
  EXPECT_EQ(engine->recovered().records[0].user, 3u);
  EXPECT_EQ(engine->last_lsn(), 3u);
}

TEST(ShardDurabilityTest, RepeatedCheckpointsDoNotGrowTheFile) {
  const std::string dir = TempDir("ckpt_nogrowth");
  auto engine = OpenEngine(dir);
  const std::string last(700, 'i');
  for (const std::string& blob :
       {std::string(20000, 'g'), std::string(9000, 'h'), last}) {
    ASSERT_TRUE(engine->LogAndCommit(UnregisterRecord(1)).ok());
    ASSERT_TRUE(engine->WriteCheckpoint(blob).ok());
  }
  EXPECT_EQ(std::filesystem::file_size(dir + "/checkpoint.db"),
            last.size() + kCheckpointHeaderBytes);
  engine.reset();
  auto reopened = OpenEngine(dir);
  EXPECT_EQ(reopened->recovered().checkpoint_blob, last);
  EXPECT_EQ(reopened->recovered().checkpoint_lsn, 3u);
}

// --- Fuzz ----------------------------------------------------------------

WalRecord RandomRecord(Rng* rng) {
  WalRecord rec;
  switch (rng->UniformInt(0, 3)) {
    case 0:
      rec.type = WalRecordType::kRegisterUser;
      rec.user = static_cast<uint64_t>(rng->UniformInt(1, 1000));
      {
        ProfileEntry entry;
        entry.interval = DailyInterval(TimeOfDay::FromSeconds(0),
                                       TimeOfDay::FromSeconds(86399));
        entry.requirement = {static_cast<uint32_t>(rng->UniformInt(1, 16)),
                             0.0,
                             std::numeric_limits<double>::infinity()};
        rec.profile.push_back(entry);
      }
      break;
    case 1: {
      rec.type = WalRecordType::kUpdateBatch;
      const int n = static_cast<int>(rng->UniformInt(0, 8));
      for (int i = 0; i < n; ++i) {
        rec.updates.push_back(
            {static_cast<uint64_t>(rng->UniformInt(1, 1000)),
             Point(rng->Uniform(0.0, 100.0), rng->Uniform(0.0, 100.0)),
             static_cast<int32_t>(rng->UniformInt(0, 86399))});
      }
      break;
    }
    case 2:
      rec.type = WalRecordType::kCqRegister;
      rec.cq_id = static_cast<uint64_t>(rng->UniformInt(1, 100));
      rec.cq_kind = static_cast<uint8_t>(rng->UniformInt(0, 4));
      rec.cq_issuer = static_cast<uint64_t>(rng->UniformInt(1, 1000));
      rec.cq_radius = rng->Uniform(0.0, 10.0);
      rec.cq_window = Rect(1, 1, 2, 2);
      break;
    default:
      rec.type = WalRecordType::kUnregisterUser;
      rec.user = static_cast<uint64_t>(rng->UniformInt(1, 1000));
      break;
  }
  return rec;
}

TEST(WalFuzzTest, RecordCodecRoundTrips) {
  Rng rng(2006);
  for (int i = 0; i < 500; ++i) {
    WalRecord rec = RandomRecord(&rng);
    rec.lsn = static_cast<uint64_t>(i + 1);
    auto decoded = DecodeWalRecord(EncodeWalRecord(rec));
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    EXPECT_EQ(decoded.value().type, rec.type);
    EXPECT_EQ(decoded.value().lsn, rec.lsn);
    EXPECT_EQ(decoded.value().user, rec.user);
    EXPECT_EQ(decoded.value().updates.size(), rec.updates.size());
    EXPECT_EQ(decoded.value().cq_id, rec.cq_id);
  }
}

}  // namespace
}  // namespace storage
}  // namespace cloakdb
