#include "storage/shard_durability.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "util/atomic_file.h"
#include "util/byte_codec.h"
#include "util/mmap_file.h"

namespace cloakdb {
namespace storage {

namespace {

constexpr const char* kWalFile = "/wal.log";
constexpr const char* kCheckpointFile = "/checkpoint.db";

// checkpoint.db layout (little-endian):
//   0   char[8]  magic "CDBCKPT1"
//   8   u32      version (1)
//   12  u64      checkpoint LSN
//   20  u64      payload length
//   28  u32      CRC32 of bytes [12, 28) followed by the payload
//   32  payload  the encoded shard snapshot
constexpr char kCheckpointMagic[8] = {'C', 'D', 'B', 'C', 'K', 'P', 'T', '1'};
constexpr uint32_t kCheckpointVersion = 1;
constexpr size_t kCheckpointHeaderBytes = 32;

uint32_t CheckpointCrc(const char* header, std::string_view payload) {
  return util::Crc32Update(util::Crc32(header + 12, 16), payload.data(),
                           payload.size());
}

double MicrosSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

Status MkdirRecursive(const std::string& dir) {
  std::string path;
  size_t i = 0;
  while (i < dir.size()) {
    size_t next = dir.find('/', i + 1);
    if (next == std::string::npos) next = dir.size();
    path = dir.substr(0, next);
    i = next;
    if (path.empty() || path == "/" || path == ".") continue;
    if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::Internal("mkdir failed for " + path + ": " +
                              std::strerror(errno));
    }
  }
  return Status::OK();
}

}  // namespace

std::string EncodeCheckpointFile(uint64_t lsn, std::string_view blob) {
  std::string out;
  out.reserve(kCheckpointHeaderBytes + blob.size());
  util::ByteWriter w(&out);
  w.Bytes({kCheckpointMagic, sizeof(kCheckpointMagic)});
  w.U32(kCheckpointVersion);
  w.U64(lsn);
  w.U64(blob.size());
  w.U32(CheckpointCrc(out.data(), blob));
  w.Bytes(blob);
  return out;
}

Result<CheckpointFile> DecodeCheckpointFile(std::string_view bytes) {
  const std::string_view magic(kCheckpointMagic, sizeof(kCheckpointMagic));
  if (bytes.substr(0, magic.size()) != magic) {
    return Status::FailedPrecondition("not a checkpoint file (bad magic)");
  }
  util::ByteReader r(bytes.substr(magic.size()));
  const uint32_t version = r.U32();
  CheckpointFile out;
  out.lsn = r.U64();
  const uint64_t len = r.U64();
  const uint32_t crc = r.U32();
  if (!r.ok() || len != r.remaining()) {
    return Status::FailedPrecondition("checkpoint file truncated");
  }
  if (version != kCheckpointVersion) {
    return Status::FailedPrecondition("unsupported checkpoint version");
  }
  const std::string_view payload = bytes.substr(kCheckpointHeaderBytes);
  if (CheckpointCrc(bytes.data(), payload) != crc) {
    return Status::FailedPrecondition("checkpoint file checksum mismatch");
  }
  out.blob.assign(payload);
  return out;
}

const char* DurabilityModeName(DurabilityMode mode) {
  switch (mode) {
    case DurabilityMode::kOff:
      return "off";
    case DurabilityMode::kAsync:
      return "async";
    case DurabilityMode::kFsync:
      return "fsync";
  }
  return "unknown";
}

Result<DurabilityMode> DurabilityModeFromName(const std::string& name) {
  for (DurabilityMode mode : {DurabilityMode::kOff, DurabilityMode::kAsync,
                              DurabilityMode::kFsync}) {
    if (name == DurabilityModeName(mode)) return mode;
  }
  return Status::InvalidArgument("unknown durability mode: " + name);
}

ShardDurability::ShardDurability(std::string checkpoint_path,
                                 DurabilityMode mode, DurabilityObs obs,
                                 CrashHook hook)
    : mode_(mode),
      obs_(obs),
      crash_hook_(std::move(hook)),
      checkpoint_path_(std::move(checkpoint_path)) {}

Result<std::unique_ptr<ShardDurability>> ShardDurability::Open(
    const std::string& dir, DurabilityMode mode, const DurabilityObs& obs,
    CrashHook crash_hook) {
  if (mode == DurabilityMode::kOff) {
    return Status::InvalidArgument(
        "ShardDurability requires a durable mode (async or fsync)");
  }
  CLOAKDB_RETURN_IF_ERROR(MkdirRecursive(dir));
  auto engine = std::unique_ptr<ShardDurability>(new ShardDurability(
      dir + kCheckpointFile, mode, obs, std::move(crash_hook)));

  // Load the newest checkpoint, if one was ever committed. The rename is
  // the atomic commit point: checkpoint.db is either a complete checkpoint
  // or absent (a leftover checkpoint.db.tmp is never read).
  // A damaged checkpoint.db fails Open: it is the source of truth, so it
  // must stop recovery rather than be skipped.
  auto file = util::MmapFile::Open(engine->checkpoint_path_);
  if (file.ok()) {
    auto checkpoint = DecodeCheckpointFile(
        {reinterpret_cast<const char*>(file.value()->data()),
         file.value()->size()});
    if (!checkpoint.ok()) {
      return Status::FailedPrecondition(checkpoint.status().message() +
                                        ": " + engine->checkpoint_path_);
    }
    engine->recovered_.had_checkpoint = true;
    engine->recovered_.checkpoint_lsn = checkpoint.value().lsn;
    engine->recovered_.checkpoint_blob = std::move(checkpoint.value().blob);
    engine->checkpoint_lsn_ = checkpoint.value().lsn;
  } else if (file.status().code() != StatusCode::kNotFound) {
    return file.status();
  }

  // Scan the WAL tail. Frame-level validity (length, CRC, LSN sequence) is
  // the scanner's job; payload decode failures below additionally shorten
  // the accepted prefix — both end up as truncated_records.
  const std::string wal_path = dir + kWalFile;
  auto scan_result = ScanWal(wal_path);
  if (!scan_result.ok()) return scan_result.status();
  WalScan& scan = scan_result.value();
  engine->recovered_.truncated_records += scan.truncated_records;
  uint64_t accepted_bytes = scan.exists ? scan.valid_bytes : 0;
  engine->last_lsn_ = engine->checkpoint_lsn_;
  for (size_t i = 0; i < scan.payloads.size(); ++i) {
    auto record = DecodeWalRecord(scan.payloads[i]);
    if (!record.ok()) {
      // Frame was intact but the payload is garbage: stop here, drop the
      // rest, and truncate the file back to the last accepted record.
      engine->recovered_.truncated_records += scan.payloads.size() - i;
      accepted_bytes = (i == 0) ? kWalHeaderBytes : scan.record_ends[i - 1];
      break;
    }
    if (record.value().lsn <= engine->checkpoint_lsn_) {
      // Already covered by the checkpoint (crash between its rename and the
      // WAL truncate): skip, never double-apply.
      ++engine->recovered_.skipped_records;
      continue;
    }
    engine->last_lsn_ = record.value().lsn;
    engine->recovered_.records.push_back(std::move(record).value());
  }

  auto wal = WalAppender::Open(wal_path, accepted_bytes);
  if (!wal.ok()) return wal.status();
  engine->wal_ = std::move(wal).value();
  engine->records_since_checkpoint_ = engine->recovered_.records.size();
  return engine;
}

Status ShardDurability::LogAndCommit(WalRecord record, bool sync_now) {
  if (crashed_) return Status::OK();  // the modelled process is dead
  if (ShouldCrash(CrashPoint::kWalPreAppend)) {
    crashed_ = true;
    return Status::OK();
  }
  record.lsn = last_lsn_ + 1;
  const std::string payload = EncodeWalRecord(record);
  if (payload.size() > kMaxWalRecordBytes) {
    // The scanner would stop at this frame and drop every later record.
    return Status::InvalidArgument(
        "WAL record of " + std::to_string(payload.size()) +
        " bytes exceeds the " + std::to_string(kMaxWalRecordBytes) +
        "-byte record cap");
  }
  last_lsn_ = record.lsn;
  const uint64_t frame_bytes = payload.size() + 8;
  // The appender buffers in plain strings; this leaf mutex lets Sync() (no
  // shard lock held) group-commit concurrently with appends, which arrive
  // serialized under the shard's exclusive lock.
  std::lock_guard<std::mutex> wal_lock(wal_mu_);
  if (ShouldCrash(CrashPoint::kWalTornTail)) {
    // Half the frame reaches the file — exactly what a crash mid-write
    // leaves behind for the scanner to truncate.
    wal_->AppendTorn(payload, static_cast<size_t>(frame_bytes / 2));
    (void)wal_->Commit(/*sync=*/false);
    crashed_ = true;
    return Status::OK();
  }
  wal_->Append(payload);
  if (ShouldCrash(CrashPoint::kWalPreFsync)) {
    // Written but not fsynced. In-process simulation keeps the page-cache
    // copy, so on reopen this record IS recovered (process-crash
    // semantics; see the header comment).
    (void)wal_->Commit(/*sync=*/false);
    crashed_ = true;
    return Status::OK();
  }
  // Deferred group commit: `sync_now = false` writes the frame to the OS
  // (process-crash durable) but leaves the fsync for the next Sync() — the
  // drain path batches a whole burst of appends behind one fsync. The cap
  // bounds the power-loss exposure when no quiet point arrives: a saturated
  // drain loop still fsyncs at least every kMaxDeferredRecords appends.
  const bool force = deferred_records_ >= kMaxDeferredRecords;
  const bool sync = mode_ == DurabilityMode::kFsync && (sync_now || force);
  const auto t0 = std::chrono::steady_clock::now();
  CLOAKDB_RETURN_IF_ERROR(wal_->Commit(sync));
  pending_sync_.store(!sync, std::memory_order_release);
  ++appended_seq_;
  deferred_records_ = sync ? 0 : deferred_records_ + 1;
  if (sync) last_sync_ = std::chrono::steady_clock::now();
  ++records_since_checkpoint_;
  if (obs_.wal_records) obs_.wal_records->Increment();
  if (obs_.wal_bytes) obs_.wal_bytes->Increment(frame_bytes);
  if (obs_.wal_fsyncs && sync) obs_.wal_fsyncs->Increment();
  const double commit_us = MicrosSince(t0);
  if (obs_.wal_commit_us) obs_.wal_commit_us->Record(commit_us);
  if (sync && obs_.recorder != nullptr && obs_.wal_stall_threshold_us > 0 &&
      commit_us >= static_cast<double>(obs_.wal_stall_threshold_us)) {
    obs_.recorder->Record(obs::FlightEventKind::kWalSyncStall,
                          obs_.shard_index,
                          static_cast<uint64_t>(commit_us));
  }
  return Status::OK();
}

Status ShardDurability::WriteCheckpoint(const std::string& snapshot_blob) {
  std::lock_guard<std::mutex> lock(checkpoint_mu_);
  if (crashed_) return Status::OK();
  const auto t0 = std::chrono::steady_clock::now();
  const std::string file = EncodeCheckpointFile(last_lsn_, snapshot_blob);
  if (ShouldCrash(CrashPoint::kCheckpointMid)) {
    // The temp file reaches the disk but is never renamed: on reopen the
    // old checkpoint.db and the full WAL are still what recovery reads.
    (void)util::WriteFileSynced(checkpoint_path_ + ".tmp", file);
    crashed_ = true;
    return Status::OK();
  }
  // The atomic commit point: once the rename is durable, recovery uses the
  // new checkpoint no matter what happens to the WAL below.
  CLOAKDB_RETURN_IF_ERROR(util::WriteFileAtomic(checkpoint_path_, file));
  checkpoint_lsn_ = last_lsn_;

  if (ShouldCrash(CrashPoint::kCheckpointPreTruncate)) {
    // Checkpoint renamed, WAL still carries covered records — replay must
    // skip them by LSN on reopen.
    crashed_ = true;
    return Status::OK();
  }
  {
    // The checkpoint file is durable, so it covers any appended records
    // still waiting on a deferred fsync — nothing is pending after Reset.
    std::lock_guard<std::mutex> wal_lock(wal_mu_);
    CLOAKDB_RETURN_IF_ERROR(wal_->Reset());
    pending_sync_.store(false, std::memory_order_release);
  }
  records_since_checkpoint_ = 0;
  if (obs_.checkpoints) obs_.checkpoints->Increment();
  if (obs_.checkpoint_bytes) {
    obs_.checkpoint_bytes->Increment(snapshot_blob.size());
  }
  if (obs_.checkpoint_us) obs_.checkpoint_us->Record(MicrosSince(t0));
  return Status::OK();
}

Status ShardDurability::Sync() { return SyncGroup(/*max_age_us=*/-1); }

Status ShardDurability::SyncIfStale(int64_t max_age_us) {
  // Cheap pre-check so an idle worker's poll costs one atomic load.
  if (!pending_sync_.load(std::memory_order_acquire)) return Status::OK();
  return SyncGroup(max_age_us);
}

Status ShardDurability::SyncGroup(int64_t max_age_us) {
  uint64_t appended_before = 0;
  {
    std::lock_guard<std::mutex> wal_lock(wal_mu_);
    if (crashed_) return Status::OK();
    // Nothing appended since the last fsync — the common case when the
    // burst already group-committed via the deferred-record cap.
    if (!pending_sync_.load(std::memory_order_acquire)) return Status::OK();
    if (max_age_us >= 0) {
      const auto age = std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now() - last_sync_)
                           .count();
      if (age < max_age_us) return Status::OK();
    }
    CLOAKDB_RETURN_IF_ERROR(wal_->Commit(/*sync=*/false));
    appended_before = appended_seq_;
  }
  // The fsync runs without wal_mu_: a multi-millisecond fsync must not
  // stall the shard's drain loop (appends pwrite concurrently, which POSIX
  // allows against fsync on the same fd). Records appended after the
  // fsync started are not vouched for — the accounting below re-arms
  // pending_sync_ for them.
  const auto sync_t0 = std::chrono::steady_clock::now();
  CLOAKDB_RETURN_IF_ERROR(wal_->SyncDisk());
  const double sync_us = MicrosSince(sync_t0);
  if (obs_.recorder != nullptr && obs_.wal_stall_threshold_us > 0 &&
      sync_us >= static_cast<double>(obs_.wal_stall_threshold_us)) {
    obs_.recorder->Record(obs::FlightEventKind::kWalSyncStall,
                          obs_.shard_index, static_cast<uint64_t>(sync_us));
  }
  {
    std::lock_guard<std::mutex> wal_lock(wal_mu_);
    if (!crashed_) {
      if (appended_seq_ == appended_before) {
        pending_sync_.store(false, std::memory_order_release);
      }
      deferred_records_ = appended_seq_ - appended_before;
      last_sync_ = std::chrono::steady_clock::now();
    }
  }
  if (obs_.wal_fsyncs) obs_.wal_fsyncs->Increment();
  return Status::OK();
}

}  // namespace storage
}  // namespace cloakdb
