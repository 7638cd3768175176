// Per-shard durability engine: WAL + checkpoint file + recovery.
//
// One ShardDurability instance owns one shard's on-disk state, living in
// its own directory:
//
//   <data_dir>/shard-<i>/wal.log        append-only record log
//   <data_dir>/shard-<i>/checkpoint.db  the latest snapshot, one file:
//                                       magic, version, LSN, length, CRC32
//                                       and the snapshot blob
//
// Commit protocol (group commit — the drained batch is the group):
//   1. the shard appends one WAL record per durable mutation, in apply
//      order, under its exclusive lock;
//   2. Commit writes all buffered frames with one write() and fsyncs in
//      kFsync mode (kAsync defers fsync to checkpoint/close — bounded
//      data loss on an OS crash, none on a process crash).
//
// Checkpoint protocol (callable under the shard's shared lock — appends
// need the exclusive lock, so none run concurrently):
//   1. write the whole file to checkpoint.db.tmp and fsync it;
//   2. rename it over checkpoint.db and fsync the directory — this is the
//      atomic commit point (util::WriteFileAtomic);
//   3. truncate the WAL.
// A crash before 2 leaves the old checkpoint + full WAL (the stray temp
// file is never read); a crash after 2 but before 3 leaves a WAL whose
// prefix is already covered — replay skips records with LSN <= the
// checkpoint LSN, so nothing is ever applied twice. A checkpoint.db that
// fails its magic, length or CRC check fails Open closed: recovery never
// silently comes up with only the WAL.
//
// Crash points: the engine consults an injected hook at each step of the
// append -> fsync -> apply window and, when the hook fires, freezes into a
// "crashed" state — every later append/commit/checkpoint becomes a no-op,
// modelling the process dying at that instant while the in-memory service
// (the doomed process) runs on. Tests then discard the service and reopen
// from disk. One honest limitation of in-process crash simulation: a
// written-but-unfsynced record survives in the OS page cache, so the
// post-append/pre-fsync point behaves like a process crash (record kept),
// not a power failure (record possibly lost) — the torn-tail point covers
// the partial-write case explicitly.

#ifndef CLOAKDB_STORAGE_SHARD_DURABILITY_H_
#define CLOAKDB_STORAGE_SHARD_DURABILITY_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "storage/wal.h"
#include "storage/wal_record.h"
#include "util/status.h"

namespace cloakdb {
namespace storage {

/// How hard the service tries to keep updates across a crash.
enum class DurabilityMode : uint8_t {
  kOff = 0,    ///< No files touched; in-memory only (the historical mode).
  kAsync = 1,  ///< WAL written per commit, fsync deferred to checkpoint/close.
  kFsync = 2,  ///< WAL fsynced on every group commit.
};

const char* DurabilityModeName(DurabilityMode mode);
Result<DurabilityMode> DurabilityModeFromName(const std::string& name);

/// Simulated crash points inside the append → fsync → apply window and the
/// checkpoint protocol. The service's FaultInjector implements the hook.
enum class CrashPoint : uint8_t {
  kNone = 0,
  kWalPreAppend = 1,     ///< Die before the record is framed: record lost.
  kWalTornTail = 2,      ///< Die mid-write: half a frame reaches the disk.
  kWalPreFsync = 3,      ///< Die after write, before fsync.
  kCheckpointMid = 4,    ///< Die with the temp file fsynced, not renamed.
  kCheckpointPreTruncate = 5,  ///< Die after the rename, before WAL truncate.
};

/// Fired once per step; returning true means "the process dies here".
using CrashHook = std::function<bool(CrashPoint)>;

/// Metric sinks (registry-owned; null pointers are simply skipped, so the
/// engine also runs metric-less in unit tests).
struct DurabilityObs {
  obs::Counter* wal_records = nullptr;
  obs::Counter* wal_bytes = nullptr;
  obs::Counter* wal_fsyncs = nullptr;
  obs::ShardedHistogram* wal_commit_us = nullptr;
  obs::Counter* checkpoints = nullptr;
  obs::Counter* checkpoint_bytes = nullptr;
  obs::ShardedHistogram* checkpoint_us = nullptr;
  /// Flight-recorder sink for WAL sync stalls: a commit or group-commit
  /// fsync that runs at least `wal_stall_threshold_us` records a
  /// kWalSyncStall event (a = shard_index, b = elapsed micros). 0 disables.
  obs::FlightRecorder* recorder = nullptr;
  int64_t wal_stall_threshold_us = 0;
  /// Which shard this engine serves (stamped into recorded events).
  uint32_t shard_index = 0;
};

/// What Open() recovered from disk, for the service to replay.
struct ShardRecoveredState {
  bool had_checkpoint = false;
  std::string checkpoint_blob;  ///< Decoded by the service when present.
  uint64_t checkpoint_lsn = 0;
  /// Valid WAL records with LSN > checkpoint_lsn, in LSN order.
  std::vector<WalRecord> records;
  /// Torn/corrupt tail occurrences + undecodable payloads dropped.
  uint64_t truncated_records = 0;
  /// Stale WAL records skipped because the checkpoint already covers them
  /// (a crash between the checkpoint rename and the WAL truncate).
  uint64_t skipped_records = 0;
};

/// The contents of checkpoint.db.
struct CheckpointFile {
  uint64_t lsn = 0;  ///< Every record up to this LSN is in `blob`.
  std::string blob;  ///< The encoded shard snapshot.
};

/// checkpoint.db bytes: magic, version, LSN, blob length, CRC32, blob.
std::string EncodeCheckpointFile(uint64_t lsn, std::string_view blob);

/// Inverse of EncodeCheckpointFile. FailedPrecondition on a bad magic,
/// length, version or CRC.
Result<CheckpointFile> DecodeCheckpointFile(std::string_view bytes);

class ShardDurability {
 public:
  /// Opens (creating as needed) the shard's durability directory and scans
  /// checkpoint + WAL. `mode` must not be kOff — a non-durable service
  /// simply never constructs one of these.
  static Result<std::unique_ptr<ShardDurability>> Open(
      const std::string& dir, DurabilityMode mode, const DurabilityObs& obs,
      CrashHook crash_hook = nullptr);

  /// The state recovered during Open (empty for a fresh directory).
  const ShardRecoveredState& recovered() const { return recovered_; }

  /// Appends one record (LSN assigned here) and group-commits it. Called
  /// under the shard's exclusive lock, in apply order, BEFORE the
  /// in-memory apply (write-ahead). After a simulated crash this silently
  /// drops everything — the modelled process is dead.
  ///
  /// `sync_now = false` appends without the kFsync-mode fsync, leaving the
  /// record pending until the next Sync() (or synchronous LogAndCommit) —
  /// the drain path uses this to fsync once per burst instead of once per
  /// batch. Callers deferring the sync must not acknowledge the record
  /// (or apply it where queries can observe it) until Sync() returns.
  Status LogAndCommit(WalRecord record, bool sync_now = true);

  /// Writes a checkpoint of `snapshot_blob` covering every LSN appended so
  /// far, then truncates the WAL. Requires at least the shard's shared
  /// lock (see the file comment). Concurrent checkpoint calls — a worker's
  /// interval trigger racing an explicit service Checkpoint(), both under
  /// shared locks — serialize on an internal mutex.
  Status WriteCheckpoint(const std::string& snapshot_blob);

  /// Flushes the WAL to disk: the group-commit point for deferred
  /// LogAndCommit appends and the kAsync close-time barrier. No-ops when
  /// nothing was appended since the last fsync.
  Status Sync();

  /// Deadline variant for idle workers: fsyncs only if records are pending
  /// AND the last fsync is at least `max_age_us` old. Keeps un-acknowledged
  /// records' disk exposure bounded in time without degenerating into a
  /// per-batch fsync when the drain loop bounces off an empty queue
  /// between producer enqueues.
  Status SyncIfStale(int64_t max_age_us);

  uint64_t last_lsn() const { return last_lsn_; }
  uint64_t checkpoint_lsn() const { return checkpoint_lsn_; }
  uint64_t records_since_checkpoint() const {
    return records_since_checkpoint_;
  }
  /// True after a simulated crash froze the engine.
  bool crashed() const { return crashed_; }
  DurabilityMode mode() const { return mode_; }

 private:
  ShardDurability(std::string checkpoint_path, DurabilityMode mode,
                  DurabilityObs obs, CrashHook hook);

  bool ShouldCrash(CrashPoint point) {
    if (!crash_hook_) return false;
    return crash_hook_(point);
  }

  DurabilityMode mode_;
  DurabilityObs obs_;
  CrashHook crash_hook_;
  std::mutex checkpoint_mu_;
  /// Leaf lock around WalAppender calls: appends run under the shard's
  /// exclusive lock, but Sync() group-commits without it.
  std::mutex wal_mu_;
  const std::string checkpoint_path_;
  std::unique_ptr<WalAppender> wal_;
  ShardRecoveredState recovered_;
  uint64_t checkpoint_lsn_ = 0;
  uint64_t last_lsn_ = 0;
  uint64_t records_since_checkpoint_ = 0;
  /// Ceiling on consecutive deferred appends before LogAndCommit forces
  /// the group fsync itself — bounds the unfsynced window when the drain
  /// loop never quiesces.
  static constexpr uint64_t kMaxDeferredRecords = 64;
  /// Shared implementation of Sync()/SyncIfStale(): drains the append
  /// buffer under wal_mu_, fsyncs WITHOUT it (so drains keep flowing),
  /// then reconciles pending state. `max_age_us < 0` means unconditional.
  Status SyncGroup(int64_t max_age_us);

  /// Appends since the last fsync (kFsync mode). Guarded by wal_mu_.
  uint64_t deferred_records_ = 0;
  /// Monotone count of appended records — lets SyncGroup detect appends
  /// that raced its unlocked fsync. Guarded by wal_mu_.
  uint64_t appended_seq_ = 0;
  /// When the last fsync completed (SyncIfStale's deadline clock).
  /// Guarded by wal_mu_.
  std::chrono::steady_clock::time_point last_sync_ =
      std::chrono::steady_clock::now();
  /// True while appended bytes may not have reached the disk (records
  /// deferred past their LogAndCommit, or any kAsync append). Lets Sync()
  /// skip the fsync when there is nothing to push down.
  std::atomic<bool> pending_sync_{false};
  bool crashed_ = false;
};

}  // namespace storage
}  // namespace cloakdb

#endif  // CLOAKDB_STORAGE_SHARD_DURABILITY_H_
