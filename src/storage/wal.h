// Write-ahead log: length-prefixed, CRC-framed, LSN-sequenced records in a
// single append-only file per shard.
//
// File layout (encoded with util/byte_codec.h, like the wire frames):
//
//   [u32 magic "CWAL"] [u32 version]
//   repeated records:  [u32 payload_len] [u32 crc32(payload)] [payload]
//
// Every payload begins with a u64 LSN; LSNs within one file are strictly
// sequential (each record is exactly previous + 1), which is what lets the
// scanner reject a duplicated tail segment — replayed frames carry stale
// LSNs and fail the monotonicity check even though their CRCs are fine.
//
// Scanning is strictly prefix-valid: the first record that fails any check
// (short frame, length over cap, CRC mismatch, LSN out of sequence) ends
// the recovered prefix; everything after it is surfaced only as a
// truncated-tail count, never applied. A crash can tear at most the tail
// of an append-only file, so "valid prefix" is exactly the set of records
// whose commit completed.
//
// The appender never reads — `ScanWal` first, then open a `WalAppender`
// at the scan's valid-prefix byte offset, which physically truncates any
// torn tail before new appends land.

#ifndef CLOAKDB_STORAGE_WAL_H_
#define CLOAKDB_STORAGE_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/status.h"

namespace cloakdb {
namespace storage {

/// Hard cap on one WAL record's payload (a corrupted length field must not
/// commit the scanner to a giant allocation). Generous: the largest real
/// record is a bulk category load.
inline constexpr uint32_t kMaxWalRecordBytes = 16u << 20;

/// Byte size of the WAL file header (magic + version).
inline constexpr uint64_t kWalHeaderBytes = 8;

/// Result of scanning a WAL file front to back.
struct WalScan {
  bool exists = false;              ///< File was present (even if empty).
  std::vector<std::string> payloads;  ///< Valid-prefix record payloads.
  /// Byte offset just past each record, aligned with `payloads` — lets a
  /// caller that rejects a record at a higher layer (payload decodes to
  /// garbage) re-truncate to the last record it accepted.
  std::vector<uint64_t> record_ends;
  uint64_t first_lsn = 0;           ///< LSN of payloads.front() (0 if none).
  uint64_t last_lsn = 0;            ///< LSN of payloads.back() (0 if none).
  uint64_t valid_bytes = kWalHeaderBytes;  ///< Prefix length incl. header.
  uint64_t truncated_records = 0;   ///< Invalid/torn tail occurrences dropped.
};

/// Encodes one record frame ([len][crc][payload]) — exposed so tests can
/// build corruption corpora from known-good frames.
std::string EncodeWalFrame(const std::string& payload);

/// Reads the LSN prefix of a record payload (fails on payloads < 8 bytes).
Result<uint64_t> WalPayloadLsn(const std::string& payload);

/// Scans `path` and returns the valid record prefix. A missing file is not
/// an error (exists=false, no records). Never fails on corrupted contents
/// — corruption only shortens the valid prefix and bumps
/// `truncated_records`. Fails only on I/O errors or a bad file header.
Result<WalScan> ScanWal(const std::string& path);

/// Append-side handle. Buffers frames in memory; `Commit` writes them with
/// one write() (the group-commit unit) and optionally fsyncs.
class WalAppender {
 public:
  /// Opens `path` for appending, truncating it to `valid_bytes` first (the
  /// scanner's valid prefix — this is what physically drops a torn tail).
  /// Creates the file with a fresh header when absent or when valid_bytes
  /// asks for an empty log.
  static Result<std::unique_ptr<WalAppender>> Open(const std::string& path,
                                                   uint64_t valid_bytes);

  ~WalAppender();
  WalAppender(const WalAppender&) = delete;
  WalAppender& operator=(const WalAppender&) = delete;

  /// Buffers one framed record. No I/O until Commit.
  void Append(const std::string& payload);

  /// Buffers a deliberately torn frame: only the first `keep_bytes` bytes
  /// of the encoded frame. Test/fault-injection hook — models a crash
  /// mid-write of the record.
  void AppendTorn(const std::string& payload, size_t keep_bytes);

  /// Writes all buffered frames with a single write(); fsyncs when
  /// `sync` — the group-commit barrier.
  Status Commit(bool sync);

  /// fsync only, no buffer write. Safe to call without external
  /// serialization against Append/Commit — callers use this to push
  /// already-written bytes to disk while new appends keep flowing.
  Status SyncDisk();

  /// Truncates the log back to just the file header (post-checkpoint) and
  /// fsyncs the truncation.
  Status Reset();

  /// Current durable + buffered size in bytes.
  uint64_t size() const { return size_ + buffer_.size(); }

 private:
  WalAppender(int fd, std::string path, uint64_t size);

  int fd_;
  std::string path_;
  uint64_t size_;
  std::string buffer_;
};

}  // namespace storage
}  // namespace cloakdb

#endif  // CLOAKDB_STORAGE_WAL_H_
