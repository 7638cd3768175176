// FlightRecorder: a small lock-free ring of notable service events (sheds,
// degraded answers, audit violations, WAL sync stalls, fault-injector
// trips) kept so that every crash or brown-out leaves a self-contained
// "what happened in the last few seconds" record.
//
// Recording is one atomic increment, one compare-exchange and a handful of
// relaxed stores into a per-slot seqlock — cheap enough to sit on the
// admission path. A writer claims its slot only from a published stamp of
// an earlier lap; when a lapped writer still holds the slot, the newer
// event is dropped rather than interleaved with it. Readers (the admin
// channel, the fatal-signal dump) never block writers: a slot overwritten
// mid-read fails its stamp check and is skipped. Every field of a slot is
// an atomic, so concurrent record/snapshot is race-free under TSan, and
// the dump path uses only async-signal-safe calls (atomic loads, fences
// and write(2)), so it can run from a SIGSEGV handler.

#ifndef CLOAKDB_OBS_FLIGHT_RECORDER_H_
#define CLOAKDB_OBS_FLIGHT_RECORDER_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace cloakdb::obs {

/// What happened. Names (FlightEventKindName) are stable wire/dump tokens.
enum class FlightEventKind : uint8_t {
  kNone = 0,
  kQueryShed,        ///< Admission control shed a query (a = trace id).
  kQueryDegraded,    ///< A degraded answer went out (a = trace id, b = covered_shards).
  kDeadlineHit,      ///< A query ran past its deadline (a = trace id).
  kAuditViolation,   ///< Privacy audit violation (a = trace id, b = pseudonym).
  kWalSyncStall,     ///< A WAL fsync ran long (a = shard, b = micros).
  kFaultProbeFail,   ///< Injected probe failure fired (a = fire count).
  kFaultProbeDelay,  ///< Injected probe delay fired (a = fire count).
  kFaultQueueStall,  ///< Injected drain stall fired (a = fire count).
  kCrashPoint,       ///< Armed crash point fired (a = storage::CrashPoint).
  kPipelineShed,     ///< Wire layer shed a pipelined request (a = request id).
};

/// Stable lowercase token for a kind ("shed", "wal-sync-stall", ...).
/// Returns a static string; async-signal-safe.
const char* FlightEventKindName(FlightEventKind kind);

/// One recorded event, as read back out of the ring.
struct FlightEvent {
  uint64_t seq = 0;      ///< Monotonic sequence number (process-wide order).
  int64_t unix_us = 0;   ///< Wall-clock microseconds since the epoch.
  FlightEventKind kind = FlightEventKind::kNone;
  uint64_t a = 0;        ///< Kind-specific payload (see enum comments).
  uint64_t b = 0;
  char detail[40] = {0};  ///< NUL-terminated free text (possibly truncated).
};

/// Fixed-capacity lock-free event ring. Thread-safe for any mix of
/// concurrent Record/Snapshot/DumpToFd calls.
class FlightRecorder {
 public:
  static constexpr size_t kDefaultCapacity = 256;

  /// Capacity is rounded up to a power of two (minimum 8).
  explicit FlightRecorder(size_t capacity = kDefaultCapacity);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Records one event. Lock-free; truncates `detail` to fit the slot.
  /// `detail == nullptr` means empty. The event is dropped when a writer a
  /// whole lap older still holds its slot.
  void Record(FlightEventKind kind, uint64_t a = 0, uint64_t b = 0,
              const char* detail = nullptr);

  /// Events currently in the ring, oldest first. Slots being overwritten
  /// during the scan are skipped (never torn). `max_events == 0` means all;
  /// otherwise the newest `max_events` are returned.
  std::vector<FlightEvent> Snapshot(size_t max_events = 0) const;

  /// Total events ever offered (including ones the ring has dropped or
  /// overwritten).
  uint64_t events_total() const {
    return next_seq_.load(std::memory_order_relaxed);
  }

  size_t capacity() const { return slots_.size(); }

  /// Optional registry counter bumped on every event a Record publishes
  /// (recorder.events_total).
  void set_counter(Counter* counter) { counter_ = counter; }

  /// Writes a plain-text dump of the ring to `fd`, oldest first, one event
  /// per line:  "seq=<n> unix_us=<t> kind=<token> a=<n> b=<n> detail=<s>".
  /// Async-signal-safe: only relaxed atomic loads, stack buffers and
  /// write(2); non-printable detail bytes are replaced with '.'.
  void DumpToFd(int fd) const;

 private:
  friend class FlightRecorderTestPeer;

  /// One ring slot. stamp = 2*seq+1 while the writer owns it, 2*seq+2 once
  /// the payload for `seq` is fully published, 0 when never written. A
  /// slot's stamp never decreases.
  struct alignas(64) Slot {
    std::atomic<uint64_t> stamp{0};
    std::atomic<int64_t> unix_us{0};
    std::atomic<uint8_t> kind{0};
    std::atomic<uint64_t> a{0};
    std::atomic<uint64_t> b{0};
    /// `detail` packed little-endian into 64-bit words so readers can copy
    /// it with relaxed atomic loads (race-free under TSan).
    std::array<std::atomic<uint64_t>, 5> detail{};
  };

  /// Takes the next sequence number and claims its slot (odd stamp); null
  /// when the slot is held by an older writer, which drops the event.
  Slot* Claim(uint64_t* seq);

  /// Stores the payload into a claimed slot and publishes it (even stamp).
  static void Publish(Slot* slot, uint64_t seq, FlightEventKind kind,
                      uint64_t a, uint64_t b, const char* detail);

  /// Reads slot `index` expecting sequence `seq`; false when the slot was
  /// reused or mid-write.
  bool ReadSlot(size_t index, uint64_t seq, FlightEvent* out) const;

  std::vector<Slot> slots_;  ///< Power-of-two size.
  size_t mask_ = 0;
  std::atomic<uint64_t> next_seq_{0};
  Counter* counter_ = nullptr;
};

/// Installs fatal-signal handlers (SIGSEGV, SIGBUS, SIGFPE, SIGILL,
/// SIGABRT) that dump `recorder` to `path` (created/truncated) and then
/// re-raise with the default disposition, preserving the crash signal for
/// the parent. One recorder per process: a second call replaces the first.
/// Pass nullptr to uninstall. `path` is copied into static storage
/// (truncated to fit PATH_MAX).
void InstallFatalSignalDump(FlightRecorder* recorder, const char* path);

}  // namespace cloakdb::obs

#endif  // CLOAKDB_OBS_FLIGHT_RECORDER_H_
