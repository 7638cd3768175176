#include "obs/flight_recorder.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

namespace cloakdb::obs {

namespace {

int64_t NowUnixMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

size_t RoundUpPow2(size_t n) {
  size_t p = 8;
  while (p < n) p <<= 1;
  return p;
}

// ---- async-signal-safe formatting helpers -------------------------------
// No snprintf in the dump path: it is not on the async-signal-safe list.

/// Appends the decimal form of `v` to `buf` at `*pos` (bounded by `cap`).
void AppendU64(char* buf, size_t cap, size_t* pos, uint64_t v) {
  char digits[20];
  size_t n = 0;
  do {
    digits[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  while (n > 0 && *pos < cap) buf[(*pos)++] = digits[--n];
}

void AppendI64(char* buf, size_t cap, size_t* pos, int64_t v) {
  uint64_t mag;
  if (v < 0) {
    if (*pos < cap) buf[(*pos)++] = '-';
    mag = ~static_cast<uint64_t>(v) + 1;  // safe for INT64_MIN
  } else {
    mag = static_cast<uint64_t>(v);
  }
  AppendU64(buf, cap, pos, mag);
}

void AppendStr(char* buf, size_t cap, size_t* pos, const char* s) {
  while (*s != '\0' && *pos < cap) buf[(*pos)++] = *s++;
}

void WriteAll(int fd, const char* data, size_t len) {
  size_t off = 0;
  while (off < len) {
    ssize_t n = ::write(fd, data + off, len - off);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;
    }
    off += static_cast<size_t>(n);
  }
}

}  // namespace

const char* FlightEventKindName(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kNone:
      return "none";
    case FlightEventKind::kQueryShed:
      return "shed";
    case FlightEventKind::kQueryDegraded:
      return "degraded";
    case FlightEventKind::kDeadlineHit:
      return "deadline-hit";
    case FlightEventKind::kAuditViolation:
      return "audit-violation";
    case FlightEventKind::kWalSyncStall:
      return "wal-sync-stall";
    case FlightEventKind::kFaultProbeFail:
      return "fault-probe-fail";
    case FlightEventKind::kFaultProbeDelay:
      return "fault-probe-delay";
    case FlightEventKind::kFaultQueueStall:
      return "fault-queue-stall";
    case FlightEventKind::kCrashPoint:
      return "crash-point";
    case FlightEventKind::kPipelineShed:
      return "pipeline-shed";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(size_t capacity)
    : slots_(RoundUpPow2(capacity)) {
  mask_ = slots_.size() - 1;
}

FlightRecorder::Slot* FlightRecorder::Claim(uint64_t* seq) {
  *seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[*seq & mask_];
  const uint64_t claimed = 2 * *seq + 1;
  // Only a stamp an earlier lap published (0 before the first) may be
  // taken over. An odd stamp is a writer a lap or more behind, still
  // storing; a newer stamp means this writer is the one left behind.
  // Either way the event is dropped: overwriting would interleave two
  // payloads under one stamp. Acquire on success orders the previous
  // occupant's payload stores before this writer's.
  uint64_t stamp = slot.stamp.load(std::memory_order_relaxed);
  if (stamp % 2 != 0 || stamp > claimed ||
      !slot.stamp.compare_exchange_strong(stamp, claimed,
                                          std::memory_order_acquire,
                                          std::memory_order_relaxed))
    return nullptr;
  // Seqlock writer: the odd stamp is visible before any payload store.
  std::atomic_thread_fence(std::memory_order_release);
  return &slot;
}

void FlightRecorder::Publish(Slot* slot, uint64_t seq, FlightEventKind kind,
                             uint64_t a, uint64_t b, const char* detail) {
  slot->unix_us.store(NowUnixMicros(), std::memory_order_relaxed);
  slot->kind.store(static_cast<uint8_t>(kind), std::memory_order_relaxed);
  slot->a.store(a, std::memory_order_relaxed);
  slot->b.store(b, std::memory_order_relaxed);
  // Pack detail (NUL-padded) into the slot's words, little-endian.
  char packed[sizeof(uint64_t) * 5] = {0};
  if (detail != nullptr) {
    size_t len = std::strlen(detail);
    if (len > sizeof(packed) - 1) len = sizeof(packed) - 1;
    std::memcpy(packed, detail, len);
  }
  for (size_t w = 0; w < slot->detail.size(); ++w) {
    uint64_t word = 0;
    std::memcpy(&word, packed + w * sizeof(uint64_t), sizeof(uint64_t));
    slot->detail[w].store(word, std::memory_order_relaxed);
  }
  // Publish: an even stamp matching 2*seq+2 marks the payload complete.
  slot->stamp.store(2 * seq + 2, std::memory_order_release);
}

void FlightRecorder::Record(FlightEventKind kind, uint64_t a, uint64_t b,
                            const char* detail) {
  uint64_t seq = 0;
  Slot* slot = Claim(&seq);
  if (slot == nullptr) return;
  Publish(slot, seq, kind, a, b, detail);
  if (counter_ != nullptr) counter_->Increment();
}

bool FlightRecorder::ReadSlot(size_t index, uint64_t seq,
                              FlightEvent* out) const {
  const Slot& slot = slots_[index];
  const uint64_t want = 2 * seq + 2;
  if (slot.stamp.load(std::memory_order_acquire) != want) return false;
  out->seq = seq;
  out->unix_us = slot.unix_us.load(std::memory_order_relaxed);
  out->kind =
      static_cast<FlightEventKind>(slot.kind.load(std::memory_order_relaxed));
  out->a = slot.a.load(std::memory_order_relaxed);
  out->b = slot.b.load(std::memory_order_relaxed);
  char packed[sizeof(uint64_t) * 5];
  for (size_t w = 0; w < slot.detail.size(); ++w) {
    uint64_t word = slot.detail[w].load(std::memory_order_relaxed);
    std::memcpy(packed + w * sizeof(uint64_t), &word, sizeof(uint64_t));
  }
  // Seqlock reader: the payload loads complete before the re-check, so a
  // writer that reused the slot mid-copy changes the stamp seen here.
  std::atomic_thread_fence(std::memory_order_acquire);
  if (slot.stamp.load(std::memory_order_relaxed) != want) return false;
  std::memcpy(out->detail, packed, sizeof(out->detail));
  out->detail[sizeof(out->detail) - 1] = '\0';
  return true;
}

std::vector<FlightEvent> FlightRecorder::Snapshot(size_t max_events) const {
  const uint64_t end = next_seq_.load(std::memory_order_acquire);
  uint64_t span = slots_.size();
  if (max_events != 0 && max_events < span) span = max_events;
  const uint64_t begin = end > span ? end - span : 0;
  std::vector<FlightEvent> events;
  events.reserve(static_cast<size_t>(end - begin));
  for (uint64_t seq = begin; seq < end; ++seq) {
    FlightEvent event;
    if (ReadSlot(seq & mask_, seq, &event)) events.push_back(event);
  }
  return events;
}

void FlightRecorder::DumpToFd(int fd) const {
  const uint64_t end = next_seq_.load(std::memory_order_acquire);
  const uint64_t begin = end > slots_.size() ? end - slots_.size() : 0;
  for (uint64_t seq = begin; seq < end; ++seq) {
    FlightEvent event;
    if (!ReadSlot(seq & mask_, seq, &event)) continue;
    char line[256];
    size_t pos = 0;
    AppendStr(line, sizeof(line), &pos, "seq=");
    AppendU64(line, sizeof(line), &pos, event.seq);
    AppendStr(line, sizeof(line), &pos, " unix_us=");
    AppendI64(line, sizeof(line), &pos, event.unix_us);
    AppendStr(line, sizeof(line), &pos, " kind=");
    AppendStr(line, sizeof(line), &pos, FlightEventKindName(event.kind));
    AppendStr(line, sizeof(line), &pos, " a=");
    AppendU64(line, sizeof(line), &pos, event.a);
    AppendStr(line, sizeof(line), &pos, " b=");
    AppendU64(line, sizeof(line), &pos, event.b);
    AppendStr(line, sizeof(line), &pos, " detail=");
    for (size_t i = 0; i < sizeof(event.detail) && event.detail[i] != '\0';
         ++i) {
      const char c = event.detail[i];
      if (pos < sizeof(line))
        line[pos++] = (c >= 0x20 && c < 0x7f && c != ' ') ? c : '.';
    }
    if (pos < sizeof(line)) line[pos++] = '\n';
    WriteAll(fd, line, pos);
  }
}

// ---- fatal-signal dump --------------------------------------------------

namespace {

std::atomic<FlightRecorder*> g_dump_recorder{nullptr};
char g_dump_path[4096] = {0};
constexpr int kFatalSignals[] = {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT};

void FatalSignalHandler(int signo) {
  FlightRecorder* recorder = g_dump_recorder.load(std::memory_order_acquire);
  if (recorder != nullptr && g_dump_path[0] != '\0') {
    int fd = ::open(g_dump_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      recorder->DumpToFd(fd);
      ::close(fd);
    }
  }
  // Restore the default disposition and re-raise so the process still dies
  // with the original signal (core dumps, WIFSIGNALED status intact).
  ::signal(signo, SIG_DFL);
  ::raise(signo);
}

}  // namespace

void InstallFatalSignalDump(FlightRecorder* recorder, const char* path) {
  if (recorder == nullptr || path == nullptr || path[0] == '\0') {
    g_dump_recorder.store(nullptr, std::memory_order_release);
    for (int signo : kFatalSignals) ::signal(signo, SIG_DFL);
    return;
  }
  size_t len = std::strlen(path);
  if (len > sizeof(g_dump_path) - 1) len = sizeof(g_dump_path) - 1;
  std::memcpy(g_dump_path, path, len);
  g_dump_path[len] = '\0';
  g_dump_recorder.store(recorder, std::memory_order_release);
  for (int signo : kFatalSignals) ::signal(signo, FatalSignalHandler);
}

}  // namespace cloakdb::obs
