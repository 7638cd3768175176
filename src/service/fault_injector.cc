#include "service/fault_injector.h"

#include "util/random.h"

namespace cloakdb {

double FaultInjector::DrawAt(uint64_t n) const {
  const uint64_t bits = Mix64(options_.seed ^ (n * 0x2545f4914f6cdd1dULL));
  // Top 53 bits -> uniform double in [0, 1).
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

ProbeFault FaultInjector::NextProbeFault() {
  if (!options_.enabled) return ProbeFault::kNone;
  const double u = DrawAt(draws_.fetch_add(1, std::memory_order_relaxed));
  if (u < options_.probe_failure_probability) {
    const uint64_t fired =
        probe_failures_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (recorder_ != nullptr)
      recorder_->Record(obs::FlightEventKind::kFaultProbeFail, fired);
    return ProbeFault::kFail;
  }
  if (u < options_.probe_failure_probability +
              options_.probe_delay_probability) {
    const uint64_t fired =
        probe_delays_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (recorder_ != nullptr)
      recorder_->Record(obs::FlightEventKind::kFaultProbeDelay, fired);
    return ProbeFault::kDelay;
  }
  return ProbeFault::kNone;
}

void FaultInjector::ArmCrash(storage::CrashPoint point,
                             uint64_t after_n_more_hits) {
  if (after_n_more_hits == 0) after_n_more_hits = 1;
  crash_fired_.store(false, std::memory_order_release);
  crash_countdown_.store(after_n_more_hits, std::memory_order_release);
  // Point last: once visible, hits start consuming the countdown.
  crash_point_.store(static_cast<uint8_t>(point), std::memory_order_release);
}

bool FaultInjector::ShouldCrash(storage::CrashPoint point) {
  if (point == storage::CrashPoint::kNone) return false;
  const uint8_t armed = crash_point_.load(std::memory_order_acquire);
  if (armed != static_cast<uint8_t>(point)) return false;
  // Count down atomically; exactly one caller observes the 1 -> 0 edge.
  uint64_t expected = crash_countdown_.load(std::memory_order_acquire);
  while (expected > 0) {
    if (crash_countdown_.compare_exchange_weak(expected, expected - 1,
                                               std::memory_order_acq_rel)) {
      if (expected == 1) {
        crash_fired_.store(true, std::memory_order_release);
        if (recorder_ != nullptr)
          recorder_->Record(obs::FlightEventKind::kCrashPoint,
                            static_cast<uint64_t>(point));
        return true;
      }
      return false;
    }
  }
  return false;
}

bool FaultInjector::NextQueueStall() {
  if (!options_.enabled) return false;
  const double u = DrawAt(draws_.fetch_add(1, std::memory_order_relaxed));
  if (u < options_.queue_stall_probability) {
    const uint64_t fired =
        queue_stalls_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (recorder_ != nullptr)
      recorder_->Record(obs::FlightEventKind::kFaultQueueStall, fired);
    return true;
  }
  return false;
}

}  // namespace cloakdb
