// Deadline: a monotonic-clock point in time after which work should stop.
//
// Deadlines are carried by value through the query path (admission ->
// fan-out -> per-shard probes -> merge) so every layer can cheaply ask
// "is there still time?" without consulting a wall clock that can jump.
// A default-constructed Deadline is infinite and never expires, which keeps
// the common no-deadline path branch-cheap.

#ifndef CLOAKDB_UTIL_DEADLINE_H_
#define CLOAKDB_UTIL_DEADLINE_H_

#include <chrono>
#include <cstdint>

namespace cloakdb {

/// A point on std::chrono::steady_clock after which a request is overdue.
///
/// Copyable, trivially cheap, and comparable. The infinite deadline (the
/// default) compares later than every finite one, so Earliest() composes
/// naturally.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;
  using TimePoint = Clock::time_point;

  /// Constructs the infinite deadline: Expired() is always false.
  Deadline() : when_(TimePoint::max()) {}

  /// Constructs a deadline at an explicit clock point.
  explicit Deadline(TimePoint when) : when_(when) {}

  /// The deadline that never expires (same as the default constructor,
  /// spelled out for readability at call sites).
  static Deadline Infinite() { return Deadline(); }

  /// A deadline `micros` microseconds from now. Non-positive values produce
  /// an already-expired deadline.
  static Deadline After(std::int64_t micros) {
    return Deadline(Clock::now() + std::chrono::microseconds(micros));
  }

  /// True iff this is the infinite deadline.
  bool is_infinite() const { return when_ == TimePoint::max(); }

  /// True iff the deadline has passed. Always false for the infinite
  /// deadline.
  bool Expired() const { return !is_infinite() && Clock::now() >= when_; }

  /// Microseconds until the deadline: 0 when expired, a large positive
  /// sentinel (int64 max) when infinite.
  std::int64_t RemainingUs() const {
    if (is_infinite()) return INT64_MAX;
    const auto left = std::chrono::duration_cast<std::chrono::microseconds>(
        when_ - Clock::now());
    return left.count() > 0 ? left.count() : 0;
  }

  /// The underlying clock point (TimePoint::max() when infinite).
  TimePoint when() const { return when_; }

  /// The sooner of two deadlines.
  static Deadline Earliest(Deadline a, Deadline b) {
    return a.when_ <= b.when_ ? a : b;
  }

  bool operator==(const Deadline& other) const { return when_ == other.when_; }
  bool operator!=(const Deadline& other) const { return when_ != other.when_; }
  bool operator<(const Deadline& other) const { return when_ < other.when_; }

 private:
  TimePoint when_;
};

}  // namespace cloakdb

#endif  // CLOAKDB_UTIL_DEADLINE_H_
