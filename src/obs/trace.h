// End-to-end query tracing: causally-linked per-request span trees with
// stage timings, shard fan-out detail, cache disposition, and privacy-audit
// events, so "why was *this* query slow?" and "did *this* cloak satisfy the
// user's (k, A_min, A_max) profile?" are answerable from one record.
//
// Design:
//   - a process-wide Tracer assigns 64-bit trace ids at admission and owns
//     one lock-free SPSC span ring per recording thread: the owning thread
//     is the only writer (relaxed write + release publish), the collector
//     the only reader, so recording never takes a lock and never contends;
//   - a TraceContext travels with the request through a thread-local
//     scope, so the layers below the service facade (fan-out, shard
//     probes, index probes) parent their spans under the
//     request's root without threading it through every signature;
//   - sampling is hybrid: a head decision (probabilistic, by trace id) is
//     made at admission, and a tail decision at completion keeps every
//     slow or audit-failing trace regardless. All spans are recorded into
//     the rings either way; the keep/drop decision ring resolves them at
//     drain time, so tail-kept traces are complete.
//
// Overhead: with no Tracer wired, spans are inert (no clock reads). With
// tracing on, a span costs two steady_clock reads plus one ring store.

#ifndef CLOAKDB_OBS_TRACE_H_
#define CLOAKDB_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace cloakdb::obs {

class FlightRecorder;

/// Tracing configuration (embedded into CloakDbServiceOptions).
struct TraceOptions {
  /// Master switch; off means the service creates no Tracer at all.
  bool enabled = false;

  /// Head-sampling probability in [0, 1]: the fraction of traces kept
  /// independent of their outcome (decided at admission by trace id).
  double sample_probability = 1.0;

  /// Tail keep: a trace whose root latency reaches this many microseconds
  /// is kept even when head sampling dropped it. 0 disables the slow rule
  /// (audit-failing traces are always kept).
  double slow_trace_us = 1000.0;

  /// Capacity (spans) of each per-thread ring. When a ring is full, new
  /// spans are dropped and counted, never blocked on.
  size_t span_buffer_capacity = 1 << 14;

  /// In-flight traces the collector holds spans for while their keep/drop
  /// decision is pending; beyond this the oldest pending trace is dropped.
  size_t max_pending_traces = 4096;

  /// Retained exported spans; collection drops (and counts) beyond this.
  size_t max_completed_spans = 1 << 20;

  /// Most recent audit violations retained for live monitoring.
  size_t max_recent_violations = 64;
};

class Tracer;

/// The propagation handle: which trace the current work belongs to and
/// which span is its parent. Copyable and cheap; an inactive context (null
/// tracer) makes every span built from it a no-op.
struct TraceContext {
  Tracer* tracer = nullptr;
  uint64_t trace_id = 0;
  uint64_t span_id = 0;  ///< Parent span for children built from this.
  bool sampled = false;  ///< Head-sampling decision of the trace.

  bool active() const { return tracer != nullptr; }
};

/// Privacy-audit payload of one cloak: what the user asked for, what the
/// cloaking algorithm achieved, and whether the region is exposed to the
/// paper's Section 5 reverse-engineering attacks.
struct AuditEvent {
  uint32_t requested_k = 0;
  uint32_t achieved_k = 0;
  double area = 0.0;      ///< Achieved cloaked-region area.
  double min_area = 0.0;  ///< Profile A_min.
  double max_area = 0.0;  ///< Profile A_max (+inf = unconstrained).
  bool k_satisfied = true;
  bool min_area_satisfied = true;
  bool max_area_satisfied = true;
  /// Center/boundary reverse-engineering risk (core/attack.h checks): the
  /// deterministic adversary guess lands within epsilon of the true spot.
  bool center_risk = false;
  bool boundary_risk = false;
  uint8_t cloaking_kind = 0;  ///< static_cast of cloakdb::CloakingKind.

  /// True when any constraint was missed or an attack compromises the
  /// region — the tail-sampling "audit failing" condition.
  bool Violation() const {
    return !k_satisfied || !min_area_satisfied || !max_area_satisfied ||
           center_risk || boundary_risk;
  }
};

/// Numeric span attribute (keys are static strings; spans stay POD).
struct SpanAttr {
  const char* key = nullptr;
  double value = 0.0;
};

inline constexpr size_t kMaxSpanAttrs = 6;

/// One completed span, as stored in the rings and handed to exporters.
/// Fixed-size and trivially copyable by design.
struct SpanRecord {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;  ///< 0 = root of its trace.
  const char* name = "";   ///< Static string.
  double start_us = 0.0;   ///< Microseconds since the tracer epoch.
  double dur_us = 0.0;
  uint32_t tid = 0;  ///< Small per-tracer thread index.
  uint8_t num_attrs = 0;
  bool has_audit = false;
  SpanAttr attrs[kMaxSpanAttrs];
  AuditEvent audit;
};

/// One audit violation retained for live monitoring (cloakmon).
struct AuditViolationRecord {
  uint64_t trace_id = 0;
  uint64_t pseudonym = 0;  ///< Server-side id only — never the user id.
  AuditEvent event;
};

/// RAII span: measures construction-to-End() and records itself into the
/// parent context's tracer. Inert (no clock reads) when the parent context
/// is inactive. Movable so spans can be declared early and armed later.
class TraceSpan {
 public:
  TraceSpan() = default;
  TraceSpan(const TraceContext& parent, const char* name);

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  TraceSpan(TraceSpan&& other) noexcept;
  TraceSpan& operator=(TraceSpan&& other) noexcept;

  ~TraceSpan() { End(); }

  bool active() const { return tracer_ != nullptr; }
  uint64_t span_id() const { return record_.span_id; }

  /// Context whose children parent under this span.
  TraceContext context() const;

  /// Attaches a numeric attribute (silently dropped past kMaxSpanAttrs).
  void AddAttr(const char* key, double value);
  /// Attaches the privacy-audit payload.
  void SetAudit(const AuditEvent& event);

  /// Ends the span and records it; returns the duration in microseconds
  /// (0 when inactive or already ended). Records exactly once.
  double End();

 private:
  Tracer* tracer_ = nullptr;
  bool sampled_ = false;
  SpanRecord record_;
};

/// The process-wide trace collector. Thread-safe: BeginTrace/FinishTrace
/// and span recording may be called from any thread; collection
/// (TakeCompletedSpans) may run concurrently with recording.
class Tracer {
 public:
  explicit Tracer(const TraceOptions& options);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  const TraceOptions& options() const { return options_; }

  /// Admits one request: assigns the trace id and the head-sampling
  /// decision. The returned context is the root parent (span_id 0).
  TraceContext BeginTrace(const char* name);

  /// Completes a trace and stores its keep/drop decision: kept when head
  /// sampled, when `latency_us` reaches options().slow_trace_us, or when
  /// `audit_violation` is set (the tail-sampling rules).
  void FinishTrace(const TraceContext& context, double latency_us,
                   bool audit_violation);

  /// Remembers an audit violation for live monitoring (bounded ring) and
  /// marks the trace for keeping: when its FinishTrace arrives — from any
  /// layer, even one that never saw the violation — the trace is retained.
  void NoteAuditViolation(uint64_t trace_id, uint64_t pseudonym,
                          const AuditEvent& event);

  /// Drains every thread ring and returns the spans of all traces decided
  /// "keep" since the last call, grouped by trace id (stable order:
  /// completion order within a trace). Spans of dropped traces are
  /// discarded; spans of still-undecided traces are held for later calls.
  std::vector<SpanRecord> TakeCompletedSpans();

  /// Most recent audit violations, newest last.
  std::vector<AuditViolationRecord> RecentAuditViolations() const;

  /// Optional flight-recorder sink: NoteAuditViolation also records a
  /// kAuditViolation event so the ring's post-mortem view includes
  /// privacy incidents.
  void set_flight_recorder(FlightRecorder* recorder) {
    flight_recorder_ = recorder;
  }

  // --- Introspection (tests, monitors) -----------------------------------
  uint64_t dropped_spans() const {
    return dropped_spans_.load(std::memory_order_relaxed);
  }
  uint64_t kept_traces() const {
    return kept_traces_.load(std::memory_order_relaxed);
  }
  uint64_t dropped_traces() const {
    return dropped_traces_.load(std::memory_order_relaxed);
  }
  uint64_t audit_violations_total() const {
    return violations_total_.load(std::memory_order_relaxed);
  }

  // --- Span plumbing (used by TraceSpan) ---------------------------------
  uint64_t NextSpanId() {
    return next_span_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Microseconds since the tracer epoch (steady clock).
  double NowUs() const;
  /// Pushes one finished span into the calling thread's ring (lock-free;
  /// drops and counts when the ring is full).
  void Record(const SpanRecord& record);

 private:
  /// Single-producer single-consumer ring: the owning thread writes, the
  /// collector (under collect_mu_) reads.
  struct ThreadBuffer {
    explicit ThreadBuffer(size_t capacity, uint32_t tid_in)
        : slots(capacity), tid(tid_in) {}
    std::vector<SpanRecord> slots;
    std::atomic<size_t> head{0};  ///< Next write index (monotonic).
    std::atomic<size_t> tail{0};  ///< Next read index (monotonic).
    uint32_t tid = 0;
  };

  ThreadBuffer* BufferOfThisThread();
  /// Moves ring contents into pending_, resolves decided traces into
  /// completed_. Caller holds collect_mu_.
  void DrainLocked();

  const TraceOptions options_;
  const uint64_t uid_;  ///< Process-unique tracer id (thread cache key).
  const std::chrono::steady_clock::time_point epoch_;

  std::atomic<uint64_t> next_trace_{1};
  std::atomic<uint64_t> next_span_{1};
  std::atomic<uint64_t> dropped_spans_{0};
  std::atomic<uint64_t> kept_traces_{0};
  std::atomic<uint64_t> dropped_traces_{0};
  std::atomic<uint64_t> violations_total_{0};
  FlightRecorder* flight_recorder_ = nullptr;

  mutable std::mutex registry_mu_;  ///< Guards buffers_ (registration only).
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;

  mutable std::mutex decide_mu_;  ///< Guards decisions + violations ring.
  std::unordered_map<uint64_t, bool> decisions_;  ///< trace id -> keep.
  std::deque<uint64_t> decision_fifo_;            ///< Eviction order.
  std::deque<AuditViolationRecord> violations_;
  /// Traces force-kept by NoteAuditViolation, consumed at FinishTrace.
  std::unordered_set<uint64_t> forced_keep_;

  mutable std::mutex collect_mu_;  ///< Guards pending_/completed_ (readers).
  std::unordered_map<uint64_t, std::vector<SpanRecord>> pending_;
  std::deque<uint64_t> pending_fifo_;
  std::vector<SpanRecord> completed_;
};

/// The thread's current trace context (inactive when no scope is open).
/// This is how layers without an explicit context parameter (shards, the
/// query processor) find the active trace.
const TraceContext& CurrentTraceContext();

/// Installs `context` as the thread's current trace context for the scope
/// of this object's lifetime, restoring the previous one on destruction.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& context);
  ~ScopedTraceContext();

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext saved_;
};

}  // namespace cloakdb::obs

#endif  // CLOAKDB_OBS_TRACE_H_
