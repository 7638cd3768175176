#include "obs/trace.h"

#include <algorithm>
#include <utility>

#include "obs/flight_recorder.h"
#include "util/random.h"

namespace cloakdb::obs {

namespace {

std::atomic<uint64_t> g_next_tracer_uid{1};

// Per-thread cache of (tracer uid -> that tracer's ring for this thread).
// Keyed by the process-unique uid, never the pointer, so a destroyed
// tracer's slot can never be confused with a new tracer reusing the
// address. Capped: an evicted entry only costs a re-registration.
struct TlBufferEntry {
  uint64_t tracer_uid = 0;
  void* buffer = nullptr;
};
constexpr size_t kTlBufferCacheCap = 64;
thread_local std::vector<TlBufferEntry> tl_buffer_cache;

thread_local TraceContext tl_current_context;

}  // namespace

// --- TraceSpan -------------------------------------------------------------

TraceSpan::TraceSpan(const TraceContext& parent, const char* name) {
  if (parent.tracer == nullptr) return;
  tracer_ = parent.tracer;
  sampled_ = parent.sampled;
  record_.trace_id = parent.trace_id;
  record_.parent_id = parent.span_id;
  record_.span_id = tracer_->NextSpanId();
  record_.name = name;
  record_.start_us = tracer_->NowUs();
}

TraceSpan::TraceSpan(TraceSpan&& other) noexcept
    : tracer_(other.tracer_),
      sampled_(other.sampled_),
      record_(other.record_) {
  other.tracer_ = nullptr;
}

TraceSpan& TraceSpan::operator=(TraceSpan&& other) noexcept {
  if (this != &other) {
    End();
    tracer_ = other.tracer_;
    sampled_ = other.sampled_;
    record_ = other.record_;
    other.tracer_ = nullptr;
  }
  return *this;
}

TraceContext TraceSpan::context() const {
  if (tracer_ == nullptr) return TraceContext{};
  return TraceContext{tracer_, record_.trace_id, record_.span_id, sampled_};
}

void TraceSpan::AddAttr(const char* key, double value) {
  if (tracer_ == nullptr) return;
  if (record_.num_attrs >= kMaxSpanAttrs) return;
  record_.attrs[record_.num_attrs++] = SpanAttr{key, value};
}

void TraceSpan::SetAudit(const AuditEvent& event) {
  if (tracer_ == nullptr) return;
  record_.has_audit = true;
  record_.audit = event;
}

double TraceSpan::End() {
  if (tracer_ == nullptr) return 0.0;
  record_.dur_us = tracer_->NowUs() - record_.start_us;
  tracer_->Record(record_);
  tracer_ = nullptr;
  return record_.dur_us;
}

// --- Tracer ----------------------------------------------------------------

Tracer::Tracer(const TraceOptions& options)
    : options_(options),
      uid_(g_next_tracer_uid.fetch_add(1, std::memory_order_relaxed)),
      epoch_(std::chrono::steady_clock::now()) {}

Tracer::~Tracer() = default;

double Tracer::NowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

TraceContext Tracer::BeginTrace(const char* name) {
  (void)name;  // Reserved for per-name sampling policies.
  TraceContext context;
  context.tracer = this;
  context.trace_id = next_trace_.fetch_add(1, std::memory_order_relaxed);
  context.span_id = 0;
  if (options_.sample_probability >= 1.0) {
    context.sampled = true;
  } else if (options_.sample_probability <= 0.0) {
    context.sampled = false;
  } else {
    // Deterministic per-trace coin: the top 53 mixed bits as a uniform in
    // [0, 1). Reproducible across runs with the same admission order.
    const double u =
        static_cast<double>(Mix64(context.trace_id) >> 11) * 0x1.0p-53;
    context.sampled = u < options_.sample_probability;
  }
  return context;
}

void Tracer::FinishTrace(const TraceContext& context, double latency_us,
                         bool audit_violation) {
  if (context.tracer != this || context.trace_id == 0) return;
  const bool slow =
      options_.slow_trace_us > 0.0 && latency_us >= options_.slow_trace_us;
  bool keep = context.sampled || slow || audit_violation;
  {
    std::lock_guard<std::mutex> lock(decide_mu_);
    if (forced_keep_.erase(context.trace_id) > 0) keep = true;
    decisions_[context.trace_id] = keep;
    decision_fifo_.push_back(context.trace_id);
    // Decisions outlive the pending window by 4x so spans drained late
    // (from a ring the collector visits after the decision) still resolve.
    const size_t bound = options_.max_pending_traces * 4;
    while (decision_fifo_.size() > bound) {
      decisions_.erase(decision_fifo_.front());
      decision_fifo_.pop_front();
    }
  }
  if (keep) {
    kept_traces_.fetch_add(1, std::memory_order_relaxed);
  } else {
    dropped_traces_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Tracer::NoteAuditViolation(uint64_t trace_id, uint64_t pseudonym,
                                const AuditEvent& event) {
  violations_total_.fetch_add(1, std::memory_order_relaxed);
  if (flight_recorder_ != nullptr)
    flight_recorder_->Record(FlightEventKind::kAuditViolation, trace_id,
                             pseudonym);
  std::lock_guard<std::mutex> lock(decide_mu_);
  violations_.push_back(AuditViolationRecord{trace_id, pseudonym, event});
  while (violations_.size() > options_.max_recent_violations)
    violations_.pop_front();
  if (trace_id != 0) {
    // Backstop for traces whose FinishTrace never comes (should not
    // happen): the set cannot grow without bound.
    if (forced_keep_.size() >= options_.max_pending_traces * 4)
      forced_keep_.clear();
    forced_keep_.insert(trace_id);
  }
}

std::vector<AuditViolationRecord> Tracer::RecentAuditViolations() const {
  std::lock_guard<std::mutex> lock(decide_mu_);
  return {violations_.begin(), violations_.end()};
}

Tracer::ThreadBuffer* Tracer::BufferOfThisThread() {
  for (const TlBufferEntry& entry : tl_buffer_cache) {
    if (entry.tracer_uid == uid_)
      return static_cast<ThreadBuffer*>(entry.buffer);
  }
  ThreadBuffer* buffer = nullptr;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    buffers_.push_back(std::make_unique<ThreadBuffer>(
        options_.span_buffer_capacity,
        static_cast<uint32_t>(buffers_.size() + 1)));
    buffer = buffers_.back().get();
  }
  if (tl_buffer_cache.size() >= kTlBufferCacheCap)
    tl_buffer_cache.erase(tl_buffer_cache.begin());
  tl_buffer_cache.push_back(TlBufferEntry{uid_, buffer});
  return buffer;
}

void Tracer::Record(const SpanRecord& record) {
  ThreadBuffer* buffer = BufferOfThisThread();
  const size_t capacity = buffer->slots.size();
  const size_t head = buffer->head.load(std::memory_order_relaxed);
  if (head - buffer->tail.load(std::memory_order_acquire) >= capacity) {
    dropped_spans_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buffer->slots[head % capacity] = record;
  buffer->slots[head % capacity].tid = buffer->tid;
  buffer->head.store(head + 1, std::memory_order_release);
}

void Tracer::DrainLocked() {
  // Snapshot the ring registry (stable pointers; only appended to).
  std::vector<ThreadBuffer*> rings;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    rings.reserve(buffers_.size());
    for (const auto& buffer : buffers_) rings.push_back(buffer.get());
  }
  for (ThreadBuffer* ring : rings) {
    const size_t capacity = ring->slots.size();
    const size_t head = ring->head.load(std::memory_order_acquire);
    size_t tail = ring->tail.load(std::memory_order_relaxed);
    for (; tail != head; ++tail) {
      const SpanRecord& span = ring->slots[tail % capacity];
      auto [it, inserted] = pending_.try_emplace(span.trace_id);
      if (inserted) pending_fifo_.push_back(span.trace_id);
      it->second.push_back(span);
    }
    ring->tail.store(head, std::memory_order_release);
  }
  // Resolve every pending trace with a known decision.
  {
    std::lock_guard<std::mutex> lock(decide_mu_);
    for (auto it = pending_.begin(); it != pending_.end();) {
      auto decided = decisions_.find(it->first);
      if (decided == decisions_.end()) {
        ++it;
        continue;
      }
      if (decided->second) {
        for (SpanRecord& span : it->second) {
          if (completed_.size() >= options_.max_completed_spans) {
            dropped_spans_.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          completed_.push_back(span);
        }
      }
      it = pending_.erase(it);
    }
  }
  // Bound the undecided backlog (a trace whose FinishTrace never came, or
  // whose spans raced in just after its decision was evicted).
  while (pending_.size() > options_.max_pending_traces &&
         !pending_fifo_.empty()) {
    const uint64_t oldest = pending_fifo_.front();
    pending_fifo_.pop_front();
    auto it = pending_.find(oldest);
    if (it != pending_.end()) {
      dropped_spans_.fetch_add(it->second.size(), std::memory_order_relaxed);
      pending_.erase(it);
    }
  }
  // Compact the fifo of ids already resolved above.
  while (!pending_fifo_.empty() && pending_.count(pending_fifo_.front()) == 0)
    pending_fifo_.pop_front();
}

std::vector<SpanRecord> Tracer::TakeCompletedSpans() {
  std::lock_guard<std::mutex> lock(collect_mu_);
  DrainLocked();
  // Group by trace id (stable within a trace) so exporters and tests see
  // each trace's spans contiguously.
  std::stable_sort(completed_.begin(), completed_.end(),
                   [](const SpanRecord& a, const SpanRecord& b) {
                     return a.trace_id < b.trace_id;
                   });
  return std::exchange(completed_, {});
}

// --- Thread-local context --------------------------------------------------

const TraceContext& CurrentTraceContext() { return tl_current_context; }

ScopedTraceContext::ScopedTraceContext(const TraceContext& context)
    : saved_(tl_current_context) {
  tl_current_context = context;
}

ScopedTraceContext::~ScopedTraceContext() { tl_current_context = saved_; }

}  // namespace cloakdb::obs
