// Service-internal helper shared by the CloakDbService translation units.

#ifndef CLOAKDB_SERVICE_ROOT_TRACE_H_
#define CLOAKDB_SERVICE_ROOT_TRACE_H_

#include "obs/trace.h"

namespace cloakdb {

/// One traced request: assigns the trace id at admission, owns the root
/// span, and completes the trace — also on early error returns, via the
/// destructor — feeding the root latency into the tail-sampling decision.
/// Inert (and free) when the service has no tracer.
class RootTrace {
 public:
  RootTrace(obs::Tracer* tracer, const char* name) {
    if (tracer == nullptr) return;
    begin_ = tracer->BeginTrace(name);
    span_ = obs::TraceSpan(begin_, name);
  }

  RootTrace(const RootTrace&) = delete;
  RootTrace& operator=(const RootTrace&) = delete;

  ~RootTrace() {
    if (begin_.tracer == nullptr) return;
    // Audit violations reach the tracer directly (NoteAuditViolation
    // force-keeps the trace), so only the latency feeds in here.
    begin_.tracer->FinishTrace(begin_, span_.End(),
                               /*audit_violation=*/false);
  }

  /// Children built from this context parent under the root span.
  obs::TraceContext context() const { return span_.context(); }

  /// Annotates the root span (shed / degraded-admission markers).
  void AddAttr(const char* key, double value) { span_.AddAttr(key, value); }

 private:
  obs::TraceContext begin_;
  obs::TraceSpan span_;
};

}  // namespace cloakdb

#endif  // CLOAKDB_SERVICE_ROOT_TRACE_H_
