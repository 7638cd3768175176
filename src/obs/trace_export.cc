#include "obs/trace_export.h"

#include <cinttypes>
#include <cstdio>

#include "obs/metrics.h"

namespace cloakdb::obs {

namespace {

void AppendU64(std::string* out, uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  *out += buf;
}

void AppendAuditJson(std::string* out, const AuditEvent& audit) {
  *out += "{\"requested_k\":";
  AppendU64(out, audit.requested_k);
  *out += ",\"achieved_k\":";
  AppendU64(out, audit.achieved_k);
  *out += ",\"area\":";
  AppendJsonNumber(out, audit.area);
  *out += ",\"min_area\":";
  AppendJsonNumber(out, audit.min_area);
  *out += ",\"max_area\":";
  AppendJsonNumber(out, audit.max_area);
  *out += ",\"k_satisfied\":";
  *out += audit.k_satisfied ? "true" : "false";
  *out += ",\"min_area_satisfied\":";
  *out += audit.min_area_satisfied ? "true" : "false";
  *out += ",\"max_area_satisfied\":";
  *out += audit.max_area_satisfied ? "true" : "false";
  *out += ",\"center_risk\":";
  *out += audit.center_risk ? "true" : "false";
  *out += ",\"boundary_risk\":";
  *out += audit.boundary_risk ? "true" : "false";
  *out += ",\"cloaking_kind\":";
  AppendU64(out, audit.cloaking_kind);
  *out += ",\"violation\":";
  *out += audit.Violation() ? "true" : "false";
  *out += '}';
}

// The fields shared by both formats: identity, hierarchy, attributes, and
// the audit payload (timing differs per format and is emitted by callers).
void AppendSpanCommonFields(std::string* out, const SpanRecord& span) {
  *out += "\"trace_id\":";
  AppendU64(out, span.trace_id);
  *out += ",\"span_id\":";
  AppendU64(out, span.span_id);
  *out += ",\"parent_id\":";
  AppendU64(out, span.parent_id);
  for (uint8_t i = 0; i < span.num_attrs; ++i) {
    *out += ",\"";
    AppendJsonEscaped(out, span.attrs[i].key);
    *out += "\":";
    AppendJsonNumber(out, span.attrs[i].value);
  }
  if (span.has_audit) {
    *out += ",\"audit\":";
    AppendAuditJson(out, span.audit);
  }
}

}  // namespace

void AppendSpanJson(std::string* out, const SpanRecord& span) {
  *out += "{\"name\":\"";
  AppendJsonEscaped(out, span.name);
  *out += "\",\"ts\":";
  AppendJsonNumber(out, span.start_us);
  *out += ",\"dur\":";
  AppendJsonNumber(out, span.dur_us);
  *out += ",\"tid\":";
  AppendU64(out, span.tid);
  *out += ',';
  AppendSpanCommonFields(out, span);
  *out += '}';
}

std::string ExportChromeTrace(const std::vector<SpanRecord>& spans) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord& span : spans) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    AppendJsonEscaped(&out, span.name);
    out += "\",\"cat\":\"";
    out += span.has_audit ? "cloak" : "query";
    out += "\",\"ph\":\"X\",\"ts\":";
    AppendJsonNumber(&out, span.start_us);
    out += ",\"dur\":";
    AppendJsonNumber(&out, span.dur_us);
    out += ",\"pid\":1,\"tid\":";
    AppendU64(&out, span.tid);
    out += ",\"args\":{";
    AppendSpanCommonFields(&out, span);
    out += "}}";
  }
  out += "]}";
  return out;
}

std::string ExportJsonl(const std::vector<SpanRecord>& spans) {
  std::string out;
  for (const SpanRecord& span : spans) {
    AppendSpanJson(&out, span);
    out += '\n';
  }
  return out;
}

}  // namespace cloakdb::obs
