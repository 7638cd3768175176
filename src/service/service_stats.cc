#include "service/service_stats.h"

#include <cstdio>

namespace cloakdb {

void MergeAnonymizerStats(AnonymizerStats* into, const AnonymizerStats& from) {
  into->updates += from.updates;
  into->cloaks_computed += from.cloaks_computed;
  into->incremental_reuses += from.incremental_reuses;
  into->shared_reuses += from.shared_reuses;
  into->unsatisfied += from.unsatisfied;
}

std::string ServiceStats::ToString() const {
  char buf[512];
  std::string out;
  if (!version.empty()) {
    std::snprintf(buf, sizeof(buf), "version=%s durability=%s%s%s\n",
                  version.c_str(),
                  durability_mode.empty() ? "off" : durability_mode.c_str(),
                  data_dir.empty() ? "" : " data_dir=",
                  data_dir.c_str());
    out += buf;
  }
  std::snprintf(
      buf, sizeof(buf),
      "shards=%u workers=%u users=%zu queued=%zu uptime=%.1fs\n"
      "ingest: enqueued=%llu applied=%llu rejected=%llu batches=%llu "
      "avg_batch=%.1f rotations=%llu\n"
      "anonymizer: updates=%llu computed=%llu incremental=%llu shared=%llu "
      "unsatisfied=%llu\n"
      "queries:",
      num_shards, worker_threads, num_users, queue_depth,
      static_cast<double>(uptime_us) / 1e6,
      static_cast<unsigned long long>(ingest.updates_enqueued),
      static_cast<unsigned long long>(ingest.updates_applied),
      static_cast<unsigned long long>(ingest.updates_rejected),
      static_cast<unsigned long long>(ingest.batches_drained),
      ingest.mean_batch_size,
      static_cast<unsigned long long>(ingest.pseudonym_rotations),
      static_cast<unsigned long long>(anonymizer.updates),
      static_cast<unsigned long long>(anonymizer.cloaks_computed),
      static_cast<unsigned long long>(anonymizer.incremental_reuses),
      static_cast<unsigned long long>(anonymizer.shared_reuses),
      static_cast<unsigned long long>(anonymizer.unsatisfied));
  out += buf;
  for (size_t kind = 0; kind < queries.size(); ++kind) {
    std::snprintf(buf, sizeof(buf), " %s=%llu",
                  QueryKindName(static_cast<QueryKind>(kind)),
                  static_cast<unsigned long long>(queries[kind]));
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), " bytes=%llu\n",
                static_cast<unsigned long long>(bytes_to_clients));
  out += buf;
  std::snprintf(
      buf, sizeof(buf),
      "robustness: shed=%llu admitted_degraded=%llu degraded=%llu "
      "deadline_hits=%llu updates_shed=%llu faults=%llu/%llu/%llu\n",
      static_cast<unsigned long long>(robustness.queries_shed),
      static_cast<unsigned long long>(robustness.queries_admitted_degraded),
      static_cast<unsigned long long>(robustness.queries_degraded),
      static_cast<unsigned long long>(robustness.deadline_hits),
      static_cast<unsigned long long>(robustness.updates_shed),
      static_cast<unsigned long long>(robustness.injected_probe_failures),
      static_cast<unsigned long long>(robustness.injected_probe_delays),
      static_cast<unsigned long long>(robustness.injected_queue_stalls));
  out += buf;
  for (const obs::SlowQueryRecord& q : slow_queries) {
    std::snprintf(buf, sizeof(buf),
                  "slow: %s %.0fus area=%.4g shards=%u candidates=%llu "
                  "trace=%llu status=%s\n",
                  q.kind.c_str(), q.latency_us, q.region_area,
                  q.shards_touched,
                  static_cast<unsigned long long>(q.candidates),
                  static_cast<unsigned long long>(q.trace_id),
                  to_string(q.error));
    out += buf;
  }
  return out;
}

}  // namespace cloakdb
