// Aggregated self-instrumentation of the sharded CloakDB service.
//
// Every shard keeps its own AnonymizerStats; ServiceStats sums them and
// reads every query and ingest counter from the service's metrics
// registry, where each is counted once (a query after its merge, not per
// shard probe).

#ifndef CLOAKDB_SERVICE_SERVICE_STATS_H_
#define CLOAKDB_SERVICE_SERVICE_STATS_H_

#include <array>
#include <string>
#include <vector>

#include "core/anonymizer.h"
#include "obs/slow_query_log.h"
#include "service/api.h"

namespace cloakdb {

/// Folds `from` into `into` — the anonymizer-side reduction.
void MergeAnonymizerStats(AnonymizerStats* into, const AnonymizerStats& from);

/// Service-wide ingestion counters, read from the `ingest.*` metrics.
struct IngestStats {
  uint64_t updates_enqueued = 0;   ///< Accepted into a shard queue.
  uint64_t updates_applied = 0;    ///< Cloaked and forwarded to the server.
  uint64_t updates_rejected = 0;   ///< Dropped (invalid user / location).
  uint64_t batches_drained = 0;    ///< UpdateLocationsBatch invocations.
  uint64_t pseudonym_rotations = 0; ///< Retired pseudonyms forwarded.
  double mean_batch_size = 0.0;    ///< Updates per drained batch.
};

/// One shard's counter snapshot.
struct ShardStats {
  uint32_t shard = 0;
  AnonymizerStats anonymizer;
  size_t queue_depth = 0;   ///< Updates waiting in the shard queue.
  size_t num_users = 0;     ///< Users routed to this shard.
};

/// Overload-protection and fault-injection counters. Service-level (the
/// admission controller and fault injector are shared across shards), so
/// these are copied into ServiceStats rather than aggregated.
struct RobustnessStats {
  uint64_t queries_shed = 0;      ///< Rejected at admission (ResourceExhausted).
  uint64_t queries_admitted_degraded = 0;  ///< Admitted with a capped budget.
  uint64_t queries_degraded = 0;  ///< Returned with the degraded flag set.
  uint64_t deadline_hits = 0;     ///< Queries whose deadline tripped mid-flight.
  uint64_t updates_shed = 0;      ///< Updates shed by queue-depth admission.
  uint64_t injected_probe_failures = 0;  ///< Chaos: probes failed by injection.
  uint64_t injected_probe_delays = 0;    ///< Chaos: probes delayed by injection.
  uint64_t injected_queue_stalls = 0;    ///< Chaos: drain batches stalled.
};

/// The service-wide aggregate of all shards.
struct ServiceStats {
  /// Binary identity ("cloakdb/<version> (<compiler>)"), so a remote
  /// telemetry reader can correlate a snapshot with a build.
  std::string version;
  /// Durability identity: mode name ("off"/"async"/"fsync") and the data
  /// directory backing the store (empty when durability is off).
  std::string durability_mode;
  std::string data_dir;
  uint32_t num_shards = 0;
  uint32_t worker_threads = 0;
  /// Monotonic microseconds since the service started (steady clock), so
  /// two snapshots always yield a well-defined rate denominator.
  uint64_t uptime_us = 0;
  /// Wall-clock time of this snapshot (microseconds since the Unix epoch);
  /// labels the snapshot for dashboards and artifacts.
  int64_t snapshot_unix_us = 0;
  AnonymizerStats anonymizer;  ///< Sum over shards.
  IngestStats ingest;
  /// Accepted one-shot queries per kind (indexed by QueryKind): the sample
  /// count of `query.<kind>.latency_us`.
  std::array<uint64_t, kNumQueryKinds> queries{};
  /// Modeled candidate-list bytes sent to clients: the sum of
  /// `query.<kind>.wire_bytes`.
  uint64_t bytes_to_clients = 0;
  size_t queue_depth = 0;      ///< Total updates currently queued.
  size_t num_users = 0;        ///< Total registered users.
  RobustnessStats robustness;  ///< Overload + chaos counters.
  /// The slowest queries seen so far, slowest first (empty when the
  /// service's slow-query log is disabled).
  std::vector<obs::SlowQueryRecord> slow_queries;

  /// Multi-line human-readable summary for logs and CLI output.
  std::string ToString() const;
};

}  // namespace cloakdb

#endif  // CLOAKDB_SERVICE_SERVICE_STATS_H_
