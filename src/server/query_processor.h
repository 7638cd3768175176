// The privacy-aware query processor: the server facade of paper Fig. 1.
//
// Receives cloaked updates from the Location Anonymizer, stores public
// objects, and dispatches the two novel query classes (private-over-public,
// public-over-private) while keeping per-query cost statistics (candidate
// counts and an estimate of bytes shipped to mobile clients — the
// transmission-cost side of the paper's privacy/QoS trade-off).
//
// Thread safety: data-management entry points (ApplyCloakedUpdate,
// DropPseudonym, store() mutation) require exclusive access. All query
// methods are const and touch only immutable store state plus the
// internally-locked stats block, so any number of threads may run queries
// concurrently as long as no writer is in flight — the read path the
// sharded service layer (src/service/) relies on.

#ifndef CLOAKDB_SERVER_QUERY_PROCESSOR_H_
#define CLOAKDB_SERVER_QUERY_PROCESSOR_H_

#include <mutex>
#include <vector>

#include "obs/metrics.h"
#include "server/object_store.h"
#include "server/private_private.h"
#include "server/private_queries.h"
#include "server/public_queries.h"
#include "util/stats.h"
#include "util/status.h"

namespace cloakdb {

/// Wire-size model for the candidate lists shipped to mobile clients.
/// Experiments vary payload size (richer records, compression) by passing a
/// different model to the QueryProcessor constructor instead of
/// recompiling.
struct WireCostModel {
  /// Bytes to ship one public object (id + location + category by default,
  /// ignoring names).
  size_t bytes_per_object = 8 + 16 + 4;
};

/// Query-processing counters.
struct ServerStats {
  uint64_t cloaked_updates = 0;
  uint64_t private_range_queries = 0;
  uint64_t private_nn_queries = 0;
  uint64_t private_knn_queries = 0;
  uint64_t private_private_queries = 0;
  uint64_t public_count_queries = 0;
  uint64_t public_nn_queries = 0;
  uint64_t heatmap_queries = 0;
  RunningStats range_candidates;   ///< Candidates per private range query.
  RunningStats nn_candidates;      ///< Candidates per private NN query.
  uint64_t bytes_to_clients = 0;   ///< Modeled candidate-list traffic.
};

/// Folds `from` into `into` (counter sums; candidate stats merged) — the
/// reduction used to aggregate per-shard stats into ServiceStats.
void MergeServerStats(ServerStats* into, const ServerStats& from);

/// Optional per-query-kind index-probe latency sinks (microseconds). The
/// sharded service points every shard's processor at one set of shared
/// histograms from its MetricsRegistry; standalone processors leave them
/// null and pay nothing. "Probe" covers an index-served private query's
/// window fetch, refine and materialize (the NN/kNN corner probes belong to
/// its plan), and the whole of a count or heatmap query.
struct QueryProcessorObs {
  obs::ShardedHistogram* range_probe_us = nullptr;
  obs::ShardedHistogram* nn_probe_us = nullptr;
  obs::ShardedHistogram* knn_probe_us = nullptr;
  obs::ShardedHistogram* count_probe_us = nullptr;
  obs::ShardedHistogram* heatmap_probe_us = nullptr;
};

/// The location-based database server.
class QueryProcessor {
 public:
  /// `space` bounds the private-region index; `wire_cost` prices the
  /// candidate lists charged to bytes_to_clients; `public_index` selects
  /// the per-category public-data structure (index/public_index.h).
  explicit QueryProcessor(const Rect& space, uint32_t rect_grid_cells = 64,
                          const WireCostModel& wire_cost = {},
                          const PublicCategoryIndex::Config& public_index = {});

  /// Data management (delegates to the ObjectStore).
  ObjectStore& store() { return store_; }
  const ObjectStore& store() const { return store_; }

  /// Ingests one anonymized location update: the server learns only
  /// (pseudonym, region).
  Status ApplyCloakedUpdate(ObjectId pseudonym, const Rect& region);

  /// Drops a pseudonym (user went passive / unsubscribed).
  Status DropPseudonym(ObjectId pseudonym);

  /// Private range query over public data (Fig. 5a).
  Result<PrivateRangeResult> PrivateRange(
      const Rect& cloaked, double radius, Category category,
      const PrivateRangeOptions& opts = {}) const;

  /// Private NN query over public data (Fig. 5b).
  Result<PrivateNnResult> PrivateNn(const Rect& cloaked,
                                    Category category) const;

  /// Private k-NN query over public data (k > 1 extension of Fig. 5b).
  Result<PrivateKnnResult> PrivateKnn(const Rect& cloaked, size_t k,
                                      Category category) const;

  /// Answers a planned private query (server/private_queries.h) from
  /// `hits`, a superset of the fetch window's category objects such as a
  /// cached widened probe, or, when null, from one index probe of the
  /// window. Runs the same kernel and books the same ServerStats as the
  /// isolated entry points above, which are a plan plus Answer(fetch).
  /// Only the index probe is timed and traced as `index.probe`.
  template <typename R>
  Result<R> Answer(const PrivateFetch<R>& fetch,
                   const std::vector<PointEntry>* hits = nullptr) const;

  /// Index hits (id + point) of every `category` object inside
  /// `probe_region`: one widened probe serving many queries. No stats.
  Result<std::vector<PointEntry>> SharedProbe(const Rect& probe_region,
                                              Category category) const;

  /// Counts a public-count query served verbatim from the service's
  /// candidate cache, so ServerStats stays comparable with uncached runs.
  void NotePublicCountFromCache() const;

  /// Private range query over private data (both sides cloaked).
  Result<PrivatePrivateRangeResult> PrivatePrivateRange(
      const Rect& querier, double radius,
      const PrivatePrivateOptions& opts = {}) const;

  /// Private NN query over private data (both sides cloaked).
  Result<PrivatePrivateNnResult> PrivatePrivateNn(
      const Rect& querier, const PrivatePrivateOptions& opts = {}) const;

  /// Public count query over private data (Fig. 6a).
  Result<PublicCountResult> PublicCount(const Rect& window) const;

  /// Public NN query over private data (Fig. 6b).
  Result<PublicNnResult> PublicNn(const Point& from,
                                  const PublicNnOptions& opts = {}) const;

  /// Expected-density heatmap over private data (Fig. 6a generalized).
  Result<HeatmapResult> Heatmap(uint32_t resolution) const;

  const WireCostModel& wire_cost() const { return wire_cost_; }

  /// Snapshot of the counters (copied under the stats lock).
  ServerStats stats() const;
  void ResetStats();

  /// Installs probe-latency sinks (histograms are internally synchronized,
  /// so concurrent const queries may record freely). Call before queries
  /// start; the handles must outlive the processor.
  void SetObs(const QueryProcessorObs& obs) { obs_ = obs; }

 private:
  ObjectStore store_;
  WireCostModel wire_cost_;
  QueryProcessorObs obs_;
  /// Query methods are logically read-only; the counters they bump live
  /// behind this lock so concurrent const queries stay race-free.
  mutable std::mutex stats_mu_;
  mutable ServerStats stats_;
};

// --- Fan-in merge helpers -------------------------------------------------
//
// The sharded service layer partitions public objects across shards and
// hash-routes private users, then fans one query out to several
// QueryProcessors and merges the partial results with these helpers. Merged
// candidate lists are sorted by object id (deterministic regardless of
// shard count); merged Range/Count results are *identical* to a
// single-shard oracle over the union of the data, and merged NN/kNN results
// preserve the candidate-list guarantee (the true answer for every possible
// querier location survives the merge).

/// Merges private-range partials: candidate union (sorted by id), summed
/// prune counters. `parts` must stem from the same (cloaked, radius) query
/// over disjoint object sets.
PrivateRangeResult MergePrivateRangeResults(
    std::vector<PrivateRangeResult> parts);

/// Merges private-NN partials for `cloaked`: candidate union re-pruned by
/// global dominance (keep o iff MinDist(o, R) <= min over the union of
/// MaxDist(o', R)).
PrivateNnResult MergePrivateNnResults(const Rect& cloaked,
                                      std::vector<PrivateNnResult> parts);

/// Merges private-kNN partials for `cloaked`: candidate union re-pruned by
/// global k-dominance (drop o when at least k union members are guaranteed
/// nearer for every location in R).
PrivateKnnResult MergePrivateKnnResults(const Rect& cloaked, size_t k,
                                        std::vector<PrivateKnnResult> parts);

/// Merges public-count partials: contributions concatenated (sorted by
/// pseudonym) and the three paper answer formats recomputed from the merged
/// per-object probabilities — bit-identical to the single-shard answer.
Result<PublicCountResult> MergePublicCountResults(
    std::vector<PublicCountResult> parts);

/// Merges heatmaps of identical resolution/space by summing expected mass.
Result<HeatmapResult> MergeHeatmapResults(std::vector<HeatmapResult> parts);

}  // namespace cloakdb

#endif  // CLOAKDB_SERVER_QUERY_PROCESSOR_H_
