// The privacy-aware query processor: the server facade of paper Fig. 1.
//
// Receives cloaked updates from the Location Anonymizer, stores public
// objects, and dispatches the two novel query classes (private-over-public,
// public-over-private). Per-query cost (candidates, bytes shipped to mobile
// clients) is counted once per merged query by the service's metrics
// registry, not here.
//
// Thread safety: data-management entry points (ApplyCloakedUpdate,
// DropPseudonym, store() mutation) require exclusive access. All query
// methods are const and touch only immutable store state plus the
// internally-synchronized probe histograms, so any number of threads may
// run queries concurrently as long as no writer is in flight — the read
// path the sharded service layer (src/service/) relies on.

#ifndef CLOAKDB_SERVER_QUERY_PROCESSOR_H_
#define CLOAKDB_SERVER_QUERY_PROCESSOR_H_

#include <vector>

#include "obs/metrics.h"
#include "server/object_store.h"
#include "server/private_private.h"
#include "server/private_queries.h"
#include "server/public_queries.h"
#include "util/status.h"

namespace cloakdb {

/// Wire-size model for the candidate lists shipped to mobile clients. The
/// service prices each merged candidate list with it
/// (CloakDbServiceOptions::wire_cost).
struct WireCostModel {
  /// Bytes to ship one public object (id + location + category by default,
  /// ignoring names).
  size_t bytes_per_object = 8 + 16 + 4;
};

/// Optional per-query-kind index-probe latency sinks (microseconds). The
/// sharded service points every shard's processor at one set of shared
/// histograms from its MetricsRegistry; standalone processors leave them
/// null and pay nothing. "Probe" covers an index-served private query's
/// window fetch, refine and materialize (the NN/kNN corner probes belong to
/// its plan), and the whole of a count or heatmap query. Only an accepted
/// query books its probe time.
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
  /// `space` bounds the private-region index; `public_index` configures
  /// every category's sealed tree + spill facade — its compact limit and
  /// lifecycle counters (index/public_index.h). The WireCostModel is
  /// unused: it stays for callers that still pass one.
  explicit QueryProcessor(const Rect& space, uint32_t rect_grid_cells = 64,
                          const WireCostModel& /*unused*/ = {},
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

  /// Index hits (id + point + row) of every `category` object inside
  /// `probe_region`, sorted by id: a standing query's fetch. Not timed.
  Result<std::vector<IndexHit>> SharedProbe(const Rect& probe_region,
                                            Category category) const;

  /// Private range query over private data (both sides cloaked).
  Result<PrivatePrivateRangeResult> PrivatePrivateRange(
      const Rect& querier, double radius,
      const PrivatePrivateOptions& opts = {}) const;

  /// Private NN query over private data (both sides cloaked).
  Result<PrivatePrivateNnResult> PrivatePrivateNn(
      const Rect& querier, const PrivatePrivateOptions& opts = {}) const;

  /// The scan of a public count query, without an answer: what a shard
  /// contributes to a sharded count. Books the count's probe time and
  /// `index.probe` span.
  Result<PublicCountPart> ScanPublicCount(const Rect& window) const;

  /// Public count query over private data (Fig. 6a): ScanPublicCount plus
  /// all three answer formats.
  Result<PublicCountResult> PublicCount(const Rect& window) const;

  /// Public NN query over private data (Fig. 6b).
  Result<PublicNnResult> PublicNn(const Point& from,
                                  const PublicNnOptions& opts = {}) const;

  /// Expected-density heatmap over private data (Fig. 6a generalized).
  Result<HeatmapResult> Heatmap(uint32_t resolution) const;

  /// Installs probe-latency sinks (histograms are internally synchronized,
  /// so concurrent const queries may record freely). Call before queries
  /// start; the handles must outlive the processor.
  void SetObs(const QueryProcessorObs& obs) { obs_ = obs; }

 private:
  /// Answers a planned private query (server/private_queries.h) from one
  /// index probe of its window, timed into `probe_us` and traced as
  /// `index.probe`.
  template <typename R>
  Result<R> Answer(const PrivateFetch<R>& fetch,
                   obs::ShardedHistogram* probe_us) const;

  ObjectStore store_;
  QueryProcessorObs obs_;
};

// --- Fan-in merge helpers -------------------------------------------------
//
// The sharded service layer partitions public objects across shards and
// hash-routes private users, then fans one query out to several
// QueryProcessors and merges the partial results with these helpers. Merged
// candidate lists are sorted by object id (deterministic regardless of
// shard count); merged Range results are *identical* to a single-shard
// oracle over the union of the data, merged Count contributions are the
// oracle's sorted by pseudonym, and merged NN/kNN results preserve the
// candidate-list guarantee (the true answer for every possible querier
// location survives the merge).

/// Merges private-range partials: candidate union (sorted by id), summed
/// prune counters; a single part is returned as is. `parts` must stem from
/// the same (cloaked, radius) query over disjoint object sets, each with
/// its candidates sorted by id.
PrivateRangeResult MergePrivateRangeResults(
    std::vector<PrivateRangeResult> parts);

/// Merges private-NN partials for `cloaked`: candidate union re-pruned by
/// the tile dominance kernel (server/dominance.h) over the union; a single
/// part is returned as is. The result equals the one-shard answer.
PrivateNnResult MergePrivateNnResults(const Rect& cloaked,
                                      std::vector<PrivateNnResult> parts);

/// Merges private-kNN partials for `cloaked`: candidate union re-pruned by
/// the tile k-dominance kernel, like MergePrivateNnResults.
PrivateKnnResult MergePrivateKnnResults(const Rect& cloaked, size_t k,
                                        std::vector<PrivateKnnResult> parts);

/// Merges public-count parts: their pseudonym-sorted contributions merged
/// linearly (id_order.h) and the O(n) answer formats (expected value,
/// variance, [min, max]) summarized from them. The PMF is left empty: the
/// wire drops it, and a caller that returns it builds it with
/// MakeCountAnswer over the merged contributions.
Result<PublicCountResult> MergePublicCountResults(
    std::vector<PublicCountPart> parts);

/// Merges heatmaps of identical resolution/space by summing expected mass.
Result<HeatmapResult> MergeHeatmapResults(std::vector<HeatmapResult> parts);

}  // namespace cloakdb

#endif  // CLOAKDB_SERVER_QUERY_PROCESSOR_H_
