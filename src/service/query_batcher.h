// Batching and clustering for the shared-execution engine.
//
// Concurrently submitted private queries are collected for a short window,
// then clustered by cloaked-region overlap on the signature grid: queries
// of the same kind and category whose snapped regions form a connected
// overlapping component share one cluster, and the cluster's cell-aligned
// union cover becomes the probe base every member keys its cache lookup
// with — so a cluster of N overlapping queries executes one widened index
// probe per shard instead of N.
//
// The batcher spends no threads of its own: the first submitter of a
// window becomes the leader, waits out the window (or the width cap),
// executes the whole batch on its own thread, and hands every follower its
// result. With a zero window each submission executes immediately.

#ifndef CLOAKDB_SERVICE_QUERY_BATCHER_H_
#define CLOAKDB_SERVICE_QUERY_BATCHER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "obs/trace.h"
#include "service/api.h"
#include "service/candidate_cache.h"
#include "util/deadline.h"
#include "util/status.h"

namespace cloakdb {

/// One query of a batch: the unified envelope plus the service-internal
/// carriage (trace adoption, admission limits) the batch leader needs to
/// execute the member on the submitter's behalf. Every kind executes; only
/// the private-over-public kinds share probes, the aggregates run as if
/// isolated.
struct BatchQuery {
  QueryRequest request;
  /// Trace of the submitting request; the batch leader executes this
  /// member under it (adoption is recorded as a span link), so a query's
  /// spans land in its own trace even when a different thread ran it.
  obs::TraceContext trace;
  /// Admission deadline of the submitting request. The batch leader caps
  /// its window wait by its own deadline, and the executor checks member
  /// deadlines between shard probes.
  Deadline deadline;
  /// Shard fan-out budget stamped at admission: 0 = unlimited; a degraded
  /// admission sets the configured degrade budget.
  uint32_t shard_budget = 0;
};

/// The result of one batched query is simply the envelope response: the
/// same tagged type the wire serializes, with errors in-band.
using BatchQueryResult = QueryResponse;

/// One shared-probe cluster: member indices into the batch plus the
/// cell-aligned union cover of their snapped cloaked regions.
struct QueryCluster {
  std::vector<size_t> members;
  Rect cover;
};

/// Clusters a batch: same (kind, category) and connected snapped-region
/// overlap. Queries with an empty cloaked region get a singleton cluster
/// (they fail validation downstream either way). Deterministic for a given
/// batch order.
std::vector<QueryCluster> ClusterBatch(const std::vector<BatchQuery>& queries,
                                       const CellSignature& signature);

/// Collects concurrent submissions into batches for a shared executor.
class QueryBatcher {
 public:
  using Executor = std::function<std::vector<BatchQueryResult>(
      const std::vector<BatchQuery>&)>;

  /// `window_us` is how long a batch leader waits for followers;
  /// `max_width` releases the leader early once that many queries are
  /// pending. `executor` runs the batch (on the leader's thread) and must
  /// return one result per query, in order.
  QueryBatcher(uint32_t window_us, size_t max_width, Executor executor);

  /// Submits one query and blocks until its batch has executed. Safe to
  /// call from any number of threads.
  BatchQueryResult Submit(const BatchQuery& query);

 private:
  struct Pending {
    const BatchQuery* query = nullptr;
    BatchQueryResult result;
    bool done = false;
  };

  const uint32_t window_us_;
  const size_t max_width_;
  const Executor executor_;
  std::mutex mu_;
  std::condition_variable leader_cv_;    ///< Wakes the leader at width cap.
  std::condition_variable followers_cv_; ///< Wakes followers on completion.
  std::vector<Pending*> pending_;
};

}  // namespace cloakdb

#endif  // CLOAKDB_SERVICE_QUERY_BATCHER_H_
