#include "service/query_batcher.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <utility>

namespace cloakdb {

std::vector<QueryCluster> ClusterBatch(const std::vector<BatchQuery>& queries,
                                       const CellSignature& signature) {
  std::vector<QueryCluster> out;
  // Group by (kind, category): only same-kind, same-category probes can be
  // shared (the reach semantics and the probed index differ otherwise).
  std::map<std::pair<uint8_t, Category>, std::vector<size_t>> groups;
  for (size_t i = 0; i < queries.size(); ++i) {
    const QueryRequest& request = queries[i].request;
    if (request.region.IsEmpty() || request.region.HasNaN()) {
      // Fails validation downstream; keep it out of every real cluster.
      out.push_back({{i}, Rect()});
      continue;
    }
    groups[{static_cast<uint8_t>(request.kind), request.category}]
        .push_back(i);
  }
  for (const auto& [key, members] : groups) {
    (void)key;
    // Greedy connected components over snapped-region overlap: merging two
    // clusters takes the bounding box of their covers, which can only grow
    // the probe — wider, never wrong.
    std::vector<QueryCluster> clusters;
    for (size_t i : members) {
      Rect snapped = signature.SnapToCells(queries[i].request.region);
      QueryCluster merged{{i}, snapped};
      std::vector<QueryCluster> keep;
      keep.reserve(clusters.size());
      for (auto& cluster : clusters) {
        if (cluster.cover.Intersects(merged.cover)) {
          merged.cover = merged.cover.Union(cluster.cover);
          merged.members.insert(merged.members.end(),
                                cluster.members.begin(),
                                cluster.members.end());
        } else {
          keep.push_back(std::move(cluster));
        }
      }
      keep.push_back(std::move(merged));
      clusters = std::move(keep);
    }
    for (auto& cluster : clusters) out.push_back(std::move(cluster));
  }
  return out;
}

QueryBatcher::QueryBatcher(uint32_t window_us, size_t max_width,
                           Executor executor)
    : window_us_(window_us),
      max_width_(max_width == 0 ? 1 : max_width),
      executor_(std::move(executor)) {}

BatchQueryResult QueryBatcher::Submit(const BatchQuery& query) {
  Pending pending;
  pending.query = &query;
  std::unique_lock<std::mutex> lock(mu_);
  const bool leader = pending_.empty();
  pending_.push_back(&pending);
  if (!leader) {
    if (pending_.size() >= max_width_) leader_cv_.notify_one();
    followers_cv_.wait(lock, [&] { return pending.done; });
    return std::move(pending.result);
  }
  if (window_us_ > 0 && pending_.size() < max_width_) {
    // A leader with a deadline never waits past what it can still afford:
    // batching trades latency for sharing, and an admission deadline caps
    // that trade at one window, never more.
    int64_t wait_us = static_cast<int64_t>(window_us_);
    if (!query.deadline.is_infinite()) {
      wait_us = std::min(wait_us, query.deadline.RemainingUs());
    }
    if (wait_us > 0) {
      leader_cv_.wait_for(lock, std::chrono::microseconds(wait_us),
                          [&] { return pending_.size() >= max_width_; });
    }
  }
  std::vector<Pending*> batch;
  batch.swap(pending_);  // The next submitter becomes the next leader.
  lock.unlock();

  std::vector<BatchQuery> batch_queries;
  batch_queries.reserve(batch.size());
  for (const Pending* p : batch) batch_queries.push_back(*p->query);
  std::vector<BatchQueryResult> results = executor_(batch_queries);

  lock.lock();
  for (size_t i = 0; i < batch.size(); ++i) {
    if (i < results.size()) {
      batch[i]->result = std::move(results[i]);
    } else {
      batch[i]->result = MakeErrorResponse(
          batch[i]->query->request.kind,
          Status::FailedPrecondition("batch executor returned short batch"));
    }
    batch[i]->done = true;
  }
  followers_cv_.notify_all();
  return std::move(pending.result);
}

}  // namespace cloakdb
