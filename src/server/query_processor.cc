#include "server/query_processor.h"

#include <algorithm>

#include "obs/scoped_timer.h"
#include "obs/trace.h"
#include "server/dominance.h"
#include "server/id_order.h"

namespace cloakdb {

QueryProcessor::QueryProcessor(const Rect& space, uint32_t rect_grid_cells,
                               const WireCostModel& /*unused*/,
                               const PublicCategoryIndex::Config& public_index)
    : store_(space, rect_grid_cells, public_index) {}

Status QueryProcessor::ApplyCloakedUpdate(ObjectId pseudonym,
                                          const Rect& region) {
  return store_.UpsertPrivateRegion(pseudonym, region);
}

Status QueryProcessor::DropPseudonym(ObjectId pseudonym) {
  return store_.RemovePrivateRegion(pseudonym);
}

template <typename R>
Result<R> QueryProcessor::Answer(const PrivateFetch<R>& fetch,
                                 obs::ShardedHistogram* probe_us) const {
  obs::ScopedTimer probe(probe_us);
  obs::TraceSpan span(obs::CurrentTraceContext(), "index.probe");
  Result<R> result = AnswerPrivate(store_, fetch);
  if (result.ok())
    span.AddAttr("candidates",
                 static_cast<double>(result.value().candidates.size()));
  span.End();
  if (!result.ok()) probe.Cancel();  // Only an accepted query is timed.
  probe.Stop();
  return result;
}

Result<PrivateRangeResult> QueryProcessor::PrivateRange(
    const Rect& cloaked, double radius, Category category,
    const PrivateRangeOptions& opts) const {
  auto fetch = PlanPrivateRange(store_, cloaked, radius, category, opts);
  if (!fetch.ok()) return fetch.status();
  return Answer(fetch.value(), obs_.range_probe_us);
}

Result<PrivateNnResult> QueryProcessor::PrivateNn(const Rect& cloaked,
                                                  Category category) const {
  auto fetch = PlanPrivateNn(store_, cloaked, category);
  if (!fetch.ok()) return fetch.status();
  return Answer(fetch.value(), obs_.nn_probe_us);
}

Result<PrivateKnnResult> QueryProcessor::PrivateKnn(const Rect& cloaked,
                                                    size_t k,
                                                    Category category) const {
  auto fetch = PlanPrivateKnn(store_, cloaked, k, category);
  if (!fetch.ok()) return fetch.status();
  return Answer(fetch.value(), obs_.knn_probe_us);
}

Result<std::vector<IndexHit>> QueryProcessor::SharedProbe(
    const Rect& probe_region, Category category) const {
  // Not a client-visible query: not timed.
  obs::TraceSpan span(obs::CurrentTraceContext(), "index.shared_probe");
  if (probe_region.IsEmpty())
    return Status::InvalidArgument("probe region must be non-empty");
  auto index = store_.CategoryIndex(category);
  if (!index.ok()) return index.status();
  std::vector<IndexHit> hits = index.value()->RangeSearch(probe_region);
  SortById(&hits);
  return hits;
}

Result<PrivatePrivateRangeResult> QueryProcessor::PrivatePrivateRange(
    const Rect& querier, double radius,
    const PrivatePrivateOptions& opts) const {
  return PrivatePrivateRangeQuery(store_, querier, radius, opts);
}

Result<PrivatePrivateNnResult> QueryProcessor::PrivatePrivateNn(
    const Rect& querier, const PrivatePrivateOptions& opts) const {
  return PrivatePrivateNnQuery(store_, querier, opts);
}

Result<PublicCountPart> QueryProcessor::ScanPublicCount(
    const Rect& window) const {
  obs::ScopedTimer probe(obs_.count_probe_us);
  obs::TraceSpan span(obs::CurrentTraceContext(), "index.probe");
  auto part = cloakdb::ScanPublicCount(store_, window);
  span.End();
  if (!part.ok()) probe.Cancel();
  probe.Stop();
  return part;
}

Result<PublicCountResult> QueryProcessor::PublicCount(
    const Rect& window) const {
  auto part = ScanPublicCount(window);
  if (!part.ok()) return part.status();
  return AnswerPublicCount(std::move(part).value());
}

Result<PublicNnResult> QueryProcessor::PublicNn(
    const Point& from, const PublicNnOptions& opts) const {
  return PublicNnQuery(store_, from, opts);
}

Result<HeatmapResult> QueryProcessor::Heatmap(uint32_t resolution) const {
  obs::ScopedTimer probe(obs_.heatmap_probe_us);
  obs::TraceSpan span(obs::CurrentTraceContext(), "index.probe");
  auto result = PublicHeatmapQuery(store_, resolution);
  span.End();
  if (!result.ok()) probe.Cancel();
  probe.Stop();
  return result;
}

namespace {

// Both candidate merges: a single part comes back as it is (it is already
// an id-sorted answer); more have `fold` sum their counters into the merged
// result and their id-sorted candidate lists merged (id_order.h). Shards
// hold disjoint objects, so the id order is what makes merged lists
// deterministic across shard counts.
template <typename R, typename Fold>
R MergeCandidates(std::vector<R> parts, const Fold& fold) {
  if (parts.size() == 1) return std::move(parts.front());
  R merged;
  std::vector<std::vector<PublicObject>> lists;
  lists.reserve(parts.size());
  for (R& part : parts) {
    fold(&merged, part);
    lists.push_back(std::move(part.candidates));
  }
  merged.candidates = MergeSortedById(std::move(lists));
  return merged;
}

}  // namespace

PrivateRangeResult MergePrivateRangeResults(
    std::vector<PrivateRangeResult> parts) {
  return MergeCandidates(
      std::move(parts),
      [](PrivateRangeResult* merged, const PrivateRangeResult& part) {
        if (merged->extended_region.IsEmpty())
          merged->extended_region = part.extended_region;
        merged->rounded_rect_pruned += part.rounded_rect_pruned;
      });
}

namespace {

// NN and kNN partials merge alike: candidate union, then the kernel's
// k-dominance prune over it — a candidate that survived its shard can still
// be beaten by k objects of other shards for every querier location. One
// part is already an id-sorted kernel output, and re-pruning it would
// change nothing: each tile's threshold comes from objects its shard kept.
template <typename R>
R MergeNearest(const Rect& cloaked, size_t k, std::vector<R> parts) {
  const bool several = parts.size() > 1;
  R merged = MergeCandidates(std::move(parts), [](R* merged, const R& part) {
    merged->fetch_radius = std::max(merged->fetch_radius, part.fetch_radius);
    merged->dominance_pruned += part.dominance_pruned;
  });
  if (several)
    merged.dominance_pruned += KDominancePrune(&merged.candidates, cloaked, k);
  return merged;
}

}  // namespace

PrivateNnResult MergePrivateNnResults(const Rect& cloaked,
                                      std::vector<PrivateNnResult> parts) {
  return MergeNearest(cloaked, 1, std::move(parts));
}

PrivateKnnResult MergePrivateKnnResults(const Rect& cloaked, size_t k,
                                        std::vector<PrivateKnnResult> parts) {
  return MergeNearest(cloaked, k, std::move(parts));
}

Result<PublicCountResult> MergePublicCountResults(
    std::vector<PublicCountPart> parts) {
  PublicCountResult merged;
  std::vector<std::vector<CountContribution>> lists;
  for (auto& part : parts) {
    merged.naive_count += part.naive_count;
    lists.push_back(std::move(part.contributions));
  }
  merged.contributions = MergeSorted(std::move(lists), ByPseudonym{});
  auto answer = SummarizeCount(CountProbabilities(merged.contributions));
  if (!answer.ok()) return answer.status();
  merged.answer = std::move(answer).value();
  return merged;
}

Result<HeatmapResult> MergeHeatmapResults(std::vector<HeatmapResult> parts) {
  if (parts.empty())
    return Status::InvalidArgument("no heatmap partials to merge");
  HeatmapResult merged = std::move(parts.front());
  for (size_t i = 1; i < parts.size(); ++i) {
    const HeatmapResult& part = parts[i];
    if (part.resolution != merged.resolution ||
        part.expected.size() != merged.expected.size())
      return Status::InvalidArgument(
          "heatmap partials disagree on resolution");
    for (size_t j = 0; j < merged.expected.size(); ++j)
      merged.expected[j] += part.expected[j];
  }
  return merged;
}

}  // namespace cloakdb
