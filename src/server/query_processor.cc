#include "server/query_processor.h"

#include <algorithm>

#include "obs/scoped_timer.h"
#include "obs/trace.h"
#include "server/dominance.h"

namespace cloakdb {

void MergeServerStats(ServerStats* into, const ServerStats& from) {
  into->cloaked_updates += from.cloaked_updates;
  into->private_range_queries += from.private_range_queries;
  into->private_nn_queries += from.private_nn_queries;
  into->private_knn_queries += from.private_knn_queries;
  into->private_private_queries += from.private_private_queries;
  into->public_count_queries += from.public_count_queries;
  into->public_nn_queries += from.public_nn_queries;
  into->heatmap_queries += from.heatmap_queries;
  into->range_candidates.Merge(from.range_candidates);
  into->nn_candidates.Merge(from.nn_candidates);
  into->bytes_to_clients += from.bytes_to_clients;
}

QueryProcessor::QueryProcessor(const Rect& space, uint32_t rect_grid_cells,
                               const WireCostModel& wire_cost,
                               const PublicCategoryIndex::Config& public_index)
    : store_(space, rect_grid_cells, public_index), wire_cost_(wire_cost) {}

Status QueryProcessor::ApplyCloakedUpdate(ObjectId pseudonym,
                                          const Rect& region) {
  CLOAKDB_RETURN_IF_ERROR(store_.UpsertPrivateRegion(pseudonym, region));
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.cloaked_updates;
  return Status::OK();
}

Status QueryProcessor::DropPseudonym(ObjectId pseudonym) {
  return store_.RemovePrivateRegion(pseudonym);
}

namespace {

// Where an accepted private query of one result type is booked.
struct PrivateBooking {
  uint64_t ServerStats::*counter;
  RunningStats ServerStats::*candidates;
  obs::ShardedHistogram* QueryProcessorObs::*probe_us;
};

template <typename R>
constexpr PrivateBooking kBooking = {};
template <>
constexpr PrivateBooking kBooking<PrivateRangeResult> = {
    &ServerStats::private_range_queries, &ServerStats::range_candidates,
    &QueryProcessorObs::range_probe_us};
template <>
constexpr PrivateBooking kBooking<PrivateNnResult> = {
    &ServerStats::private_nn_queries, &ServerStats::nn_candidates,
    &QueryProcessorObs::nn_probe_us};
template <>
constexpr PrivateBooking kBooking<PrivateKnnResult> = {
    &ServerStats::private_knn_queries, &ServerStats::nn_candidates,
    &QueryProcessorObs::knn_probe_us};

}  // namespace

template <typename R>
Result<R> QueryProcessor::Answer(const PrivateFetch<R>& fetch,
                                 const std::vector<PointEntry>* hits) const {
  constexpr PrivateBooking book = kBooking<R>;
  auto answer = [&]() -> Result<R> {
    if (hits != nullptr) return AnswerPrivate(store_, fetch, hits);
    obs::ScopedTimer probe(obs_.*book.probe_us);
    obs::TraceSpan span(obs::CurrentTraceContext(), "index.probe");
    auto result = AnswerPrivate(store_, fetch);
    if (result.ok())
      span.AddAttr("candidates",
                   static_cast<double>(result.value().candidates.size()));
    return result;
  };
  Result<R> result = answer();
  // Only an accepted query books its kind counter, candidate-count stream
  // and modeled wire bytes.
  if (result.ok()) {
    const size_t n = result.value().candidates.size();
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++(stats_.*book.counter);
    (stats_.*book.candidates).Add(static_cast<double>(n));
    stats_.bytes_to_clients += n * wire_cost_.bytes_per_object;
  }
  return result;
}

template Result<PrivateRangeResult> QueryProcessor::Answer(
    const PrivateFetch<PrivateRangeResult>&,
    const std::vector<PointEntry>*) const;
template Result<PrivateNnResult> QueryProcessor::Answer(
    const PrivateFetch<PrivateNnResult>&, const std::vector<PointEntry>*) const;
template Result<PrivateKnnResult> QueryProcessor::Answer(
    const PrivateFetch<PrivateKnnResult>&,
    const std::vector<PointEntry>*) const;

Result<PrivateRangeResult> QueryProcessor::PrivateRange(
    const Rect& cloaked, double radius, Category category,
    const PrivateRangeOptions& opts) const {
  auto fetch = PlanPrivateRange(store_, cloaked, radius, category, opts);
  if (!fetch.ok()) return fetch.status();
  return Answer(fetch.value());
}

Result<PrivateNnResult> QueryProcessor::PrivateNn(const Rect& cloaked,
                                                  Category category) const {
  auto fetch = PlanPrivateNn(store_, cloaked, category);
  if (!fetch.ok()) return fetch.status();
  return Answer(fetch.value());
}

Result<PrivateKnnResult> QueryProcessor::PrivateKnn(const Rect& cloaked,
                                                    size_t k,
                                                    Category category) const {
  auto fetch = PlanPrivateKnn(store_, cloaked, k, category);
  if (!fetch.ok()) return fetch.status();
  return Answer(fetch.value());
}

Result<std::vector<PointEntry>> QueryProcessor::SharedProbe(
    const Rect& probe_region, Category category) const {
  // Not a client-visible query: no stats. Probe latency is recorded by the
  // service's shared-execution histogram around this call.
  obs::TraceSpan span(obs::CurrentTraceContext(), "index.shared_probe");
  if (probe_region.IsEmpty())
    return Status::InvalidArgument("probe region must be non-empty");
  auto index = store_.CategoryIndex(category);
  if (!index.ok()) return index.status();
  return index.value()->RangeSearch(probe_region);
}

void QueryProcessor::NotePublicCountFromCache() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.public_count_queries;
}

Result<PrivatePrivateRangeResult> QueryProcessor::PrivatePrivateRange(
    const Rect& querier, double radius,
    const PrivatePrivateOptions& opts) const {
  auto result = PrivatePrivateRangeQuery(store_, querier, radius, opts);
  if (result.ok()) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.private_private_queries;
  }
  return result;
}

Result<PrivatePrivateNnResult> QueryProcessor::PrivatePrivateNn(
    const Rect& querier, const PrivatePrivateOptions& opts) const {
  auto result = PrivatePrivateNnQuery(store_, querier, opts);
  if (result.ok()) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.private_private_queries;
  }
  return result;
}

Result<PublicCountResult> QueryProcessor::PublicCount(
    const Rect& window) const {
  obs::ScopedTimer probe(obs_.count_probe_us);
  obs::TraceSpan span(obs::CurrentTraceContext(), "index.probe");
  auto result = PublicRangeCountQuery(store_, window);
  span.End();
  probe.Stop();
  if (result.ok()) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.public_count_queries;
  }
  return result;
}

Result<PublicNnResult> QueryProcessor::PublicNn(
    const Point& from, const PublicNnOptions& opts) const {
  auto result = PublicNnQuery(store_, from, opts);
  if (result.ok()) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.public_nn_queries;
  }
  return result;
}

Result<HeatmapResult> QueryProcessor::Heatmap(uint32_t resolution) const {
  obs::ScopedTimer probe(obs_.heatmap_probe_us);
  obs::TraceSpan span(obs::CurrentTraceContext(), "index.probe");
  auto result = PublicHeatmapQuery(store_, resolution);
  span.End();
  probe.Stop();
  if (result.ok()) {
    // Heatmaps used to inflate public_count_queries; they have their own
    // counter so the count-query stream stays an honest workload signal.
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.heatmap_queries;
  }
  return result;
}

ServerStats QueryProcessor::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

void QueryProcessor::ResetStats() {
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_ = ServerStats{};
}

namespace {

// Deduplicates by id and sorts — shards hold disjoint objects, so the sort
// is what makes merged lists deterministic across shard counts.
void SortUniqueById(std::vector<PublicObject>* objects) {
  std::sort(objects->begin(), objects->end(),
            [](const PublicObject& a, const PublicObject& b) {
              return a.id < b.id;
            });
  objects->erase(std::unique(objects->begin(), objects->end(),
                             [](const PublicObject& a, const PublicObject& b) {
                               return a.id == b.id;
                             }),
                 objects->end());
}

}  // namespace

PrivateRangeResult MergePrivateRangeResults(
    std::vector<PrivateRangeResult> parts) {
  PrivateRangeResult merged;
  for (auto& part : parts) {
    if (merged.candidates.empty() && merged.extended_region.IsEmpty())
      merged.extended_region = part.extended_region;
    merged.rounded_rect_pruned += part.rounded_rect_pruned;
    merged.candidates.insert(merged.candidates.end(),
                             std::make_move_iterator(part.candidates.begin()),
                             std::make_move_iterator(part.candidates.end()));
  }
  SortUniqueById(&merged.candidates);
  return merged;
}

namespace {

// NN and kNN partials merge alike: candidate union, then the kernel's
// k-dominance prune over it — a candidate that survived its shard can still
// be beaten by k objects of other shards for every querier location.
template <typename R>
R MergeNearest(const Rect& cloaked, size_t k, std::vector<R> parts) {
  R merged;
  for (auto& part : parts) {
    merged.fetch_radius = std::max(merged.fetch_radius, part.fetch_radius);
    merged.dominance_pruned += part.dominance_pruned;
    merged.candidates.insert(merged.candidates.end(),
                             std::make_move_iterator(part.candidates.begin()),
                             std::make_move_iterator(part.candidates.end()));
  }
  SortUniqueById(&merged.candidates);
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
    std::vector<PublicCountResult> parts) {
  PublicCountResult merged;
  for (auto& part : parts) {
    merged.naive_count += part.naive_count;
    merged.contributions.insert(
        merged.contributions.end(),
        std::make_move_iterator(part.contributions.begin()),
        std::make_move_iterator(part.contributions.end()));
  }
  std::sort(merged.contributions.begin(), merged.contributions.end(),
            [](const CountContribution& a, const CountContribution& b) {
              return a.pseudonym < b.pseudonym;
            });
  std::vector<double> probabilities;
  probabilities.reserve(merged.contributions.size());
  for (const auto& c : merged.contributions)
    probabilities.push_back(c.probability);
  auto answer = MakeCountAnswer(probabilities);
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
