#include "server/private_queries.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <type_traits>

#include "geom/distance.h"
#include "server/id_order.h"

namespace cloakdb {

namespace {

// The conservative fetch radius of a private NN (`nn`, k = 1) or k-NN
// query: for any p in R and its nearest corner c, the k objects nearest to
// c all lie within d(p, c) + d(c, kth-NN(c)), and d(p, c) is at most half
// the diagonal, so every possible answer object o has MinDist(o, R) <=
// half_diag + max_c d(c, kth-NN(c)). The four corners share one probe
// (PublicCategoryIndex::MaxKthDistanceSquared); Distance is the root of
// DistanceSquared, so the root of the largest squared k-th is the largest
// k-th distance. A k-NN query over at most k objects gets +infinity:
// every object is a candidate by pigeonhole, and no bounded probe can
// serve it.
Result<double> FetchReach(const ObjectStore& store, const Rect& cloaked,
                          size_t k, Category category, bool nn) {
  if (cloaked.IsEmpty())
    return Status::InvalidArgument("cloaked region must be non-empty");
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  auto index_or = store.CategoryIndex(category);
  if (!index_or.ok()) return index_or.status();
  const PublicCategoryIndex& index = *index_or.value();
  if (index.size() == 0)
    return Status::NotFound("no public objects in category");
  if (!nn && index.size() <= k) return std::numeric_limits<double>::infinity();
  const std::array<Point, 4> corners = cloaked.Corners();
  return std::sqrt(index.MaxKthDistanceSquared(corners, k)) +
         cloaked.HalfDiagonal();
}

}  // namespace

Result<PrivateFetch<PrivateRangeResult>> PlanPrivateRange(
    const ObjectStore& store, const Rect& cloaked, double radius,
    Category category, const PrivateRangeOptions& options) {
  if (cloaked.IsEmpty())
    return Status::InvalidArgument("cloaked region must be non-empty");
  if (!(radius > 0.0))
    return Status::InvalidArgument("query radius must be positive");
  auto index = store.CategoryIndex(category);
  if (!index.ok()) return index.status();
  return PrivateFetch<PrivateRangeResult>{
      {.cloaked = cloaked,
       .reach = radius,
       .exact_rounded_rect = options.exact_rounded_rect},
      category};
}

Result<PrivateFetch<PrivateNnResult>> PlanPrivateNn(const ObjectStore& store,
                                                    const Rect& cloaked,
                                                    Category category) {
  auto reach = FetchReach(store, cloaked, 1, category, /*nn=*/true);
  if (!reach.ok()) return reach.status();
  return PrivateFetch<PrivateNnResult>{{.kind = RefineKind::kNearest,
                                        .cloaked = cloaked,
                                        .reach = reach.value()},
                                       category};
}

Result<PrivateFetch<PrivateKnnResult>> PlanPrivateKnn(
    const ObjectStore& store, const Rect& cloaked, size_t k,
    Category category) {
  auto reach = FetchReach(store, cloaked, k, category, /*nn=*/false);
  if (!reach.ok()) return reach.status();
  return PrivateFetch<PrivateKnnResult>{{.kind = RefineKind::kNearest,
                                         .cloaked = cloaked,
                                         .reach = reach.value(),
                                         .k = k},
                                        category};
}

Result<double> KnnFetchRadius(const ObjectStore& store, const Rect& cloaked,
                              size_t k, Category category) {
  auto reach = FetchReach(store, cloaked, k, category, /*nn=*/false);
  if (!reach.ok()) return reach.status();
  return std::isinf(reach.value()) ? 0.0 : reach.value();
}

template <typename R>
Result<R> AnswerPrivate(const ObjectStore& store,
                        const PrivateFetch<R>& fetch) {
  auto index = store.CategoryIndex(fetch.category);
  if (!index.ok()) return index.status();
  // Survivors point into the hits, which must outlive them.
  const std::vector<IndexHit> hits =
      index.value()->RangeSearch(fetch.Window());
  Refined<IndexHit> refined = RefineHits(fetch.refine, hits);
  // Hits come in index order; every answer goes out sorted by id.
  SortById(&refined.survivors);
  auto candidates = Materialize(store, fetch.category, refined.survivors);
  if (!candidates.ok()) return candidates.status();
  R result;
  result.candidates = std::move(candidates).value();
  if constexpr (std::is_same_v<R, PrivateRangeResult>) {
    result.extended_region = fetch.Window();
    result.rounded_rect_pruned = refined.rounded_rect_pruned;
  } else {
    // The pigeonhole fetch reports radius 0, as KnnFetchRadius does.
    if (!std::isinf(fetch.refine.reach))
      result.fetch_radius = fetch.refine.reach;
    result.dominance_pruned = refined.dominance_pruned;
  }
  return result;
}

template Result<PrivateRangeResult> AnswerPrivate(
    const ObjectStore&, const PrivateFetch<PrivateRangeResult>&);
template Result<PrivateNnResult> AnswerPrivate(
    const ObjectStore&, const PrivateFetch<PrivateNnResult>&);
template Result<PrivateKnnResult> AnswerPrivate(
    const ObjectStore&, const PrivateFetch<PrivateKnnResult>&);

Result<PrivateRangeResult> PrivateRangeQuery(
    const ObjectStore& store, const Rect& cloaked, double radius,
    Category category, const PrivateRangeOptions& options) {
  auto fetch = PlanPrivateRange(store, cloaked, radius, category, options);
  if (!fetch.ok()) return fetch.status();
  return AnswerPrivate(store, fetch.value());
}

Result<PrivateNnResult> PrivateNnQuery(const ObjectStore& store,
                                       const Rect& cloaked,
                                       Category category) {
  auto fetch = PlanPrivateNn(store, cloaked, category);
  if (!fetch.ok()) return fetch.status();
  return AnswerPrivate(store, fetch.value());
}

Result<PrivateKnnResult> PrivateKnnQuery(const ObjectStore& store,
                                         const Rect& cloaked, size_t k,
                                         Category category) {
  auto fetch = PlanPrivateKnn(store, cloaked, k, category);
  if (!fetch.ok()) return fetch.status();
  return AnswerPrivate(store, fetch.value());
}

std::vector<PublicObject> RefineKnnCandidates(
    const std::vector<PublicObject>& candidates, const Point& true_location,
    size_t k) {
  std::vector<PublicObject> sorted = candidates;
  std::sort(sorted.begin(), sorted.end(),
            [&](const PublicObject& a, const PublicObject& b) {
              double da = DistanceSquared(a.location, true_location);
              double db = DistanceSquared(b.location, true_location);
              if (da != db) return da < db;
              return a.id < b.id;
            });
  if (sorted.size() > k) sorted.resize(k);
  return sorted;
}

std::vector<PublicObject> RefineRangeCandidates(
    const std::vector<PublicObject>& candidates, const Point& true_location,
    double radius) {
  std::vector<PublicObject> out;
  for (const auto& c : candidates) {
    if (Distance(c.location, true_location) <= radius) out.push_back(c);
  }
  return out;
}

Result<PublicObject> RefineNnCandidates(
    const std::vector<PublicObject>& candidates, const Point& true_location) {
  if (candidates.empty())
    return Status::NotFound("empty candidate list");
  const PublicObject* best = &candidates.front();
  double best_d = DistanceSquared(best->location, true_location);
  for (const auto& c : candidates) {
    double d = DistanceSquared(c.location, true_location);
    if (d < best_d || (d == best_d && c.id < best->id)) {
      best = &c;
      best_d = d;
    }
  }
  return *best;
}

}  // namespace cloakdb
