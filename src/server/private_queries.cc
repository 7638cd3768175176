#include "server/private_queries.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "geom/distance.h"
#include "server/dominance.h"

namespace cloakdb {

namespace {

// Fetches the full PublicObject records for index hits.
std::vector<PublicObject> Materialize(const ObjectStore& store,
                                      const std::vector<PointEntry>& hits) {
  std::vector<PublicObject> out;
  out.reserve(hits.size());
  for (const auto& h : hits) {
    auto obj = store.GetPublicObject(h.id);
    // Index and metadata are maintained together; a miss is an invariant
    // violation surfaced loudly in tests.
    if (obj.ok()) out.push_back(std::move(obj).value());
  }
  return out;
}

// Half the diagonal of a rectangle: the worst-case distance from a point
// inside to its nearest corner, the slack term of both fetch bounds.
double HalfDiagonal(const Rect& rect) {
  return 0.5 * std::sqrt(rect.Width() * rect.Width() +
                         rect.Height() * rect.Height());
}

}  // namespace

Result<PrivateRangeResult> PrivateRangeQuery(
    const ObjectStore& store, const Rect& cloaked, double radius,
    Category category, const PrivateRangeOptions& options) {
  if (cloaked.IsEmpty())
    return Status::InvalidArgument("cloaked region must be non-empty");
  if (!(radius > 0.0))
    return Status::InvalidArgument("query radius must be positive");
  auto index = store.CategoryIndex(category);
  if (!index.ok()) return index.status();

  PrivateRangeResult result;
  result.extended_region = cloaked.Expanded(radius);
  auto hits = index.value()->RangeSearch(result.extended_region);

  if (options.exact_rounded_rect) {
    // Exact region is the Minkowski sum of R and a radius-r disc (the
    // paper's rounded rectangle): object qualifies iff MinDist(o, R) <= r.
    size_t before = hits.size();
    hits.erase(std::remove_if(hits.begin(), hits.end(),
                              [&](const PointEntry& e) {
                                return MinDist(e.location, cloaked) > radius;
                              }),
               hits.end());
    result.rounded_rect_pruned = before - hits.size();
  }
  result.candidates = Materialize(store, hits);
  return result;
}

Result<double> NnFetchRadius(const ObjectStore& store, const Rect& cloaked,
                             Category category) {
  if (cloaked.IsEmpty())
    return Status::InvalidArgument("cloaked region must be non-empty");
  auto index_or = store.CategoryIndex(category);
  if (!index_or.ok()) return index_or.status();
  const PublicCategoryIndex& index = *index_or.value();
  if (index.size() == 0)
    return Status::NotFound("no public objects in category");

  // Conservative fetch radius M: for any p in R, the distance to its NN is
  // at most d(p, c) + d(c, NN(c)) for p's nearest corner c, and d(p, c) is
  // at most half the diagonal. Any object that can be an NN therefore has
  // MinDist(o, R) <= M.
  double max_corner_nn = 0.0;
  for (const Point& corner : cloaked.Corners()) {
    max_corner_nn = std::max(max_corner_nn, index.NearestDistance(corner));
  }
  return max_corner_nn + HalfDiagonal(cloaked);
}

Result<double> KnnFetchRadius(const ObjectStore& store, const Rect& cloaked,
                              size_t k, Category category) {
  if (cloaked.IsEmpty())
    return Status::InvalidArgument("cloaked region must be non-empty");
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  auto index_or = store.CategoryIndex(category);
  if (!index_or.ok()) return index_or.status();
  const PublicCategoryIndex& index = *index_or.value();
  if (index.size() == 0)
    return Status::NotFound("no public objects in category");
  // Everything is an answer candidate by pigeonhole; no bounded probe can
  // serve this case, signalled as radius 0.
  if (index.size() <= k) return 0.0;

  // Fetch bound: for any p in R and its nearest corner c, the k objects
  // nearest to c all lie within d(p, c) + d(c, kth-NN(c)), so the k-th NN
  // distance of p is at most half_diag + max_c d(c, kth-NN(c)); every
  // possible answer object has MinDist(o, R) below that.
  double max_corner_kth = 0.0;
  for (const Point& corner : cloaked.Corners()) {
    auto knn = index.KNearest(corner, k);
    max_corner_kth =
        std::max(max_corner_kth, Distance(corner, knn.back().location));
  }
  return max_corner_kth + HalfDiagonal(cloaked);
}

Result<PrivateNnResult> PrivateNnQuery(const ObjectStore& store,
                                       const Rect& cloaked,
                                       Category category) {
  auto fetch = NnFetchRadius(store, cloaked, category);
  if (!fetch.ok()) return fetch.status();
  const PublicCategoryIndex& index = *store.CategoryIndex(category).value();

  PrivateNnResult result;
  result.fetch_radius = fetch.value();

  auto hits = index.RangeSearch(cloaked.Expanded(result.fetch_radius));
  // The expanded MBR over-approximates the disc sum; drop the corners.
  hits.erase(std::remove_if(hits.begin(), hits.end(),
                            [&](const PointEntry& e) {
                              return MinDist(e.location, cloaked) >
                                     result.fetch_radius;
                            }),
             hits.end());
  result.dominance_pruned = DominancePrune(&hits, cloaked);
  result.candidates = Materialize(store, hits);
  return result;
}

Result<PrivateKnnResult> PrivateKnnQuery(const ObjectStore& store,
                                         const Rect& cloaked, size_t k,
                                         Category category) {
  auto fetch = KnnFetchRadius(store, cloaked, k, category);
  if (!fetch.ok()) return fetch.status();
  const PublicCategoryIndex& index = *store.CategoryIndex(category).value();

  PrivateKnnResult result;
  if (index.size() <= k) {
    // Everything is an answer candidate by pigeonhole.
    auto hits = index.RangeSearch(
        Rect(-std::numeric_limits<double>::infinity(),
             -std::numeric_limits<double>::infinity(),
             std::numeric_limits<double>::infinity(),
             std::numeric_limits<double>::infinity()));
    result.candidates = Materialize(store, hits);
    return result;
  }
  result.fetch_radius = fetch.value();

  auto hits = index.RangeSearch(cloaked.Expanded(result.fetch_radius));
  hits.erase(std::remove_if(hits.begin(), hits.end(),
                            [&](const PointEntry& e) {
                              return MinDist(e.location, cloaked) >
                                     result.fetch_radius;
                            }),
             hits.end());
  result.dominance_pruned = KDominancePrune(&hits, cloaked, k);
  result.candidates = Materialize(store, hits);
  return result;
}

Result<std::vector<PublicObject>> SharedProbeQuery(const ObjectStore& store,
                                                   const Rect& probe_region,
                                                   Category category) {
  if (probe_region.IsEmpty())
    return Status::InvalidArgument("probe region must be non-empty");
  auto index = store.CategoryIndex(category);
  if (!index.ok()) return index.status();
  return Materialize(store, index.value()->RangeSearch(probe_region));
}

Result<PrivateRangeResult> PrivateRangeFromSuperset(
    const ObjectStore& store, const std::vector<PublicObject>& superset,
    const Rect& cloaked, double radius, Category category,
    const PrivateRangeOptions& options) {
  if (cloaked.IsEmpty())
    return Status::InvalidArgument("cloaked region must be non-empty");
  if (!(radius > 0.0))
    return Status::InvalidArgument("query radius must be positive");
  // The category check keeps superset refinement status-identical to the
  // isolated query (NotFound on an absent category even when the shared
  // probe predates its removal).
  auto index = store.CategoryIndex(category);
  if (!index.ok()) return index.status();

  PrivateRangeResult result;
  result.extended_region = cloaked.Expanded(radius);
  for (const PublicObject& o : superset) {
    // Same two-stage filter as the isolated query: extended-MBR fetch,
    // then the exact rounded-rectangle test — so the prune counter matches
    // the isolated run even though the superset is wider.
    if (!result.extended_region.Contains(o.location)) continue;
    if (options.exact_rounded_rect && MinDist(o.location, cloaked) > radius) {
      ++result.rounded_rect_pruned;
      continue;
    }
    result.candidates.push_back(o);
  }
  return result;
}

Result<PrivateNnResult> PrivateNnFromSuperset(
    const ObjectStore& store, const std::vector<PublicObject>& superset,
    const Rect& cloaked, Category category, double known_fetch_radius) {
  PrivateNnResult result;
  if (known_fetch_radius > 0.0) {
    result.fetch_radius = known_fetch_radius;
  } else {
    auto fetch = NnFetchRadius(store, cloaked, category);
    if (!fetch.ok()) return fetch.status();
    result.fetch_radius = fetch.value();
  }
  // An isolated candidate satisfies MinDist <= fetch_radius, which already
  // implies membership in the expanded MBR — one predicate suffices here.
  std::vector<PublicObject> hits;
  for (const PublicObject& o : superset) {
    if (MinDist(o.location, cloaked) <= result.fetch_radius)
      hits.push_back(o);
  }
  result.dominance_pruned = DominancePrune(&hits, cloaked);
  result.candidates = std::move(hits);
  return result;
}

Result<PrivateKnnResult> PrivateKnnFromSuperset(
    const ObjectStore& store, const std::vector<PublicObject>& superset,
    const Rect& cloaked, size_t k, Category category,
    double known_fetch_radius) {
  PrivateKnnResult result;
  if (known_fetch_radius > 0.0) {
    result.fetch_radius = known_fetch_radius;
  } else {
    auto fetch = KnnFetchRadius(store, cloaked, k, category);
    if (!fetch.ok()) return fetch.status();
    if (fetch.value() == 0.0) {
      // <= k objects in the category: the bounded superset cannot prove
      // completeness, so take the pigeonhole path against the index itself.
      return PrivateKnnQuery(store, cloaked, k, category);
    }
    result.fetch_radius = fetch.value();
  }
  std::vector<PublicObject> hits;
  for (const PublicObject& o : superset) {
    if (MinDist(o.location, cloaked) <= result.fetch_radius)
      hits.push_back(o);
  }
  result.dominance_pruned = KDominancePrune(&hits, cloaked, k);
  result.candidates = std::move(hits);
  return result;
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
