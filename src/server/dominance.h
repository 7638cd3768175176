// The Fig. 5 refine kernel: every private range, NN and kNN answer keeps
// exactly the fetched hits this kernel keeps. A fetch filter drops hits
// outside the query's reach (range: the radius-expanded cloak, then the
// exact rounded rectangle; NN/kNN: MinDist(o, R) <= reach), and dominance
// pruning drops an object when at least k others are guaranteed nearer for
// every possible user position inside the cloaked region R.
//
// Header-only and templated over the hit type, so the isolated and
// cache-served queries (PointEntry hits), standing queries (PublicObject
// fetches) and the cross-shard merge (PublicObject candidates) all run one
// predicate by construction rather than by review.

#ifndef CLOAKDB_SERVER_DOMINANCE_H_
#define CLOAKDB_SERVER_DOMINANCE_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "geom/distance.h"

namespace cloakdb {

/// A hit held by value or by pointer into someone else's vector.
template <typename T>
const T& HitOf(const T& hit) {
  return hit;
}
template <typename T>
const T& HitOf(const T* hit) {
  return *hit;
}

/// k-dominance: o cannot be among any point's k nearest when at least k
/// objects are guaranteed nearer for every possible location, i.e. have
/// MaxDist(o', R) < MinDist(o, R). (o never dominates itself: MaxDist >=
/// MinDist.) For k = 1 that is "keep o iff MinDist(o, R) <= min_o'
/// MaxDist(o', R)", found with one min-scan. Order-preserving; returns the
/// prune count.
template <typename T>
size_t KDominancePrune(std::vector<T>* hits, const Rect& cloaked, size_t k) {
  const size_t before = hits->size();
  if (k == 1) {
    double min_max_dist = std::numeric_limits<double>::infinity();
    for (const auto& h : *hits) {
      min_max_dist =
          std::min(min_max_dist, MaxDist(HitOf(h).location, cloaked));
    }
    hits->erase(std::remove_if(hits->begin(), hits->end(),
                               [&](const T& e) {
                                 return MinDist(HitOf(e).location, cloaked) >
                                        min_max_dist;
                               }),
                hits->end());
    return before - hits->size();
  }
  std::vector<double> max_dists;
  max_dists.reserve(hits->size());
  for (const auto& h : *hits) {
    max_dists.push_back(MaxDist(HitOf(h).location, cloaked));
  }
  std::sort(max_dists.begin(), max_dists.end());
  hits->erase(std::remove_if(
                  hits->begin(), hits->end(),
                  [&](const T& e) {
                    const double min_d = MinDist(HitOf(e).location, cloaked);
                    const size_t closer = static_cast<size_t>(
                        std::lower_bound(max_dists.begin(), max_dists.end(),
                                         min_d) -
                        max_dists.begin());
                    return closer >= k;
                  }),
              hits->end());
  return before - hits->size();
}

/// The two shapes of Fig. 5: a range (5a) or a k-nearest query (5b; NN is
/// k = 1).
enum class RefineKind : uint8_t { kRange, kNearest };

/// What the kernel needs to know about one private query.
struct RefineQuery {
  RefineKind kind = RefineKind::kRange;
  Rect cloaked;
  /// Range: the query radius. NN/kNN: the conservative fetch radius, or
  /// +infinity when every object of the category is a candidate (the kNN
  /// pigeonhole case).
  double reach = 0.0;
  size_t k = 1;                    ///< NN/kNN.
  bool exact_rounded_rect = true;  ///< Range: apply the exact disc test.
};

/// The kernel's verdict: pointers to the kept hits, in hit order.
template <typename T>
struct Refined {
  std::vector<const T*> survivors;
  size_t rounded_rect_pruned = 0;  ///< Range: in the MBR, outside the disc.
  size_t dominance_pruned = 0;     ///< NN/kNN.
};

/// Filters `hits` to the query's fetch and prunes them. Any hits outside
/// the fetch are dropped uncounted, so a superset of the fetch (a cached
/// widened probe, a standing coverage fetch) refines to the same survivors
/// and counts as a fetch of exactly the query's window.
template <typename T>
Refined<T> RefineHits(const RefineQuery& q, const std::vector<T>& hits) {
  Refined<T> out;
  const Rect window = q.cloaked.Expanded(q.reach);
  for (const T& h : hits) {
    const Point& p = h.location;
    if (q.kind == RefineKind::kRange) {
      if (!window.Contains(p)) continue;
      // The exact region is the Minkowski sum of R and a radius disc (the
      // paper's rounded rectangle): MinDist(o, R) <= r.
      if (q.exact_rounded_rect && MinDist(p, q.cloaked) > q.reach) {
        ++out.rounded_rect_pruned;
        continue;
      }
    } else if (MinDist(p, q.cloaked) > q.reach) {
      // The window over-approximates the disc sum; drop its corners.
      continue;
    }
    out.survivors.push_back(&h);
  }
  if (q.kind == RefineKind::kNearest) {
    // Every dominator of an in-reach object is itself in reach, so pruning
    // the filtered hits equals pruning the whole category.
    out.dominance_pruned = KDominancePrune(&out.survivors, q.cloaked, q.k);
  }
  return out;
}

}  // namespace cloakdb

#endif  // CLOAKDB_SERVER_DOMINANCE_H_
