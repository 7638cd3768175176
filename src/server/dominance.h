// Dominance pruning of private NN/kNN candidates (paper Fig. 5b): an
// object is dropped when enough others are guaranteed nearer for every
// possible user position inside the cloaked region. Header-only so the
// one-shot queries (PointEntry hits), superset refinement (PublicObject
// hits) and standing queries (pointers into a cached fetch) all apply the
// same predicate by construction.

#ifndef CLOAKDB_SERVER_DOMINANCE_H_
#define CLOAKDB_SERVER_DOMINANCE_H_

#include <algorithm>
#include <limits>
#include <vector>

#include "geom/distance.h"

namespace cloakdb {

template <typename T>
const Point& DominanceLocation(const T& hit) {
  return hit.location;
}
template <typename T>
const Point& DominanceLocation(const T* hit) {
  return hit->location;
}

/// Keeps o iff MinDist(o, R) <= min_o' MaxDist(o', R): survivors are
/// exactly the objects no other object is guaranteed to beat for every
/// possible user position. Returns the prune count.
template <typename T>
size_t DominancePrune(std::vector<T>* hits, const Rect& cloaked) {
  double min_max_dist = std::numeric_limits<double>::infinity();
  for (const auto& h : *hits) {
    min_max_dist =
        std::min(min_max_dist, MaxDist(DominanceLocation(h), cloaked));
  }
  const size_t before = hits->size();
  hits->erase(std::remove_if(hits->begin(), hits->end(),
                             [&](const T& e) {
                               return MinDist(DominanceLocation(e), cloaked) >
                                      min_max_dist;
                             }),
              hits->end());
  return before - hits->size();
}

/// k-dominance: o cannot be among any point's k nearest when at least k
/// objects are guaranteed nearer for every possible location, i.e. have
/// MaxDist(o', R) < MinDist(o, R). (o never dominates itself: MaxDist >=
/// MinDist.) Order-preserving; returns the prune count.
template <typename T>
size_t KDominancePrune(std::vector<T>* hits, const Rect& cloaked, size_t k) {
  std::vector<double> max_dists;
  max_dists.reserve(hits->size());
  for (const auto& h : *hits) {
    max_dists.push_back(MaxDist(DominanceLocation(h), cloaked));
  }
  std::sort(max_dists.begin(), max_dists.end());
  const size_t before = hits->size();
  hits->erase(std::remove_if(
                  hits->begin(), hits->end(),
                  [&](const T& e) {
                    const double min_d = MinDist(DominanceLocation(e), cloaked);
                    const size_t closer = static_cast<size_t>(
                        std::lower_bound(max_dists.begin(), max_dists.end(),
                                         min_d) -
                        max_dists.begin());
                    return closer >= k;
                  }),
              hits->end());
  return before - hits->size();
}

}  // namespace cloakdb

#endif  // CLOAKDB_SERVER_DOMINANCE_H_
