// Brute-force reference for the point indexes: an id -> location map whose
// queries scan every entry. The oracle of StaticRTreeTest,
// PublicCategoryIndexTest and the index fuzz tests.

#ifndef CLOAKDB_TESTS_INDEX_POINT_MODEL_H_
#define CLOAKDB_TESTS_INDEX_POINT_MODEL_H_

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "geom/point.h"
#include "geom/rect.h"
#include "index/grid_index.h"

namespace cloakdb::testing {

using PointModel = std::map<ObjectId, Point>;

inline PointModel ModelOf(const std::vector<PointEntry>& entries) {
  PointModel model;
  for (const PointEntry& e : entries) model.emplace(e.id, e.location);
  return model;
}

inline std::set<ObjectId> ModelRangeIds(const PointModel& model,
                                        const Rect& window) {
  std::set<ObjectId> out;
  for (const auto& [id, p] : model) {
    if (window.Contains(p)) out.insert(id);
  }
  return out;
}

inline size_t ModelCount(const PointModel& model, const Rect& window) {
  return ModelRangeIds(model, window).size();
}

/// The k entries with the smallest (distance, id), in that order.
inline std::vector<PointEntry> ModelKNearest(const PointModel& model,
                                             const Point& from, size_t k) {
  std::vector<std::pair<double, ObjectId>> ranked;
  for (const auto& [id, p] : model) ranked.push_back({Distance(from, p), id});
  std::sort(ranked.begin(), ranked.end());
  std::vector<PointEntry> out;
  for (size_t i = 0; i < ranked.size() && i < k; ++i) {
    out.push_back({ranked[i].second, model.at(ranked[i].second)});
  }
  return out;
}

/// +inf on an empty model.
inline double ModelNearestDistance(const PointModel& model,
                                   const Point& from) {
  double best = std::numeric_limits<double>::infinity();
  for (const auto& [id, p] : model) best = std::min(best, Distance(from, p));
  return best;
}

}  // namespace cloakdb::testing

#endif  // CLOAKDB_TESTS_INDEX_POINT_MODEL_H_
