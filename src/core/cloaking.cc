#include "core/cloaking.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace cloakdb {

UserSnapshot::UserSnapshot(const Rect& space, const Options& options,
                           bool with_pyramid)
    : grid_(space, options.grid_cells_per_side) {
  if (with_pyramid) {
    pyramid_ = std::make_unique<Pyramid>(space, options.pyramid_height);
  }
}

Status UserSnapshot::Insert(ObjectId id, const Point& location) {
  CLOAKDB_RETURN_IF_ERROR(grid_.Insert(id, location));
  if (pyramid_) pyramid_->Insert(location);
  return Status::OK();
}

Status UserSnapshot::Remove(ObjectId id) {
  Point old;
  CLOAKDB_RETURN_IF_ERROR(grid_.Remove(id, &old));
  if (pyramid_) pyramid_->Remove(old);
  return Status::OK();
}

Status UserSnapshot::Move(ObjectId id, const Point& new_location) {
  Point old;
  CLOAKDB_RETURN_IF_ERROR(grid_.Move(id, new_location, &old));
  if (pyramid_) pyramid_->Move(old, new_location);
  return Status::OK();
}

namespace {

// Shrinks `region` around its center to `target_area`, then translates the
// result minimally so it still contains `location`.
Rect ShrinkToArea(const Rect& region, const Point& location,
                  double target_area) {
  double area = region.Area();
  if (area <= target_area || area <= 0.0) return region;
  double scale = std::sqrt(target_area / area);
  double w = region.Width() * scale;
  double h = region.Height() * scale;
  Rect shrunk = Rect::Centered(region.Center(), w, h);
  // Translate so the user's location stays inside.
  double dx = 0.0, dy = 0.0;
  if (location.x < shrunk.min_x) dx = location.x - shrunk.min_x;
  if (location.x > shrunk.max_x) dx = location.x - shrunk.max_x;
  if (location.y < shrunk.min_y) dy = location.y - shrunk.min_y;
  if (location.y > shrunk.max_y) dy = location.y - shrunk.max_y;
  return {shrunk.min_x + dx, shrunk.min_y + dy, shrunk.max_x + dx,
          shrunk.max_y + dy};
}

}  // namespace

CloakedRegion FinalizeRegion(const UserSnapshot& snapshot,
                             const Point& location,
                             const PrivacyRequirement& req, Rect region,
                             ConflictPolicy policy) {
  assert(region.Contains(location));
  if (policy == ConflictPolicy::kPreferQos && region.Area() > req.max_area) {
    region = ShrinkToArea(region, location, req.max_area);
  }
  CloakedRegion out;
  out.region = region;
  out.requirement = req;
  out.achieved_k =
      static_cast<uint32_t>(snapshot.CountInRect(region));
  out.k_satisfied = out.achieved_k >= req.k;
  // Tolerate tiny floating-point shortfall/excess on the area bounds: the
  // algorithms solve for the bound exactly and rounding may land a hair on
  // the wrong side.
  out.min_area_satisfied = region.Area() >= req.min_area * (1.0 - 1e-9);
  out.max_area_satisfied =
      region.Area() <= req.max_area * (1.0 + 1e-9);
  return out;
}

}  // namespace cloakdb
