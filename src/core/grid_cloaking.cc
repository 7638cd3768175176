#include "core/grid_cloaking.h"

#include <algorithm>

namespace cloakdb {

Rect GridCloaking::BlockFor(uint32_t cx, uint32_t cy,
                            const PrivacyRequirement& req) const {
  const GridIndex& grid = snapshot_->grid();
  uint32_t n = grid.cells_per_side();
  // Inclusive block [x0, x1] x [y0, y1], grown one row/column at a time.
  uint32_t x0 = cx, x1 = cx, y0 = cy, y1 = cy;
  size_t count = grid.BlockCount(x0, y0, x1, y1);
  double cell_area = grid.CellRect(0, 0).Area();
  auto block_area = [&]() {
    return cell_area * static_cast<double>(x1 - x0 + 1) *
           static_cast<double>(y1 - y0 + 1);
  };

  int tiebreak = 0;
  while ((count < req.k || block_area() < req.min_area) &&
         !(x0 == 0 && y0 == 0 && x1 == n - 1 && y1 == n - 1)) {
    // Candidate expansions: one row/column in each direction.
    struct Move {
      bool valid = false;
      size_t gain = 0;
    } moves[4];  // left, right, down, up
    if (x0 > 0) {
      moves[0] = {true, grid.BlockCount(x0 - 1, y0, x0 - 1, y1)};
    }
    if (x1 < n - 1) {
      moves[1] = {true, grid.BlockCount(x1 + 1, y0, x1 + 1, y1)};
    }
    if (y0 > 0) {
      moves[2] = {true, grid.BlockCount(x0, y0 - 1, x1, y0 - 1)};
    }
    if (y1 < n - 1) {
      moves[3] = {true, grid.BlockCount(x0, y1 + 1, x1, y1 + 1)};
    }
    int best = -1;
    for (int i = 0; i < 4; ++i) {
      int idx = (i + tiebreak) % 4;  // round-robin tie breaking
      if (!moves[idx].valid) continue;
      if (best < 0 || moves[idx].gain > moves[best].gain) best = idx;
    }
    ++tiebreak;
    switch (best) {
      case 0:
        --x0;
        break;
      case 1:
        ++x1;
        break;
      case 2:
        --y0;
        break;
      case 3:
        ++y1;
        break;
      default:
        break;  // unreachable: the full-grid case exits the loop condition
    }
    count += moves[best].gain;
  }

  Rect lo = grid.CellRect(x0, y0);
  Rect hi = grid.CellRect(x1, y1);
  return lo.Union(hi);
}

Result<CloakedRegion> GridCloaking::Cloak(ObjectId user, const Point& location,
                                          const PrivacyRequirement& req) const {
  if (!snapshot_->Contains(user))
    return Status::NotFound("user not present in the anonymizer snapshot");
  CLOAKDB_RETURN_IF_ERROR(ValidateRequirement(req));

  const GridIndex& grid = snapshot_->grid();
  Rect region =
      BlockFor(grid.CellX(location.x), grid.CellY(location.y), req);
  // QoS conflicts cannot be repaired without breaking grid alignment, so the
  // result simply reports max_area_satisfied = false when A_max is violated
  // (the multi-level grid algorithm is the paper's answer to over-relaxed
  // single cells).
  (void)policy_;
  return FinalizeRegion(*snapshot_, location, req, region,
                        ConflictPolicy::kPreferPrivacy);
}

}  // namespace cloakdb
