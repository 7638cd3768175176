#include "core/mbr_cloaking.h"

#include <algorithm>
#include <cmath>

namespace cloakdb {

Result<CloakedRegion> MbrCloaking::Cloak(ObjectId user, const Point& location,
                                         const PrivacyRequirement& req) const {
  if (!snapshot_->Contains(user))
    return Status::NotFound("user not present in the anonymizer snapshot");
  CLOAKDB_RETURN_IF_ERROR(ValidateRequirement(req));

  Rect region = Rect::FromPoint(location);
  if (req.k > 1) {
    auto neighbors =
        snapshot_->grid().KNearest(location, req.k - 1, /*exclude_id=*/user);
    for (const auto& n : neighbors) region = region.Union(n.location);
    // Fewer than k users in all: best effort is the whole space, as for the
    // other algorithms (a lone user's MBR would be its exact point).
    if (neighbors.size() + 1 < req.k) region = snapshot_->space();
  }

  // Pad to A_min around the MBR center (not the user), preserving the MBR
  // aspect as a square pad so degenerate MBRs stay non-degenerate.
  if (region.Area() < req.min_area) {
    double deficit = req.min_area - region.Area();
    // Expand each side by m: (w + 2m)(h + 2m) = A_min.
    double w = region.Width(), h = region.Height();
    // Solve 4m^2 + 2m(w + h) + wh - A_min = 0 for m >= 0.
    double a = 4.0, b = 2.0 * (w + h), c = -deficit;
    double m = (-b + std::sqrt(b * b - 4.0 * a * c)) / (2.0 * a);
    region = region.Expanded(std::max(0.0, m));
  }
  return FinalizeRegion(*snapshot_, location, req, region, policy_);
}

}  // namespace cloakdb
