// Fixed-grid space-dependent cloaking (paper Fig. 4b).
//
// Locates the fixed grid cell containing the user; if that cell does not
// satisfy the profile, merges adjacent rows/columns of cells (greedily
// picking the most helpful direction, ties round-robin) until it does. All
// region boundaries are grid-aligned, so the exact location within the base
// cell never influences the region.

#ifndef CLOAKDB_CORE_GRID_CLOAKING_H_
#define CLOAKDB_CORE_GRID_CLOAKING_H_

#include "core/cloaking.h"

namespace cloakdb {

/// Fixed-grid cloaking with adjacent-cell merging.
class GridCloaking : public CloakingAlgorithm {
 public:
  /// `snapshot` must outlive this object.
  explicit GridCloaking(const UserSnapshot* snapshot,
                        ConflictPolicy policy = ConflictPolicy::kPreferPrivacy)
      : snapshot_(snapshot), policy_(policy) {}

  Result<CloakedRegion> Cloak(ObjectId user, const Point& location,
                              const PrivacyRequirement& req) const override;

  std::string Name() const override { return "grid"; }
  bool IsSpaceDependent() const override { return true; }

  /// The cell block the algorithm would pick for any user inside cell
  /// (cx, cy) under `req` — exposed so the Anonymizer's shared (batch)
  /// execution can compute it once per cell and reuse it for every user in
  /// the cell (paper Section 5.3, "shared execution").
  Rect BlockFor(uint32_t cx, uint32_t cy, const PrivacyRequirement& req) const;

 private:
  const UserSnapshot* snapshot_;
  ConflictPolicy policy_;
};

}  // namespace cloakdb

#endif  // CLOAKDB_CORE_GRID_CLOAKING_H_
