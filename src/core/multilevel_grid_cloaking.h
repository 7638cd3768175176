// Multi-level fixed-grid cloaking (the optimization sketched at the end of
// paper Section 5.2: "Keeping fixed multi-level grids would be an
// optimization for Figure 4b").
//
// Maintains a complete pyramid of grids (2^l x 2^l at level l) with live
// occupancy counts and picks, for each request, the deepest (smallest)
// pyramid cell containing the user that still satisfies (k, A_min). This
// both avoids cell merging and answers the "cell already over-satisfies the
// profile" case by sub-partitioning into finer fixed grids.
//
// The pyramid is a complete quadtree, so the same walk is also paper
// Fig. 4a's quadtree rule (the smallest quadrant holding k users, after
// Gruteser & Grunwald): the anonymizer serves CloakingKind::kQuadtree with
// this class too. The region depends only on which cell the user occupies,
// never on the exact point inside it.

#ifndef CLOAKDB_CORE_MULTILEVEL_GRID_CLOAKING_H_
#define CLOAKDB_CORE_MULTILEVEL_GRID_CLOAKING_H_

#include "core/cloaking.h"

namespace cloakdb {

/// Pyramid-based multi-level grid cloaking.
class MultiLevelGridCloaking : public CloakingAlgorithm {
 public:
  /// `snapshot` must outlive this object and maintain the pyramid.
  explicit MultiLevelGridCloaking(
      const UserSnapshot* snapshot,
      ConflictPolicy policy = ConflictPolicy::kPreferPrivacy)
      : snapshot_(snapshot), policy_(policy) {}

  Result<CloakedRegion> Cloak(ObjectId user, const Point& location,
                              const PrivacyRequirement& req) const override;

  std::string Name() const override { return "multilevel-grid"; }
  bool IsSpaceDependent() const override { return true; }

  /// The pyramid cell this algorithm would pick for any user inside the
  /// finest-level cell containing `location` — used by shared execution.
  PyramidCell CellFor(const Point& location,
                      const PrivacyRequirement& req) const;

 private:
  const UserSnapshot* snapshot_;
  ConflictPolicy policy_;
};

}  // namespace cloakdb

#endif  // CLOAKDB_CORE_MULTILEVEL_GRID_CLOAKING_H_
