// MBR data-dependent cloaking (paper Fig. 3b, after Gedik & Liu).
//
// Takes the user's k-1 nearest neighbors and returns the minimum bounding
// rectangle of the k locations, padded up to A_min when needed. No direct
// reverse engineering recovers the exact point, but the MBR property
// guarantees at least one user on each edge — an information leakage the
// BoundaryAttack adversary exploits for small k (see core/attack.h).

#ifndef CLOAKDB_CORE_MBR_CLOAKING_H_
#define CLOAKDB_CORE_MBR_CLOAKING_H_

#include "core/cloaking.h"

namespace cloakdb {

/// k-nearest-neighbor MBR cloaking.
class MbrCloaking : public CloakingAlgorithm {
 public:
  /// `snapshot` must outlive this object (its grid serves the k-NN
  /// search).
  explicit MbrCloaking(const UserSnapshot* snapshot,
                       ConflictPolicy policy = ConflictPolicy::kPreferPrivacy)
      : snapshot_(snapshot), policy_(policy) {}

  Result<CloakedRegion> Cloak(ObjectId user, const Point& location,
                              const PrivacyRequirement& req) const override;

  std::string Name() const override { return "mbr"; }
  bool IsSpaceDependent() const override { return false; }

 private:
  const UserSnapshot* snapshot_;
  ConflictPolicy policy_;
};

}  // namespace cloakdb

#endif  // CLOAKDB_CORE_MBR_CLOAKING_H_
