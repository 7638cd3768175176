// Cloaking algorithm interface and shared types (paper Section 5).
//
// A cloaking algorithm turns a user's exact point location into a cloaked
// spatial region satisfying her PrivacyRequirement *as best effort*: the
// paper explicitly allows contradictory profiles (e.g. tiny A_max with huge
// k), so the result carries per-constraint satisfaction flags instead of
// failing.

#ifndef CLOAKDB_CORE_CLOAKING_H_
#define CLOAKDB_CORE_CLOAKING_H_

#include <memory>
#include <string>

#include "core/privacy_profile.h"
#include "geom/point.h"
#include "geom/rect.h"
#include "index/grid_index.h"
#include "index/pyramid.h"
#include "util/status.h"

namespace cloakdb {

/// What to sacrifice when k/A_min conflict with A_max (paper Section 5:
/// "the job of the location anonymizer is a best effort").
enum class ConflictPolicy {
  /// Keep the k/A_min-satisfying region even if it exceeds A_max
  /// (privacy beats quality of service). This is the default.
  kPreferPrivacy,
  /// Cap the region at A_max even if k/A_min are then violated.
  kPreferQos,
};

/// The outcome of cloaking one location.
struct CloakedRegion {
  /// The cloaked spatial region sent to the database server. Always
  /// contains the user's exact location.
  Rect region;

  /// Number of users inside `region` at cloaking time (including the
  /// requester).
  uint32_t achieved_k = 0;

  /// The requirement the region was built against.
  PrivacyRequirement requirement;

  /// Per-constraint satisfaction (best-effort flags).
  bool k_satisfied = false;
  bool min_area_satisfied = false;
  bool max_area_satisfied = false;

  /// True iff every constraint of the requirement was met.
  bool FullySatisfied() const {
    return k_satisfied && min_area_satisfied && max_area_satisfied;
  }

  /// achieved_k / requested k, the relative-anonymity quality metric.
  double RelativeAnonymity() const {
    return requirement.k == 0
               ? 0.0
               : static_cast<double>(achieved_k) / requirement.k;
  }
};

/// A consistent view of all registered active users' exact locations,
/// maintained by the Anonymizer and consumed by cloaking algorithms.
///
/// The uniform grid is always built: it is the only id -> location map and
/// answers Locate, Contains, size and window counts. The count pyramid is
/// built beside it only for the multi-level grid cloaker, its only reader;
/// the grid validates every update before the pyramid's counts move.
class UserSnapshot {
 public:
  struct Options {
    uint32_t grid_cells_per_side = 64;
    uint32_t pyramid_height = 8;
  };

  /// `with_pyramid` also maintains the count pyramid (the Anonymizer asks
  /// for it only when its algorithm reads it).
  UserSnapshot(const Rect& space, const Options& options,
               bool with_pyramid = true);

  /// Space covered by the snapshot.
  const Rect& space() const { return grid_.bounds(); }

  /// Each fails with the grid's AlreadyExists / NotFound / OutOfRange and
  /// then changes nothing.
  Status Insert(ObjectId id, const Point& location);
  Status Remove(ObjectId id);
  Status Move(ObjectId id, const Point& new_location);

  /// Current location of a user.
  Result<Point> Locate(ObjectId id) const { return grid_.Locate(id); }
  bool Contains(ObjectId id) const { return grid_.Contains(id); }
  size_t size() const { return grid_.size(); }

  /// Number of users inside `window`.
  size_t CountInRect(const Rect& window) const {
    return grid_.CountInRect(window);
  }

  const GridIndex& grid() const { return grid_; }
  /// Requires has_pyramid().
  const Pyramid& pyramid() const { return *pyramid_; }
  bool has_pyramid() const { return pyramid_ != nullptr; }

 private:
  GridIndex grid_;
  std::unique_ptr<Pyramid> pyramid_;
};

/// Base class of all cloaking algorithms.
class CloakingAlgorithm {
 public:
  virtual ~CloakingAlgorithm() = default;

  /// Cloaks `location` of user `user` under `req`. The user must already be
  /// present in the snapshot at `location` so she counts toward her own k.
  /// Returns the best-effort region (never fails on contradictory
  /// requirements; fails on invalid input, e.g. the user is absent from the
  /// snapshot).
  virtual Result<CloakedRegion> Cloak(ObjectId user, const Point& location,
                                      const PrivacyRequirement& req) const = 0;

  /// Human-readable algorithm name for reports.
  virtual std::string Name() const = 0;

  /// True when the region depends only on space partitioning (not on the
  /// exact point within its cell) — the paper's leakage-resistance
  /// classification of Section 5.2.
  virtual bool IsSpaceDependent() const = 0;
};

/// Shared finishing step: evaluates constraint flags, applies the conflict
/// policy (shrinking toward the region center but never expelling
/// `location`), and recounts achieved_k on the final region.
CloakedRegion FinalizeRegion(const UserSnapshot& snapshot,
                             const Point& location,
                             const PrivacyRequirement& req, Rect region,
                             ConflictPolicy policy);

}  // namespace cloakdb

#endif  // CLOAKDB_CORE_CLOAKING_H_
