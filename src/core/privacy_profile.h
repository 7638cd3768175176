// Privacy profiles of mobile users (paper Section 4, Fig. 2).
//
// A profile is a set of time-of-day entries, each carrying the user's
// anonymity level k, minimum cloaked area A_min, and maximum cloaked area
// A_max for that interval. Times not covered by any entry default to "no
// privacy" (k = 1, unconstrained area) — the paper's daytime example row.

#ifndef CLOAKDB_CORE_PRIVACY_PROFILE_H_
#define CLOAKDB_CORE_PRIVACY_PROFILE_H_

#include <limits>
#include <string>
#include <vector>

#include "util/status.h"
#include "util/time_of_day.h"

namespace cloakdb {

/// The privacy constraints in force at one instant.
struct PrivacyRequirement {
  /// Anonymity level: the cloaked region must contain at least k users
  /// (including the requester). k = 1 means no anonymity requirement.
  uint32_t k = 1;

  /// Minimum cloaked-region area (squared length units); 0 = unconstrained.
  double min_area = 0.0;

  /// Maximum cloaked-region area; +inf = unconstrained.
  double max_area = std::numeric_limits<double>::infinity();

  /// True when no constraint restricts the region at all.
  bool IsPublic() const {
    return k <= 1 && min_area <= 0.0 &&
           max_area == std::numeric_limits<double>::infinity();
  }

  /// True when the fixed-area constraints alone are contradictory.
  bool IsContradictory() const { return min_area > max_area; }

  bool operator==(const PrivacyRequirement& o) const {
    return k == o.k && min_area == o.min_area && max_area == o.max_area;
  }

  /// "k=.. Amin=.. Amax=..".
  std::string ToString() const;
};

/// One row of a privacy profile: constraints bound to a daily interval.
struct ProfileEntry {
  DailyInterval interval;
  PrivacyRequirement requirement;
};

/// Most entries one profile may hold: the cap the WAL and checkpoint
/// readers enforce, so Create refuses a profile they could not read back.
inline constexpr size_t kMaxProfileEntries = 4096;

/// A mobile user's full privacy profile.
///
/// Entries must be pairwise non-overlapping so resolution is deterministic;
/// users change profiles at any time by replacing the whole profile
/// (Anonymizer::UpdateProfile).
class PrivacyProfile {
 public:
  /// Empty profile: public at all times.
  PrivacyProfile() = default;

  /// Validates and builds a profile. Fails with InvalidArgument when an
  /// entry has k = 0, a negative/NaN area, min_area > max_area, when two
  /// entries overlap in time, or past kMaxProfileEntries entries.
  static Result<PrivacyProfile> Create(std::vector<ProfileEntry> entries);

  /// A profile with the same requirement at all times.
  static Result<PrivacyProfile> Uniform(const PrivacyRequirement& req);

  /// Fully public profile (k = 1, no area constraints).
  static PrivacyProfile Public() { return PrivacyProfile(); }

  /// The exact example of paper Fig. 2:
  ///   08:00-17:00  k=1
  ///   17:00-22:00  k=100   A_min=1 sq-mile   A_max=3 sq-miles
  ///   22:00-08:00  k=1000  A_min=5 sq-miles  (no A_max)
  static PrivacyProfile PaperExample();

  /// Parses a profile from a compact text form, one entry per ';':
  ///   "08:00-17:00 k=1; 17:00-22:00 k=100 amin=1 amax=3; 22:00-08:00
  ///    k=1000 amin=5"
  /// Omitted amin/amax default to unconstrained; whitespace is flexible.
  /// Fails with InvalidArgument on syntax errors or invalid entries.
  static Result<PrivacyProfile> Parse(const std::string& text);

  /// The requirement in force at time `t` (the default public requirement
  /// when no entry covers `t`).
  PrivacyRequirement Resolve(TimeOfDay t) const;

  /// The compact text form accepted by Parse (round-trips).
  std::string ToString() const;

  const std::vector<ProfileEntry>& entries() const { return entries_; }
  bool IsAlwaysPublic() const;

 private:
  explicit PrivacyProfile(std::vector<ProfileEntry> entries)
      : entries_(std::move(entries)) {}

  std::vector<ProfileEntry> entries_;
};

/// Validates one requirement in isolation.
Status ValidateRequirement(const PrivacyRequirement& req);

}  // namespace cloakdb

#endif  // CLOAKDB_CORE_PRIVACY_PROFILE_H_
