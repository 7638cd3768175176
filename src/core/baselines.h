// Location-privacy baselines from the paper's related-work taxonomy
// (Section 2.1). The paper classifies prior approaches into four families;
// spatial cloaking (families 3-4) is the main subject, and these are the
// other two, implemented so the evaluation can compare against them:
//
//   1. False dummies [Kido et al.]: every update sends n locations, one
//      real and n-1 dummies; the server cannot tell which is real.
//   2. Landmark objects [Hong & Landay]: the user reports the nearest
//      landmark instead of her position.
//
// Both produce *point-shaped* disclosures, so they plug into the ordinary
// (non-region) query path; their privacy is measured by the same adversary
// framework (core/attack.h) via the GuessFromPoints / landmark-distance
// analyses below.

#ifndef CLOAKDB_CORE_BASELINES_H_
#define CLOAKDB_CORE_BASELINES_H_

#include <unordered_set>
#include <vector>

#include "geom/point.h"
#include "geom/rect.h"
#include "index/public_index.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/status.h"

namespace cloakdb {

// --- False dummies ----------------------------------------------------------

/// Configuration of the dummy generator.
struct DummyOptions {
  /// Total points sent per update (1 real + num_points-1 dummies); the
  /// privacy parameter corresponding to k.
  size_t num_points = 10;
  /// Dummies are drawn within this radius of the true location ("walking
  /// pattern" dummies); 0 or +inf-like values spread them over the whole
  /// space.
  double locality_radius = 10.0;
};

/// One dummy-cloaked update: the points, with the real one at a hidden
/// index (kept for evaluation; a real deployment would not reveal it).
struct DummyUpdate {
  std::vector<Point> points;
  size_t real_index = 0;
};

/// Generates a dummy update for `true_location` inside `space`. Fails with
/// InvalidArgument when num_points == 0 or the space is empty.
Result<DummyUpdate> MakeDummyUpdate(const Point& true_location,
                                    const Rect& space,
                                    const DummyOptions& options, Rng* rng);

/// The adversary's best strategy against dummies with no side information:
/// pick one of the points uniformly. Returns the guess-error statistics
/// and the identification probability (= 1/n by construction, degraded
/// below 1/n only if the generator leaks).
struct DummyLeakageReport {
  RunningStats guess_error;     ///< Distance from a uniform-pick guess.
  double identification_rate = 0.0;  ///< Fraction of exact picks.
};

/// Evaluates `trials` dummy updates under the uniform-pick adversary.
DummyLeakageReport EvaluateDummyLeakage(const std::vector<DummyUpdate>& updates,
                                        Rng* rng);

/// Server-side cost model of dummies: a private range query must be
/// answered for *every* point, so the candidate cost is the union of n
/// point-query results. Returns the union's object ids (against one
/// category index — any type with RangeSearch and KNearest).
template <typename Index>
std::vector<ObjectId> DummyRangeQuery(const Index& index,
                                      const DummyUpdate& update,
                                      double radius) {
  std::unordered_set<ObjectId> seen;
  std::vector<ObjectId> out;
  for (const Point& p : update.points) {
    for (const auto& hit :
         index.RangeSearch(Rect::CenteredSquare(p, 2.0 * radius))) {
      if (Distance(hit.location, p) > radius) continue;
      if (seen.insert(hit.id).second) out.push_back(hit.id);
    }
  }
  return out;
}

/// NN candidates under dummies: the NN of every sent point (the client
/// keeps the one for the real point).
template <typename Index>
std::vector<ObjectId> DummyNnQuery(const Index& index,
                                   const DummyUpdate& update) {
  std::unordered_set<ObjectId> seen;
  std::vector<ObjectId> out;
  for (const Point& p : update.points) {
    auto nn = index.KNearest(p, 1);
    if (!nn.empty() && seen.insert(nn.front().id).second) {
      out.push_back(nn.front().id);
    }
  }
  return out;
}

// --- Landmark objects --------------------------------------------------------

/// Result of landmark-based reporting.
struct LandmarkUpdate {
  /// The landmark reported instead of the true location.
  Point landmark;
  ObjectId landmark_id = 0;
  /// Distance from the true location to the landmark — both the privacy
  /// radius (adversary error) and the answer-quality loss.
  double displacement = 0.0;
};

/// Reports the nearest landmark from `landmarks` for `true_location`.
/// Fails with NotFound on an empty landmark index.
Result<LandmarkUpdate> MakeLandmarkUpdate(
    const Point& true_location, const PublicCategoryIndex& landmarks);

/// Aggregate quality/privacy trade-off of landmark reporting over a batch
/// of users: the adversary's best guess is the landmark itself, so the
/// guess error *equals* the displacement — privacy is bounded by landmark
/// density and cannot be tuned per user (the weakness that motivates
/// cloaking).
struct LandmarkReport {
  RunningStats displacement;
  /// Fraction of users whose landmark coincides with their position
  /// (fully exposed).
  double exposed_rate = 0.0;
};

LandmarkReport EvaluateLandmarks(const std::vector<Point>& users,
                                 const PublicCategoryIndex& landmarks);

}  // namespace cloakdb

#endif  // CLOAKDB_CORE_BASELINES_H_
