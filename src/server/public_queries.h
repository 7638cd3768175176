// Public queries over private data (paper Section 6.2.2, Fig. 6).
//
// The query is exact (an administrator's window, a store's own location)
// but the targets are mobile users known only as cloaked rectangles. Under
// the paper's uniformity assumption — the exact location is equally likely
// to be anywhere inside its cloaked region — answers are probabilistic and
// offered in the paper's three formats: absolute expected value, interval,
// and probability density function.

#ifndef CLOAKDB_SERVER_PUBLIC_QUERIES_H_
#define CLOAKDB_SERVER_PUBLIC_QUERIES_H_

#include <vector>

#include "server/object_store.h"
#include "util/poisson_binomial.h"
#include "util/random.h"
#include "util/status.h"

namespace cloakdb {

/// One private object's contribution to a count query.
struct CountContribution {
  ObjectId pseudonym = 0;
  /// P(user inside the window) = overlap area / region area.
  double probability = 0.0;
};

/// Result of a public range-count query (Fig. 6a).
struct PublicCountResult {
  /// All three paper answer formats (expected value, [min, max], PMF).
  CountAnswer answer;
  /// The naive non-zero-size-object answer the paper criticizes: every
  /// intersecting region counts as 1.
  size_t naive_count = 0;
  /// Per-object probabilities, for callers that post-process.
  std::vector<CountContribution> contributions;
  /// Set by the service layer when not every user shard contributed
  /// (deadline or failure mid-fan-out); bit i of `covered_shards` is set
  /// iff shard i's users are counted.
  bool degraded = false;
  uint64_t covered_shards = 0;
};

/// Probabilistic contribution of one cloaked region to a count window
/// (paper Fig. 6a: overlapped area / cloaked area). A degenerate
/// (zero-area) region pins the user exactly, so it contributes 1.0 only
/// when strictly inside the window; a boundary touch is a measure-zero
/// event and contributes 0.0. Shared by the one-shot count, the standing
/// count windows, and the heatmap-free continuous paths so every layer
/// counts identically.
double CountContributionOf(const Rect& region, const Rect& window);

/// Every private region intersecting `window` with its contribution (0.0
/// on a measure-zero touch), in index order: the scan behind both the
/// one-shot count and the standing count windows.
std::vector<CountContribution> ScanCountContributions(const ObjectStore& store,
                                                      const Rect& window);

/// Counts mobile users inside `window`. Fails with InvalidArgument on an
/// empty window.
Result<PublicCountResult> PublicRangeCountQuery(const ObjectStore& store,
                                                const Rect& window);

/// One candidate of a public NN query.
struct NnCandidate {
  ObjectId pseudonym = 0;
  Rect region;
  double min_dist = 0.0;  ///< MinDist(query point, region).
  double max_dist = 0.0;  ///< MaxDist(query point, region).
  /// P(this user is the nearest), estimated under uniformity.
  double probability = 0.0;
};

/// Options of a public NN query.
struct PublicNnOptions {
  /// Monte-Carlo samples per probability estimate (the analytic integral
  /// over products of disc/rectangle overlaps has no closed form for
  /// arbitrary configurations). Deterministic given `seed`.
  size_t mc_samples = 4096;
  uint64_t seed = 0x5eedULL;
};

/// Result of a public NN query (Fig. 6b): the paper's three formats are the
/// candidate set, the most-likely candidate, and the probability per
/// candidate.
struct PublicNnResult {
  /// Candidates sorted by descending probability; pruned users (those some
  /// candidate is guaranteed to beat) are absent, mirroring "A, B and C
  /// are eliminated".
  std::vector<NnCandidate> candidates;
  /// Pseudonym of the highest-probability candidate (0 when none).
  ObjectId most_likely = 0;
  /// Number of private objects eliminated by minmax pruning.
  size_t pruned = 0;
};

/// Finds the probable nearest mobile user to `from` (e.g. the e-coupon gas
/// station). Fails with NotFound when no private data is stored.
Result<PublicNnResult> PublicNnQuery(const ObjectStore& store,
                                     const Point& from,
                                     const PublicNnOptions& options = {});

/// Expected-density heatmap over private data: Fig. 6a's probabilistic
/// count evaluated for every cell of a resolution x resolution grid (the
/// "live traffic map" an administrator renders without learning any exact
/// location).
struct HeatmapResult {
  uint32_t resolution = 0;
  Rect space;
  /// Row-major expected user count per cell; each user's unit of mass is
  /// split across cells by overlap fraction, so the total equals the
  /// expected number of users inside `space`.
  std::vector<double> expected;
  /// Service-layer degradation markers; see PublicCountResult.
  bool degraded = false;
  uint64_t covered_shards = 0;

  double CellValue(uint32_t cx, uint32_t cy) const {
    return expected[static_cast<size_t>(cy) * resolution + cx];
  }
  Rect CellRect(uint32_t cx, uint32_t cy) const;
  double TotalMass() const;
};

/// Computes the heatmap at `resolution` >= 1 cells per side over the
/// store's space. Fails with InvalidArgument on resolution 0.
Result<HeatmapResult> PublicHeatmapQuery(const ObjectStore& store,
                                         uint32_t resolution);

}  // namespace cloakdb

#endif  // CLOAKDB_SERVER_PUBLIC_QUERIES_H_
