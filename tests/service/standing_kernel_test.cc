// Oracle for the standing-query evaluation kernels: ComputeStandingAnswer
// and StandingCoverageHolds against a brute-force reference kept here — a
// quadratic k-dominance loop and a full-sqrt nth_element per corner. The
// kernels take the k-th corner distance over squared distances and prune
// with the one-shot sorted-max-dist predicate; ids and fetch radius must
// still match the reference bit for bit, including on ties, duplicate
// locations and degenerate regions.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "geom/distance.h"
#include "service/continuous_registry.h"
#include "util/random.h"

namespace cloakdb {
namespace {

size_t RefK(const ContinuousSpec& spec) {
  if (spec.kind == QueryKind::kPrivateNn) return 1;
  return spec.k == 0 ? 1 : spec.k;
}

double RefHalfDiagonal(const Rect& r) {
  return 0.5 * std::sqrt(r.Width() * r.Width() + r.Height() * r.Height());
}

double RefKthCornerDist(const Point& from,
                        const std::vector<PublicObject>& fetched, size_t k) {
  std::vector<double> dists;
  for (const auto& o : fetched) {
    const double dx = o.location.x - from.x;
    const double dy = o.location.y - from.y;
    dists.push_back(std::sqrt(dx * dx + dy * dy));
  }
  std::nth_element(dists.begin(), dists.begin() + (k - 1), dists.end());
  return dists[k - 1];
}

bool RefBallInside(const Point& c, double r, const Rect& rect) {
  return c.x - r >= rect.min_x && c.x + r <= rect.max_x &&
         c.y - r >= rect.min_y && c.y + r <= rect.max_y;
}

bool RefCoverageHolds(const ContinuousSpec& spec, const Rect& region,
                      const StandingSnapshot& snap) {
  if (spec.kind == QueryKind::kPrivateRange)
    return snap.coverage.Contains(region.Expanded(spec.radius));
  const size_t k = RefK(spec);
  if (snap.fetched.size() <= k) return snap.coverage.Contains(region);
  double max_kth = 0.0;
  for (const Point& corner : region.Corners()) {
    const double d = RefKthCornerDist(corner, snap.fetched, k);
    if (!RefBallInside(corner, d, snap.coverage)) return false;
    max_kth = std::max(max_kth, d);
  }
  return snap.coverage.Contains(
      region.Expanded(max_kth + RefHalfDiagonal(region)));
}

std::vector<PublicObject> RefAnswer(const ContinuousSpec& spec,
                                    const Rect& region,
                                    const std::vector<PublicObject>& fetched,
                                    double* fetch_radius) {
  *fetch_radius = 0.0;
  std::vector<PublicObject> answer;
  if (spec.kind == QueryKind::kPrivateRange) {
    for (const auto& o : fetched) {
      if (MinDist(o.location, region) <= spec.radius) answer.push_back(o);
    }
    return answer;
  }
  const size_t k = RefK(spec);
  if (fetched.size() <= k) return fetched;
  double max_kth = 0.0;
  for (const Point& corner : region.Corners())
    max_kth = std::max(max_kth, RefKthCornerDist(corner, fetched, k));
  const double reach = max_kth + RefHalfDiagonal(region);
  *fetch_radius = reach;
  std::vector<const PublicObject*> cand;
  for (const auto& o : fetched) {
    if (MinDist(o.location, region) <= reach) cand.push_back(&o);
  }
  for (const PublicObject* o : cand) {
    size_t dominators = 0;
    for (const PublicObject* d : cand) {
      if (MaxDist(d->location, region) < MinDist(o->location, region))
        ++dominators;
    }
    if (dominators < k) answer.push_back(*o);
  }
  return answer;
}

std::vector<ObjectId> Ids(const std::vector<PublicObject>& objects) {
  std::vector<ObjectId> ids;
  for (const auto& o : objects) ids.push_back(o.id);
  return ids;
}

uint64_t Bits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// A coordinate on a coarse lattice half the time (ties and duplicate
/// locations), uniform otherwise.
double Coord(Rng& rng) {
  return rng.Bernoulli(0.5) ? static_cast<double>(rng.UniformInt(0, 12)) * 2.5
                            : rng.Uniform(0.0, 30.0);
}

/// A region that is a point, a segment or a proper rectangle.
Rect RandomRegion(Rng& rng) {
  const double x = Coord(rng);
  const double y = Coord(rng);
  switch (rng.NextBelow(4)) {
    case 0:
      return Rect(x, y, x, y);
    case 1:
      return Rect(x, y, x + rng.Uniform(0.0, 6.0), y);
    case 2:
      return Rect(x, y, x, y + rng.Uniform(0.0, 6.0));
    default:
      return Rect(x, y, x + rng.Uniform(0.0, 6.0), y + rng.Uniform(0.0, 6.0));
  }
}

TEST(StandingKernelTest, MatchesQuadraticReferenceBitForBit) {
  Rng rng(20261017);
  size_t nontrivial = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    ContinuousSpec spec;
    switch (trial % 4) {
      case 0:
        spec.kind = QueryKind::kPrivateNn;
        spec.k = 1;
        break;
      case 1:
        spec.kind = QueryKind::kPrivateKnn;
        spec.k = 2;
        break;
      case 2:
        spec.kind = QueryKind::kPrivateKnn;
        spec.k = 5;
        break;
      default:
        spec.kind = QueryKind::kPrivateRange;
        spec.radius = rng.Uniform(0.5, 8.0);
        break;
    }
    StandingSnapshot snap;
    const size_t n = rng.NextBelow(40);
    for (size_t i = 0; i < n; ++i) {
      PublicObject o;
      o.id = 1000 + i;
      o.location = {Coord(rng), Coord(rng)};
      // Exact duplicates of an earlier location.
      if (i > 0 && rng.Bernoulli(0.15))
        o.location = snap.fetched[rng.NextBelow(i)].location;
      snap.fetched.push_back(o);
    }
    const Rect region = RandomRegion(rng);
    snap.coverage = rng.Bernoulli(0.2)
                        ? Rect(0, 0, 30, 30)
                        : region.Expanded(rng.Uniform(0.0, 15.0));

    double want_radius = -1.0;
    double got_radius = -1.0;
    const auto want = RefAnswer(spec, region, snap.fetched, &want_radius);
    const auto got =
        ComputeStandingAnswer(spec, region, snap.fetched, &got_radius);
    ASSERT_EQ(Ids(got), Ids(want)) << "trial " << trial;
    ASSERT_EQ(Bits(got_radius), Bits(want_radius)) << "trial " << trial;
    ASSERT_EQ(StandingCoverageHolds(spec, region, snap),
              RefCoverageHolds(spec, region, snap))
        << "trial " << trial;
    if (want.size() < snap.fetched.size() && !want.empty()) ++nontrivial;
  }
  // The draws must exercise real pruning, not only the trivial cases.
  EXPECT_GT(nontrivial, 500u);
}

}  // namespace
}  // namespace cloakdb
