// Distance bounds between points and rectangles.
//
// These are the geometric workhorses of privacy-aware query processing:
// - MinDist / MaxDist(point, rect) bound the distance from a query point to
//   an object known only up to its cloaked rectangle (paper Fig. 6b);
// - MinDist / MaxDist(rect, rect) bound the distance between a cloaked
//   querier and a cloaked object and drive candidate-set pruning
//   ("B and C are guaranteed nearer than A", paper Fig. 5b).

#ifndef CLOAKDB_GEOM_DISTANCE_H_
#define CLOAKDB_GEOM_DISTANCE_H_

#include <algorithm>
#include <cmath>

#include "geom/point.h"
#include "geom/rect.h"

namespace cloakdb {

/// Distance from v to the interval [lo, hi]; 0 inside. The per-axis term of
/// MinDistSquared, inline so that kernels working on sub-rectangles (the
/// Fig. 5 dominance tiles) run exactly the same arithmetic.
inline double AxisGap(double v, double lo, double hi) {
  return std::max(std::max(lo - v, v - hi), 0.0);
}

/// Distance from v to the farther end of [lo, hi]: MaxDistSquared's term.
inline double AxisFar(double v, double lo, double hi) {
  return std::max(std::abs(v - lo), std::abs(v - hi));
}

/// Smallest distance from `p` to any point of `r` (0 if `p` is inside).
double MinDist(const Point& p, const Rect& r);

/// Largest distance from `p` to any point of `r` (attained at a corner).
double MaxDist(const Point& p, const Rect& r);

/// Squared variants (avoid the sqrt in comparison-only code).
inline double MinDistSquared(const Point& p, const Rect& r) {
  const double dx = AxisGap(p.x, r.min_x, r.max_x);
  const double dy = AxisGap(p.y, r.min_y, r.max_y);
  return dx * dx + dy * dy;
}
inline double MaxDistSquared(const Point& p, const Rect& r) {
  const double dx = AxisFar(p.x, r.min_x, r.max_x);
  const double dy = AxisFar(p.y, r.min_y, r.max_y);
  return dx * dx + dy * dy;
}

/// The largest double whose std::sqrt is at most `r` (`r` itself when `r`
/// is not positive or is +inf or NaN). For any d2, `d2 > SquaredBound(r)`
/// iff `std::sqrt(d2) > r`, so a filter that compares squared distances
/// against it keeps exactly what one comparing distances against `r`
/// keeps, boundary included, with no square root per distance.
double SquaredBound(double r);

/// Squared smallest distance between any point of `a` and any point of `b`
/// (0 if they intersect).
inline double MinDistSquared(const Rect& a, const Rect& b) {
  double dx = 0.0;
  if (a.max_x < b.min_x)
    dx = b.min_x - a.max_x;
  else if (b.max_x < a.min_x)
    dx = a.min_x - b.max_x;
  double dy = 0.0;
  if (a.max_y < b.min_y)
    dy = b.min_y - a.max_y;
  else if (b.max_y < a.min_y)
    dy = a.min_y - b.max_y;
  return dx * dx + dy * dy;
}

/// Smallest distance between any point of `a` and any point of `b`
/// (0 if they intersect).
double MinDist(const Rect& a, const Rect& b);

/// Largest distance between any point of `a` and any point of `b`.
double MaxDist(const Rect& a, const Rect& b);

/// MinMaxDist(p, r): the smallest upper bound on the distance from `p` to an
/// object *known to lie somewhere in* r, given that at least one face of r
/// touches the object MBR (classic R-tree NN pruning bound). For degenerate
/// (point) rectangles this equals the point distance.
double MinMaxDist(const Point& p, const Rect& r);

}  // namespace cloakdb

#endif  // CLOAKDB_GEOM_DISTANCE_H_
