#include "geom/distance.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace cloakdb {

namespace {

// Nearest end of interval [lo, hi] from v (used by MinMaxDist).
double AxisNearEnd(double v, double lo, double hi) {
  return std::min(std::abs(v - lo), std::abs(v - hi));
}

}  // namespace

double MinDist(const Point& p, const Rect& r) {
  return std::sqrt(MinDistSquared(p, r));
}

double MaxDist(const Point& p, const Rect& r) {
  return std::sqrt(MaxDistSquared(p, r));
}

double SquaredBound(double r) {
  if (!(r > 0.0) || std::isinf(r)) return r;
  // r * r is within an ulp or two of the bound; step onto it. sqrt is
  // monotone, so {x : sqrt(x) <= r} is an interval starting at 0.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double t = r * r;
  while (std::sqrt(t) > r) t = std::nextafter(t, 0.0);
  while (std::sqrt(std::nextafter(t, kInf)) <= r) t = std::nextafter(t, kInf);
  return t;
}

double MinDist(const Rect& a, const Rect& b) {
  return std::sqrt(MinDistSquared(a, b));
}

double MaxDist(const Rect& a, const Rect& b) {
  double dx = std::max(std::abs(a.max_x - b.min_x),
                       std::abs(b.max_x - a.min_x));
  double dy = std::max(std::abs(a.max_y - b.min_y),
                       std::abs(b.max_y - a.min_y));
  return std::sqrt(dx * dx + dy * dy);
}

double MinMaxDist(const Point& p, const Rect& r) {
  // For each axis k: clamp to the nearer face on axis k, take the farthest
  // coordinate on the other axis; the bound is the min over axes.
  double near_x = AxisNearEnd(p.x, r.min_x, r.max_x);
  double near_y = AxisNearEnd(p.y, r.min_y, r.max_y);
  double far_x = AxisFar(p.x, r.min_x, r.max_x);
  double far_y = AxisFar(p.y, r.min_y, r.max_y);
  double via_x = std::sqrt(near_x * near_x + far_y * far_y);
  double via_y = std::sqrt(far_x * far_x + near_y * near_y);
  return std::min(via_x, via_y);
}

}  // namespace cloakdb
