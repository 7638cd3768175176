// 2-D point primitive used for exact user/POI locations.

#ifndef CLOAKDB_GEOM_POINT_H_
#define CLOAKDB_GEOM_POINT_H_

#include <cmath>
#include <string>

namespace cloakdb {

/// A point in the 2-D plane (coordinates in the space's length unit, e.g.
/// miles for the paper's scenarios).
struct Point {
  double x = 0.0;
  double y = 0.0;

  Point() = default;
  Point(double px, double py) : x(px), y(py) {}

  Point operator+(const Point& o) const { return {x + o.x, y + o.y}; }
  Point operator-(const Point& o) const { return {x - o.x, y - o.y}; }
  Point operator*(double s) const { return {x * s, y * s}; }

  bool operator==(const Point& o) const { return x == o.x && y == o.y; }
  bool operator!=(const Point& o) const { return !(*this == o); }

  /// Euclidean norm of this point viewed as a vector.
  double Norm() const { return std::sqrt(x * x + y * y); }

  /// "(x, y)" with 6 significant digits.
  std::string ToString() const;
};

/// Euclidean distance between two points.
double Distance(const Point& a, const Point& b);

/// Squared Euclidean distance (avoids the sqrt for comparisons). Inline,
/// as the kNN probes call it once per leaf entry and point.
inline double DistanceSquared(const Point& a, const Point& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return dx * dx + dy * dy;
}

}  // namespace cloakdb

#endif  // CLOAKDB_GEOM_POINT_H_
