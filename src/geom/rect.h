// Axis-aligned rectangle (AABB): the shape of every cloaked spatial region,
// grid cell, query window, and index node in CloakDB.

#ifndef CLOAKDB_GEOM_RECT_H_
#define CLOAKDB_GEOM_RECT_H_

#include <array>
#include <cmath>
#include <string>

#include "geom/point.h"

namespace cloakdb {

/// A closed axis-aligned rectangle [min_x, max_x] x [min_y, max_y].
///
/// A default-constructed Rect is "empty" (inverted bounds); Union-ing onto an
/// empty Rect yields the operand, which makes MBR accumulation loops simple.
struct Rect {
  double min_x = 1.0;
  double min_y = 1.0;
  double max_x = -1.0;
  double max_y = -1.0;

  /// Empty rectangle.
  Rect() = default;

  Rect(double x0, double y0, double x1, double y1)
      : min_x(x0), min_y(y0), max_x(x1), max_y(y1) {}

  /// Degenerate rectangle covering exactly one point.
  static Rect FromPoint(const Point& p) { return {p.x, p.y, p.x, p.y}; }

  /// Square of side `side` centered on `c` (side < 0 yields empty).
  static Rect CenteredSquare(const Point& c, double side);

  /// Rectangle of width w, height h centered on `c`.
  static Rect Centered(const Point& c, double w, double h);

  /// True iff the bounds are inverted on either axis.
  bool IsEmpty() const { return min_x > max_x || min_y > max_y; }

  /// True iff any bound is NaN. Such a rectangle is neither empty nor a
  /// region: every comparison against it is false.
  bool HasNaN() const {
    return std::isnan(min_x) || std::isnan(min_y) || std::isnan(max_x) ||
           std::isnan(max_y);
  }

  double Width() const { return IsEmpty() ? 0.0 : max_x - min_x; }
  double Height() const { return IsEmpty() ? 0.0 : max_y - min_y; }
  double Area() const { return Width() * Height(); }
  double Perimeter() const { return 2.0 * (Width() + Height()); }
  /// No point inside lies farther than this from its nearest corner (the
  /// slack term of the private NN/kNN fetch bounds).
  double HalfDiagonal() const {
    return 0.5 * std::sqrt(Width() * Width() + Height() * Height());
  }
  Point Center() const {
    return {(min_x + max_x) / 2.0, (min_y + max_y) / 2.0};
  }

  /// The four corners, counter-clockwise from (min_x, min_y). Meaningless on
  /// an empty rectangle.
  std::array<Point, 4> Corners() const;

  /// True iff `p` lies inside or on the boundary.
  bool Contains(const Point& p) const;

  /// True iff `other` lies entirely inside this rectangle.
  bool Contains(const Rect& other) const;

  /// True iff the two rectangles share any point (boundary touch counts).
  bool Intersects(const Rect& other) const;

  /// The common region; empty when the rectangles are disjoint.
  Rect Intersection(const Rect& other) const;

  /// Smallest rectangle containing both operands.
  Rect Union(const Rect& other) const;

  /// Smallest rectangle containing this one and `p`.
  Rect Union(const Point& p) const { return Union(FromPoint(p)); }

  /// Minkowski expansion: every side pushed outward by `margin` (>= 0).
  /// This is the paper's Fig. 5a extended region for private range queries.
  Rect Expanded(double margin) const;

  /// This rectangle clipped to lie inside `bounds`.
  Rect ClampedTo(const Rect& bounds) const { return Intersection(bounds); }

  /// Fraction of this rectangle's area that overlaps `other`, in [0, 1].
  /// Returns 0 for an empty or zero-area rectangle.
  double OverlapFraction(const Rect& other) const;

  bool operator==(const Rect& o) const {
    return min_x == o.min_x && min_y == o.min_y && max_x == o.max_x &&
           max_y == o.max_y;
  }
  bool operator!=(const Rect& o) const { return !(*this == o); }

  /// "[x0, x1] x [y0, y1]".
  std::string ToString() const;
};

}  // namespace cloakdb

#endif  // CLOAKDB_GEOM_RECT_H_
