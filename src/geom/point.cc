#include "geom/point.h"

#include <cstdio>

namespace cloakdb {

std::string Point::ToString() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "(%.6g, %.6g)", x, y);
  return buf;
}

double Distance(const Point& a, const Point& b) {
  return std::sqrt(DistanceSquared(a, b));
}

}  // namespace cloakdb
