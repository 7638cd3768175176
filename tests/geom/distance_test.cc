#include "geom/distance.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "util/random.h"

namespace cloakdb {
namespace {

TEST(DistanceTest, PointRectMinDistInsideIsZero) {
  Rect r(0, 0, 4, 4);
  EXPECT_DOUBLE_EQ(MinDist(Point{2, 2}, r), 0.0);
  EXPECT_DOUBLE_EQ(MinDist(Point{0, 0}, r), 0.0);  // boundary
}

TEST(DistanceTest, PointRectMinDistOutside) {
  Rect r(0, 0, 4, 4);
  EXPECT_DOUBLE_EQ(MinDist(Point{6, 2}, r), 2.0);   // right side
  EXPECT_DOUBLE_EQ(MinDist(Point{2, -3}, r), 3.0);  // below
  EXPECT_DOUBLE_EQ(MinDist(Point{7, 8}, r), 5.0);   // corner (3-4-5)
}

TEST(DistanceTest, PointRectMaxDistIsFarthestCorner) {
  Rect r(0, 0, 4, 4);
  EXPECT_DOUBLE_EQ(MaxDist(Point{0, 0}, r), std::sqrt(32.0));
  EXPECT_DOUBLE_EQ(MaxDist(Point{2, 2}, r), std::sqrt(8.0));
  EXPECT_DOUBLE_EQ(MaxDist(Point{-3, 0}, r), std::sqrt(49.0 + 16.0));
}

TEST(DistanceTest, SquaredVariantsConsistent) {
  Rect r(1, 1, 3, 5);
  Point p{-2, 7};
  EXPECT_DOUBLE_EQ(MinDistSquared(p, r), MinDist(p, r) * MinDist(p, r));
  EXPECT_DOUBLE_EQ(MaxDistSquared(p, r), MaxDist(p, r) * MaxDist(p, r));
}

TEST(DistanceTest, SquaredBoundGivesTheDistanceVerdict) {
  // d2 > SquaredBound(r) iff std::sqrt(d2) > r: checked at the bound's two
  // neighbouring doubles for reaches of every scale, and on squared
  // MinDists of points placed at exactly the reach from a cloak, where
  // rounding decides.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Rng rng(5);
  std::vector<double> reaches = {1.0, 2.0, 0.5, 1e-300, 1e-160, 3e-162,
                                 1e154, 1.5e154, 1e300, 4.9e-324};
  for (int i = 0; i < 2000; ++i)
    reaches.push_back(std::ldexp(rng.Uniform(1.0, 2.0), -60 + i % 120));
  for (double r : reaches) {
    const double t = SquaredBound(r);
    EXPECT_LE(std::sqrt(t), r) << r;
    EXPECT_GT(std::sqrt(std::nextafter(t, kInf)), r) << r;
    for (double d2 : {std::nextafter(t, 0.0), t, std::nextafter(t, kInf),
                      r * r, std::nextafter(r * r, 0.0),
                      std::nextafter(r * r, kInf)}) {
      EXPECT_EQ(d2 > t, std::sqrt(d2) > r) << r << " " << d2;
    }
  }
  const Rect cloak(0.1, 0.2, 0.7, 0.9);
  for (int i = 0; i < 2000; ++i) {
    const double r = rng.Uniform(0.01, 3.0);
    const double angle = rng.Uniform(0.0, 6.283185307179586);
    const Point p{cloak.max_x + r * std::cos(angle) * (i % 2),
                  cloak.max_y + r * std::sin(angle)};
    EXPECT_EQ(MinDistSquared(p, cloak) > SquaredBound(r),
              MinDist(p, cloak) > r);
  }
  // Not positive, infinite or NaN: the reach itself.
  EXPECT_EQ(SquaredBound(0.0), 0.0);
  EXPECT_EQ(SquaredBound(-2.0), -2.0);
  EXPECT_EQ(SquaredBound(kInf), kInf);
  EXPECT_TRUE(std::isnan(SquaredBound(std::nan(""))));
  EXPECT_FALSE(0.0 > SquaredBound(0.0));
  EXPECT_TRUE(1e-320 > SquaredBound(0.0));
}

TEST(DistanceTest, RectRectMinDist) {
  Rect a(0, 0, 2, 2);
  EXPECT_DOUBLE_EQ(MinDist(a, Rect(1, 1, 3, 3)), 0.0);  // overlap
  EXPECT_DOUBLE_EQ(MinDist(a, Rect(2, 0, 4, 2)), 0.0);  // touch
  EXPECT_DOUBLE_EQ(MinDist(a, Rect(5, 0, 6, 2)), 3.0);  // x gap
  EXPECT_DOUBLE_EQ(MinDist(a, Rect(5, 6, 7, 8)), 5.0);  // diagonal 3-4-5
}

TEST(DistanceTest, RectRectMaxDist) {
  Rect a(0, 0, 2, 2);
  Rect b(3, 0, 5, 2);
  EXPECT_DOUBLE_EQ(MaxDist(a, b), std::sqrt(25.0 + 4.0));
  // Max dist of a rect with itself is its diagonal.
  EXPECT_DOUBLE_EQ(MaxDist(a, a), std::sqrt(8.0));
}

TEST(DistanceTest, DegenerateRectBehavesAsPoint) {
  Rect p = Rect::FromPoint({3, 4});
  EXPECT_DOUBLE_EQ(MinDist(Point{0, 0}, p), 5.0);
  EXPECT_DOUBLE_EQ(MaxDist(Point{0, 0}, p), 5.0);
  EXPECT_DOUBLE_EQ(MinMaxDist(Point{0, 0}, p), 5.0);
}

TEST(DistanceTest, MinMaxDistBetweenMinAndMax) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    Rect r(rng.Uniform(0, 5), rng.Uniform(0, 5), 0, 0);
    r.max_x = r.min_x + rng.Uniform(0.01, 5);
    r.max_y = r.min_y + rng.Uniform(0.01, 5);
    Point p{rng.Uniform(-10, 15), rng.Uniform(-10, 15)};
    double lo = MinDist(p, r);
    double mm = MinMaxDist(p, r);
    double hi = MaxDist(p, r);
    EXPECT_LE(lo, mm + 1e-12);
    EXPECT_LE(mm, hi + 1e-12);
  }
}

// Property: MinDist/MaxDist(point, rect) bound the distance to any sampled
// interior point — the foundation of all pruning guarantees.
TEST(DistanceTest, PointRectBoundsHoldForSampledInteriorPoints) {
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    Rect r(rng.Uniform(0, 5), rng.Uniform(0, 5), 0, 0);
    r.max_x = r.min_x + rng.Uniform(0.0, 4);
    r.max_y = r.min_y + rng.Uniform(0.0, 4);
    Point q{rng.Uniform(-10, 15), rng.Uniform(-10, 15)};
    double lo = MinDist(q, r);
    double hi = MaxDist(q, r);
    for (int s = 0; s < 20; ++s) {
      Point in{rng.Uniform(r.min_x, r.max_x), rng.Uniform(r.min_y, r.max_y)};
      double d = Distance(q, in);
      EXPECT_GE(d, lo - 1e-12);
      EXPECT_LE(d, hi + 1e-12);
    }
  }
}

// Property: rect-rect bounds hold for sampled point pairs.
TEST(DistanceTest, RectRectBoundsHoldForSampledPairs) {
  Rng rng(8);
  for (int trial = 0; trial < 200; ++trial) {
    auto random_rect = [&]() {
      Rect r(rng.Uniform(0, 8), rng.Uniform(0, 8), 0, 0);
      r.max_x = r.min_x + rng.Uniform(0.0, 3);
      r.max_y = r.min_y + rng.Uniform(0.0, 3);
      return r;
    };
    Rect a = random_rect(), b = random_rect();
    double lo = MinDist(a, b);
    double hi = MaxDist(a, b);
    for (int s = 0; s < 20; ++s) {
      Point pa{rng.Uniform(a.min_x, a.max_x), rng.Uniform(a.min_y, a.max_y)};
      Point pb{rng.Uniform(b.min_x, b.max_x), rng.Uniform(b.min_y, b.max_y)};
      double d = Distance(pa, pb);
      EXPECT_GE(d, lo - 1e-12);
      EXPECT_LE(d, hi + 1e-12);
    }
  }
}

// Property: MinMaxDist is a valid NN upper bound — there is always a point
// on the rect boundary within MinMaxDist (checked against a dense boundary
// sampling).
TEST(DistanceTest, MinMaxDistUpperBoundsNearestBoundaryFace) {
  Rng rng(9);
  for (int trial = 0; trial < 100; ++trial) {
    Rect r(rng.Uniform(0, 5), rng.Uniform(0, 5), 0, 0);
    r.max_x = r.min_x + rng.Uniform(0.1, 4);
    r.max_y = r.min_y + rng.Uniform(0.1, 4);
    Point q{rng.Uniform(-10, 15), rng.Uniform(-10, 15)};
    double mm = MinMaxDist(q, r);
    // Closest point on each face's farthest traversal: sample densely.
    double best_face_max = 1e18;
    const int kSteps = 200;
    for (int face = 0; face < 4; ++face) {
      double worst = 0.0;
      for (int i = 0; i <= kSteps; ++i) {
        double t = static_cast<double>(i) / kSteps;
        Point p;
        switch (face) {
          case 0: p = {r.min_x, r.min_y + t * r.Height()}; break;
          case 1: p = {r.max_x, r.min_y + t * r.Height()}; break;
          case 2: p = {r.min_x + t * r.Width(), r.min_y}; break;
          default: p = {r.min_x + t * r.Width(), r.max_y}; break;
        }
        worst = std::max(worst, Distance(q, p));
      }
      best_face_max = std::min(best_face_max, worst);
    }
    EXPECT_NEAR(mm, best_face_max, best_face_max * 0.02 + 1e-9);
  }
}

}  // namespace
}  // namespace cloakdb
