#include "index/pyramid.h"

#include <gtest/gtest.h>

#include "util/random.h"

namespace cloakdb {
namespace {

TEST(PyramidTest, RootCountsEverything) {
  Pyramid p(Rect(0, 0, 16, 16), 4);
  p.Insert({1, 1});
  p.Insert({15, 15});
  EXPECT_EQ(p.CellCount({0, 0, 0}), 2u);
}

TEST(PyramidTest, LevelCountsArePartitions) {
  Pyramid p(Rect(0, 0, 16, 16), 3);
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    p.Insert({rng.Uniform(0, 16), rng.Uniform(0, 16)});
  }
  for (uint32_t level = 0; level <= 3; ++level) {
    size_t n = 1u << level;
    size_t total = 0;
    for (uint32_t cy = 0; cy < n; ++cy)
      for (uint32_t cx = 0; cx < n; ++cx)
        total += p.CellCount({level, cx, cy});
    EXPECT_EQ(total, 200u) << "level " << level;
  }
}

TEST(PyramidTest, ParentCountIsSumOfChildren) {
  Pyramid p(Rect(0, 0, 16, 16), 3);
  Rng rng(6);
  for (int i = 0; i < 128; ++i) {
    p.Insert({rng.Uniform(0, 16), rng.Uniform(0, 16)});
  }
  for (uint32_t level = 1; level <= 3; ++level) {
    size_t n = 1u << level;
    for (uint32_t cy = 0; cy < n; cy += 2) {
      for (uint32_t cx = 0; cx < n; cx += 2) {
        size_t children = p.CellCount({level, cx, cy}) +
                          p.CellCount({level, cx + 1, cy}) +
                          p.CellCount({level, cx, cy + 1}) +
                          p.CellCount({level, cx + 1, cy + 1});
        EXPECT_EQ(children, p.CellCount({level - 1, cx / 2, cy / 2}));
      }
    }
  }
}

TEST(PyramidTest, CellAtAndRectRoundTrip) {
  Pyramid p(Rect(0, 0, 16, 16), 4);
  Point q{5.3, 9.7};
  for (uint32_t level = 0; level <= 4; ++level) {
    PyramidCell c = p.CellAt(level, q);
    EXPECT_TRUE(p.CellRect(c).Contains(q));
  }
}

TEST(PyramidTest, ParentRelation) {
  PyramidCell c{3, 5, 6};
  PyramidCell parent = Pyramid::Parent(c);
  EXPECT_EQ(parent.level, 2u);
  EXPECT_EQ(parent.cx, 2u);
  EXPECT_EQ(parent.cy, 3u);
  // Parent cell geometrically contains the child cell.
  Pyramid p(Rect(0, 0, 16, 16), 4);
  EXPECT_TRUE(p.CellRect(parent).Contains(p.CellRect(c)));
}

TEST(PyramidTest, MoveOnlyTouchesChangedLevels) {
  Pyramid p(Rect(0, 0, 16, 16), 2);
  p.Insert({1, 1});
  // Move within the same finest cell: counts unchanged everywhere.
  p.Move({1, 1}, {1.5, 1.5});
  EXPECT_EQ(p.CellCount({2, 0, 0}), 1u);
  // Move to the far corner.
  p.Move({1.5, 1.5}, {15, 15});
  EXPECT_EQ(p.CellCount({2, 0, 0}), 0u);
  EXPECT_EQ(p.CellCount({1, 0, 0}), 0u);
  EXPECT_EQ(p.CellCount({2, 3, 3}), 1u);
  EXPECT_EQ(p.CellCount({1, 1, 1}), 1u);
  EXPECT_EQ(p.CellCount({0, 0, 0}), 1u);
}

TEST(PyramidTest, RemoveDecrementsAllLevels) {
  Pyramid p(Rect(0, 0, 16, 16), 2);
  p.Insert({3, 3});
  p.Insert({3.5, 3.5});
  p.Remove({3, 3});
  EXPECT_EQ(p.CellCount({0, 0, 0}), 1u);
  EXPECT_EQ(p.CellCount({2, 0, 0}), 1u);
  p.Remove({3.5, 3.5});
  EXPECT_EQ(p.CellCount({0, 0, 0}), 0u);
  EXPECT_EQ(p.CellCount({2, 0, 0}), 0u);
}

TEST(PyramidTest, HeightCapped) {
  Pyramid p(Rect(0, 0, 1, 1), 30);
  EXPECT_EQ(p.height(), 11u);
}

TEST(PyramidTest, BoundaryPointsClampToLastCell) {
  Pyramid p(Rect(0, 0, 16, 16), 2);
  p.Insert({16, 16});
  EXPECT_EQ(p.CellCount({2, 3, 3}), 1u);
  p.Move({16, 16}, {0, 16});
  EXPECT_EQ(p.CellCount({2, 3, 3}), 0u);
  EXPECT_EQ(p.CellCount({2, 0, 3}), 1u);
}

}  // namespace
}  // namespace cloakdb
