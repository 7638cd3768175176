#include "index/rect_grid.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <unordered_set>
#include <vector>

#include "util/random.h"

namespace cloakdb {
namespace {

/// The reference layout: cells list ids, removal swaps with the bucket's
/// back, and a scan dedups through a seen-set. RectGrid must report what
/// this reports, in the same order.
class SeenSetGrid {
 public:
  SeenSetGrid(const Rect& bounds, uint32_t n)
      : bounds_(bounds), n_(n), cells_(static_cast<size_t>(n) * n) {}

  void Add(ObjectId id, const Rect& rect) {
    rects_[id] = rect;
    ForCells(rect, [&](size_t cell) { cells_[cell].push_back(id); });
  }
  void Remove(ObjectId id) {
    ForCells(rects_.at(id), [&](size_t cell) {
      auto& bucket = cells_[cell];
      *std::find(bucket.begin(), bucket.end(), id) = bucket.back();
      bucket.pop_back();
    });
    rects_.erase(id);
  }
  std::vector<ObjectId> Scan(const Rect& window) const {
    std::vector<ObjectId> out;
    if (!window.Intersects(bounds_)) return out;
    std::unordered_set<ObjectId> seen;
    ForCells(window, [&](size_t cell) {
      for (ObjectId id : cells_[cell]) {
        if (!rects_.at(id).Intersects(window)) continue;
        if (seen.insert(id).second) out.push_back(id);
      }
    });
    return out;
  }

 private:
  uint32_t Cell(double v, double lo, double step) const {
    auto c = static_cast<int64_t>(std::floor((v - lo) / step));
    return static_cast<uint32_t>(std::clamp<int64_t>(c, 0, n_ - 1));
  }
  /// Visits the cells `rect` is bucketed in, row-major.
  template <typename Fn>
  void ForCells(const Rect& rect, Fn&& fn) const {
    const double w = bounds_.Width() / n_, h = bounds_.Height() / n_;
    const Rect r = rect.Intersection(bounds_);
    for (uint32_t cy = Cell(r.min_y, bounds_.min_y, h);
         cy <= Cell(r.max_y, bounds_.min_y, h); ++cy)
      for (uint32_t cx = Cell(r.min_x, bounds_.min_x, w);
           cx <= Cell(r.max_x, bounds_.min_x, w); ++cx)
        fn(static_cast<size_t>(cy) * n_ + cx);
  }

  Rect bounds_;
  uint32_t n_;
  std::vector<std::vector<ObjectId>> cells_;
  std::map<ObjectId, Rect> rects_;
};

TEST(RectGridTest, InsertGetRemove) {
  RectGrid rg(Rect(0, 0, 10, 10), 4);
  ASSERT_TRUE(rg.Insert(1, Rect(1, 1, 2, 2)).ok());
  EXPECT_EQ(rg.size(), 1u);
  EXPECT_EQ(rg.Get(1).value(), Rect(1, 1, 2, 2));
  ASSERT_TRUE(rg.Remove(1).ok());
  EXPECT_EQ(rg.size(), 0u);
  EXPECT_EQ(rg.Get(1).status().code(), StatusCode::kNotFound);
}

TEST(RectGridTest, DuplicateAndMissingErrors) {
  RectGrid rg(Rect(0, 0, 10, 10), 4);
  ASSERT_TRUE(rg.Insert(1, Rect(1, 1, 2, 2)).ok());
  EXPECT_EQ(rg.Insert(1, Rect(3, 3, 4, 4)).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(rg.Remove(2).code(), StatusCode::kNotFound);
  EXPECT_EQ(rg.Update(2, Rect(1, 1, 2, 2)).code(), StatusCode::kNotFound);
}

TEST(RectGridTest, DisjointRectRejected) {
  RectGrid rg(Rect(0, 0, 10, 10), 4);
  EXPECT_EQ(rg.Insert(1, Rect(20, 20, 30, 30)).code(),
            StatusCode::kOutOfRange);
}

TEST(RectGridTest, UpdateMovesBuckets) {
  RectGrid rg(Rect(0, 0, 10, 10), 4);
  ASSERT_TRUE(rg.Insert(1, Rect(0, 0, 1, 1)).ok());
  ASSERT_TRUE(rg.Update(1, Rect(8, 8, 9, 9)).ok());
  EXPECT_TRUE(rg.IntersectingRects(Rect(0, 0, 2, 2)).empty());
  auto hits = rg.IntersectingRects(Rect(7, 7, 10, 10));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].id, 1u);
}

TEST(RectGridTest, UpsertInsertsThenReplaces) {
  RectGrid rg(Rect(0, 0, 10, 10), 4);
  ASSERT_TRUE(rg.Upsert(1, Rect(0, 0, 1, 1)).ok());
  ASSERT_TRUE(rg.Upsert(1, Rect(2, 2, 3, 3)).ok());
  EXPECT_EQ(rg.size(), 1u);
  EXPECT_EQ(rg.Get(1).value(), Rect(2, 2, 3, 3));
}

TEST(RectGridTest, IntersectingRectsMatchesBruteForce) {
  RectGrid rg(Rect(0, 0, 100, 100), 8);
  Rng rng(77);
  std::vector<RectEntry> all;
  for (ObjectId id = 1; id <= 300; ++id) {
    Rect r(rng.Uniform(0, 90), rng.Uniform(0, 90), 0, 0);
    r.max_x = r.min_x + rng.Uniform(0, 10);
    r.max_y = r.min_y + rng.Uniform(0, 10);
    ASSERT_TRUE(rg.Insert(id, r).ok());
    all.push_back({id, r});
  }
  for (int trial = 0; trial < 40; ++trial) {
    Rect w(rng.Uniform(0, 80), rng.Uniform(0, 80), 0, 0);
    w.max_x = w.min_x + rng.Uniform(0, 25);
    w.max_y = w.min_y + rng.Uniform(0, 25);
    std::set<ObjectId> brute;
    for (const auto& e : all)
      if (e.rect.Intersects(w)) brute.insert(e.id);
    auto hits = rg.IntersectingRects(w);
    EXPECT_EQ(hits.size(), brute.size());
    std::set<ObjectId> got;
    for (const auto& h : hits) got.insert(h.id);
    EXPECT_EQ(got, brute);  // also proves deduplication
  }
}

TEST(RectGridTest, LargeRectSpanningManyCellsReturnedOnce) {
  RectGrid rg(Rect(0, 0, 100, 100), 10);
  ASSERT_TRUE(rg.Insert(1, Rect(5, 5, 95, 95)).ok());
  auto hits = rg.IntersectingRects(Rect(0, 0, 100, 100));
  ASSERT_EQ(hits.size(), 1u);
}

TEST(RectGridTest, RectPartiallyOutsideSpaceIsKept) {
  RectGrid rg(Rect(0, 0, 10, 10), 4);
  ASSERT_TRUE(rg.Insert(1, Rect(-5, -5, 1, 1)).ok());
  auto hits = rg.IntersectingRects(Rect(0, 0, 2, 2));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].rect, Rect(-5, -5, 1, 1));  // original extent preserved
}

TEST(RectGridTest, ForEachVisitsAllOnce) {
  RectGrid rg(Rect(0, 0, 10, 10), 4);
  ASSERT_TRUE(rg.Insert(1, Rect(0, 0, 9, 9)).ok());  // spans many cells
  ASSERT_TRUE(rg.Insert(2, Rect(1, 1, 2, 2)).ok());
  std::set<ObjectId> seen;
  size_t visits = 0;
  rg.ForEach([&](const RectEntry& e) {
    seen.insert(e.id);
    ++visits;
  });
  EXPECT_EQ(visits, 2u);
  EXPECT_EQ(seen, (std::set<ObjectId>{1, 2}));
}

TEST(RectGridTest, DegeneratePointRect) {
  RectGrid rg(Rect(0, 0, 10, 10), 4);
  ASSERT_TRUE(rg.Insert(1, Rect::FromPoint({5, 5})).ok());
  EXPECT_EQ(rg.IntersectingRects(Rect(4, 4, 6, 6)).size(), 1u);
  EXPECT_TRUE(rg.IntersectingRects(Rect(6.1, 6.1, 7, 7)).empty());
}

/// A coordinate that is often a cell edge of an 8-cell grid over [0, 100]
/// (multiples of 12.5), sometimes outside the space.
double ChurnCoord(Rng* rng) {
  switch (rng->UniformInt(0, 2)) {
    case 0:
      return 12.5 * static_cast<double>(rng->UniformInt(-1, 9));
    case 1:
      return rng->Uniform(-20, 120);
    default:
      return rng->Uniform(0, 100);
  }
}

/// A rect from churn coordinates: zero width or height a quarter of the
/// time, partly or wholly outside the space at times.
Rect ChurnRect(Rng* rng) {
  double x0 = ChurnCoord(rng), y0 = ChurnCoord(rng);
  double x1 = rng->UniformInt(0, 3) == 0 ? x0 : ChurnCoord(rng);
  double y1 = rng->UniformInt(0, 3) == 0 ? y0 : ChurnCoord(rng);
  return Rect(std::min(x0, x1), std::min(y0, y1), std::max(x0, x1),
              std::max(y0, y1));
}

TEST(RectGridTest, ChurnMatchesSeenSetScanAndShadowMap) {
  const Rect bounds(0, 0, 100, 100);
  RectGrid rg(bounds, 8);
  SeenSetGrid reference(bounds, 8);
  std::map<ObjectId, Rect> shadow;
  Rng rng(2024);
  for (int step = 0; step < 3000; ++step) {
    SCOPED_TRACE(step);
    // Few ids, so removals free slots that later inserts reuse.
    const ObjectId id = static_cast<ObjectId>(rng.UniformInt(1, 40));
    const Rect rect = ChurnRect(&rng);
    const bool present = shadow.count(id) > 0;
    const bool in_space = rect.Intersects(bounds);
    const int op = static_cast<int>(rng.UniformInt(0, 3));
    Status status;
    if (op == 0) {
      status = rg.Insert(id, rect);
    } else if (op == 1) {
      status = rg.Update(id, rect);
    } else if (op == 2) {
      status = rg.Upsert(id, rect);
    } else {
      status = rg.Remove(id);
    }
    const bool writes = op == 3 ? present
                        : op == 0 ? !present && in_space
                        : op == 1 ? present && in_space
                                  : in_space;
    ASSERT_EQ(status.ok(), writes) << status.ToString();
    if (writes) {
      if (present) reference.Remove(id);
      if (op == 3) {
        shadow.erase(id);
      } else {
        reference.Add(id, rect);
        shadow[id] = rect;
      }
    }

    ASSERT_EQ(rg.size(), shadow.size());
    for (ObjectId probe = 1; probe <= 40; ++probe) {
      auto got = rg.Get(probe);
      auto it = shadow.find(probe);
      ASSERT_EQ(got.ok(), it != shadow.end());
      if (got.ok()) { EXPECT_EQ(got.value(), it->second); }
    }
    std::map<ObjectId, Rect> visited;
    rg.ForEach([&](const RectEntry& e) {
      EXPECT_TRUE(visited.emplace(e.id, e.rect).second) << e.id;
    });
    ASSERT_EQ(visited, shadow);

    for (const Rect& window : {ChurnRect(&rng), ChurnRect(&rng), bounds}) {
      const std::vector<RectEntry> hits = rg.IntersectingRects(window);
      std::vector<ObjectId> ids;
      for (const RectEntry& hit : hits) {
        ids.push_back(hit.id);
        EXPECT_EQ(hit.rect, shadow.at(hit.id));
      }
      ASSERT_EQ(ids, reference.Scan(window)) << window.ToString();
      std::set<ObjectId> brute;
      if (window.Intersects(bounds)) {
        for (const auto& [sid, srect] : shadow)
          if (srect.Intersects(window)) brute.insert(sid);
      }
      EXPECT_EQ(std::set<ObjectId>(ids.begin(), ids.end()), brute);
      EXPECT_EQ(ids.size(), brute.size());  // each id once
    }
  }
}

}  // namespace
}  // namespace cloakdb
