#include "index/grid_index.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <queue>

#include "geom/distance.h"

namespace cloakdb {

GridIndex::GridIndex(const Rect& bounds, uint32_t cells_per_side)
    : bounds_(bounds), cells_per_side_(cells_per_side) {
  assert(!bounds.IsEmpty());
  assert(cells_per_side >= 1);
  cell_w_ = bounds.Width() / cells_per_side_;
  cell_h_ = bounds.Height() / cells_per_side_;
  cells_.resize(static_cast<size_t>(cells_per_side_) * cells_per_side_);
}

uint32_t GridIndex::CellX(double x) const {
  double fx = (x - bounds_.min_x) / cell_w_;
  auto cx = static_cast<int64_t>(std::floor(fx));
  cx = std::clamp<int64_t>(cx, 0, cells_per_side_ - 1);
  return static_cast<uint32_t>(cx);
}

uint32_t GridIndex::CellY(double y) const {
  double fy = (y - bounds_.min_y) / cell_h_;
  auto cy = static_cast<int64_t>(std::floor(fy));
  cy = std::clamp<int64_t>(cy, 0, cells_per_side_ - 1);
  return static_cast<uint32_t>(cy);
}

Rect GridIndex::CellRect(uint32_t cx, uint32_t cy) const {
  return {bounds_.min_x + cx * cell_w_, bounds_.min_y + cy * cell_h_,
          bounds_.min_x + (cx + 1) * cell_w_,
          bounds_.min_y + (cy + 1) * cell_h_};
}

size_t GridIndex::CellCount(uint32_t cx, uint32_t cy) const {
  assert(cx < cells_per_side_ && cy < cells_per_side_);
  return cells_[CellIndex(cx, cy)].size();
}

size_t GridIndex::BlockCount(uint32_t cx0, uint32_t cy0, uint32_t cx1,
                             uint32_t cy1) const {
  cx1 = std::min(cx1, cells_per_side_ - 1);
  cy1 = std::min(cy1, cells_per_side_ - 1);
  size_t total = 0;
  for (uint32_t cy = cy0; cy <= cy1; ++cy)
    for (uint32_t cx = cx0; cx <= cx1; ++cx)
      total += cells_[CellIndex(cx, cy)].size();
  return total;
}

Status GridIndex::Insert(ObjectId id, const Point& location) {
  if (locations_.count(id) > 0)
    return Status::AlreadyExists("object id already in grid index");
  if (!bounds_.Contains(location))
    return Status::OutOfRange("location outside indexed space: " +
                              location.ToString());
  locations_.emplace(id, location);
  cells_[CellIndexFor(location)].push_back({id, location});
  return Status::OK();
}

void GridIndex::BucketErase(size_t cell, ObjectId id) {
  auto& bucket = cells_[cell];
  for (size_t i = 0; i < bucket.size(); ++i) {
    if (bucket[i].id == id) {
      bucket[i] = bucket.back();
      bucket.pop_back();
      return;
    }
  }
  assert(false && "object missing from its grid bucket");
}

Status GridIndex::Remove(ObjectId id, Point* old_location) {
  auto it = locations_.find(id);
  if (it == locations_.end())
    return Status::NotFound("object id not in grid index");
  if (old_location != nullptr) *old_location = it->second;
  BucketErase(CellIndexFor(it->second), id);
  locations_.erase(it);
  return Status::OK();
}

Status GridIndex::Move(ObjectId id, const Point& new_location,
                       Point* old_location) {
  auto it = locations_.find(id);
  if (it == locations_.end())
    return Status::NotFound("object id not in grid index");
  if (!bounds_.Contains(new_location))
    return Status::OutOfRange("location outside indexed space: " +
                              new_location.ToString());
  if (old_location != nullptr) *old_location = it->second;
  size_t old_cell = CellIndexFor(it->second);
  size_t new_cell = CellIndexFor(new_location);
  it->second = new_location;
  if (old_cell == new_cell) {
    for (auto& e : cells_[old_cell]) {
      if (e.id == id) {
        e.location = new_location;
        return Status::OK();
      }
    }
    assert(false && "object missing from its grid bucket");
  }
  BucketErase(old_cell, id);
  cells_[new_cell].push_back({id, new_location});
  return Status::OK();
}

Result<Point> GridIndex::Locate(ObjectId id) const {
  auto it = locations_.find(id);
  if (it == locations_.end())
    return Status::NotFound("object id not in grid index");
  return it->second;
}

size_t GridIndex::CountInRect(const Rect& window) const {
  if (!window.Intersects(bounds_)) return 0;
  uint32_t cx0 = CellX(window.min_x), cx1 = CellX(window.max_x);
  uint32_t cy0 = CellY(window.min_y), cy1 = CellY(window.max_y);
  size_t total = 0;
  for (uint32_t cy = cy0; cy <= cy1; ++cy) {
    for (uint32_t cx = cx0; cx <= cx1; ++cx) {
      const auto& bucket = cells_[CellIndex(cx, cy)];
      // Interior cells need no point tests.
      if (window.Contains(CellRect(cx, cy))) {
        total += bucket.size();
        continue;
      }
      for (const auto& e : bucket)
        if (window.Contains(e.location)) ++total;
    }
  }
  return total;
}

std::vector<PointEntry> GridIndex::CollectInRect(const Rect& window) const {
  std::vector<PointEntry> out;
  if (!window.Intersects(bounds_)) return out;
  uint32_t cx0 = CellX(window.min_x), cx1 = CellX(window.max_x);
  uint32_t cy0 = CellY(window.min_y), cy1 = CellY(window.max_y);
  for (uint32_t cy = cy0; cy <= cy1; ++cy) {
    for (uint32_t cx = cx0; cx <= cx1; ++cx) {
      for (const auto& e : cells_[CellIndex(cx, cy)])
        if (window.Contains(e.location)) out.push_back(e);
    }
  }
  return out;
}

std::vector<PointEntry> GridIndex::KNearest(const Point& from, size_t k,
                                            ObjectId exclude_id) const {
  std::vector<PointEntry> out;
  if (k == 0 || locations_.empty()) return out;

  // Max-heap of the best k seen so far, keyed by squared distance.
  using HeapItem = std::pair<double, PointEntry>;
  auto cmp = [](const HeapItem& a, const HeapItem& b) {
    if (a.first != b.first) return a.first < b.first;
    return a.second.id < b.second.id;
  };
  std::priority_queue<HeapItem, std::vector<HeapItem>, decltype(cmp)> heap(
      cmp);

  auto consider = [&](const PointEntry& e) {
    if (e.id == exclude_id) return;
    double d2 = DistanceSquared(from, e.location);
    if (heap.size() < k) {
      heap.push({d2, e});
    } else if (d2 < heap.top().first ||
               (d2 == heap.top().first && e.id < heap.top().second.id)) {
      heap.pop();
      heap.push({d2, e});
    }
  };

  // Spiral outward ring by ring; stop when the nearest possible point in
  // the next ring cannot beat the current k-th distance.
  int64_t cx = CellX(from.x), cy = CellY(from.y);
  int64_t n = cells_per_side_;
  double min_cell_dim = std::min(cell_w_, cell_h_);
  int64_t max_ring = n;  // rings beyond the grid are empty

  for (int64_t ring = 0; ring <= max_ring; ++ring) {
    if (heap.size() == k) {
      // Cells in this ring are at least (ring - 1) cells away.
      double lower = static_cast<double>(ring - 1) * min_cell_dim;
      if (lower > 0.0 && lower * lower > heap.top().first) break;
    }
    int64_t x0 = cx - ring, x1 = cx + ring;
    int64_t y0 = cy - ring, y1 = cy + ring;
    bool any_cell = false;
    for (int64_t y = y0; y <= y1; ++y) {
      if (y < 0 || y >= n) continue;
      for (int64_t x = x0; x <= x1; ++x) {
        if (x < 0 || x >= n) continue;
        // Only the ring boundary (interior was handled by smaller rings).
        if (ring > 0 && x != x0 && x != x1 && y != y0 && y != y1) continue;
        any_cell = true;
        for (const auto& e :
             cells_[CellIndex(static_cast<uint32_t>(x),
                              static_cast<uint32_t>(y))]) {
          consider(e);
        }
      }
    }
    if (!any_cell && ring > 0 && (x1 < 0 || x0 >= n) && (y1 < 0 || y0 >= n))
      break;  // spiral has left the grid entirely
  }

  out.resize(heap.size());
  for (size_t i = out.size(); i > 0; --i) {
    out[i - 1] = heap.top().second;
    heap.pop();
  }
  return out;
}

}  // namespace cloakdb
