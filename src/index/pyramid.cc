#include "index/pyramid.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace cloakdb {

Pyramid::Pyramid(const Rect& bounds, uint32_t height)
    : bounds_(bounds), height_(std::min(height, 11u)) {
  assert(!bounds.IsEmpty());
  counts_.resize(height_ + 1);
  for (uint32_t l = 0; l <= height_; ++l) {
    size_t n = LevelCells(l);
    counts_[l].assign(n * n, 0);
  }
}

size_t Pyramid::CellIndex(const PyramidCell& cell) const {
  size_t n = LevelCells(cell.level);
  assert(cell.cx < n && cell.cy < n);
  return static_cast<size_t>(cell.cy) * n + cell.cx;
}

PyramidCell Pyramid::CellAt(uint32_t level, const Point& p) const {
  assert(level <= height_);
  size_t n = LevelCells(level);
  double fx = (p.x - bounds_.min_x) / bounds_.Width() * static_cast<double>(n);
  double fy =
      (p.y - bounds_.min_y) / bounds_.Height() * static_cast<double>(n);
  auto cx = static_cast<int64_t>(std::floor(fx));
  auto cy = static_cast<int64_t>(std::floor(fy));
  cx = std::clamp<int64_t>(cx, 0, static_cast<int64_t>(n) - 1);
  cy = std::clamp<int64_t>(cy, 0, static_cast<int64_t>(n) - 1);
  return {level, static_cast<uint32_t>(cx), static_cast<uint32_t>(cy)};
}

PyramidCell Pyramid::Parent(const PyramidCell& cell) {
  assert(cell.level > 0);
  return {cell.level - 1, cell.cx / 2, cell.cy / 2};
}

Rect Pyramid::CellRect(const PyramidCell& cell) const {
  size_t n = LevelCells(cell.level);
  double w = bounds_.Width() / static_cast<double>(n);
  double h = bounds_.Height() / static_cast<double>(n);
  return {bounds_.min_x + cell.cx * w, bounds_.min_y + cell.cy * h,
          bounds_.min_x + (cell.cx + 1) * w, bounds_.min_y + (cell.cy + 1) * h};
}

size_t Pyramid::CellCount(const PyramidCell& cell) const {
  return counts_[cell.level][CellIndex(cell)];
}

void Pyramid::Apply(const Point& p, int64_t delta) {
  for (uint32_t l = 0; l <= height_; ++l) {
    PyramidCell c = CellAt(l, p);
    auto& v = counts_[l][CellIndex(c)];
    assert(delta > 0 || v > 0);
    v = static_cast<uint32_t>(static_cast<int64_t>(v) + delta);
  }
}

void Pyramid::Insert(const Point& p) {
  assert(bounds_.Contains(p));
  Apply(p, +1);
}

void Pyramid::Remove(const Point& p) { Apply(p, -1); }

void Pyramid::Move(const Point& from, const Point& to) {
  assert(bounds_.Contains(to));
  // Only touch the levels where the cell actually changes.
  for (uint32_t l = 0; l <= height_; ++l) {
    PyramidCell old_cell = CellAt(l, from);
    PyramidCell new_cell = CellAt(l, to);
    if (old_cell == new_cell) continue;
    auto& from_count = counts_[l][CellIndex(old_cell)];
    assert(from_count > 0);
    --from_count;
    ++counts_[l][CellIndex(new_cell)];
  }
}

}  // namespace cloakdb
