#include "index/rect_grid.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace cloakdb {

RectGrid::RectGrid(const Rect& bounds, uint32_t cells_per_side)
    : bounds_(bounds), cells_per_side_(cells_per_side) {
  assert(!bounds.IsEmpty());
  assert(cells_per_side >= 1);
  cell_w_ = bounds.Width() / cells_per_side_;
  cell_h_ = bounds.Height() / cells_per_side_;
  cells_.resize(static_cast<size_t>(cells_per_side_) * cells_per_side_);
}

RectGrid::CellRange RectGrid::CellsFor(const Rect& rect) const {
  auto clamp_cell = [this](double f) {
    auto c = static_cast<int64_t>(std::floor(f));
    return static_cast<uint32_t>(
        std::clamp<int64_t>(c, 0, cells_per_side_ - 1));
  };
  Rect r = rect.Intersection(bounds_);
  return {clamp_cell((r.min_x - bounds_.min_x) / cell_w_),
          clamp_cell((r.min_y - bounds_.min_y) / cell_h_),
          clamp_cell((r.max_x - bounds_.min_x) / cell_w_),
          clamp_cell((r.max_y - bounds_.min_y) / cell_h_)};
}

void RectGrid::AddToCells(uint32_t slot) {
  CellRange cr = CellsFor(slots_[slot].rect);
  slots_[slot].cells = cr;
  for (uint32_t cy = cr.y0; cy <= cr.y1; ++cy)
    for (uint32_t cx = cr.x0; cx <= cr.x1; ++cx)
      cells_[CellIndex(cx, cy)].push_back(slot);
}

void RectGrid::RemoveFromCells(uint32_t slot) {
  const CellRange cr = slots_[slot].cells;
  for (uint32_t cy = cr.y0; cy <= cr.y1; ++cy) {
    for (uint32_t cx = cr.x0; cx <= cr.x1; ++cx) {
      auto& bucket = cells_[CellIndex(cx, cy)];
      auto it = std::find(bucket.begin(), bucket.end(), slot);
      assert(it != bucket.end());
      *it = bucket.back();
      bucket.pop_back();
    }
  }
}

Status RectGrid::Insert(ObjectId id, const Rect& rect) {
  if (slot_of_.count(id) > 0)
    return Status::AlreadyExists("rect id already in rect grid");
  if (!rect.Intersects(bounds_))
    return Status::OutOfRange("rect outside indexed space: " +
                              rect.ToString());
  uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  slots_[slot].id = id;
  slots_[slot].rect = rect;
  slot_of_.emplace(id, slot);
  AddToCells(slot);
  return Status::OK();
}

Status RectGrid::Remove(ObjectId id) {
  auto it = slot_of_.find(id);
  if (it == slot_of_.end())
    return Status::NotFound("rect id not in rect grid");
  RemoveFromCells(it->second);
  free_slots_.push_back(it->second);
  slot_of_.erase(it);
  return Status::OK();
}

Status RectGrid::Update(ObjectId id, const Rect& new_rect) {
  auto it = slot_of_.find(id);
  if (it == slot_of_.end())
    return Status::NotFound("rect id not in rect grid");
  if (!new_rect.Intersects(bounds_))
    return Status::OutOfRange("rect outside indexed space: " +
                              new_rect.ToString());
  RemoveFromCells(it->second);
  slots_[it->second].rect = new_rect;
  AddToCells(it->second);
  return Status::OK();
}

Status RectGrid::Upsert(ObjectId id, const Rect& rect) {
  if (slot_of_.count(id) > 0) return Update(id, rect);
  return Insert(id, rect);
}

Result<Rect> RectGrid::Get(ObjectId id) const {
  auto it = slot_of_.find(id);
  if (it == slot_of_.end())
    return Status::NotFound("rect id not in rect grid");
  return slots_[it->second].rect;
}

std::vector<RectEntry> RectGrid::IntersectingRects(const Rect& window) const {
  std::vector<RectEntry> out;
  if (!window.Intersects(bounds_)) return out;
  const CellRange wc = CellsFor(window);
  for (uint32_t cy = wc.y0; cy <= wc.y1; ++cy) {
    for (uint32_t cx = wc.x0; cx <= wc.x1; ++cx) {
      for (uint32_t s : cells_[CellIndex(cx, cy)]) {
        const Slot& slot = slots_[s];
        // A rect bucketed in several scanned cells is reported only from
        // the first of them in row-major order: once, and where a
        // first-seen scan would have reported it.
        if (cx != std::max(slot.cells.x0, wc.x0) ||
            cy != std::max(slot.cells.y0, wc.y0))
          continue;
        if (!slot.rect.Intersects(window)) continue;
        out.push_back({slot.id, slot.rect});
      }
    }
  }
  return out;
}

}  // namespace cloakdb
