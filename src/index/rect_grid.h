// Grid-of-buckets secondary index over rectangles.
//
// The privacy-aware server stores private data as cloaked rectangles only
// (paper Section 6.1). This index buckets each rectangle into every grid
// cell it overlaps so public queries over private data (Fig. 6) can find
// the cloaked regions intersecting a window without a full scan.

#ifndef CLOAKDB_INDEX_RECT_GRID_H_
#define CLOAKDB_INDEX_RECT_GRID_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "geom/rect.h"
#include "index/grid_index.h"
#include "util/status.h"

namespace cloakdb {

/// An (id, rectangle) pair returned by searches.
struct RectEntry {
  ObjectId id = 0;
  Rect rect;
};

/// Uniform grid where each cell lists the rectangles overlapping it.
///
/// Rectangles live in a dense slot table and cells hold slot numbers, so a
/// scan reads each candidate without hashing; the id -> slot map serves
/// only writes, Get and ForEach.
class RectGrid {
 public:
  /// Grid over `bounds` with `cells_per_side` >= 1 cells per axis.
  RectGrid(const Rect& bounds, uint32_t cells_per_side);

  /// Inserts a rectangle (clamped to the managed space for bucketing; the
  /// stored rect keeps its original extent). Fails on duplicate id or on a
  /// rect that does not intersect the space.
  Status Insert(ObjectId id, const Rect& rect);

  /// Removes a rectangle by id.
  Status Remove(ObjectId id);

  /// Replaces the rectangle of an existing id (the common path: a user's
  /// cloaked region moved). Fails with NotFound when absent.
  Status Update(ObjectId id, const Rect& new_rect);

  /// Inserts or replaces.
  Status Upsert(ObjectId id, const Rect& rect);

  /// The stored rectangle of an id.
  Result<Rect> Get(ObjectId id) const;

  size_t size() const { return slot_of_.size(); }
  const Rect& bounds() const { return bounds_; }

  /// All rectangles intersecting `window`, each once, in the order a
  /// row-major cell scan first meets them.
  std::vector<RectEntry> IntersectingRects(const Rect& window) const;

  /// Visits every stored rectangle once (order unspecified, but fixed by
  /// the sequence of writes).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& [id, slot] : slot_of_)
      fn(RectEntry{id, slots_[slot].rect});
  }

 private:
  struct CellRange {
    uint32_t x0, y0, x1, y1;
  };
  CellRange CellsFor(const Rect& rect) const;
  size_t CellIndex(uint32_t cx, uint32_t cy) const {
    return static_cast<size_t>(cy) * cells_per_side_ + cx;
  }
  /// One stored rectangle and the cells it is bucketed in.
  struct Slot {
    ObjectId id = 0;
    Rect rect;
    CellRange cells{};
  };
  void AddToCells(uint32_t slot);
  void RemoveFromCells(uint32_t slot);

  Rect bounds_;
  uint32_t cells_per_side_;
  double cell_w_;
  double cell_h_;
  std::vector<std::vector<uint32_t>> cells_;  ///< Slot numbers per cell.
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;  ///< Slots of removed ids, for reuse.
  std::unordered_map<ObjectId, uint32_t> slot_of_;
};

}  // namespace cloakdb

#endif  // CLOAKDB_INDEX_RECT_GRID_H_
