// Uniform grid index over moving point objects.
//
// This is the anonymizer's working snapshot structure (paper Fig. 4b): it
// supports high-rate location updates (move = O(1) expected), per-cell
// occupancy counts for grid cloaking, window counts/collection, and a
// spiral k-nearest-neighbor search used by MBR cloaking (Fig. 3b).

#ifndef CLOAKDB_INDEX_GRID_INDEX_H_
#define CLOAKDB_INDEX_GRID_INDEX_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "geom/point.h"
#include "geom/rect.h"
#include "util/status.h"

namespace cloakdb {

/// Identifier for an object stored in a spatial index.
using ObjectId = uint64_t;

/// An (id, location) pair returned by searches.
struct PointEntry {
  ObjectId id = 0;
  Point location;
};

/// Uniform cells_per_side x cells_per_side grid over a fixed bounding space.
class GridIndex {
 public:
  /// Creates a grid over `bounds` (non-empty) with `cells_per_side` >= 1
  /// cells along each axis.
  GridIndex(const Rect& bounds, uint32_t cells_per_side);

  /// Inserts a new object. Fails with AlreadyExists on a duplicate id and
  /// OutOfRange when `location` lies outside the managed space.
  Status Insert(ObjectId id, const Point& location);

  /// Removes an object. Fails with NotFound when the id is unknown. On
  /// success stores the object's last location in `*old_location` when
  /// given.
  Status Remove(ObjectId id, Point* old_location = nullptr);

  /// Moves an existing object (Fails with NotFound / OutOfRange). O(1)
  /// expected: the bucket is only touched when the cell changes. On
  /// success stores the location it moved from in `*old_location` when
  /// given.
  Status Move(ObjectId id, const Point& new_location,
              Point* old_location = nullptr);

  /// The stored location of `id`.
  Result<Point> Locate(ObjectId id) const;

  /// True iff the id is present.
  bool Contains(ObjectId id) const { return locations_.count(id) > 0; }

  /// Number of stored objects.
  size_t size() const { return locations_.size(); }

  /// Number of objects whose location lies in `window` (closed bounds).
  size_t CountInRect(const Rect& window) const;

  /// All objects whose location lies in `window`.
  std::vector<PointEntry> CollectInRect(const Rect& window) const;

  /// The k objects nearest to `from` (ties broken by id), optionally
  /// skipping one id (so a user is not her own neighbor). Returns fewer
  /// than k entries when the index holds fewer objects. Sorted by distance.
  std::vector<PointEntry> KNearest(const Point& from, size_t k,
                                   ObjectId exclude_id = ~0ULL) const;

  // --- Cell-level accessors used by the cloaking algorithms. ---

  /// Managed space.
  const Rect& bounds() const { return bounds_; }

  uint32_t cells_per_side() const { return cells_per_side_; }

  /// Cell column/row of a point (clamped to the grid).
  uint32_t CellX(double x) const;
  uint32_t CellY(double y) const;

  /// Geometric extent of cell (cx, cy).
  Rect CellRect(uint32_t cx, uint32_t cy) const;

  /// Occupancy of cell (cx, cy). Requires coordinates inside the grid.
  size_t CellCount(uint32_t cx, uint32_t cy) const;

  /// Occupancy of the cell block [cx0, cx1] x [cy0, cy1] (inclusive,
  /// clamped to the grid).
  size_t BlockCount(uint32_t cx0, uint32_t cy0, uint32_t cx1,
                    uint32_t cy1) const;

 private:
  size_t CellIndex(uint32_t cx, uint32_t cy) const {
    return static_cast<size_t>(cy) * cells_per_side_ + cx;
  }
  size_t CellIndexFor(const Point& p) const {
    return CellIndex(CellX(p.x), CellY(p.y));
  }

  void BucketErase(size_t cell, ObjectId id);

  Rect bounds_;
  uint32_t cells_per_side_;
  double cell_w_;
  double cell_h_;
  std::vector<std::vector<PointEntry>> cells_;
  std::unordered_map<ObjectId, Point> locations_;
};

}  // namespace cloakdb

#endif  // CLOAKDB_INDEX_GRID_INDEX_H_
