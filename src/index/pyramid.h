// Pyramid: a complete multi-level grid with per-cell occupancy counts.
//
// Level l partitions the space into 2^l x 2^l cells; level 0 is the whole
// space, so the pyramid is a complete quadtree of quadrants. The paper's
// Fig. 4a rule (the smallest quadrant holding k users) and its Fig. 4b
// optimization ("keeping fixed multi-level grids") are both a walk over
// this structure. Counts at every level are maintained incrementally on
// insert/remove/move (O(height) per update).
//
// The pyramid holds counts only, not ids: its owner (the anonymizer's
// UserSnapshot) keeps the id -> location map in its grid, rejects
// duplicate ids, unknown ids and out-of-space points there, and hands the
// pyramid only valid points.

#ifndef CLOAKDB_INDEX_PYRAMID_H_
#define CLOAKDB_INDEX_PYRAMID_H_

#include <cstdint>
#include <vector>

#include "geom/point.h"
#include "geom/rect.h"

namespace cloakdb {

/// Address of one pyramid cell.
struct PyramidCell {
  uint32_t level = 0;
  uint32_t cx = 0;
  uint32_t cy = 0;

  bool operator==(const PyramidCell& o) const {
    return level == o.level && cx == o.cx && cy == o.cy;
  }
};

/// Multi-level count grid over points.
class Pyramid {
 public:
  /// Creates a pyramid over `bounds` with levels 0..`height` (height >= 0;
  /// the finest level has 2^height cells per side, capped at 2^11 to bound
  /// the count arrays at ~22 MB).
  Pyramid(const Rect& bounds, uint32_t height);

  /// Counts one point at `p`, which must lie inside bounds().
  void Insert(const Point& p);
  /// Uncounts one point at `p`, which must have been inserted there.
  void Remove(const Point& p);
  /// Moves one counted point from `from` to `to` (inside bounds()); only
  /// the levels where its cell changes are touched.
  void Move(const Point& from, const Point& to);

  uint32_t height() const { return height_; }
  const Rect& bounds() const { return bounds_; }

  /// Number of points inside cell (level, cx, cy). Requires a valid cell.
  size_t CellCount(const PyramidCell& cell) const;

  /// Geometric extent of a cell.
  Rect CellRect(const PyramidCell& cell) const;

  /// The cell at `level` containing point `p` (clamped to the grid).
  PyramidCell CellAt(uint32_t level, const Point& p) const;

  /// The parent cell (one level up). Requires cell.level > 0.
  static PyramidCell Parent(const PyramidCell& cell);

 private:
  size_t LevelCells(uint32_t level) const { return 1ULL << level; }
  size_t CellIndex(const PyramidCell& cell) const;
  void Apply(const Point& p, int64_t delta);

  Rect bounds_;
  uint32_t height_;
  // counts_[level] is a flat 2^level x 2^level array.
  std::vector<std::vector<uint32_t>> counts_;
};

}  // namespace cloakdb

#endif  // CLOAKDB_INDEX_PYRAMID_H_
