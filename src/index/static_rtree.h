// STR bulk-packed static R-tree over point objects (public POIs).
//
// Public POIs are read-mostly, so they need no in-place updates and no
// pointer chasing (private cloaked data, which moves on every update, lives
// in RectGrid instead). This tree is the only R-tree in the code and the
// osrm-style answer: Sort-Tile-Recursive bulk packing into an *implicit*
// array layout with zero pointers, u32 fixed-point coordinates so a leaf
// entry is 16 bytes and a 64-entry leaf page is exactly 1 KiB (a
// power-of-two multiple of the cache line), and window tests over a whole
// leaf page as branchless unsigned range checks. The tree has no on-disk
// form: its levels, leaf entries, exact coordinates and id directory are
// plain arrays that Build fills, and a restarting shard re-seals each
// category from its checkpoint snapshot (docs/INDEXES.md, "Recovery
// re-seals").
//
// Quantization never changes answers: window endpoints are quantized
// outward (floor for the low edge, the same floor for the high edge, so a
// stored point can pass the coarse test spuriously but never fail it when
// the exact point is inside), and every coarse hit is refined against a
// parallel array of exact double coordinates before it is reported. KNN
// node bounds are dequantized conservatively (one quantum outward, clamped
// to the build frame), keeping MinDist a true lower bound; distances at the
// leaves use the exact coordinates. See docs/INDEXES.md for the error-bound
// argument.

#ifndef CLOAKDB_INDEX_STATIC_RTREE_H_
#define CLOAKDB_INDEX_STATIC_RTREE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <unordered_set>
#include <vector>

#include "geom/point.h"
#include "geom/rect.h"
#include "index/grid_index.h"
#include "util/status.h"

namespace cloakdb {

/// One index hit: the entry plus its row in the owner's record table. A
/// sealed tree's rows are its leaf slots, so a record table laid out in
/// slot order turns a hit into its record with no lookup.
struct IndexHit {
  ObjectId id = 0;
  Point location;
  uint64_t row = 0;
};

/// The k >= 1 smallest values offered so far, kept as a max-heap in k
/// doubles the caller lends, so a probe for several points allocates
/// nothing of its own.
class KSmallest {
 public:
  KSmallest(double* storage, size_t k) : heap_(storage), k_(k) {}

  /// What an offer must be below to enter: +inf until k values are held,
  /// then the largest held (the k-th smallest offered).
  double Bound() const {
    return size_ < k_ ? std::numeric_limits<double>::infinity() : heap_[0];
  }

  void Offer(double v) {
    if (size_ < k_) {
      heap_[size_++] = v;
      std::push_heap(heap_, heap_ + size_);
    } else if (v < heap_[0]) {
      std::pop_heap(heap_, heap_ + k_);
      heap_[k_ - 1] = v;
      std::push_heap(heap_, heap_ + k_);
    }
  }

 private:
  double* heap_;
  size_t k_;
  size_t size_ = 0;
};

/// Immutable STR-packed R-tree. Build once, query freely.
class StaticRTree {
 public:
  /// 64 x 16-byte entries = 1024-byte leaf pages (16 cache lines).
  static constexpr uint32_t kLeafCapacity = 64;
  /// Fan-out of the implicit upper levels.
  static constexpr uint32_t kBranching = 64;

  /// One leaf slot: id plus fixed-point coordinates. 16 bytes.
  struct LeafEntry {
    ObjectId id;
    uint32_t qx;
    uint32_t qy;
  };
  static_assert(sizeof(LeafEntry) == 16, "leaf entry must stay 16 bytes");

  /// Quantized MBR of one node (leaf page at level 0, kBranching children
  /// above). 16 bytes.
  struct NodeRec {
    uint32_t min_qx;
    uint32_t min_qy;
    uint32_t max_qx;
    uint32_t max_qy;
  };
  static_assert(sizeof(NodeRec) == 16, "node record must stay 16 bytes");

  /// Ids to hide from query results (the facade's tombstone set).
  using IdFilter = std::unordered_set<ObjectId>;

  /// An empty tree (no allocations; all queries return nothing).
  StaticRTree() = default;

  StaticRTree(const StaticRTree&) = delete;
  StaticRTree& operator=(const StaticRTree&) = delete;
  StaticRTree(StaticRTree&&) = default;
  StaticRTree& operator=(StaticRTree&&) = default;

  /// STR-packs `entries` (fails with InvalidArgument on duplicate ids or
  /// non-finite coordinates). When `input_of_slot` is non-null it
  /// receives, for each leaf slot, the index in `entries` of the entry
  /// stored there, so a caller can lay its own records out in slot order
  /// without an id lookup.
  static Result<StaticRTree> Build(
      std::vector<PointEntry> entries,
      std::vector<uint64_t>* input_of_slot = nullptr);

  size_t size() const { return leaves_.size(); }
  /// Levels in the packed tree (1 = a single leaf-page level; 0 = empty).
  uint32_t Height() const { return static_cast<uint32_t>(levels_.size()); }
  /// Exact bounding box of the build set (empty Rect when size() == 0).
  const Rect& frame() const { return frame_; }

  /// Appends all objects inside `window` (exact-refined) to `out`,
  /// in leaf-slot order. `skip` (optional) hides tombstoned ids.
  void RangeSearchInto(const Rect& window, const IdFilter* skip,
                       std::vector<PointEntry>* out) const;
  /// The same, each hit carrying its leaf slot as its row.
  void RangeSearchInto(const Rect& window, const IdFilter* skip,
                       std::vector<IndexHit>* out) const;

  /// Number of objects inside `window` (exact-refined).
  size_t RangeCount(const Rect& window, const IdFilter* skip) const;

  /// The k nearest objects to `from`, sorted by (distance, id). Exact
  /// distances; deterministic order.
  std::vector<PointEntry> KNearest(const Point& from, size_t k,
                                   const IdFilter* skip) const;

  /// Distance from `from` to its nearest visible object; +inf when none.
  double NearestDistance(const Point& from, const IdFilter* skip) const;

  /// Offers the squared distance from `from[i]` to every visible object to
  /// `heaps[i]` (one heap per point), in one best-first traversal for all
  /// the points: a node or page is opened only while some point's heap
  /// could take an object under it. Each heap ends holding its point's k
  /// smallest squared distances: std::sqrt of its Bound() is the distance
  /// of KNearest's k-th entry.
  void NearestSquaresInto(std::span<const Point> from, const IdFilter* skip,
                          std::span<KSmallest> heaps) const;

  /// The stored (exact) location of `id`; NotFound when absent.
  Result<Point> Locate(ObjectId id) const;
  bool ContainsId(ObjectId id) const;
  /// The leaf slot of `id` (binary search of the id directory); nullopt
  /// when absent.
  std::optional<uint64_t> SlotOf(ObjectId id) const;

  /// Visits every entry (id + exact location) in leaf-slot order —
  /// used by the facade's compaction to re-collect the sealed set.
  template <typename Fn>
  void ForEachEntry(Fn&& fn) const {
    for (uint64_t slot = 0; slot < leaves_.size(); ++slot) {
      fn(leaves_[slot].id, exact_[slot]);
    }
  }

 private:
  /// Map id -> leaf slot, sorted by id for binary search. 16 bytes.
  struct IdSlot {
    ObjectId id;
    uint64_t slot;
  };

  /// Conservative exact-space cover of a quantized node rect.
  Rect DequantRect(const NodeRec& rec) const;
  /// Calls `emit(slot, id, exact point)` for every visible object inside
  /// `window`, in leaf-slot order.
  template <typename Emit>
  void ForEachInWindow(const Rect& window, const IdFilter* skip,
                       Emit&& emit) const;
  /// The id directory record of `id`, or nullptr when absent.
  const IdSlot* FindId(ObjectId id) const;

  Rect frame_;                // exact build frame; empty when size() == 0
  double inv_scale_x_ = 0.0;  // frame width / kQMax (0 on degenerate axis)
  double inv_scale_y_ = 0.0;
  double scale_x_ = 0.0;      // kQMax / frame width (0 on degenerate axis)
  double scale_y_ = 0.0;
  // levels_[0] = leaf-page MBRs; back() = the root.
  std::vector<std::vector<NodeRec>> levels_;
  std::vector<LeafEntry> leaves_;  // slot order; page p = slots [64p, 64p+64)
  std::vector<Point> exact_;       // exact coordinates, slot order
  std::vector<IdSlot> ids_;        // sorted by id
};

}  // namespace cloakdb

#endif  // CLOAKDB_INDEX_STATIC_RTREE_H_
