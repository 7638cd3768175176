// Per-category public-data index: a sealed StaticRTree + a bounded spill.
//
// Public POIs are read-mostly, so every category is served by the packed
// StaticRTree (index/static_rtree.h). But the store's write surface
// (AddPublicObject / RemovePublicObject / MovePublicObject) must keep
// working after a category is sealed, so the index is a three-part
// structure:
//
//   sealed     StaticRTree               immutable bulk of the category
//   overlay    vector sorted by (x, id)  objects added (or moved) after sealing
//   tombstones id set                    sealed objects since removed/moved
//
// Every live entry has a row: a sealed entry's row is its leaf slot; an
// overlay entry gets a row past the sealed slots on Insert and keeps it
// until its Remove (a freed row is reused). The owner keeps its
// records in a table indexed by row (server/object_store.h), so a hit
// leads straight to its record. Rows hold between seals; every seal or
// compaction (a new seal_generation) renumbers them all.
//
// Queries merge sealed (minus tombstones) with the overlay. Range hits come
// in index order (sealed hits in leaf-slot order, then overlay hits by
// (x, id)), which is deterministic but not id order; kNN comes by
// (distance, id). Overlay + tombstones never exceed `overlay_compact_limit`:
// a mutation that would pass it folds them back into a fresh sealed tree.
// The bound also keeps the overlay short enough that an x-slab scan beats
// a tree (docs/INDEXES.md, "Spill"). A category that is never sealed is
// served by its overlay alone until its first compaction seals it. The
// index has no on-disk form: recovery bulk-loads each category from the
// checkpoint snapshot.

#ifndef CLOAKDB_INDEX_PUBLIC_INDEX_H_
#define CLOAKDB_INDEX_PUBLIC_INDEX_H_

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_set>
#include <vector>

#include "index/static_rtree.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace cloakdb {

/// Single-valued; kept only because perfbench/src/world.cc:199 names it.
enum class PublicIndexMode : uint8_t { kStatic };

/// Counters for the static index lifecycle (service-owned; all optional).
struct StaticIndexObs {
  obs::Counter* seals_total = nullptr;           ///< STR builds (bulk loads)
  obs::Counter* sealed_objects_total = nullptr;  ///< entries across seals
  obs::Counter* overlay_inserts_total = nullptr;
  obs::Counter* tombstones_total = nullptr;
  obs::Counter* compactions_total = nullptr;
};

/// One category's public-data index. Move-only, like StaticRTree.
class PublicCategoryIndex {
 public:
  struct Config {
    /// Unread; assigned by perfbench/src/replay.cc:23.
    PublicIndexMode mode = PublicIndexMode::kStatic;
    /// Bound on overlay + tombstones; passing it compacts inline.
    size_t overlay_compact_limit = 1024;
    /// Optional lifecycle counters (shared across categories).
    const StaticIndexObs* obs = nullptr;
  };

  PublicCategoryIndex() = default;
  explicit PublicCategoryIndex(const Config& config) : config_(config) {}

  PublicCategoryIndex(const PublicCategoryIndex&) = delete;
  PublicCategoryIndex& operator=(const PublicCategoryIndex&) = delete;
  PublicCategoryIndex(PublicCategoryIndex&&) = default;
  PublicCategoryIndex& operator=(PublicCategoryIndex&&) = default;

  // --- Mutation ------------------------------------------------------------

  /// Fails with AlreadyExists on a duplicate id and with InvalidArgument on
  /// a non-finite coordinate.
  Status Insert(ObjectId id, const Point& location);

  /// Fails with NotFound when absent.
  Status Remove(ObjectId id);

  /// Replaces the whole content: one STR build (the seal), overlay and
  /// tombstones cleared. Fails with InvalidArgument on a duplicate id or a
  /// non-finite coordinate and leaves the index unchanged. When
  /// `input_of_row` is non-null it receives, for each row, the index in
  /// `entries` of the entry that row holds (StaticRTree::Build).
  Status BulkLoad(std::vector<PointEntry> entries,
                  std::vector<uint64_t>* input_of_row = nullptr);

  // --- Queries -------------------------------------------------------------

  size_t size() const;
  Result<Point> Locate(ObjectId id) const;
  /// The row of live entry `id`; nullopt when absent.
  std::optional<uint64_t> RowOf(ObjectId id) const;
  /// True when a live entry's id is in `ids`: one sealed id-directory
  /// search per id and one pass over the overlay, where RowOf per id
  /// would scan the overlay once per id.
  bool HoldsAny(const std::unordered_set<ObjectId>& ids) const;
  /// One past the highest row in use: the size a record table needs.
  uint64_t row_count() const { return next_row_; }
  /// Every entry inside `window`, in index order (sealed hits by leaf slot,
  /// then overlay hits by (x, id)), each with its row.
  std::vector<IndexHit> RangeSearch(const Rect& window) const;
  size_t RangeCount(const Rect& window) const;
  /// Sorted by (distance, id).
  std::vector<PointEntry> KNearest(const Point& from, size_t k) const;
  double NearestDistance(const Point& from) const;
  /// The largest, over the points p of `from`, of the squared distance
  /// from p to its k-th nearest entry, from one joint traversal of the
  /// sealed tree and one spill fold per point. Its std::sqrt equals the
  /// largest Distance(p, KNearest(p, k).back().location) bit for bit.
  /// +inf when fewer than k entries are live; 0 when k = 0 or `from` is
  /// empty.
  double MaxKthDistanceSquared(std::span<const Point> from, size_t k) const;

  // --- Seal lifecycle (service/storage layer) ----------------------------

  /// True when a sealed StaticRTree is present (post-seal).
  bool HasSealedTree() const { return sealed_.size() > 0; }
  size_t overlay_size() const { return overlay_.size(); }
  size_t tombstone_count() const { return tombstones_.size(); }
  /// Bumped on every seal and compaction, i.e. whenever rows are
  /// renumbered.
  uint64_t seal_generation() const { return seal_generation_; }

  /// Rebuilds the sealed tree from the live set; clears overlay/tombstones.
  Status Compact();

 private:
  std::vector<PointEntry> LiveEntries() const;
  const StaticRTree::IdFilter* Skip() const {
    return tombstones_.empty() ? nullptr : &tombstones_;
  }
  std::vector<IndexHit>::const_iterator OverlayFind(ObjectId id) const;
  /// Compacts when overlay + tombstones pass `overlay_compact_limit`.
  Status CompactIfOverLimit();
  /// Installs `sealed` with an empty spill and renumbers the rows.
  void Reseal(StaticRTree sealed);

  Config config_;
  StaticRTree sealed_;
  std::vector<IndexHit> overlay_;  // post-seal inserts, sorted by (x, id)
  std::unordered_set<ObjectId> tombstones_;
  std::vector<uint64_t> free_rows_;  // overlay rows freed by Remove
  uint64_t next_row_ = 0;            // first row never given out
  uint64_t seal_generation_ = 0;
};

}  // namespace cloakdb

#endif  // CLOAKDB_INDEX_PUBLIC_INDEX_H_
