// Per-category public-data index: a sealed StaticRTree + spill overlay.
//
// Public POIs are read-mostly, so every category is served by the packed
// StaticRTree (index/static_rtree.h). But the store's write surface
// (AddPublicObject / RemovePublicObject / MovePublicObject) must keep
// working after a category is sealed, so the index is a three-part
// structure:
//
//   sealed     StaticRTree        immutable bulk of the category
//   overlay    dynamic RTree      objects added (or moved) after sealing
//   tombstones id set             sealed objects since removed/moved
//
// Queries merge sealed (minus tombstones) with the overlay; results are
// deterministic (range results sorted by id, kNN by (distance, id)).
// Compaction folds overlay + tombstones back into a fresh sealed tree —
// triggered inline when the spill grows past `overlay_compact_limit`, and
// by the service's checkpoint path so the serialized sidecar stays close
// to the live set. A category that is never sealed is served by its
// overlay alone, i.e. by the quadratic-split RTree.

#ifndef CLOAKDB_INDEX_PUBLIC_INDEX_H_
#define CLOAKDB_INDEX_PUBLIC_INDEX_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "index/rtree.h"
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
  obs::Counter* adoptions_total = nullptr;       ///< mmap'd trees adopted
  obs::Counter* rebuilds_total = nullptr;        ///< adoption fallbacks
};

/// One category's public-data index. Move-only, like RTree.
class PublicCategoryIndex {
 public:
  struct Config {
    /// Unread; assigned by perfbench/src/replay.cc:23.
    PublicIndexMode mode = PublicIndexMode::kStatic;
    /// Overlay + tombstone count that triggers an inline compaction.
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

  // --- Mutation (mirrors RTree's contract) -------------------------------

  /// Fails with AlreadyExists on a duplicate id.
  Status Insert(ObjectId id, const Point& location);

  /// Fails with NotFound when absent.
  Status Remove(ObjectId id);

  /// Replaces the whole content: one STR build (the seal), overlay and
  /// tombstones cleared. Fails with InvalidArgument on a duplicate id or a
  /// non-finite coordinate and leaves the index unchanged.
  Status BulkLoad(std::vector<PointEntry> entries);

  // --- Queries (same surface the server code used on RTree) --------------

  size_t size() const;
  Result<Point> Locate(ObjectId id) const;
  /// Sorted by id.
  std::vector<PointEntry> RangeSearch(const Rect& window) const;
  size_t RangeCount(const Rect& window) const;
  /// Sorted by (distance, id).
  std::vector<PointEntry> KNearest(const Point& from, size_t k) const;
  double NearestDistance(const Point& from) const;

  // --- Seal lifecycle (service/storage layer) ----------------------------

  /// True when a sealed StaticRTree is present (post-seal).
  bool HasSealedTree() const { return sealed_.size() > 0; }
  size_t overlay_size() const { return overlay_.size(); }
  size_t tombstone_count() const { return tombstones_.size(); }
  /// Bumped on every seal / adoption / compaction.
  uint64_t seal_generation() const { return seal_generation_; }

  /// The sealed tree's blob ("" when none) — what the checkpoint sidecar
  /// stores. Overlay and tombstones are NOT in the blob; recovery
  /// reconciles them from the snapshot via AdoptSealed.
  std::string SerializeSealedBlob() const { return sealed_.SerializeBlob(); }

  /// Adopts a deserialized (usually mmap-backed) sealed tree, verifying it
  /// entry-by-entry against `objects` — the authoritative live set from the
  /// snapshot. Sealed entries missing from `objects` become tombstones;
  /// `objects` entries missing from the sealed tree go to the overlay. Any
  /// id whose stored location disagrees fails with Internal and leaves the
  /// index unchanged (caller falls back to a fresh BulkLoad).
  Status AdoptSealed(StaticRTree sealed,
                     const std::vector<PointEntry>& objects);

  /// True when overlay + tombstones are worth folding back in.
  bool NeedsCompaction() const {
    return overlay_.size() + tombstones_.size() > 0;
  }

  /// Rebuilds the sealed tree from the live set; clears overlay/tombstones.
  Status Compact();

 private:
  std::vector<PointEntry> LiveEntries() const;

  Config config_;
  StaticRTree sealed_;
  RTree overlay_;  // post-seal inserts
  std::unordered_set<ObjectId> tombstones_;
  uint64_t seal_generation_ = 0;
};

}  // namespace cloakdb

#endif  // CLOAKDB_INDEX_PUBLIC_INDEX_H_
