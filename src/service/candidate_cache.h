// Candidate-list caching for the shared-execution engine.
//
// A CandidateCache holds the index hits (id + point + record row) of recent
// widened probes (private-over-public queries) and per-shard public-count
// parts, keyed by a *grid-cell signature*: the cloaked region snapped
// outward to a fixed signature grid plus a power-of-two-quantized reach.
// Snapping is what makes repeated and drifting queries collide on the same
// key — any two regions covering the same cell block with comparable reach
// share one probe — while keeping the cached superset a provable superset
// of every matching query's isolated fetch (the snapped cover contains the
// region, the quantized reach bounds the radius).
//
// Invalidation is incremental and region-precise: a cloaked update only
// evicts count entries whose coverage intersects the update's (old or new)
// region, and a public-data mutation only evicts probe entries whose
// coverage intersects the mutation — entries elsewhere in the space
// survive the write untouched. A write can also re-seal the category's
// index, which renumbers every record row; a probe entry remembers the
// seal generation its rows belong to, and a lookup for another generation
// misses (the fresh probe's Insert then replaces the entry).
//
// Thread safety: every method locks the internal mutex, a leaf lock. The
// owning Shard calls Lookup/Insert under its shared (reader) lock and the
// Invalidate* methods under its exclusive lock, so a probe and its insert
// can never interleave with a conflicting write.

#ifndef CLOAKDB_SERVICE_CANDIDATE_CACHE_H_
#define CLOAKDB_SERVICE_CANDIDATE_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "geom/rect.h"
#include "obs/metrics.h"
#include "server/object_store.h"
#include "server/public_queries.h"

namespace cloakdb {

/// What a cache entry answers.
enum class CacheKind : uint8_t {
  kRange = 0,  ///< Probe superset for private range queries.
  kNn = 1,     ///< Probe superset for private NN queries.
  kKnn = 2,    ///< Probe superset for private k-NN queries.
  kCount = 3,  ///< A shard's count part (scan) for an exact window.
};

/// Snaps regions to a fixed G x G signature grid over the service space
/// and quantizes probe reaches to powers of two of the cell size — the two
/// normalizations that turn "similar query" into "equal cache key".
class CellSignature {
 public:
  CellSignature() = default;
  /// `cells` >= 1 per side; a degenerate space falls back to one cell.
  CellSignature(const Rect& space, uint32_t cells);

  /// The cell-aligned cover of `region`: the smallest block of signature
  /// cells containing region ∩ space. Always contains region ∩ space;
  /// contains all of `region` when the region lies inside the space.
  Rect SnapToCells(const Rect& region) const;

  /// The smallest cell_size * 2^i >= reach (i >= 0). Monotone and >= both
  /// `reach` and the cell size, so a probe widened to the quantized reach
  /// covers every query it is keyed for.
  double QuantizeReach(double reach) const;

  double cell_size() const { return cell_size_; }

 private:
  Rect space_{0.0, 0.0, 1.0, 1.0};
  uint32_t cells_ = 1;
  double cell_w_ = 1.0;
  double cell_h_ = 1.0;
  double cell_size_ = 1.0;  ///< max(cell_w_, cell_h_).
};

/// Cache key: kind + category + snapped region + quantized reach. Count
/// entries use the exact window as region and reach 0 (their answer is
/// window-exact, so no snapping is sound for them).
struct CacheKey {
  CacheKind kind = CacheKind::kRange;
  Category category = 0;
  Rect region;
  double reach = 0.0;

  bool operator==(const CacheKey& other) const {
    return kind == other.kind && category == other.category &&
           region.min_x == other.region.min_x &&
           region.min_y == other.region.min_y &&
           region.max_x == other.region.max_x &&
           region.max_y == other.region.max_y && reach == other.reach;
  }
};

struct CacheKeyHash {
  size_t operator()(const CacheKey& key) const;
};

/// One cached unit of work. Probe entries carry the probe's index hits,
/// which a cache hit refines through the isolated query's kernel before
/// materializing the survivors; count entries carry the shard's count part
/// (its scanned contributions), which the service merges and summarizes.
/// `coverage` is the region whose underlying data the entry summarizes —
/// the granule invalidation tests against.
struct CacheEntry {
  std::vector<IndexHit> superset;  ///< kRange/kNn/kKnn.
  /// kRange/kNn/kKnn: the category's seal generation when probed; the
  /// superset's rows are valid only while it is current.
  uint64_t seal_generation = 0;
  PublicCountPart count;  ///< kCount.
  Rect coverage;
};

/// Optional cache observability (counters live in the service registry and
/// stripe internally; null disables recording).
struct CandidateCacheObs {
  obs::Counter* hits = nullptr;
  obs::Counter* misses = nullptr;
  obs::Counter* insertions = nullptr;
  obs::Counter* lru_evictions = nullptr;
  obs::Counter* invalidations = nullptr;
};

/// A bounded LRU cache with region-precise invalidation. One instance per
/// Shard (that is the "sharded" in sharded LRU: no cross-shard contention).
class CandidateCache {
 public:
  /// `capacity` 0 disables the cache (Lookup always misses, Insert drops).
  explicit CandidateCache(size_t capacity);

  bool enabled() const { return capacity_ > 0; }
  size_t capacity() const { return capacity_; }
  size_t size() const;

  void SetObs(const CandidateCacheObs& obs) { obs_ = obs; }

  /// Returns the entry and refreshes its recency, or nullptr on a miss.
  /// An entry whose seal_generation differs from `seal_generation` (probe
  /// entries: the category's current one) is a miss.
  std::shared_ptr<const CacheEntry> Lookup(const CacheKey& key,
                                           uint64_t seal_generation = 0);

  /// Inserts (or replaces) an entry, evicting the least recently used
  /// entries beyond capacity.
  void Insert(const CacheKey& key, std::shared_ptr<const CacheEntry> entry);
  void Insert(const CacheKey& key, CacheEntry entry);

  /// Evicts probe entries (kRange/kNn/kKnn) whose coverage intersects a
  /// mutated public region — a point insert only kills the probes that
  /// could have fetched it.
  void InvalidatePublicRegion(const Rect& region);

  /// Evicts every probe entry of `category` (bulk load replaces the
  /// category wholesale, so nothing region-precise survives).
  void InvalidateCategory(Category category);

  /// Evicts count entries whose coverage intersects a cloaked update's
  /// region (callers pass both the old and the new region of the user).
  void InvalidatePrivateRegion(const Rect& region);

  void Clear();

 private:
  struct Node {
    CacheKey key;
    std::shared_ptr<const CacheEntry> entry;
  };
  using LruList = std::list<Node>;

  // Walks all entries and evicts those matching `pred` (mu_ held).
  template <typename Pred>
  void EvictMatching(const Pred& pred);

  const size_t capacity_;
  CandidateCacheObs obs_;
  mutable std::mutex mu_;
  LruList lru_;  ///< Front = most recently used.
  std::unordered_map<CacheKey, LruList::iterator, CacheKeyHash> index_;
  /// Entry counts per group, so invalidation scans are skipped entirely
  /// when no entry of the affected group exists (the common case: private-
  /// query-heavy workloads never pay for count invalidation and vice
  /// versa).
  size_t probe_entries_ = 0;
  size_t count_entries_ = 0;
};

}  // namespace cloakdb

#endif  // CLOAKDB_SERVICE_CANDIDATE_CACHE_H_
