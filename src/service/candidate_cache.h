// Per-shard caching of public-count parts for the shared-execution engine.
//
// A CandidateCache holds a shard's PublicCountPart (its scanned
// contributions) for recently counted windows, keyed by the exact window:
// a count answer is window-exact, so only a query for the identical window
// may reuse it. Private range/NN/kNN queries are not cached — they probe
// the index directly.
//
// Invalidation is region-precise: a cloaked update evicts only the entries
// whose window intersects the update's (old or new) region, so counts
// elsewhere in the space survive the write untouched. Public data never
// enters a count, so public writes leave the cache alone.
//
// Thread safety: every method locks the internal mutex, a leaf lock. The
// owning Shard calls Lookup/Insert under its shared (reader) lock and
// InvalidatePrivateRegion under its exclusive lock, so a scan and its
// insert can never interleave with a conflicting update.

#ifndef CLOAKDB_SERVICE_CANDIDATE_CACHE_H_
#define CLOAKDB_SERVICE_CANDIDATE_CACHE_H_

#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "geom/rect.h"
#include "obs/metrics.h"
#include "server/public_queries.h"

namespace cloakdb {

/// Optional cache observability (counters live in the service registry and
/// stripe internally; null disables recording).
struct CandidateCacheObs {
  obs::Counter* hits = nullptr;
  obs::Counter* misses = nullptr;
  obs::Counter* insertions = nullptr;
  obs::Counter* lru_evictions = nullptr;
  obs::Counter* invalidations = nullptr;
};

/// A bounded, window-keyed LRU of count parts with region-precise
/// invalidation. One instance per Shard (that is the "sharded" in sharded
/// LRU: no cross-shard contention).
class CandidateCache {
 public:
  /// `capacity` 0 disables the cache (Lookup always misses, Insert drops).
  explicit CandidateCache(size_t capacity);

  bool enabled() const { return capacity_ > 0; }
  size_t size() const;

  void SetObs(const CandidateCacheObs& obs) { obs_ = obs; }

  /// The part cached for exactly `window`, refreshing its recency, or
  /// nullptr on a miss.
  std::shared_ptr<const PublicCountPart> Lookup(const Rect& window);

  /// Inserts (or replaces) the part of `window`, evicting the least
  /// recently used entries beyond capacity.
  void Insert(const Rect& window, PublicCountPart part);

  /// Evicts the entries whose window intersects a cloaked update's region
  /// (callers pass both the old and the new region of the user).
  void InvalidatePrivateRegion(const Rect& region);

 private:
  struct RectHash {
    size_t operator()(const Rect& rect) const;
  };
  struct Node {
    Rect window;
    std::shared_ptr<const PublicCountPart> part;
  };
  using LruList = std::list<Node>;

  const size_t capacity_;
  CandidateCacheObs obs_;
  mutable std::mutex mu_;
  LruList lru_;  ///< Front = most recently used.
  std::unordered_map<Rect, LruList::iterator, RectHash> index_;
};

}  // namespace cloakdb

#endif  // CLOAKDB_SERVICE_CANDIDATE_CACHE_H_
