// Per-shard table of count windows: the one index behind both Section 5.3
// server optimisations of the public count over private data (Fig. 6a).
// A window is held while a standing count is registered on it or its
// PublicCountPart (the shard's scan of it) is cached; the cached parts are
// a bounded LRU keyed by the exact window, since a count is window-exact.
//
// Every held window that meets the space sits in one RectGrid, so an
// applied private update makes one lookup over its old and new region and
// settles both consumers there: a cached part is dropped when the
// window's scan changed (the record entered or left the window's closed
// extent, a boundary touch being listed with p = 0, or its p moved), and a
// standing window's generation is bumped when p changed. A window that
// misses the space needs no grid cell: its scan is always empty.
//
// Thread safety: every method locks the internal mutex, a leaf lock. The
// owning Shard reads under its shared lock and applies updates under its
// exclusive lock, so a scan and its insert can never interleave with a
// conflicting update. Registration needs no shard lock.

#ifndef CLOAKDB_SERVICE_COUNT_WINDOWS_H_
#define CLOAKDB_SERVICE_COUNT_WINDOWS_H_

#include <atomic>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "geom/rect.h"
#include "index/rect_grid.h"
#include "obs/metrics.h"
#include "server/public_queries.h"

namespace cloakdb {

/// Identifier of a registered standing query (service-wide, never reused).
using ContinuousQueryId = uint64_t;

/// Optional observability (service-registry handles; null = off).
struct CountWindowsObs {
  obs::Counter* hits = nullptr;
  obs::Counter* misses = nullptr;
  obs::Counter* insertions = nullptr;
  obs::Counter* lru_evictions = nullptr;
  obs::Counter* invalidations = nullptr;     ///< Parts dropped by upkeep.
  obs::Counter* generation_bumps = nullptr;  ///< Standing windows bumped.
  obs::Gauge* registered = nullptr;          ///< Standing registrations.
};

/// One shard's part of a standing count.
struct StandingCountPart {
  Rect window;
  std::vector<CountContribution> contributions;  ///< p > 0, by pseudonym.
  uint64_t generation = 0;
};

/// The count windows of one shard: cached parts and standing counts.
class CountWindows {
 public:
  /// `capacity` bounds the cached parts; 0 disables caching (Lookup always
  /// misses, Insert drops) while standing windows still work.
  CountWindows(const Rect& space, size_t capacity, const CountWindowsObs& obs);

  /// Lock-free: windows held (at 0 an update needs no lookup) and standing
  /// registrations held.
  size_t size() const { return held_.load(std::memory_order_relaxed); }
  size_t num_standing() const {
    return standing_count_.load(std::memory_order_relaxed);
  }

  // --- Cached parts (caller holds the shard's shared lock) ----------------

  /// The part cached for exactly `window`, refreshing its recency, or
  /// nullptr on a miss.
  std::shared_ptr<const PublicCountPart> Lookup(const Rect& window);

  /// Caches (or replaces) a copy of the part of `window`, evicting the
  /// least recently used parts beyond capacity.
  void Insert(const Rect& window, const PublicCountPart& part);

  // --- Standing counts (no shard lock needed) -----------------------------

  /// Holds `window` for standing count `id`, at generation 1.
  Status Register(ContinuousQueryId id, const Rect& window);
  Status Unregister(ContinuousQueryId id);

  /// The window and generation of standing count `id` (no contributions).
  Result<StandingCountPart> Standing(ContinuousQueryId id) const;

  /// Every standing count held here, in no particular order.
  std::vector<std::pair<ContinuousQueryId, Rect>> StandingWindows() const;

  // --- Upkeep (caller holds the shard's exclusive lock) -------------------

  /// One private record goes from `old_region` (absent for a new
  /// pseudonym) to `new_region` (absent when dropped): drops the cached
  /// parts whose scan changed, bumps the standing windows whose p changed
  /// and returns how many it bumped.
  size_t OnRegionChanged(const std::optional<Rect>& old_region,
                         const std::optional<Rect>& new_region);

 private:
  struct RectHash {
    size_t operator()(const Rect& rect) const;
  };
  struct Window {
    std::shared_ptr<const PublicCountPart> part;  ///< Null = not cached.
    std::list<Rect>::iterator lru;                ///< Valid while cached.
    size_t standing = 0;  ///< Standing counts registered on it.
    uint64_t bumps = 0;   ///< Generation bumps.
  };
  struct StandingEntry {
    Rect window;
    uint64_t base = 0;  ///< Window bumps at registration.
  };
  using WindowMap = std::unordered_map<Rect, Window, RectHash>;

  /// A window's grid id is its entry's address: map nodes never move, so a
  /// grid hit reaches its entry without hashing the window.
  static ObjectId GridId(const Window& window) {
    return reinterpret_cast<ObjectId>(&window);
  }
  /// The window's entry, created (and indexed) if absent.
  Window& HoldLocked(const Rect& window);
  /// Forgets the window when it holds neither a part nor a standing count.
  void ReleaseIfUnusedLocked(WindowMap::iterator it);
  /// Forgets the cached part, then the window if nothing else holds it.
  void DropPartLocked(WindowMap::iterator it);

  const size_t capacity_;
  const CountWindowsObs obs_;
  std::atomic<size_t> held_{0};
  std::atomic<size_t> standing_count_{0};
  mutable std::mutex mu_;
  WindowMap windows_;
  RectGrid grid_;  ///< Held windows meeting the space, by GridId.
  std::list<Rect> lru_;  ///< Cached windows; front = most recently used.
  std::unordered_map<ContinuousQueryId, StandingEntry> standing_;
};

}  // namespace cloakdb

#endif  // CLOAKDB_SERVICE_COUNT_WINDOWS_H_
