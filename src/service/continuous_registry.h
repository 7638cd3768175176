// Per-shard standing-query registry: the service-layer home of continuous
// private queries (paper Section 5.3, "processing the continuous queries at
// the location-based server should be done incrementally").
//
// Each shard owns one registry. Standing private range/NN/kNN queries live
// on the issuer's home shard (hash-routed like the user) and keep a cached
// fetch superset; only the issuer's own updates re-filter it — a delta
// notification, not a re-execution. A query whose cached coverage no
// longer bounds the answer is marked stale and repaired asynchronously by a
// service-level full re-evaluation sweep. Standing public counts are not
// kept here: they are windows of the shard's count-window table
// (service/count_windows.h), which the one-shot count shares.
//
// Locking: the registry has its own mutex, always acquired *after* the
// owning shard's lock (drain notifications arrive under the shard's
// exclusive lock; reads take only the registry mutex). The stale sweep
// evaluates with no locks held and restores under an epoch check, so a
// repair never clobbers state that moved while it was being computed.

#ifndef CLOAKDB_SERVICE_CONTINUOUS_REGISTRY_H_
#define CLOAKDB_SERVICE_CONTINUOUS_REGISTRY_H_

#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/anonymizer.h"
#include "obs/metrics.h"
#include "server/public_queries.h"
#include "service/api.h"
#include "service/count_windows.h"

namespace cloakdb {

/// Tuning knobs of the service-level continuous-query subsystem.
struct ContinuousRegistryOptions {
  /// Extra fetch margin added to every standing fetch so small region
  /// movements stay inside the cached coverage.
  double slack_margin = 5.0;
  /// Testing twin: disable the incremental gates so every issuer update
  /// marks the query stale and is repaired by a full re-evaluation. The
  /// oracle suite compares a normal service against this twin bit-for-bit.
  bool force_full_reeval = false;
};

/// Metric handles of the continuous subsystem, resolved once by the service
/// and shared by every shard registry. All may be null (measurement off).
struct ContinuousObs {
  obs::Counter* registrations = nullptr;
  obs::Counter* unregistrations = nullptr;
  obs::Counter* updates_seen = nullptr;       ///< Drain updates consulted.
  obs::Counter* incremental_refilters = nullptr;
  obs::Counter* full_reevals = nullptr;       ///< Sweep repairs.
  obs::Counter* stale_marked = nullptr;
  obs::Counter* delta_candidates = nullptr;   ///< Candidates entered/left.
  obs::ShardedHistogram* affected_per_update = nullptr;
  obs::ShardedHistogram* register_latency_us = nullptr;
  obs::Gauge* registered = nullptr;
};

/// What a standing query asks for. `kind` selects the shape; unused fields
/// stay at their defaults (NN is kPrivateNn with k implied 1).
struct ContinuousSpec {
  QueryKind kind = QueryKind::kPrivateRange;
  UserId issuer = 0;      ///< Private kinds: the registered user.
  double radius = 0.0;    ///< kPrivateRange.
  size_t k = 0;           ///< kPrivateKnn.
  Category category = 0;  ///< Private kinds.
  Rect window;            ///< kPublicCount.
};

/// The cached evaluation state of one standing private query: everything
/// fetched inside `coverage` plus the current answer filtered from it.
struct StandingSnapshot {
  Rect coverage;                        ///< Extent of `fetched`.
  std::vector<PublicObject> fetched;    ///< Category objects in coverage,
                                        ///< sorted by id (parts merged).
  std::vector<PublicObject> current;    ///< Current answer, sorted by id.
  double fetch_radius = 0.0;            ///< NN/kNN conservative reach used.
  bool degraded = false;                ///< Fan-out was cut short.
  uint64_t covered_shards = 0;
};

/// The current answer of a standing query.
struct StandingAnswer {
  QueryKind kind = QueryKind::kPrivateRange;
  /// Private kinds: candidate list with the one-shot guarantees, sorted by
  /// object id.
  std::vector<PublicObject> candidates;
  /// kPublicCount: the paper's three formats plus per-user contributions
  /// sorted by pseudonym (only p > 0 entries are reported).
  CountAnswer count;
  std::vector<CountContribution> contributions;
  /// Bumped whenever the answer changes — clients poll this to detect
  /// deltas without diffing candidate lists.
  uint64_t generation = 0;
  /// True while a full re-evaluation is pending (the answer may lag).
  bool stale = false;
  bool degraded = false;
  uint64_t covered_shards = 0;
};

/// Introspection record of one standing query.
struct ContinuousQueryInfo {
  ContinuousSpec spec;
  Rect region;    ///< Issuer's current cloaked region (private kinds).
  Rect coverage;  ///< Cached fetch coverage (private kinds).
  bool stale = false;
  bool degraded = false;
  uint64_t generation = 0;
  size_t answer_size = 0;
};

/// One stale entry popped by the sweep, carrying everything the full
/// re-evaluation needs plus the epoch that guards the restore.
struct StaleEntry {
  ContinuousQueryId id = 0;
  ContinuousSpec spec;
  Rect region;
  uint64_t epoch = 0;
};

// --- Shared evaluation kernels --------------------------------------------
// The incremental re-filter and the full re-evaluation both answer from a
// fetched superset with these functions, which is what makes the two paths
// bit-identical whenever the coverage gates below hold.

/// The k a standing NN/kNN spec fetches for (NN is k-NN with k = 1).
size_t StandingK(const ContinuousSpec& spec);

/// True when `snap`'s cached fetch set provably contains everything the
/// standing answer for `region` needs, so re-filtering from it equals a
/// full re-evaluation. Range: coverage must contain the radius-extended
/// region. NN/kNN: each corner's k-th candidate ball must lie inside the
/// coverage (making the cached corner distances exact) and the coverage
/// must contain the region extended by the conservative fetch radius.
bool StandingCoverageHolds(const ContinuousSpec& spec, const Rect& region,
                           const StandingSnapshot& snap);

/// Computes the standing answer for `region` from a fetched superset
/// (sorted by id). For NN/kNN also reports the conservative fetch radius
/// used (0 when the pigeonhole case returned everything).
std::vector<PublicObject> ComputeStandingAnswer(
    const ContinuousSpec& spec, const Rect& region,
    const std::vector<PublicObject>& fetched, double* fetch_radius);

/// Registry of the standing private queries homed on one shard.
class ContinuousShardRegistry {
 public:
  ContinuousShardRegistry(const ContinuousRegistryOptions& options,
                          const ContinuousObs& obs);

  /// Lock-free interest check for the drain hot path: standing private
  /// queries homed here.
  size_t size() const { return total_.load(std::memory_order_relaxed); }

  /// Monotonic counter bumped by every public-data change notification.
  /// The service captures it before evaluating a registration and passes
  /// it to InsertPrivate, which inserts stale on a mismatch.
  uint64_t public_version() const {
    return public_version_.load(std::memory_order_acquire);
  }

  // --- Registration (service-driven) -------------------------------------

  /// Installs an evaluated standing private query. Inserted stale (queued
  /// for repair) when the snapshot is degraded or the registry's public
  /// version moved past `expected_version` while it was being evaluated.
  Status InsertPrivate(ContinuousQueryId id, const ContinuousSpec& spec,
                       const Rect& region, StandingSnapshot snap,
                       uint64_t expected_version);

  /// Re-reads the issuer's region after insertion: if a drain applied a
  /// newer region between evaluation and insertion (too early to be
  /// notified), the entry adopts it and is marked stale.
  Status RefreshRegion(ContinuousQueryId id, const Rect& region);

  /// Drops a standing query homed here.
  Status Remove(ContinuousQueryId id);

  // --- Drain notifications (caller holds the shard's exclusive lock) -----

  /// One applied cloaked update: re-filters or stales the issuer's private
  /// queries. `count_bumps` standing count windows were bumped by the same
  /// update (CountWindows::OnRegionChanged); they count as affected.
  void OnLocationUpdate(UserId user, const Rect& new_region,
                        size_t count_bumps);

  /// One public object appeared at `location`: stales the standing private
  /// queries of that category whose coverage holds the object (a scan of
  /// the private entries; public writes are rare admin operations).
  void OnPublicChanged(const Point& location, Category category);

  /// A category was replaced wholesale: stales all its standing queries.
  void OnCategoryReloaded(Category category);

  // --- Reads --------------------------------------------------------------

  /// The current answer of a standing private query homed here.
  Result<StandingAnswer> Answer(ContinuousQueryId id) const;

  /// Spec, region, coverage and generation of a standing query homed here.
  Result<ContinuousQueryInfo> Info(ContinuousQueryId id) const;

  /// Every standing query homed here, in no particular order (the
  /// checkpoint writer sorts them with the shard's count windows).
  std::vector<std::pair<ContinuousQueryId, ContinuousSpec>> RegisteredSpecs()
      const;

  // --- Stale repair (service sweep) ---------------------------------------

  /// Pops up to `max` stale entries for repair (their stale flags clear;
  /// a concurrent mutation re-queues with a newer epoch).
  std::vector<StaleEntry> TakeStale(size_t max);

  /// Installs a repaired snapshot; discarded when the entry mutated since
  /// TakeStale (epoch mismatch) — it is already queued again.
  void Restore(ContinuousQueryId id, uint64_t epoch, StandingSnapshot snap);

  /// Records that a repair could not be evaluated (e.g. the category
  /// vanished): the answer empties and ships degraded until a later
  /// notification stales the query again.
  void RepairFailed(ContinuousQueryId id, uint64_t epoch);

  /// Marks one popped entry's repair as settled (restored, discarded, or
  /// failed). The sweep calls this once per TakeStale entry.
  void RepairSettled() {
    repairs_inflight_.fetch_sub(1, std::memory_order_acq_rel);
  }

  /// Popped stale entries whose repair has not yet settled. TakeStale
  /// clears the stale flags, so "stale queue empty" alone does not mean
  /// every answer is current — a flush barrier must also wait for this to
  /// reach zero.
  size_t repairs_in_flight() const {
    return repairs_inflight_.load(std::memory_order_acquire);
  }

 private:
  struct PrivateEntry {
    ContinuousSpec spec;
    Rect region;
    StandingSnapshot snap;
    uint64_t generation = 1;
    uint64_t epoch = 0;  ///< Bumped on every mutation; guards restores.
    bool stale = false;
  };

  /// Marks a private entry stale and queues it (locked).
  void MarkStaleLocked(ContinuousQueryId id);
  /// Applies one update to a private entry: incremental re-filter when the
  /// coverage gate holds, stale otherwise. Returns true when affected.
  bool TouchPrivateLocked(ContinuousQueryId id, PrivateEntry* entry,
                          const Rect& new_region);

  ContinuousRegistryOptions options_;
  ContinuousObs obs_;
  std::atomic<size_t> total_{0};
  std::atomic<uint64_t> public_version_{0};
  std::atomic<size_t> repairs_inflight_{0};
  mutable std::mutex mu_;
  std::unordered_map<ContinuousQueryId, PrivateEntry> private_;
  std::unordered_map<UserId, std::vector<ContinuousQueryId>> by_user_;
  /// Stale queue; entries carry a flag so re-marks do not duplicate.
  std::vector<ContinuousQueryId> stale_queue_;
};

}  // namespace cloakdb

#endif  // CLOAKDB_SERVICE_CONTINUOUS_REGISTRY_H_
