// One shard of the CloakDB service: an Anonymizer paired with a
// QueryProcessor behind a reader/writer lock, plus the bounded update queue
// the worker pool drains into batched anonymization.
//
// Locking discipline (this file enforces the external-synchronization
// contract of Anonymizer and the writer side of QueryProcessor):
//   - exclusive lock: user management, update ingestion (drain), the
//     synchronous update path, CloakForQuery (it refreshes caches, stats
//     and pseudonym rotation), public-data mutation;
//   - shared lock: every query method and stats snapshotting, which only
//     touch const paths (query and ingest counters live in the service's
//     metrics registry, which synchronizes itself).

#ifndef CLOAKDB_SERVICE_SHARD_H_
#define CLOAKDB_SERVICE_SHARD_H_

#include <atomic>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <vector>

#include "core/anonymizer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/query_processor.h"
#include "service/continuous_registry.h"
#include "service/count_windows.h"
#include "service/fault_injector.h"
#include "service/service_stats.h"
#include "service/update_queue.h"
#include "storage/shard_durability.h"
#include "storage/shard_snapshot.h"

namespace cloakdb {

/// Optional ingest-path observability hooks of one shard. All handles are
/// shared across shards (ShardedHistogram/Counter stripe internally), live
/// in the service's MetricsRegistry, and may be null (measurement off).
/// They are the only ingest counters: ServiceStats::ingest reads them.
struct ShardObs {
  /// Updates accepted into the shard queue.
  obs::Counter* enqueued = nullptr;
  /// Updates cloaked and forwarded to the server (drained or synchronous).
  obs::Counter* applied = nullptr;
  /// Enqueue -> batch-apply wall time per update (microseconds).
  obs::ShardedHistogram* queue_wait_us = nullptr;
  /// Anonymizer::UpdateLocationsBatch wall time per batch (microseconds).
  obs::ShardedHistogram* cloak_us = nullptr;
  /// Updates per drained batch.
  obs::ShardedHistogram* batch_size = nullptr;
  /// Retired pseudonyms forwarded to the server.
  obs::Counter* rotations = nullptr;
  /// Updates shed at drain (unknown user / invalid location).
  obs::Counter* rejected = nullptr;
  /// Injected drain stalls that fired on this service (chaos testing).
  obs::Counter* fault_stalls = nullptr;
  /// Queue observability, forwarded to the BoundedUpdateQueue.
  UpdateQueueObs queue;
};

/// Per-shard construction parameters (derived by CloakDbService from its
/// own options; the anonymizer space is always the full service space so a
/// cloaked region may extend beyond the shard's public-data stripe).
struct ShardConfig {
  uint32_t index = 0;
  AnonymizerOptions anonymizer;
  uint32_t rect_grid_cells = 64;
  size_t queue_capacity = 4096;
  ShardObs obs;
  /// Probe sinks installed into the shard's QueryProcessor.
  QueryProcessorObs server_obs;

  /// Count parts this shard may cache; 0 disables caching (every count
  /// then scans).
  size_t cache_capacity = 0;
  /// Count-window counters (cache hits/misses/insertions/evictions/
  /// invalidations, standing generation bumps and registrations).
  CountWindowsObs count_obs;
  /// Service-wide tracer; null = tracing off. Cloak sites emit audit spans
  /// into it, the ingest drain opens its own per-batch traces.
  obs::Tracer* tracer = nullptr;
  /// Service-wide fault injector; null = chaos off. The shard consults it
  /// for drain stalls (probe faults are injected at the service fan-out).
  FaultInjector* fault_injector = nullptr;
  /// Standing-query registry knobs + shared metric handles.
  ContinuousRegistryOptions continuous;
  ContinuousObs cq_obs;
  /// Service-owned durability engine of this shard; null = durability off.
  /// Every durable mutation is WAL-logged through it, under the shard's
  /// exclusive lock and before the in-memory apply (write-ahead).
  storage::ShardDurability* durability = nullptr;
  /// Per-category public-data index knobs (compaction limit, lifecycle
  /// counters).
  PublicCategoryIndex::Config public_index;
};

/// One anonymizer + server pair owning a hash-slice of the users.
class Shard {
 public:
  static Result<std::unique_ptr<Shard>> Create(const ShardConfig& config);

  uint32_t index() const { return config_.index; }

  // --- User management (exclusive) ---------------------------------------
  Status RegisterUser(UserId user, PrivacyProfile profile);
  Status UpdateProfile(UserId user, PrivacyProfile profile);
  /// Unregisters and drops the user's server-side record.
  Status UnregisterUser(UserId user);
  Result<ObjectId> PseudonymOf(UserId user) const;

  // --- Ingestion ---------------------------------------------------------
  /// Enqueues one pending update; blocks on a full queue when `block`,
  /// otherwise fails fast with ResourceExhausted.
  Status Enqueue(const PendingUpdate& update, bool block);

  /// Drains up to `max_batch` queued updates through
  /// Anonymizer::UpdateLocationsBatch and forwards the cloaked results to
  /// the query processor. Returns the number of updates taken off the
  /// queue (0 when it was empty). Safe to call from any thread.
  size_t DrainOnce(size_t max_batch);

  /// True when nothing is queued and no drained batch is still applying.
  bool Idle() const { return pending_.load(std::memory_order_acquire) == 0; }

  /// Closes the queue: producers fail, drains keep working until empty.
  void CloseQueue() { queue_.Close(); }

  /// Lock-free approximate update-queue depth (admission-control signal).
  size_t QueueDepth() const { return queue_.ApproxDepth(); }

  // --- Synchronous paths (exclusive) -------------------------------------
  /// Anonymizes one update and forwards it to the server immediately,
  /// bypassing the queue (used by low-rate callers and tests). Logged
  /// write-ahead like a drained batch of one.
  Result<CloakedUpdate> UpdateLocation(UserId user, const Point& location,
                                       TimeOfDay now);

  /// Cloaks the user's current location for an outgoing query; a rotation
  /// triggered here retires the stale server record like an update would.
  Result<CloakedUpdate> CloakForQuery(UserId user, TimeOfDay now);

  // --- Public data (exclusive) -------------------------------------------
  Status AddPublicObject(const PublicObject& object);
  Status BulkLoadCategory(Category category,
                          std::vector<PublicObject> objects);
  bool HasCategory(Category category) const;

  // --- Queries (shared) --------------------------------------------------
  // The private kinds run the QueryProcessor's entry points. Counts, one-shot
  // and standing, read one path: the count-window table's cached part, or a
  // scan cached there when the cache is on. Scan + insert happen under one
  // shared lock and writers drop changed parts under the exclusive lock, so
  // a stale part can never be inserted over a concurrent update.
  Result<PrivateRangeResult> PrivateRange(
      const Rect& cloaked, double radius, Category category,
      const PrivateRangeOptions& opts = {}) const;
  Result<PrivateNnResult> PrivateNn(const Rect& cloaked,
                                    Category category) const;
  Result<PrivateKnnResult> PrivateKnn(const Rect& cloaked, size_t k,
                                      Category category) const;
  /// This shard's part of a one-shot count: the scan, no answer (the
  /// one-shot twin of StandingCount), served from the count-window table
  /// when it caches the window. The service merges the parts and
  /// summarizes once.
  Result<PublicCountPart> PublicCount(const Rect& window) const;
  Result<HeatmapResult> Heatmap(uint32_t resolution) const;

  // --- Continuous queries ------------------------------------------------
  /// The standing private queries homed on this shard. Registry methods
  /// take the registry's own mutex; no shard lock is needed to read it.
  ContinuousShardRegistry& continuous() { return continuous_; }

  /// This shard's count windows: cached count parts and the standing
  /// counts, registered here on every shard. Registration needs no shard
  /// lock.
  CountWindows& count_windows() { return count_windows_; }

  /// The current cloaked region of a registered user (shared lock); fails
  /// with NotFound when the user never reported.
  Result<Rect> CurrentRegionOfUser(UserId user) const;

  /// Conservative k-NN fetch reach of this shard's data (shared lock);
  /// 0.0 when the shard holds at most k objects of the category.
  Result<double> KnnReach(const Rect& cloaked, size_t k,
                          Category category) const;

  /// Every `category` object inside `probe`, sorted by id (shared lock).
  Result<std::vector<PublicObject>> ProbeRegion(const Rect& probe,
                                                Category category) const;

  /// This shard's part of a standing count: its window, its generation
  /// and the p > 0 entries of the window's count part (sorted by
  /// pseudonym), read under one shared-lock hold so the generation matches
  /// the part.
  Result<StandingCountPart> StandingCount(ContinuousQueryId id) const;

  // --- Durability ----------------------------------------------------------
  /// Exports the shard's durable state and writes it as a checkpoint.
  /// Takes the shared lock — durable mutations append under the exclusive
  /// lock, so no WAL record can land mid-export and the checkpoint LSN
  /// exactly covers the exported state; queries proceed concurrently.
  /// No-op when durability is off.
  Status WriteCheckpoint();

  /// Replaces the shard's state with a decoded checkpoint (exclusive
  /// lock). The anonymizer, object store and private regions are restored
  /// here, each public category re-sealed by one bulk load; standing-query
  /// registrations (`snapshot.cqs`) are re-registered by the service,
  /// which owns cross-shard CQ evaluation.
  Status RestoreSnapshot(const storage::ShardSnapshot& snapshot);

  /// Re-applies one recovered WAL record through the normal apply paths
  /// (exclusive lock), without re-logging it. CQ records are the service's
  /// to replay; passing one here is an error.
  Status ReplayWalRecord(const storage::WalRecord& record);

  /// WAL-logs a standing-query (un)registration event (exclusive lock; no
  /// state change here — the registry mutation is the service's, which
  /// also decides which shards log the event: the home shard for private
  /// kinds, every shard for counts). No-ops when durability is off.
  Status LogCqRegister(ContinuousQueryId id, const ContinuousSpec& spec);
  Status LogCqUnregister(ContinuousQueryId id);

  /// Counter snapshot (shared lock; consistent within the shard).
  ShardStats Stats() const;

 private:
  explicit Shard(const ShardConfig& config,
                 std::unique_ptr<Anonymizer> anonymizer);

  /// Applies one popped batch; takes the exclusive lock itself, WAL-logs
  /// the raw batch, applies it, then decrements pending_. A batch the WAL
  /// refuses is not applied: it counts as rejected. `sync_wal =
  /// false` defers the record's fsync to the engine's next group commit
  /// (the drain that empties the queue, or Flush()'s SyncWal barrier).
  void ApplyBatch(const std::vector<PendingUpdate>& batch,
                  bool sync_wal = true);

  /// The apply loop proper (shedding, batched cloak, forwarding, audit).
  /// Caller holds the exclusive lock; pending_ is not touched — shared by
  /// the drain path and WAL replay. Returns whether any audit violated.
  bool ApplyBatchLocked(const std::vector<PendingUpdate>& batch,
                        obs::TraceSpan* root,
                        const obs::TraceContext& trace_ctx);

  /// WAL-logs one durable mutation (no-op when durability is off). Caller
  /// holds the exclusive lock; called BEFORE the in-memory apply.
  /// `sync_now = false` appends without the kFsync-mode fsync (group
  /// commit; see ShardDurability::LogAndCommit).
  Status LogDurable(storage::WalRecord record, bool sync_now = true);

  /// Forwards one cloaked update (and any retired pseudonym) to the
  /// server, keeping the count windows its old or new region meets and
  /// notifying the standing-query registry. Caller holds the exclusive
  /// lock; `user` is the reporting user (standing private queries are
  /// keyed by issuer).
  void ForwardCloaked(const CloakedUpdate& update, UserId user);

  /// Drops a pseudonym's server record and keeps the count windows its
  /// last region meets. Caller holds the exclusive lock.
  void DropServerRecord(ObjectId pseudonym);

  /// Hands a record's region change (absent = dropped) to the count
  /// windows before the server applies it; returns the standing windows
  /// bumped. Caller holds the exclusive lock.
  size_t KeepCountWindows(ObjectId pseudonym,
                          const std::optional<Rect>& new_region);

  /// The count part of `window`, cached or scanned (only a one-shot scan
  /// books the query's probe metric and span). Caller holds the shared
  /// lock.
  Result<PublicCountPart> ReadCountPart(const Rect& window,
                                        bool one_shot) const;

  /// Builds the privacy-audit payload of one cloak (constraint
  /// satisfaction plus the deterministic center/boundary attack checks
  /// against the user's true location) and attaches it to `span`. Reports
  /// violations to the tracer. Caller holds at least the shared lock (the
  /// snapshot is read).
  obs::AuditEvent EmitCloakAudit(obs::TraceSpan* span, UserId user,
                                 const CloakedUpdate& update,
                                 uint64_t trace_id) const;

  ShardConfig config_;
  std::unique_ptr<Anonymizer> anonymizer_;
  QueryProcessor server_;
  ContinuousShardRegistry continuous_;
  mutable CountWindows count_windows_;
  BoundedUpdateQueue queue_;
  mutable std::shared_mutex mu_;
  /// Queued + popped-but-not-yet-applied updates; lets Flush observe
  /// completion without holding any lock.
  std::atomic<size_t> pending_{0};
};

}  // namespace cloakdb

#endif  // CLOAKDB_SERVICE_SHARD_H_
