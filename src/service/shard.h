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
//     touch const paths (QueryProcessor queries synchronize their own
//     counters internally).

#ifndef CLOAKDB_SERVICE_SHARD_H_
#define CLOAKDB_SERVICE_SHARD_H_

#include <atomic>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "core/anonymizer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/query_processor.h"
#include "service/candidate_cache.h"
#include "service/continuous_registry.h"
#include "service/fault_injector.h"
#include "service/service_stats.h"
#include "service/update_queue.h"
#include "storage/index_blob.h"
#include "storage/shard_durability.h"
#include "storage/shard_snapshot.h"

namespace cloakdb {

/// Optional ingest-path observability hooks of one shard. All handles are
/// shared across shards (ShardedHistogram/Counter stripe internally), live
/// in the service's MetricsRegistry, and may be null (measurement off).
struct ShardObs {
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

/// Sidecar/mmap lifecycle counters (service-owned; all optional).
struct IndexSidecarObs {
  /// Sidecar files opened during recovery.
  obs::Counter* opens_total = nullptr;
  /// Opens that took the read() fallback instead of a mapping.
  obs::Counter* read_fallbacks_total = nullptr;
  /// Sidecar blobs rejected (corrupt, truncated, or snapshot-divergent).
  obs::Counter* verify_failures_total = nullptr;
  /// Bytes mapped from sidecar files.
  obs::Counter* bytes_mapped_total = nullptr;
};

/// Per-shard construction parameters (derived by CloakDbService from its
/// own options; the anonymizer space is always the full service space so a
/// cloaked region may extend beyond the shard's public-data stripe).
struct ShardConfig {
  uint32_t index = 0;
  AnonymizerOptions anonymizer;
  uint32_t rect_grid_cells = 64;
  WireCostModel wire_cost;
  size_t queue_capacity = 4096;
  ShardObs obs;
  /// Probe sinks installed into the shard's QueryProcessor.
  QueryProcessorObs server_obs;

  /// Candidate-cache entries this shard may hold; 0 disables caching (every
  /// query method then probes the index in isolation).
  size_t cache_capacity = 0;
  /// Signature-grid resolution per side used to snap cloaked regions to
  /// cache keys (must match the service's, so cluster covers computed at
  /// the service level key consistently here).
  uint32_t signature_cells = 32;
  /// Cache counters (hits/misses/insertions/evictions/invalidations).
  CandidateCacheObs cache_obs;
  /// Widened shared-probe wall time on a cache miss (microseconds).
  obs::ShardedHistogram* shared_probe_us = nullptr;
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
  /// Sealed-tree sidecar file of this shard ("" = none). Written after
  /// each checkpoint; mmap-adopted by RestoreSnapshot instead of STR
  /// rebuilding.
  std::string index_blob_path;
  /// Testing: force the read() fallback when opening the sidecar.
  bool index_blob_force_read_fallback = false;
  IndexSidecarObs sidecar_obs;
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
  /// bypassing the queue (used by low-rate callers and tests).
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
  // With the candidate cache enabled, the private kinds serve the widened
  // probe from the cache when possible and then refine exactly like an
  // isolated query — results are identical, only the fetch is shared — and
  // a count is cached whole, keyed by its exact window. `cover` optionally
  // overrides the snapped cloaked region as the probe base (the service
  // passes a cluster's union cover so every member shares one entry); it
  // must contain the snapped cloaked region, and the empty default means a
  // single query. Probe + cache insert happen under one shared lock, and
  // writers invalidate under the exclusive lock, so a stale entry can never
  // be inserted over a concurrent update. With the cache disabled every
  // call is an isolated probe.
  Result<PrivateRangeResult> PrivateRange(
      const Rect& cloaked, double radius, Category category,
      const PrivateRangeOptions& opts = {}, const Rect& cover = Rect()) const;
  Result<PrivateNnResult> PrivateNn(const Rect& cloaked, Category category,
                                    const Rect& cover = Rect()) const;
  Result<PrivateKnnResult> PrivateKnn(const Rect& cloaked, size_t k,
                                      Category category,
                                      const Rect& cover = Rect()) const;
  Result<PublicCountResult> PublicCount(const Rect& window) const;
  Result<HeatmapResult> Heatmap(uint32_t resolution) const;

  /// The shard's candidate cache (for diagnostics and tests).
  const CandidateCache& cache() const { return cache_; }

  // --- Continuous queries ------------------------------------------------
  /// The standing-query registry homed on this shard. Registry methods
  /// take the registry's own mutex; no shard lock is needed to read it.
  ContinuousShardRegistry& continuous() { return continuous_; }
  const ContinuousShardRegistry& continuous() const { return continuous_; }

  /// The current cloaked region of a registered user (shared lock); fails
  /// with NotFound when the user never reported.
  Result<Rect> CurrentRegionOfUser(UserId user) const;

  /// Conservative k-NN fetch reach of this shard's data (shared lock);
  /// 0.0 when the shard holds at most k objects of the category.
  Result<double> KnnReach(const Rect& cloaked, size_t k,
                          Category category) const;

  /// Materializes every `category` object inside `probe` (shared lock).
  Result<std::vector<PublicObject>> ProbeRegion(const Rect& probe,
                                                Category category) const;

  /// Scans the current private regions intersecting `window` and installs
  /// the standing count under one shared-lock hold, so no drain can
  /// interleave between scan and registration.
  Status RegisterStandingCount(ContinuousQueryId id, const Rect& window);

  /// Re-scans a standing count window (sweep repair path); the registry
  /// discards the result if the entry mutated past `epoch`.
  void RescanStandingCount(ContinuousQueryId id, const Rect& window,
                           uint64_t epoch);

  // --- Durability ----------------------------------------------------------
  /// Exports the shard's durable state and writes it as a checkpoint.
  /// Takes the shared lock — durable mutations append under the exclusive
  /// lock, so no WAL record can land mid-export and the checkpoint LSN
  /// exactly covers the exported state; queries proceed concurrently.
  /// No-op when durability is off.
  Status WriteCheckpoint();

  /// Folds each category's spill overlay + tombstones back into its sealed
  /// StaticRTree (exclusive lock). The service calls this before a
  /// checkpoint so the serialized sidecar matches the live set; no-op when
  /// nothing spilled.
  Status CompactPublicIndex();

  /// Replaces the shard's state with a decoded checkpoint (exclusive
  /// lock). The anonymizer, object store and private regions are restored
  /// here; standing-query registrations (`snapshot.cqs`) are re-registered
  /// by the service, which owns cross-shard CQ evaluation.
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
  /// the raw batch, applies it, then decrements pending_. `sync_wal =
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
  /// server, invalidating cached count entries the update's old or new
  /// region overlaps and notifying the standing-query registry. Caller
  /// holds the exclusive lock; `user` is the reporting user (standing
  /// private queries are keyed by issuer).
  void ForwardCloaked(const CloakedUpdate& update, UserId user);

  /// Drops a pseudonym's server record after invalidating cached count
  /// entries its last region overlaps. Caller holds the exclusive lock.
  void DropServerRecord(ObjectId pseudonym);

  /// Serves the probe superset for `key` from cache or the index (caller
  /// holds at least the shared lock; probe_region is the widened rect the
  /// key stands for).
  Result<std::shared_ptr<const CacheEntry>> ProbeOrLookup(
      const CacheKey& key, const Rect& probe_region) const;

  /// The probe cache key of one private query: the cluster `cover` (or the
  /// snapped cloaked region when cover is empty) plus the quantized reach.
  CacheKey ProbeKey(CacheKind kind, Category category, const Rect& cloaked,
                    double reach, const Rect& cover) const;

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
  CellSignature signature_;
  ContinuousShardRegistry continuous_;
  mutable CandidateCache cache_;
  BoundedUpdateQueue queue_;
  mutable std::shared_mutex mu_;
  ShardIngestStats ingest_;  ///< Guarded by mu_ (written under exclusive).
  /// Lock-free so producers never contend with the shard lock; folded into
  /// ingest_.updates_enqueued when stats are snapshotted.
  std::atomic<uint64_t> enqueued_{0};
  /// Queued + popped-but-not-yet-applied updates; lets Flush observe
  /// completion without holding any lock.
  std::atomic<size_t> pending_{0};
};

}  // namespace cloakdb

#endif  // CLOAKDB_SERVICE_SHARD_H_
