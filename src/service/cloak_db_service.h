// CloakDbService: the sharded, multi-threaded front door of CloakDB.
//
// The paper's Fig. 1 pipeline (users -> Location Anonymizer -> privacy-
// aware server) as one concurrent system. The service owns N shards, each
// pairing an Anonymizer with a QueryProcessor:
//
//   - users are hash-routed to shards by id, so every shard anonymizes an
//     independent slice of the population (k-anonymity is enforced within
//     the slice — shard count trades throughput against crowd size, the
//     same knob as running N independent Casper instances);
//   - public objects are partitioned across shards by vertical stripes of
//     the space; private-over-public queries fan out to the overlapping
//     stripes and fan the partial candidate lists back in with the merge
//     helpers of server/query_processor.h;
//   - public-over-private queries (count, heatmap) fan out to every shard
//     (users are hash-scattered) and merge exactly.
//
// Updates stream through bounded per-shard MPMC queues (backpressure on
// the producers) and a fixed worker pool drains them in batches through
// Anonymizer::UpdateLocationsBatch, so the paper's shared-execution
// optimization finally pays off under sustained load.

#ifndef CLOAKDB_SERVICE_CLOAK_DB_SERVICE_H_
#define CLOAKDB_SERVICE_CLOAK_DB_SERVICE_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"
#include "service/api.h"
#include "service/continuous_registry.h"
#include "service/fault_injector.h"
#include "service/overload.h"
#include "service/shard.h"
#include "util/deadline.h"

namespace cloakdb {

/// Service configuration.
struct CloakDbServiceOptions {
  /// The managed space (also every shard's anonymizer space).
  Rect space{0.0, 0.0, 1.0, 1.0};

  /// Number of anonymizer/server shards (>= 1).
  uint32_t num_shards = 4;

  /// Drain workers; 0 means one worker per shard.
  uint32_t worker_threads = 0;

  /// Per-shard bound of the pending-update queue (backpressure beyond).
  size_t queue_capacity = 4096;

  /// Maximum updates drained into one UpdateLocationsBatch call.
  size_t max_batch = 256;

  /// Template for every shard's anonymizer; `space` above overrides the
  /// embedded space and the pseudonym seed is perturbed per shard so
  /// pseudonyms stay unique across the service.
  AnonymizerOptions anonymizer;

  /// Private-region index granularity of each shard's server.
  uint32_t rect_grid_cells = 64;

  /// Prices each merged candidate list into `query.<kind>.wire_bytes`.
  WireCostModel wire_cost;

  /// Retained slowest queries (kind, latency, region area, fan-out width,
  /// candidate count), surfaced via Stats().slow_queries; 0 disables.
  size_t slow_query_log_capacity = 16;

  // --- Shared execution --------------------------------------------------

  /// Caches each shard's count parts: a public count (one-shot or
  /// standing) whose exact window a shard has counted since the last
  /// cloaked update that changed the window's scan is served from that
  /// shard's cache instead of a scan. Off by default: every count scans.
  bool enable_shared_execution = false;

  /// Total cached count parts across the service (split evenly over the
  /// shards, at least one per shard); 0 disables caching. Only meaningful
  /// with enable_shared_execution.
  size_t cache_capacity = 4096;

  // --- Tracing -----------------------------------------------------------

  /// End-to-end tracing (span trees + privacy-audit events). With
  /// trace.enabled off (the default) no Tracer is created and every span
  /// site in the request path is inert.
  obs::TraceOptions trace;

  // --- Robustness ---------------------------------------------------------

  /// Deadlines, token-bucket admission, and queue-depth load shedding. All
  /// fields default to "off"; with everything off no admission controller
  /// is created and the query path is unchanged.
  OverloadOptions overload;

  /// Deterministic seeded fault injection (chaos testing): probe failures,
  /// probe latency spikes, drain stalls. Inert unless
  /// fault_injection.enabled.
  FaultInjectorOptions fault_injection;

  // --- Continuous queries --------------------------------------------------

  /// Standing-query subsystem knobs (slack margin and the
  /// force_full_reeval testing twin).
  ContinuousRegistryOptions continuous;

  // --- Public index --------------------------------------------------------

  /// Unread; assigned by perfbench/src/world.cc:199.
  PublicIndexMode public_index = PublicIndexMode::kStatic;

  /// Per-category overlay + tombstone count that triggers an inline
  /// compaction back into the sealed tree.
  size_t static_index_compact_limit = 1024;

  // --- Durability ----------------------------------------------------------

  /// kOff (default): the historical in-memory service, no files touched.
  /// kAsync/kFsync: every durable mutation is WAL-logged per shard before
  /// its in-memory apply, with periodic checkpoints; Start() recovers the
  /// pre-crash state from <data_dir> before any worker runs.
  storage::DurabilityMode durability_mode = storage::DurabilityMode::kOff;

  /// Root of the on-disk state, one subdirectory per shard
  /// (<data_dir>/shard-<i>/). Required when durability_mode != kOff. The
  /// shard count must match the directory's previous run: users are
  /// hash-routed by num_shards, so reopening with a different count would
  /// replay records into the wrong shards.
  std::string data_dir;

  /// WAL records per shard between automatic checkpoints (the owning
  /// worker checkpoints a shard once its WAL passes this); 0 disables the
  /// trigger — only explicit Checkpoint() calls truncate the WAL.
  uint64_t checkpoint_interval = 4096;
};

/// What Start() recovered from disk (all zeros when durability is off or
/// the data directory was fresh).
struct RecoveryInfo {
  bool performed = false;  ///< Durability was on and recovery ran.
  uint64_t checkpoints_loaded = 0;
  uint64_t replayed_records = 0;   ///< WAL records re-applied.
  uint64_t skipped_records = 0;    ///< Stale records a checkpoint covered.
  /// Always 0: recovery re-seals every category from the snapshot. Read
  /// only by perfbench/src/workloads.cc:891.
  uint64_t static_indexes_adopted = 0;
  uint64_t truncated_records = 0;  ///< Torn/corrupt records dropped.
  uint64_t cq_reregistered = 0;    ///< Standing queries re-registered.
  std::vector<uint64_t> shard_last_lsn;  ///< Per-shard recovered LSN.
};

/// The sharded CloakDB facade. All public methods are thread-safe.
class CloakDbService {
 public:
  /// Validates the options (non-empty space, >= 1 shard, non-zero queue
  /// capacity and batch size).
  static Result<std::unique_ptr<CloakDbService>> Create(
      const CloakDbServiceOptions& options);

  /// Stops the worker pool; queued updates are drained first.
  ~CloakDbService();

  CloakDbService(const CloakDbService&) = delete;
  CloakDbService& operator=(const CloakDbService&) = delete;

  // --- User management ---------------------------------------------------
  Status RegisterUser(UserId user, PrivacyProfile profile);
  Status UpdateProfile(UserId user, PrivacyProfile profile);
  Status UnregisterUser(UserId user);
  Result<ObjectId> PseudonymOf(UserId user) const;

  // --- Public data -------------------------------------------------------
  /// Routes the object to the shard owning its stripe. An object
  /// CheckPublicObject or the shard's store rejects is refused before
  /// anything is logged.
  Status AddPublicObject(const PublicObject& object);
  /// Partitions `objects` by stripe and bulk-loads every shard (replacing
  /// the category service-wide). A batch CheckPublicBatch rejects —
  /// including one over storage::kMaxBulkLoadObjectBytes — fails before
  /// any shard logs or applies its slice.
  Status BulkLoadCategory(Category category,
                          std::vector<PublicObject> objects);

  // --- Location updates --------------------------------------------------
  /// Enqueues one exact location report; blocks while the owning shard's
  /// queue is full (backpressure). The update is anonymized and forwarded
  /// to the shard's server by the worker pool.
  Status EnqueueUpdate(UserId user, const Point& location, TimeOfDay now);

  /// Non-blocking EnqueueUpdate: ResourceExhausted when the queue is full
  /// (caller sheds load or retries).
  Status TryEnqueueUpdate(UserId user, const Point& location, TimeOfDay now);

  /// Synchronous update path: anonymize + forward immediately, bypassing
  /// the queue. Returns the cloaked update like Anonymizer::UpdateLocation.
  Result<CloakedUpdate> UpdateLocation(UserId user, const Point& location,
                                       TimeOfDay now);

  /// Cloaks the user's current location for an outgoing query.
  Result<CloakedUpdate> CloakForQuery(UserId user, TimeOfDay now);

  /// Blocks until every queued update has been applied (drains in the
  /// calling thread too, so it works with a busy or small worker pool).
  Status Flush();

  // --- Queries (fan-out + merge) -----------------------------------------
  // Overload behaviour (options().overload): a query caught by the
  // admission controller is either rejected with ErrorCode::kShed
  // (OverloadPolicy::kReject) or admitted with a capped shard budget
  // (kDegrade). When a deadline, budget, or shard failure cuts a fan-out
  // short, the merged result carries degraded=true and a covered_shards
  // bitmap: it is still a correct candidate superset restricted to the
  // covered shards — never a silently wrong exact answer. A query that
  // could not produce any part fails with kDeadlineExceeded (deadline),
  // kDegradedZeroCoverage (no shard covered), or the first shard error.

  /// The unified entry point: executes one envelope query of any kind —
  /// root trace, admission control, fan-out, merge — and returns the
  /// envelope response with errors in-band (never throws, never blocks on
  /// an overloaded service beyond the admission verdict). The per-kind
  /// methods below are thin wrappers over this, and the wire server calls
  /// it directly, so in-process and network queries take the same path.
  /// `request.deadline_us` can only tighten the admission deadline.
  QueryResponse ExecuteQuery(const QueryRequest& request) const;

  /// Private range query over public data; fans out to the stripes
  /// overlapping the radius-extended region. The merged result equals the
  /// single-shard oracle's.
  Result<PrivateRangeResult> PrivateRange(
      const Rect& cloaked, double radius, Category category,
      const PrivateRangeOptions& opts = {}) const;

  /// Private NN query over public data (all stripes; answer-preserving
  /// merge).
  Result<PrivateNnResult> PrivateNn(const Rect& cloaked,
                                    Category category) const;

  /// Private k-NN query over public data (all stripes; answer-preserving
  /// merge).
  Result<PrivateKnnResult> PrivateKnn(const Rect& cloaked, size_t k,
                                      Category category) const;

  /// Public count over private data (every shard; exact merge), with all
  /// three answer formats: the only service call that builds the PMF.
  Result<PublicCountResult> PublicCount(const Rect& window) const;

  /// Expected-density heatmap over private data (every shard; exact merge).
  Result<HeatmapResult> Heatmap(uint32_t resolution) const;

  // --- Continuous queries ------------------------------------------------
  // Standing queries registered once and kept current by the update
  // drains: each applied cloaked update re-filters only its issuer's
  // standing private queries (delta notification) and bumps the
  // generation of the count windows it changed; a private query whose
  // cached coverage no longer bounds the answer is repaired by an
  // asynchronous full re-evaluation sweep (Flush() waits for it). Count
  // answers are scanned from the shards' private indexes when read.
  // Registration runs through the same admission + deadline + trace path
  // as one-shot queries.

  /// Registers a standing private range query for `user` (who must have a
  /// current cloaked region, i.e. have reported at least once).
  Result<ContinuousQueryId> RegisterContinuousRange(UserId user,
                                                    double radius,
                                                    Category category);
  /// Registers a standing private NN query for `user`.
  Result<ContinuousQueryId> RegisterContinuousNn(UserId user,
                                                 Category category);
  /// Registers a standing private k-NN query for `user`.
  Result<ContinuousQueryId> RegisterContinuousKnn(UserId user, size_t k,
                                                  Category category);
  /// Registers a standing public count window (registered on every shard;
  /// the window must intersect the service space).
  Result<ContinuousQueryId> RegisterContinuousCount(const Rect& window);

  /// The current answer of any standing query. Private kinds carry the
  /// one-shot candidate-list guarantee; counts merge each shard's scan of
  /// its private index (p > 0 contributions sorted by pseudonym), equal to
  /// a one-shot count over the same applied updates.
  Result<StandingAnswer> AnswerContinuous(ContinuousQueryId id) const;

  /// Introspection of one standing query (region, coverage, staleness).
  Result<ContinuousQueryInfo> ContinuousInfo(ContinuousQueryId id) const;

  /// Drops a standing query.
  Status UnregisterContinuous(ContinuousQueryId id);

  /// Standing queries currently registered service-wide.
  size_t NumContinuousQueries() const;

  /// Repairs stale standing queries with full re-evaluations; returns the
  /// number repaired. Called by idle workers and Flush(); exposed for
  /// deterministic tests.
  size_t SweepContinuousStale();

  // --- Durability ----------------------------------------------------------

  /// Checkpoints every shard now (snapshot + WAL truncate); no-op with
  /// durability off. Queries proceed concurrently; each shard's appends
  /// pause for its snapshot export.
  Status Checkpoint();

  /// Flushes every shard's WAL to disk (the kAsync close-time barrier);
  /// no-op with durability off.
  Status SyncWal();

  /// What recovery replayed at Start().
  const RecoveryInfo& recovery_info() const { return recovery_info_; }

  // --- Introspection -----------------------------------------------------
  /// Cross-shard aggregate counters, including the slow-query log. Query
  /// and ingest counters are read from metrics().
  ServiceStats Stats() const;
  /// The service's metric registry (latency/queue-wait histograms, wire
  /// counters, ...). Safe to export concurrently with traffic.
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  obs::MetricsRegistry& metrics() { return metrics_; }
  /// The service's tracer; null when options().trace.enabled is off. Use
  /// tracer()->TakeCompletedSpans() + obs::ExportChromeTrace to export.
  obs::Tracer* tracer() const { return tracer_.get(); }
  /// The fault injector; null unless options().fault_injection.enabled.
  /// Chaos tests reconcile its exact counts against metrics and results.
  FaultInjector* fault_injector() const { return fault_injector_.get(); }
  /// The service's flight recorder: a bounded ring of notable events
  /// (sheds, degraded answers, audit violations, WAL sync stalls, injected
  /// faults). Always present; retrievable over the admin channel and
  /// dumped on fatal signals via obs::InstallFatalSignalDump.
  obs::FlightRecorder* flight_recorder() const { return &flight_recorder_; }
  /// Total updates currently waiting across all shard queues (the lock-free
  /// admission-control signal; momentarily stale by design).
  size_t AggregateQueueDepth() const;

  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }
  /// Hash route of a user id (exposed for tests and routing diagnostics).
  uint32_t ShardOfUser(UserId user) const;
  /// Stripe owning x-coordinate `x`.
  uint32_t ShardOfX(double x) const;
  /// Direct access to one shard (e.g. for per-shard diagnostics or the
  /// queries without a fan-in merge, like PublicNn).
  Shard& shard(uint32_t index) { return *shards_[index]; }
  const Shard& shard(uint32_t index) const { return *shards_[index]; }

  const CloakDbServiceOptions& options() const { return options_; }

 private:
  /// Tests run ExecuteOne with a deadline that has already passed, which
  /// admission (stamping a fresh deadline) cannot produce on cue.
  friend class CloakDbServiceTestPeer;

  /// Metric handles of one query kind, resolved once in Start() so the
  /// query paths record through raw pointers.
  struct QueryKindObs {
    obs::ShardedHistogram* latency_us = nullptr;  ///< End-to-end wall time.
    obs::ShardedHistogram* merge_us = nullptr;    ///< Fan-in merge time.
    obs::ShardedHistogram* shards_touched = nullptr;
    obs::ShardedHistogram* candidates = nullptr;  ///< Result-list size.
    obs::Counter* wire_bytes = nullptr;  ///< Candidate-list kinds only.
  };

  /// Robustness metric handles, resolved once in Start().
  struct RobustnessObs {
    obs::Counter* queries_shed = nullptr;
    obs::Counter* queries_admitted_degraded = nullptr;
    obs::Counter* queries_degraded = nullptr;
    obs::Counter* deadline_hits = nullptr;
    obs::Counter* updates_shed = nullptr;
    obs::Counter* probe_failures = nullptr;
    obs::Counter* probe_delays = nullptr;
    obs::Counter* queue_stalls = nullptr;
  };

  /// One admitted query: the envelope plus the limits admission stamped.
  struct BatchQuery {
    QueryRequest request;
    Deadline deadline;
    /// Shard fan-out budget: 0 = unlimited; a degraded admission sets the
    /// configured degrade budget.
    uint32_t shard_budget = 0;
  };

  /// The front-door verdict plus the per-query limits it stamped.
  struct Admission {
    Status status = Status::OK();  ///< ResourceExhausted when shed.
    Deadline deadline;
    uint32_t shard_budget = 0;  ///< 0 = unlimited.
    bool degraded_admission = false;
  };

  /// Degradation state of one fan-out: the probe gate (shard budget and
  /// deadline), the covered-shard bitmap, and the first hard error.
  /// Coverage is a 64-bit bitmap, so per-shard coverage is reported for the
  /// first 64 shards; beyond that the degraded flag alone is authoritative.
  struct FanoutGuard {
    Deadline deadline;
    uint32_t budget = 0;  ///< 0 = unlimited.
    uint32_t probes = 0;  ///< Shards probed: the fan-out width.
    uint64_t covered = 0;
    bool degraded = false;
    bool deadline_hit = false;
    Status first_error;  ///< First hard probe error (injected or real).

    /// Gate before each probe: consumes budget, checks the deadline. A
    /// false return means the shard stays uncovered and the result is
    /// degraded.
    bool AllowProbe();
    /// Marks shard `i`'s contribution as fully reflected: it answered,
    /// holds nothing for the query, or was provably skipped.
    void Cover(uint32_t i);
    /// Records a hard probe failure: the shard stays uncovered.
    void Fail(const Status& status);
    /// The error of a degraded fan-out that produced no usable part.
    Status EmptyError() const;
  };

  /// Probes shard `shard` and collects its part. NotFound means the shard
  /// holds nothing for the query; any other error is a probe failure.
  using ShardProbe = std::function<Status(uint32_t shard,
                                          obs::TraceSpan* probe_span)>;

  explicit CloakDbService(const CloakDbServiceOptions& options);

  Status Start();
  void WorkerLoop(uint32_t worker);

  /// Restores checkpoints, replays WAL records, and re-registers standing
  /// queries across all shards. Runs in Start() after the shards exist and
  /// before any worker spawns, so no lock ordering or concurrency applies.
  Status RecoverFromDisk();

  /// Runs admission control for one query (counts shed/degraded decisions
  /// and stamps the deadline). No-op admit when no controller is active.
  Admission AdmitQuery() const;

  /// Consults the fault injector for one probe. Returns the fault decision
  /// after applying a delay fault in place (sleep + counters + span attr).
  ProbeFault InjectProbeFault(obs::TraceSpan* probe_span) const;

  /// The one fan-out executor, shared by every query kind and by standing
  /// evaluation. Probes the `home` stripes [first, last] in order; every
  /// other shard is covered without a probe unless `dominance_bound` is set
  /// (NN / k-NN): it is evaluated after the home pass, and a shard whose
  /// whole stripe lies farther from `region` than the bound is covered
  /// unprobed while the rest are probed. Each probe passes the guard, runs
  /// under a `shard.probe` span, takes injected faults, and is classified:
  /// ok → covered, NotFound → covered, anything else → failed. Closes the
  /// `fanout` span with the degradation markers and counts a deadline hit.
  FanoutGuard FanOut(std::pair<uint32_t, uint32_t> home, Deadline deadline,
                     uint32_t shard_budget, const ShardProbe& probe,
                     const std::function<double()>& dominance_bound = {},
                     const Rect& region = Rect()) const;

  /// One-shot query on top of FanOut: validates the request, fans out over
  /// `home` with `probe`, merges the parts (or answers `none()` when no
  /// shard produced one and the fan-out was not cut short), stamps the
  /// degradation markers and records the query.* metrics. Defined in
  /// cloak_db_service.cc, the only place it is instantiated.
  template <typename ResultT, typename Probe, typename None, typename Merge>
  Result<ResultT> RunOneShot(const BatchQuery& query,
                             std::pair<uint32_t, uint32_t> home,
                             const Probe& probe, const None& none,
                             const Merge& merge) const;

  /// The five one-shot kinds: each supplies its stripe plan, shard probe,
  /// no-answer status and merge to RunOneShot.
  Result<PrivateRangeResult> RangeFanOut(const BatchQuery& query) const;
  Result<PrivateNnResult> NnFanOut(const BatchQuery& query) const;
  Result<PrivateKnnResult> KnnFanOut(const BatchQuery& query) const;
  Result<PublicCountResult> CountFanOut(const BatchQuery& query) const;
  Result<HeatmapResult> HeatmapFanOut(const BatchQuery& query) const;

  /// Executes one query of any kind under its own deadline and budget.
  QueryResponse ExecuteOne(const BatchQuery& query) const;

  /// [first, last] stripe range overlapping `region` in x.
  std::pair<uint32_t, uint32_t> StripeRangeOf(const Rect& region) const;

  /// Lower bound on MinDist(o, region) for any object held by `stripe`
  /// (x-distance from the region to the stripe's interval). Lets NN / k-NN
  /// fan-out skip stripes that cannot beat the home-stripe dominance bound.
  double StripeMinDist(uint32_t stripe, const Rect& region) const;

  /// Route of one standing query: its kind plus the home shard (counts are
  /// registered on every shard; the stored index is unused for them).
  struct CqRoute {
    QueryKind kind = QueryKind::kPrivateRange;
    uint32_t shard = 0;
  };

  /// Shared body of the private-kind registrations: admission, home-shard
  /// region lookup, full evaluation, raced-registration repair.
  Result<ContinuousQueryId> RegisterContinuousImpl(const ContinuousSpec& spec);

  /// Full standing evaluation: derives the conservative coverage for
  /// `spec` around `region`, fans out over the overlapping stripes, and
  /// computes the answer from the merged fetch. Degraded/covered semantics
  /// are the one-shot ones: a cut-short fan-out that fetched nothing fails
  /// with the guard's error.
  Result<StandingSnapshot> EvaluateStanding(const ContinuousSpec& spec,
                                            const Rect& region,
                                            Deadline deadline,
                                            uint32_t shard_budget) const;

  /// Repairs up to `max` stale standing queries homed on `shard`.
  size_t SweepShardContinuous(uint32_t shard, size_t max);

  CloakDbServiceOptions options_;
  uint32_t worker_count_ = 0;
  /// Steady-clock birth of the service; anchors ServiceStats::uptime_us.
  std::chrono::steady_clock::time_point start_time_;
  /// Declared before shards_ so the metric handles the shards record into
  /// outlive them (members destroy in reverse order).
  obs::MetricsRegistry metrics_;
  /// Declared right after metrics_ (and before everything that records
  /// into it): the tracer, fault injector, durability engines and net
  /// server all hold a raw pointer. Mutable because recording events is
  /// not a logical mutation of the service.
  mutable obs::FlightRecorder flight_recorder_;
  /// Declared before shards_ for the same reason: shards hold a raw
  /// pointer and record cloak-audit spans into it from the worker pool.
  std::unique_ptr<obs::Tracer> tracer_;
  mutable obs::SlowQueryLog slow_log_;
  /// Per-kind query metrics, indexed by QueryKind.
  QueryKindObs kind_obs_[kNumQueryKinds];
  /// Ingest metric handles, shared with every shard.
  ShardObs ingest_obs_;
  RobustnessObs robustness_obs_;
  /// Continuous-query metric handles, shared with every shard registry.
  ContinuousObs cq_obs_;
  /// Static public index lifecycle counters, shared by every shard's
  /// PublicCategoryIndex instances.
  StaticIndexObs static_index_obs_;
  /// Directory of standing queries: id -> kind + home shard. Guarded by
  /// cq_mu_; lookups are O(1) and the critical sections tiny.
  mutable std::mutex cq_mu_;
  std::unordered_map<ContinuousQueryId, CqRoute> cq_routes_;
  std::atomic<ContinuousQueryId> next_cq_id_{1};
  /// Non-null only when any overload option is active.
  std::unique_ptr<AdmissionController> admission_;
  /// Non-null only when fault_injection.enabled; shards share this pointer.
  std::unique_ptr<FaultInjector> fault_injector_;
  /// Per-shard durability engines (empty with durability off). Declared
  /// before shards_: each shard holds a raw pointer into this vector.
  std::vector<std::unique_ptr<storage::ShardDurability>> durability_;
  RecoveryInfo recovery_info_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Interior stripe boundaries (num_shards - 1 ascending x values).
  std::vector<double> stripe_bounds_;
  std::vector<std::thread> workers_;
  std::atomic<bool> stop_{false};
};

}  // namespace cloakdb

#endif  // CLOAKDB_SERVICE_CLOAK_DB_SERVICE_H_
