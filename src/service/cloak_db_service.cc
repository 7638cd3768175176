#include "service/cloak_db_service.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>
#include <string>
#include <type_traits>
#include <utility>

#include "geom/distance.h"
#include "obs/scoped_timer.h"
#include "service/root_trace.h"
#include "storage/shard_snapshot.h"
#include "util/build_info.h"
#include "util/random.h"

namespace cloakdb {

namespace {

// How long an un-acknowledged WAL record may sit appended-but-unfsynced
// before an idle worker forces the group commit. Acknowledged work (Flush)
// never waits on this — the flush barrier fsyncs immediately.
constexpr int64_t kGroupCommitDeadlineUs = 10'000;

/// Root-span / metric-family name of one envelope kind.
const char* RootSpanName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kPrivateRange:
      return "query.private_range";
    case QueryKind::kPrivateNn:
      return "query.private_nn";
    case QueryKind::kPrivateKnn:
      return "query.private_knn";
    case QueryKind::kPublicCount:
      return "query.public_count";
    case QueryKind::kHeatmap:
      return "query.heatmap";
  }
  return "query.unknown";
}

/// Rejects a request its kind cannot answer, before any shard is probed.
/// A NaN bound compares false against everything, so such a region would
/// otherwise read as a valid one that holds nothing.
Status ValidateQuery(const QueryRequest& request) {
  if (request.kind == QueryKind::kHeatmap) {
    if (request.resolution == 0)
      return Status::InvalidArgument("heatmap resolution must be >= 1");
    return Status::OK();
  }
  if (request.region.HasNaN())
    return Status::InvalidArgument("query region has a NaN bound");
  if (request.region.IsEmpty()) {
    return Status::InvalidArgument(request.kind == QueryKind::kPublicCount
                                       ? "query window must be non-empty"
                                       : "cloaked region must be non-empty");
  }
  if (request.kind == QueryKind::kPrivateRange && !(request.radius > 0.0))
    return Status::InvalidArgument("query radius must be positive");
  if (request.kind == QueryKind::kPrivateKnn && request.k == 0)
    return Status::InvalidArgument("k must be >= 1");
  return Status::OK();
}

/// Result types that carry a candidate list (the private kinds).
template <typename ResultT>
constexpr bool kCandidateList =
    requires(const ResultT& result) { result.candidates; };

/// Length of a result's list: candidates (private kinds), per-user
/// contributions (count), or cells (heatmap).
template <typename ResultT>
uint64_t ItemCount(const ResultT& result) {
  if constexpr (kCandidateList<ResultT>) {
    return result.candidates.size();
  } else if constexpr (std::is_same_v<ResultT, PublicCountResult>) {
    return result.contributions.size();
  } else {
    return result.expected.size();
  }
}

/// The NN / k-NN dominance bound: the k-th smallest MaxDist from `region`
/// over every candidate collected so far (infinity with fewer than k). Any
/// object farther than it from every point of the region already has k
/// known candidates strictly closer, for every possible querier position.
template <typename ResultT>
double KthMaxDist(const std::vector<ResultT>& parts, const Rect& region,
                  size_t k) {
  std::vector<double> max_dists;
  for (const auto& part : parts) {
    for (const auto& c : part.candidates)
      max_dists.push_back(MaxDist(c.location, region));
  }
  if (max_dists.size() < k) return std::numeric_limits<double>::infinity();
  std::nth_element(max_dists.begin(), max_dists.begin() + (k - 1),
                   max_dists.end());
  return max_dists[k - 1];
}

}  // namespace

bool CloakDbService::FanoutGuard::AllowProbe() {
  if (budget > 0 && probes >= budget) {
    degraded = true;
    return false;
  }
  if (deadline.Expired()) {
    deadline_hit = true;
    degraded = true;
    return false;
  }
  ++probes;
  return true;
}

void CloakDbService::FanoutGuard::Cover(uint32_t i) {
  if (i < 64) covered |= uint64_t{1} << i;
}

void CloakDbService::FanoutGuard::Fail(const Status& status) {
  degraded = true;
  if (first_error.ok()) first_error = status;
}

Status CloakDbService::FanoutGuard::EmptyError() const {
  if (!first_error.ok()) return first_error;
  if (deadline_hit)
    return Status::DeadlineExceeded(
        "query deadline expired before enough shards answered");
  return Status::DegradedZeroCoverage("degraded query produced no candidates");
}

CloakDbService::CloakDbService(const CloakDbServiceOptions& options)
    : options_(options),
      start_time_(std::chrono::steady_clock::now()),
      slow_log_(options.slow_query_log_capacity) {}

Result<std::unique_ptr<CloakDbService>> CloakDbService::Create(
    const CloakDbServiceOptions& options) {
  if (options.space.IsEmpty() || options.space.Area() <= 0.0)
    return Status::InvalidArgument("service space must be non-empty");
  if (options.num_shards == 0)
    return Status::InvalidArgument("service needs at least one shard");
  if (options.queue_capacity == 0)
    return Status::InvalidArgument("queue_capacity must be >= 1");
  if (options.max_batch == 0 || options.max_batch > storage::kMaxBatchUpdates)
    return Status::InvalidArgument(
        "max_batch must be in [1, " +
        std::to_string(storage::kMaxBatchUpdates) +
        "] (one drained batch is one WAL record)");
  if (options.overload.query_deadline_us < 0)
    return Status::InvalidArgument("query_deadline_us must be >= 0");
  if (options.overload.max_queries_per_s < 0.0)
    return Status::InvalidArgument("max_queries_per_s must be >= 0");
  if (options.overload.burst < 0.0)
    return Status::InvalidArgument("burst must be >= 0");
  if (options.overload.shed_queue_fraction < 0.0 ||
      options.overload.shed_queue_fraction > 1.0)
    return Status::InvalidArgument("shed_queue_fraction must be in [0, 1]");
  const FaultInjectorOptions& fault = options.fault_injection;
  if (fault.probe_failure_probability < 0.0 ||
      fault.probe_delay_probability < 0.0 ||
      fault.queue_stall_probability < 0.0 ||
      fault.probe_failure_probability + fault.probe_delay_probability > 1.0 ||
      fault.queue_stall_probability > 1.0)
    return Status::InvalidArgument("fault probabilities must be in [0, 1]");
  if (fault.probe_delay_us < 0 || fault.queue_stall_us < 0)
    return Status::InvalidArgument("fault delays must be >= 0");
  if (options.durability_mode != storage::DurabilityMode::kOff &&
      options.data_dir.empty())
    return Status::InvalidArgument(
        "data_dir is required when durability_mode is not off");
  std::unique_ptr<CloakDbService> service(new CloakDbService(options));
  CLOAKDB_RETURN_IF_ERROR(service->Start());
  return service;
}

Status CloakDbService::Start() {
  // Resolve every metric handle once; shards and query paths record through
  // these raw pointers for the service's lifetime.
  auto init_kind = [this](QueryKindObs* o, QueryKind kind) {
    const std::string p = std::string("query.") + QueryKindName(kind) + ".";
    o->latency_us = metrics_.histogram(p + "latency_us");
    o->merge_us = metrics_.histogram(p + "merge_us");
    o->shards_touched = metrics_.histogram(p + "shards_touched");
    o->candidates = metrics_.histogram(p + "candidates");
    // Only candidate lists are priced (RunOneShot); aggregates are not.
    if (kind != QueryKind::kPublicCount && kind != QueryKind::kHeatmap)
      o->wire_bytes = metrics_.counter(p + "wire_bytes");
  };
  for (uint8_t kind = 0; IsValidQueryKind(kind); ++kind)
    init_kind(&kind_obs_[kind], static_cast<QueryKind>(kind));

  ingest_obs_.enqueued = metrics_.counter("ingest.enqueued_total");
  ingest_obs_.applied = metrics_.counter("ingest.applied_total");
  ingest_obs_.queue_wait_us = metrics_.histogram("ingest.queue_wait_us");
  ingest_obs_.cloak_us = metrics_.histogram("ingest.cloak_us");
  ingest_obs_.batch_size = metrics_.histogram("ingest.batch_size");
  ingest_obs_.rotations = metrics_.counter("ingest.rotations_total");
  ingest_obs_.rejected = metrics_.counter("ingest.rejected_total");
  ingest_obs_.queue.depth_hwm = metrics_.gauge("queue.depth_hwm");
  ingest_obs_.queue.blocked_push_us =
      metrics_.histogram("queue.blocked_push_us");

  QueryProcessorObs server_obs;
  server_obs.range_probe_us = metrics_.histogram("query.private_range.probe_us");
  server_obs.nn_probe_us = metrics_.histogram("query.private_nn.probe_us");
  server_obs.knn_probe_us = metrics_.histogram("query.private_knn.probe_us");
  server_obs.count_probe_us = metrics_.histogram("query.public_count.probe_us");
  server_obs.heatmap_probe_us = metrics_.histogram("query.heatmap.probe_us");

  CountWindowsObs count_obs;
  count_obs.hits = metrics_.counter("cache.hits_total");
  count_obs.misses = metrics_.counter("cache.misses_total");
  count_obs.insertions = metrics_.counter("cache.insertions_total");
  count_obs.lru_evictions = metrics_.counter("cache.lru_evictions_total");
  count_obs.invalidations = metrics_.counter("cache.invalidations_total");
  count_obs.generation_bumps =
      metrics_.counter("cq.count_delta_updates_total");

  // Robustness counters are created eagerly (not on first use) so a metrics
  // export always lists them — the doc-drift guard test depends on the full
  // catalog being present after any smoke run.
  robustness_obs_.queries_shed = metrics_.counter("admission.queries_shed_total");
  robustness_obs_.queries_admitted_degraded =
      metrics_.counter("admission.queries_degraded_total");
  robustness_obs_.updates_shed =
      metrics_.counter("admission.updates_shed_total");
  robustness_obs_.queries_degraded = metrics_.counter("query.degraded_total");
  robustness_obs_.deadline_hits =
      metrics_.counter("query.deadline_hits_total");
  robustness_obs_.probe_failures =
      metrics_.counter("fault.probe_failures_total");
  robustness_obs_.probe_delays = metrics_.counter("fault.probe_delays_total");
  robustness_obs_.queue_stalls = metrics_.counter("fault.queue_stalls_total");
  ingest_obs_.fault_stalls = robustness_obs_.queue_stalls;

  // Flight recorder: every notable-event producer below records through
  // this ring; the counter keeps the metric catalog aware of it.
  flight_recorder_.set_counter(metrics_.counter("recorder.events_total"));

  // Static public index metrics, eager for the doc-drift guard.
  static_index_obs_.seals_total = metrics_.counter("index.static.seals_total");
  static_index_obs_.sealed_objects_total =
      metrics_.counter("index.static.sealed_objects_total");
  static_index_obs_.overlay_inserts_total =
      metrics_.counter("index.static.overlay_inserts_total");
  static_index_obs_.tombstones_total =
      metrics_.counter("index.static.tombstones_total");
  static_index_obs_.compactions_total =
      metrics_.counter("index.static.compactions_total");

  // Continuous-query metrics, likewise eager for the doc-drift guard.
  cq_obs_.registrations = metrics_.counter("cq.registrations_total");
  cq_obs_.unregistrations = metrics_.counter("cq.unregistrations_total");
  cq_obs_.updates_seen = metrics_.counter("cq.updates_seen_total");
  cq_obs_.incremental_refilters =
      metrics_.counter("cq.incremental_refilters_total");
  cq_obs_.full_reevals = metrics_.counter("cq.full_reevals_total");
  cq_obs_.stale_marked = metrics_.counter("cq.stale_marked_total");
  cq_obs_.delta_candidates = metrics_.counter("cq.delta_candidates_total");
  cq_obs_.affected_per_update = metrics_.histogram("cq.affected_per_update");
  cq_obs_.register_latency_us = metrics_.histogram("cq.register_latency_us");
  cq_obs_.registered = metrics_.gauge("cq.registered");
  count_obs.registered = cq_obs_.registered;

  if (options_.trace.enabled) {
    tracer_ = std::make_unique<obs::Tracer>(options_.trace);
    tracer_->set_flight_recorder(&flight_recorder_);
  }

  const OverloadOptions& overload = options_.overload;
  if (overload.query_deadline_us > 0 || overload.max_queries_per_s > 0.0 ||
      overload.shed_queue_fraction > 0.0) {
    admission_ = std::make_unique<AdmissionController>(
        overload, options_.num_shards, options_.queue_capacity);
  }
  if (options_.fault_injection.enabled) {
    fault_injector_ = std::make_unique<FaultInjector>(options_.fault_injection);
    fault_injector_->set_flight_recorder(&flight_recorder_);
  }

  // Durability metrics, eager like the rest so the exported catalog is
  // complete even before the first commit or recovery.
  storage::DurabilityObs durability_obs;
  durability_obs.wal_records = metrics_.counter("wal.records_total");
  durability_obs.wal_bytes = metrics_.counter("wal.bytes_total");
  durability_obs.wal_fsyncs = metrics_.counter("wal.fsyncs_total");
  durability_obs.wal_commit_us = metrics_.histogram("wal.commit_us");
  durability_obs.checkpoints = metrics_.counter("checkpoint.completed_total");
  durability_obs.checkpoint_bytes = metrics_.counter("checkpoint.bytes_total");
  durability_obs.checkpoint_us = metrics_.histogram("checkpoint.duration_us");
  obs::Counter* recovery_replayed =
      metrics_.counter("recovery.replayed_records_total");
  obs::Counter* recovery_truncated =
      metrics_.counter("recovery.truncated_records");
  obs::Counter* recovery_checkpoints =
      metrics_.counter("recovery.checkpoints_loaded_total");
  obs::Counter* recovery_cqs =
      metrics_.counter("recovery.cq_reregistered_total");
  obs::ShardedHistogram* recovery_us =
      metrics_.histogram("recovery.duration_us");
  durability_obs.recorder = &flight_recorder_;
  // A WAL fsync taking 20ms+ is a disk brown-out worth a post-mortem line.
  durability_obs.wal_stall_threshold_us = 20'000;

  const uint32_t n = options_.num_shards;
  const bool durable =
      options_.durability_mode != storage::DurabilityMode::kOff;
  if (durable) {
    // The injector owns the crash decision so cloaksim can re-arm points
    // at runtime; the hook keeps storage below the service layer.
    storage::CrashHook crash_hook;
    if (fault_injector_ != nullptr) {
      FaultInjector* injector = fault_injector_.get();
      crash_hook = [injector](storage::CrashPoint point) {
        return injector->ShouldCrash(point);
      };
    }
    durability_.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      durability_obs.shard_index = i;
      auto engine = storage::ShardDurability::Open(
          options_.data_dir + "/shard-" + std::to_string(i),
          options_.durability_mode, durability_obs, crash_hook);
      if (!engine.ok()) return engine.status();
      durability_.push_back(std::move(engine).value());
    }
  }
  // Split the cache budget evenly (at least one entry per shard so a tiny
  // budget still exercises the cache path everywhere).
  const size_t per_shard_cache =
      options_.enable_shared_execution && options_.cache_capacity > 0
          ? (options_.cache_capacity + n - 1) / n
          : 0;
  shards_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    ShardConfig config;
    config.index = i;
    config.anonymizer = options_.anonymizer;
    config.anonymizer.space = options_.space;
    config.anonymizer.pseudonym_seed =
        options_.anonymizer.pseudonym_seed ^ Mix64(i + 1);
    config.rect_grid_cells = options_.rect_grid_cells;
    config.queue_capacity = options_.queue_capacity;
    config.obs = ingest_obs_;
    config.server_obs = server_obs;
    config.cache_capacity = per_shard_cache;
    config.count_obs = count_obs;
    config.tracer = tracer_.get();
    config.fault_injector = fault_injector_.get();
    config.continuous = options_.continuous;
    config.cq_obs = cq_obs_;
    config.durability = durable ? durability_[i].get() : nullptr;
    config.public_index.overlay_compact_limit =
        options_.static_index_compact_limit;
    config.public_index.obs = &static_index_obs_;
    auto shard = Shard::Create(config);
    if (!shard.ok()) return shard.status();
    shards_.push_back(std::move(shard).value());
  }
  const double stripe_width = options_.space.Width() / n;
  for (uint32_t i = 1; i < n; ++i) {
    stripe_bounds_.push_back(options_.space.min_x + stripe_width * i);
  }
  if (durable) {
    // Recovery must finish before any worker can drain or checkpoint: the
    // replay re-applies records through the same shard paths the workers
    // use, and interleaving live traffic would reorder the log.
    const auto recovery_start = std::chrono::steady_clock::now();
    CLOAKDB_RETURN_IF_ERROR(RecoverFromDisk());
    recovery_replayed->Increment(recovery_info_.replayed_records);
    recovery_truncated->Increment(recovery_info_.truncated_records);
    recovery_checkpoints->Increment(recovery_info_.checkpoints_loaded);
    recovery_cqs->Increment(recovery_info_.cq_reregistered);
    recovery_us->Record(obs::MicrosBetween(recovery_start,
                                           std::chrono::steady_clock::now()));
  }
  worker_count_ = options_.worker_threads == 0 ? n : options_.worker_threads;
  workers_.reserve(worker_count_);
  for (uint32_t w = 0; w < worker_count_; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
  return Status::OK();
}

Status CloakDbService::RecoverFromDisk() {
  recovery_info_.performed = true;
  recovery_info_.shard_last_lsn.resize(shards_.size(), 0);
  // Standing-query registrations survive as checkpoint entries plus WAL
  // register/unregister events; folding both in order yields the set that
  // was live at the crash. Count windows are logged on every shard, so the
  // map also dedupes; std::map keeps re-registration in ascending-id order.
  std::map<ContinuousQueryId, ContinuousSpec> live_cqs;
  ContinuousQueryId max_cq_id = 0;
  for (uint32_t i = 0; i < shards_.size(); ++i) {
    const storage::ShardRecoveredState& recovered =
        durability_[i]->recovered();
    recovery_info_.truncated_records += recovered.truncated_records;
    recovery_info_.skipped_records += recovered.skipped_records;
    recovery_info_.shard_last_lsn[i] = durability_[i]->last_lsn();
    if (recovered.had_checkpoint) {
      auto snapshot = storage::DecodeShardSnapshot(recovered.checkpoint_blob);
      if (!snapshot.ok()) return snapshot.status();
      CLOAKDB_RETURN_IF_ERROR(
          shards_[i]->RestoreSnapshot(snapshot.value()));
      ++recovery_info_.checkpoints_loaded;
      for (const storage::SnapshotCq& cq : snapshot.value().cqs) {
        ContinuousSpec spec;
        spec.kind = static_cast<QueryKind>(cq.kind);
        spec.issuer = cq.issuer;
        spec.radius = cq.radius;
        spec.k = static_cast<size_t>(cq.k);
        spec.category = cq.category;
        spec.window = cq.window;
        live_cqs[cq.id] = spec;
        max_cq_id = std::max(max_cq_id, cq.id);
      }
    }
    for (const storage::WalRecord& record : recovered.records) {
      ++recovery_info_.replayed_records;
      if (record.type == storage::WalRecordType::kCqRegister) {
        ContinuousSpec spec;
        spec.kind = static_cast<QueryKind>(record.cq_kind);
        spec.issuer = record.cq_issuer;
        spec.radius = record.cq_radius;
        spec.k = static_cast<size_t>(record.cq_k);
        spec.category = record.cq_category;
        spec.window = record.cq_window;
        live_cqs[record.cq_id] = spec;
        max_cq_id = std::max(max_cq_id, record.cq_id);
        continue;
      }
      if (record.type == storage::WalRecordType::kCqUnregister) {
        live_cqs.erase(record.cq_id);
        max_cq_id = std::max(max_cq_id, record.cq_id);
        continue;
      }
      CLOAKDB_RETURN_IF_ERROR(shards_[i]->ReplayWalRecord(record));
    }
  }
  // Never reuse a recovered id, including unregistered ones: a client may
  // still hold it.
  next_cq_id_.store(max_cq_id + 1, std::memory_order_relaxed);

  // Re-register the surviving standing queries through the same evaluation
  // the live registration path uses (registry insert only — the WAL still
  // holds their registration records, so nothing is re-logged). A private
  // query whose issuer no longer has a region is dropped, mirroring what
  // an operator would see had the crash landed a breath earlier.
  for (const auto& [id, spec] : live_cqs) {
    if (spec.kind == QueryKind::kPublicCount) {
      for (const auto& shard : shards_)
        (void)shard->count_windows().Register(id, spec.window);
      cq_routes_[id] = CqRoute{QueryKind::kPublicCount, 0};
    } else {
      const uint32_t home = ShardOfUser(spec.issuer);
      ContinuousShardRegistry& registry = shards_[home]->continuous();
      auto region = shards_[home]->CurrentRegionOfUser(spec.issuer);
      if (!region.ok()) continue;
      const uint64_t version = registry.public_version();
      auto snap = EvaluateStanding(spec, region.value(), Deadline(), 0);
      if (!snap.ok()) continue;
      if (!registry
               .InsertPrivate(id, spec, region.value(),
                              std::move(snap).value(), version)
               .ok())
        continue;
      cq_routes_[id] = CqRoute{spec.kind, home};
    }
    ++recovery_info_.cq_reregistered;
    if (cq_obs_.registered != nullptr) cq_obs_.registered->Add(1.0);
  }
  return Status::OK();
}

Status CloakDbService::Checkpoint() {
  for (auto& shard : shards_) {
    CLOAKDB_RETURN_IF_ERROR(shard->WriteCheckpoint());
  }
  return Status::OK();
}

Status CloakDbService::SyncWal() {
  if (durability_.empty()) return Status::OK();
  if (durability_.size() == 1) return durability_[0]->Sync();
  // The per-shard WALs are independent files: fsync them concurrently so
  // the barrier costs one fsync's latency, not num_shards of them.
  std::vector<Status> statuses(durability_.size(), Status::OK());
  std::vector<std::thread> syncers;
  syncers.reserve(durability_.size());
  for (size_t i = 0; i < durability_.size(); ++i) {
    syncers.emplace_back(
        [this, i, &statuses] { statuses[i] = durability_[i]->Sync(); });
  }
  for (auto& t : syncers) t.join();
  for (Status& status : statuses) {
    if (!status.ok()) return status;
  }
  return Status::OK();
}

CloakDbService::~CloakDbService() {
  stop_.store(true, std::memory_order_release);
  for (auto& shard : shards_) shard->CloseQueue();
  for (auto& worker : workers_) worker.join();
  // Workers sweep their shards once after stop; finish anything left (e.g.
  // updates raced in before the queues closed).
  (void)Flush();
  // In kAsync mode commits were never fsynced; push them out now so a
  // clean shutdown loses nothing.
  (void)SyncWal();
}

void CloakDbService::WorkerLoop(uint32_t worker) {
  while (!stop_.load(std::memory_order_acquire)) {
    size_t drained = 0;
    for (uint32_t s = worker; s < shards_.size(); s += worker_count_) {
      drained += shards_[s]->DrainOnce(options_.max_batch);
      // Each shard is checkpointed only by the worker that drains it
      // (stride assignment), so the interval trigger never races itself;
      // explicit Checkpoint() calls serialize inside the engine.
      if (!durability_.empty() && options_.checkpoint_interval > 0 &&
          durability_[s]->records_since_checkpoint() >=
              options_.checkpoint_interval) {
        (void)shards_[s]->WriteCheckpoint();
      }
    }
    if (drained == 0) {
      // Idle: settle any deferred group commit that has aged past the
      // deadline. The time gate matters — a fast drainer bounces off an
      // empty queue between producer enqueues, so an unconditional sync
      // here degenerates right back into one fsync per batch.
      if (options_.durability_mode == storage::DurabilityMode::kFsync) {
        for (uint32_t s = worker; s < shards_.size(); s += worker_count_) {
          (void)durability_[s]->SyncIfStale(kGroupCommitDeadlineUs);
        }
      }
      // Repair a few stale standing queries on this worker's shards, then
      // nap instead of spinning; enqueue latency stays sub-ms while an
      // idle service costs ~no CPU.
      size_t swept = 0;
      for (uint32_t s = worker; s < shards_.size(); s += worker_count_) {
        swept += SweepShardContinuous(s, 8);
      }
      if (swept == 0)
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  for (uint32_t s = worker; s < shards_.size(); s += worker_count_) {
    while (shards_[s]->DrainOnce(options_.max_batch) > 0) {
    }
  }
}

uint32_t CloakDbService::ShardOfUser(UserId user) const {
  return static_cast<uint32_t>(Mix64(user) % shards_.size());
}

uint32_t CloakDbService::ShardOfX(double x) const {
  auto it =
      std::upper_bound(stripe_bounds_.begin(), stripe_bounds_.end(), x);
  return static_cast<uint32_t>(it - stripe_bounds_.begin());
}

std::pair<uint32_t, uint32_t> CloakDbService::StripeRangeOf(
    const Rect& region) const {
  return {ShardOfX(region.min_x), ShardOfX(region.max_x)};
}

double CloakDbService::StripeMinDist(uint32_t stripe,
                                     const Rect& region) const {
  const double lo =
      stripe == 0 ? options_.space.min_x : stripe_bounds_[stripe - 1];
  const double hi = stripe + 1 == shards_.size() ? options_.space.max_x
                                                 : stripe_bounds_[stripe];
  return std::max({0.0, lo - region.max_x, region.min_x - hi});
}

size_t CloakDbService::AggregateQueueDepth() const {
  size_t depth = 0;
  for (const auto& shard : shards_) depth += shard->QueueDepth();
  return depth;
}

CloakDbService::Admission CloakDbService::AdmitQuery() const {
  Admission admission;
  if (admission_ == nullptr) return admission;
  admission.deadline = admission_->QueryDeadline();
  switch (admission_->AdmitQuery(AggregateQueueDepth())) {
    case AdmissionDecision::kAdmit:
      break;
    case AdmissionDecision::kDegrade:
      admission.degraded_admission = true;
      admission.shard_budget = admission_->options().degrade_shard_budget;
      robustness_obs_.queries_admitted_degraded->Increment();
      break;
    case AdmissionDecision::kReject:
      robustness_obs_.queries_shed->Increment();
      flight_recorder_.Record(obs::FlightEventKind::kQueryShed,
                              obs::CurrentTraceContext().trace_id);
      admission.status = Status::Shed("query shed: service overloaded");
      break;
  }
  return admission;
}

ProbeFault CloakDbService::InjectProbeFault(obs::TraceSpan* probe_span) const {
  if (fault_injector_ == nullptr) return ProbeFault::kNone;
  const ProbeFault fault = fault_injector_->NextProbeFault();
  if (fault == ProbeFault::kFail) {
    robustness_obs_.probe_failures->Increment();
    probe_span->AddAttr("fault_fail", 1.0);
  } else if (fault == ProbeFault::kDelay) {
    robustness_obs_.probe_delays->Increment();
    probe_span->AddAttr("fault_delay", 1.0);
    std::this_thread::sleep_for(std::chrono::microseconds(
        fault_injector_->options().probe_delay_us));
  }
  return fault;
}

Status CloakDbService::RegisterUser(UserId user, PrivacyProfile profile) {
  return shards_[ShardOfUser(user)]->RegisterUser(user, std::move(profile));
}

Status CloakDbService::UpdateProfile(UserId user, PrivacyProfile profile) {
  return shards_[ShardOfUser(user)]->UpdateProfile(user, std::move(profile));
}

Status CloakDbService::UnregisterUser(UserId user) {
  return shards_[ShardOfUser(user)]->UnregisterUser(user);
}

Result<ObjectId> CloakDbService::PseudonymOf(UserId user) const {
  return shards_[ShardOfUser(user)]->PseudonymOf(user);
}

Status CloakDbService::AddPublicObject(const PublicObject& object) {
  // Vetted before routing: a NaN x has no stripe.
  CLOAKDB_RETURN_IF_ERROR(CheckPublicObject(object));
  CLOAKDB_RETURN_IF_ERROR(
      shards_[ShardOfX(object.location.x)]->AddPublicObject(object));
  // Every shard's registry sees the change: standing private queries home
  // on the issuer's shard, not the object's stripe.
  for (auto& shard : shards_)
    shard->continuous().OnPublicChanged(object.location, object.category);
  return Status::OK();
}

Status CloakDbService::BulkLoadCategory(Category category,
                                        std::vector<PublicObject> objects) {
  // Vet the whole batch before any shard logs or applies its slice, so a
  // bad object cannot leave some stripes reloaded and others not. The byte
  // cap is what one WAL record can hold, whatever the shard count.
  CLOAKDB_RETURN_IF_ERROR(
      CheckPublicBatch(objects, storage::kMaxBulkLoadObjectBytes));
  std::vector<std::vector<PublicObject>> parts(shards_.size());
  for (auto& object : objects) {
    parts[ShardOfX(object.location.x)].push_back(std::move(object));
  }
  // Every shard is loaded (including with an empty slice) so the call
  // replaces the category service-wide, like ObjectStore::BulkLoadCategory.
  for (uint32_t i = 0; i < shards_.size(); ++i) {
    CLOAKDB_RETURN_IF_ERROR(
        shards_[i]->BulkLoadCategory(category, std::move(parts[i])));
  }
  for (auto& shard : shards_)
    shard->continuous().OnCategoryReloaded(category);
  return Status::OK();
}

Status CloakDbService::EnqueueUpdate(UserId user, const Point& location,
                                     TimeOfDay now) {
  if (!options_.space.Contains(location))
    return Status::OutOfRange("location outside the service space");
  Shard& shard = *shards_[ShardOfUser(user)];
  // Queue-depth shedding replaces blocking backpressure: an overloaded
  // shard rejects fast instead of parking the producer thread.
  if (admission_ != nullptr &&
      admission_->ShouldShedUpdate(shard.QueueDepth())) {
    robustness_obs_.updates_shed->Increment();
    return Status::Shed("update shed: shard queue overloaded");
  }
  return shard.Enqueue({user, location, now}, /*block=*/true);
}

Status CloakDbService::TryEnqueueUpdate(UserId user, const Point& location,
                                        TimeOfDay now) {
  if (!options_.space.Contains(location))
    return Status::OutOfRange("location outside the service space");
  Shard& shard = *shards_[ShardOfUser(user)];
  if (admission_ != nullptr &&
      admission_->ShouldShedUpdate(shard.QueueDepth())) {
    robustness_obs_.updates_shed->Increment();
    return Status::Shed("update shed: shard queue overloaded");
  }
  return shard.Enqueue({user, location, now}, /*block=*/false);
}

Result<CloakedUpdate> CloakDbService::UpdateLocation(UserId user,
                                                     const Point& location,
                                                     TimeOfDay now) {
  RootTrace trace(tracer_.get(), "cloak.update");
  obs::ScopedTraceContext scope(trace.context());
  return shards_[ShardOfUser(user)]->UpdateLocation(user, location, now);
}

Result<CloakedUpdate> CloakDbService::CloakForQuery(UserId user,
                                                    TimeOfDay now) {
  RootTrace trace(tracer_.get(), "cloak.query");
  obs::ScopedTraceContext scope(trace.context());
  return shards_[ShardOfUser(user)]->CloakForQuery(user, now);
}

Status CloakDbService::Flush() {
  for (;;) {
    size_t drained = 0;
    bool idle = true;
    for (auto& shard : shards_) {
      drained += shard->DrainOnce(options_.max_batch);
      if (!shard->Idle()) idle = false;
    }
    if (idle) break;
    if (drained == 0) {
      // Another thread holds a popped batch; wait for it to apply.
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  // Drained updates may have staled standing queries; a flushed service
  // answers them from fully repaired state. Sweeping until the queue is
  // empty is not enough: TakeStale clears the stale flags, so an idle
  // worker mid-repair is invisible to the queue — wait for its restore
  // (or epoch-mismatch discard, which re-queues) to settle too.
  for (;;) {
    if (SweepContinuousStale() > 0) continue;
    bool repairing = false;
    for (const auto& shard : shards_) {
      if (shard->continuous().repairs_in_flight() > 0) {
        repairing = true;
        break;
      }
    }
    if (!repairing) break;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  // Group-commit barrier: drains defer per-batch fsyncs while their queue
  // still holds work, so a Flush() racing the shard's worker can observe
  // pending_ == 0 with the last record not yet fsynced. Settle it here —
  // a no-op when the final drain already committed synchronously.
  if (options_.durability_mode == storage::DurabilityMode::kFsync) {
    CLOAKDB_RETURN_IF_ERROR(SyncWal());
  }
  return Status::OK();
}

QueryResponse CloakDbService::ExecuteQuery(const QueryRequest& request) const {
  const auto started = std::chrono::steady_clock::now();
  RootTrace trace(tracer_.get(), RootSpanName(request.kind));
  obs::ScopedTraceContext scope(trace.context());
  Admission admission = AdmitQuery();
  if (admission.degraded_admission) trace.AddAttr("degraded_admission", 1.0);
  QueryResponse response;
  if (!admission.status.ok()) {
    trace.AddAttr("shed", 1.0);
    response = MakeErrorResponse(request.kind, admission.status);
  } else {
    BatchQuery query;
    query.request = request;
    // A client budget can only tighten the server's own admission deadline.
    query.deadline = admission.deadline;
    if (request.deadline_us > 0) {
      query.deadline = Deadline::Earliest(query.deadline,
                                          Deadline::After(request.deadline_us));
    }
    query.shard_budget = admission.shard_budget;
    response = ExecuteOne(query);
  }
  response.kind = request.kind;
  response.degraded_admission = admission.degraded_admission;
  response.trace_id = trace.context().trace_id;
  response.server_latency_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - started)
          .count());
  // Queries that burned their whole budget before failing are slow queries
  // too: surface them in the slow log with their typed status. (Fast
  // rejections — shed, validation — stay out; they carry no latency story.)
  if (response.error == ErrorCode::kDeadlineExceeded ||
      response.error == ErrorCode::kDegradedZeroCoverage) {
    slow_log_.Record({QueryKindName(request.kind),
                      static_cast<double>(response.server_latency_us),
                      request.region.Area(), 0, 0,
                      trace.context().trace_id, response.error});
  }
  return response;
}

Result<PrivateRangeResult> CloakDbService::PrivateRange(
    const Rect& cloaked, double radius, Category category,
    const PrivateRangeOptions& opts) const {
  QueryResponse response =
      ExecuteQuery(QueryRequest::Range(cloaked, radius, category, opts));
  if (!response.ok()) return response.status();
  return RangeFromResponse(std::move(response));
}

Result<PrivateNnResult> CloakDbService::PrivateNn(const Rect& cloaked,
                                                  Category category) const {
  QueryResponse response = ExecuteQuery(QueryRequest::Nn(cloaked, category));
  if (!response.ok()) return response.status();
  return NnFromResponse(std::move(response));
}

Result<PrivateKnnResult> CloakDbService::PrivateKnn(const Rect& cloaked,
                                                    size_t k,
                                                    Category category) const {
  QueryResponse response =
      ExecuteQuery(QueryRequest::Knn(cloaked, k, category));
  if (!response.ok()) return response.status();
  return KnnFromResponse(std::move(response));
}

Result<PublicCountResult> CloakDbService::PublicCount(
    const Rect& window) const {
  // The rich count result (PMF, per-object contributions) stays a library
  // feature: this method keeps its own admission so those callers do not
  // pay envelope summarization. The envelope path shares CountFanOut, whose
  // merge stops at the O(n) formats; the PMF is built here only, over the
  // merged pseudonym-sorted contributions.
  RootTrace trace(tracer_.get(), "query.public_count");
  obs::ScopedTraceContext scope(trace.context());
  Admission admission = AdmitQuery();
  if (admission.degraded_admission) trace.AddAttr("degraded_admission", 1.0);
  if (!admission.status.ok()) {
    trace.AddAttr("shed", 1.0);
    return admission.status;
  }
  BatchQuery query;
  query.request = QueryRequest::Count(window);
  query.deadline = admission.deadline;
  query.shard_budget = admission.shard_budget;
  auto merged = CountFanOut(query);
  if (!merged.ok()) return merged;
  auto answer =
      MakeCountAnswer(CountProbabilities(merged.value().contributions));
  if (!answer.ok()) return answer.status();
  merged.value().answer = std::move(answer).value();
  return merged;
}

Result<HeatmapResult> CloakDbService::Heatmap(uint32_t resolution) const {
  QueryResponse response = ExecuteQuery(QueryRequest::HeatmapAt(resolution));
  if (!response.ok()) return response.status();
  return HeatmapFromResponse(std::move(response));
}

CloakDbService::FanoutGuard CloakDbService::FanOut(
    std::pair<uint32_t, uint32_t> home, Deadline deadline,
    uint32_t shard_budget, const ShardProbe& probe,
    const std::function<double()>& dominance_bound,
    const Rect& region) const {
  FanoutGuard guard;
  guard.deadline = deadline;
  guard.budget = shard_budget;
  obs::TraceSpan fanout(obs::CurrentTraceContext(), "fanout");
  auto consult = [&](uint32_t i) {
    if (!guard.AllowProbe()) return;
    obs::TraceSpan probe_span(fanout.context(), "shard.probe");
    probe_span.AddAttr("shard", static_cast<double>(i));
    obs::ScopedTraceContext probe_scope(probe_span.context());
    if (InjectProbeFault(&probe_span) == ProbeFault::kFail) {
      guard.Fail(Status::Internal("injected probe failure"));
      return;
    }
    const Status status = probe(i, &probe_span);
    if (status.ok() || status.code() == StatusCode::kNotFound) {
      // NotFound: the shard holds nothing the query could use.
      guard.Cover(i);
    } else {
      // A failed shard does not abort the fan-out: its stripe stays
      // uncovered and the merged remainder ships degraded.
      guard.Fail(status);
    }
  };
  const auto [first, last] = home;
  for (uint32_t i = first; i <= last; ++i) consult(i);
  // Off-home stripes cannot contribute to a range-shaped plan. For NN /
  // k-NN, a stripe lying wholly farther than the bound can only hold
  // objects the cross-shard dominance prune would drop, so skipping it
  // keeps the merged candidate list bit-identical. The bound is computed
  // from the candidates actually collected, so the skip stays sound (and
  // counts as coverage) when the home pass was degraded.
  const double bound = dominance_bound ? dominance_bound() : 0.0;
  for (uint32_t i = 0; i < shards_.size(); ++i) {
    if (i >= first && i <= last) continue;
    if (!dominance_bound || StripeMinDist(i, region) > bound) {
      guard.Cover(i);
    } else {
      consult(i);
    }
  }
  fanout.AddAttr("shards", static_cast<double>(guard.probes));
  if (guard.degraded) {
    fanout.AddAttr("degraded", 1.0);
    fanout.AddAttr("covered_shards", static_cast<double>(guard.covered));
    if (guard.deadline_hit) {
      robustness_obs_.deadline_hits->Increment();
      flight_recorder_.Record(obs::FlightEventKind::kDeadlineHit,
                              obs::CurrentTraceContext().trace_id);
    }
  }
  return guard;
}

template <typename ResultT, typename Probe, typename None, typename Merge>
Result<ResultT> CloakDbService::RunOneShot(const BatchQuery& query,
                                           std::pair<uint32_t, uint32_t> home,
                                           const Probe& probe,
                                           const None& none,
                                           const Merge& merge) const {
  const QueryRequest& request = query.request;
  CLOAKDB_RETURN_IF_ERROR(ValidateQuery(request));
  const QueryKindObs& kind_obs = kind_obs_[static_cast<size_t>(request.kind)];
  obs::ScopedTimer total(kind_obs.latency_us);
  // A shard's part: the result type itself, or a count's bare scan.
  using PartT =
      std::decay_t<decltype(probe(std::declval<const Shard&>()).value())>;
  std::vector<PartT> parts;
  std::function<double()> dominance_bound;
  if constexpr (kCandidateList<ResultT>) {
    const size_t k = request.kind == QueryKind::kPrivateNn    ? 1
                     : request.kind == QueryKind::kPrivateKnn ? request.k
                                                              : 0;
    if (k > 0) {
      dominance_bound = [&parts, &request, k] {
        return KthMaxDist(parts, request.region, k);
      };
    }
  }
  const FanoutGuard guard = FanOut(
      home, query.deadline, query.shard_budget,
      [&](uint32_t i, obs::TraceSpan* probe_span) -> Status {
        Result<PartT> part = probe(*shards_[i]);
        if (!part.ok()) return part.status();
        if constexpr (kCandidateList<ResultT>) {
          probe_span->AddAttr(
              "candidates",
              static_cast<double>(part.value().candidates.size()));
        }
        parts.push_back(std::move(part).value());
        return Status::OK();
      },
      dominance_bound, request.region);
  Result<ResultT> merged = [&]() -> Result<ResultT> {
    if (parts.empty()) {
      if (guard.degraded) return guard.EmptyError();
      return none();
    }
    obs::ScopedTimer merge_timer(kind_obs.merge_us);
    obs::TraceSpan merge_span(obs::CurrentTraceContext(), "merge");
    return merge(std::move(parts));
  }();
  if (!merged.ok()) {
    total.Cancel();
    return merged.status();
  }
  ResultT& result = merged.value();
  result.degraded = guard.degraded;
  result.covered_shards = guard.covered;
  if (guard.degraded) {
    robustness_obs_.queries_degraded->Increment();
    flight_recorder_.Record(obs::FlightEventKind::kQueryDegraded,
                            obs::CurrentTraceContext().trace_id,
                            guard.covered);
  }
  const uint64_t items = ItemCount(result);
  const double latency_us = total.Stop();
  kind_obs.shards_touched->Record(static_cast<double>(guard.probes));
  kind_obs.candidates->Record(static_cast<double>(items));
  // Aggregates ship a few scalars, not a candidate list: no wire bytes.
  if (kCandidateList<ResultT> && items > 0)
    kind_obs.wire_bytes->Increment(items *
                                   options_.wire_cost.bytes_per_object);
  // A slow entry keeps its trace id: slow traces are tail-kept, so the
  // entry links to a complete span tree in the export.
  const double area = request.kind == QueryKind::kHeatmap
                          ? options_.space.Area()
                          : request.region.Area();
  slow_log_.Record({QueryKindName(request.kind), latency_us, area,
                    guard.probes, items,
                    obs::CurrentTraceContext().trace_id});
  return merged;
}

Result<PrivateRangeResult> CloakDbService::RangeFanOut(
    const BatchQuery& query) const {
  const QueryRequest& r = query.request;
  const Rect extended = r.region.Expanded(r.radius);
  return RunOneShot<PrivateRangeResult>(
      query, StripeRangeOf(extended),
      [&](const Shard& shard) {
        return shard.PrivateRange(r.region, r.radius, r.category,
                                  r.range_options());
      },
      [&]() -> Result<PrivateRangeResult> {
        // No stripe in reach holds the category: an empty answer when it
        // exists elsewhere, NotFound when it exists nowhere.
        for (const auto& shard : shards_) {
          if (!shard->HasCategory(r.category)) continue;
          PrivateRangeResult empty;
          empty.extended_region = extended;
          return empty;
        }
        return Status::NotFound("no public objects in category");
      },
      MergePrivateRangeResults);
}

Result<PrivateNnResult> CloakDbService::NnFanOut(
    const BatchQuery& query) const {
  const QueryRequest& r = query.request;
  return RunOneShot<PrivateNnResult>(
      query, StripeRangeOf(r.region),
      [&](const Shard& shard) {
        return shard.PrivateNn(r.region, r.category);
      },
      [] { return Status::NotFound("no public objects in category"); },
      [&](std::vector<PrivateNnResult> parts) {
        return MergePrivateNnResults(r.region, std::move(parts));
      });
}

Result<PrivateKnnResult> CloakDbService::KnnFanOut(
    const BatchQuery& query) const {
  const QueryRequest& r = query.request;
  return RunOneShot<PrivateKnnResult>(
      query, StripeRangeOf(r.region),
      [&](const Shard& shard) {
        return shard.PrivateKnn(r.region, r.k, r.category);
      },
      [] { return Status::NotFound("no public objects in category"); },
      [&](std::vector<PrivateKnnResult> parts) {
        return MergePrivateKnnResults(r.region, r.k, std::move(parts));
      });
}

Result<PublicCountResult> CloakDbService::CountFanOut(
    const BatchQuery& query) const {
  const Rect& window = query.request.region;
  return RunOneShot<PublicCountResult>(
      query, {0, num_shards() - 1},
      [&](const Shard& shard) { return shard.PublicCount(window); },
      [] { return Status::Internal("no shard answered the count"); },
      MergePublicCountResults);
}

Result<HeatmapResult> CloakDbService::HeatmapFanOut(
    const BatchQuery& query) const {
  const uint32_t resolution = query.request.resolution;
  return RunOneShot<HeatmapResult>(
      query, {0, num_shards() - 1},
      [&](const Shard& shard) { return shard.Heatmap(resolution); },
      [] { return Status::Internal("no shard answered the heatmap"); },
      MergeHeatmapResults);
}

QueryResponse CloakDbService::ExecuteOne(const BatchQuery& query) const {
  const QueryKind kind = query.request.kind;
  auto respond = [kind](auto result, auto to_response) {
    return result.ok() ? to_response(std::move(result).value())
                       : MakeErrorResponse(kind, result.status());
  };
  switch (kind) {
    case QueryKind::kPrivateRange:
      return respond(RangeFanOut(query), ResponseFromRange);
    case QueryKind::kPrivateNn:
      return respond(NnFanOut(query), ResponseFromNn);
    case QueryKind::kPrivateKnn:
      return respond(KnnFanOut(query), ResponseFromKnn);
    case QueryKind::kPublicCount:
      return respond(CountFanOut(query), ResponseFromCount);
    case QueryKind::kHeatmap:
      return respond(HeatmapFanOut(query), ResponseFromHeatmap);
  }
  return MakeErrorResponse(kind, Status::InvalidArgument("unknown query kind"));
}

ServiceStats CloakDbService::Stats() const {
  ServiceStats stats;
  stats.num_shards = num_shards();
  stats.worker_threads = worker_count_;
  for (const auto& shard : shards_) {
    const ShardStats s = shard->Stats();
    MergeAnonymizerStats(&stats.anonymizer, s.anonymizer);
    stats.queue_depth += s.queue_depth;
    stats.num_users += s.num_users;
  }
  const ShardObs& in = ingest_obs_;
  const obs::HistogramSnapshot batches = in.batch_size->Snapshot();
  stats.ingest.updates_enqueued = in.enqueued->Value();
  stats.ingest.updates_applied = in.applied->Value();
  stats.ingest.updates_rejected = in.rejected->Value();
  stats.ingest.batches_drained = batches.count;
  stats.ingest.mean_batch_size = batches.mean();
  stats.ingest.pseudonym_rotations = in.rotations->Value();
  for (size_t kind = 0; kind < kNumQueryKinds; ++kind) {
    const QueryKindObs& o = kind_obs_[kind];
    stats.queries[kind] = o.latency_us->Snapshot().count;
    if (o.wire_bytes != nullptr)
      stats.bytes_to_clients += o.wire_bytes->Value();
  }
  stats.version = BuildInfoString();
  stats.durability_mode =
      storage::DurabilityModeName(options_.durability_mode);
  stats.data_dir = options_.data_dir;
  stats.slow_queries = slow_log_.TopN();
  stats.uptime_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start_time_)
          .count());
  stats.snapshot_unix_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  stats.robustness.queries_shed = robustness_obs_.queries_shed->Value();
  stats.robustness.queries_admitted_degraded =
      robustness_obs_.queries_admitted_degraded->Value();
  stats.robustness.queries_degraded =
      robustness_obs_.queries_degraded->Value();
  stats.robustness.deadline_hits = robustness_obs_.deadline_hits->Value();
  stats.robustness.updates_shed = robustness_obs_.updates_shed->Value();
  if (fault_injector_ != nullptr) {
    // The injector's own counts are ground truth; the fault.* metrics are
    // incremented at the same sites and must reconcile exactly.
    stats.robustness.injected_probe_failures =
        fault_injector_->probe_failures();
    stats.robustness.injected_probe_delays = fault_injector_->probe_delays();
    stats.robustness.injected_queue_stalls = fault_injector_->queue_stalls();
  }
  return stats;
}

}  // namespace cloakdb
