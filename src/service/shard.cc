#include "service/shard.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <thread>
#include <utility>

#include "core/attack.h"
#include "obs/scoped_timer.h"
#include "util/logging.h"

namespace cloakdb {

Result<std::unique_ptr<Shard>> Shard::Create(const ShardConfig& config) {
  auto anonymizer = Anonymizer::Create(config.anonymizer);
  if (!anonymizer.ok()) return anonymizer.status();
  return std::unique_ptr<Shard>(
      new Shard(config, std::move(anonymizer).value()));
}

Shard::Shard(const ShardConfig& config,
             std::unique_ptr<Anonymizer> anonymizer)
    : config_(config),
      anonymizer_(std::move(anonymizer)),
      server_(config.anonymizer.space, config.rect_grid_cells, {},
              config.public_index),
      continuous_(config.continuous, config.cq_obs),
      count_windows_(config.anonymizer.space, config.cache_capacity,
                     config.count_obs),
      queue_(config.queue_capacity) {
  queue_.SetObs(config.obs.queue);
  server_.SetObs(config.server_obs);
}

Status Shard::LogDurable(storage::WalRecord record, bool sync_now) {
  if (config_.durability == nullptr) return Status::OK();
  return config_.durability->LogAndCommit(std::move(record), sync_now);
}

Status Shard::RegisterUser(UserId user, PrivacyProfile profile) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (config_.durability != nullptr) {
    storage::WalRecord rec;
    rec.type = storage::WalRecordType::kRegisterUser;
    rec.user = user;
    rec.profile = profile.entries();
    CLOAKDB_RETURN_IF_ERROR(LogDurable(std::move(rec)));
  }
  return anonymizer_->RegisterUser(user, std::move(profile));
}

Status Shard::UpdateProfile(UserId user, PrivacyProfile profile) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (config_.durability != nullptr) {
    storage::WalRecord rec;
    rec.type = storage::WalRecordType::kUpdateProfile;
    rec.user = user;
    rec.profile = profile.entries();
    CLOAKDB_RETURN_IF_ERROR(LogDurable(std::move(rec)));
  }
  return anonymizer_->UpdateProfile(user, std::move(profile));
}

Status Shard::UnregisterUser(UserId user) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (config_.durability != nullptr) {
    storage::WalRecord rec;
    rec.type = storage::WalRecordType::kUnregisterUser;
    rec.user = user;
    CLOAKDB_RETURN_IF_ERROR(LogDurable(std::move(rec)));
  }
  auto pseudonym = anonymizer_->PseudonymOf(user);
  CLOAKDB_RETURN_IF_ERROR(anonymizer_->UnregisterUser(user));
  // The server record is best-effort: the user may never have reported.
  if (pseudonym.ok()) DropServerRecord(pseudonym.value());
  return Status::OK();
}

Result<ObjectId> Shard::PseudonymOf(UserId user) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return anonymizer_->PseudonymOf(user);
}

Status Shard::Enqueue(const PendingUpdate& update, bool block) {
  PendingUpdate stamped = update;
  stamped.enqueued_at = std::chrono::steady_clock::now();
  // Count before pushing so Idle() can never miss an in-queue update; undo
  // on rejection.
  pending_.fetch_add(1, std::memory_order_acq_rel);
  Status status =
      block ? queue_.Push(stamped) : queue_.TryPush(stamped);
  if (!status.ok()) {
    pending_.fetch_sub(1, std::memory_order_acq_rel);
    return status;
  }
  if (config_.obs.enqueued != nullptr) config_.obs.enqueued->Increment();
  return Status::OK();
}

size_t Shard::DrainOnce(size_t max_batch) {
  std::vector<PendingUpdate> batch;
  batch.reserve(max_batch);
  queue_.TryPopBatch(max_batch, &batch);
  if (batch.empty()) return 0;
  if (config_.fault_injector != nullptr &&
      config_.fault_injector->NextQueueStall()) {
    // Injected slow consumer: the batch is already off the queue, so the
    // stall shows up as apply latency and queue growth, exactly like a
    // real drain hiccup would.
    if (config_.obs.fault_stalls != nullptr)
      config_.obs.fault_stalls->Increment();
    std::this_thread::sleep_for(std::chrono::microseconds(
        config_.fault_injector->options().queue_stall_us));
  }
  // Group commit: drained batches append their WAL record without the
  // per-record fsync. The group's fsync lands at the next quiet point —
  // the worker's idle transition, the Flush() barrier, or the engine's
  // deferred-record cap — so a storm of small batches pays one fsync, not
  // one per batch. Nothing is acknowledged before that sync, so the kFsync
  // guarantee is unchanged; a crash in the window loses only updates no
  // Flush() ever vouched for.
  ApplyBatch(batch, /*sync_wal=*/false);
  return batch.size();
}

obs::AuditEvent Shard::EmitCloakAudit(obs::TraceSpan* span, UserId user,
                                      const CloakedUpdate& update,
                                      uint64_t trace_id) const {
  obs::AuditEvent event;
  event.requested_k = update.cloaked.requirement.k;
  event.achieved_k = update.cloaked.achieved_k;
  event.area = update.cloaked.region.Area();
  event.min_area = update.cloaked.requirement.min_area;
  event.max_area = update.cloaked.requirement.max_area;
  event.k_satisfied = update.cloaked.k_satisfied;
  event.min_area_satisfied = update.cloaked.min_area_satisfied;
  event.max_area_satisfied = update.cloaked.max_area_satisfied;
  event.cloaking_kind =
      static_cast<uint8_t>(config_.anonymizer.algorithm);
  // The snapshot holds the exact reported location the region was built
  // around — the ground truth the paper's Section 5 adversaries aim for.
  auto true_location = anonymizer_->snapshot().Locate(user);
  if (true_location.ok()) {
    event.center_risk =
        CenterAttackCompromises(update.cloaked.region, true_location.value());
    event.boundary_risk = BoundaryAttackCompromises(update.cloaked.region,
                                                    true_location.value());
  }
  span->SetAudit(event);
  if (event.Violation() && config_.tracer != nullptr)
    config_.tracer->NoteAuditViolation(trace_id, update.pseudonym, event);
  return event;
}

void Shard::ApplyBatch(const std::vector<PendingUpdate>& batch,
                       bool sync_wal) {
  // The ingest path has no client-side trace to join, so each drained
  // batch opens its own: a root over the whole apply, a child over the
  // batched cloak computation, and one audit-carrying span per update.
  obs::TraceContext trace_ctx;
  obs::TraceSpan root;
  if (config_.tracer != nullptr) {
    trace_ctx = config_.tracer->BeginTrace("ingest.batch");
    root = obs::TraceSpan(trace_ctx, "ingest.batch");
    root.AddAttr("shard", static_cast<double>(config_.index));
    root.AddAttr("batch_size", static_cast<double>(batch.size()));
  }
  // Standing-query notifications fired by ForwardCloaked emit their spans
  // into this batch's trace.
  obs::ScopedTraceContext trace_scope(trace_ctx);
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (config_.durability != nullptr) {
    // WAL the raw pre-shedding batch: replay re-sheds identically, and the
    // record preserves the exact composition the drain applied (composition
    // determines the equal-time runs below).
    storage::WalRecord rec;
    rec.type = storage::WalRecordType::kUpdateBatch;
    rec.updates.reserve(batch.size());
    for (const PendingUpdate& u : batch)
      rec.updates.push_back({u.user, u.location, u.time.seconds()});
    if (Status logged = LogDurable(std::move(rec), sync_wal); !logged.ok()) {
      // Write-ahead means no apply without the record: the whole batch is
      // refused, so what the server shows never outruns what recovery
      // replays.
      if (config_.obs.rejected != nullptr)
        config_.obs.rejected->Increment(batch.size());
      CLOAKDB_LOG(kError) << "shard " << config_.index << ": dropped a batch of "
                          << batch.size() << " updates: " << logged.ToString();
      pending_.fetch_sub(batch.size(), std::memory_order_acq_rel);
      if (config_.tracer != nullptr)
        config_.tracer->FinishTrace(trace_ctx, root.End(), false);
      return;
    }
  }
  const bool any_violation = ApplyBatchLocked(batch, &root, trace_ctx);
  pending_.fetch_sub(batch.size(), std::memory_order_acq_rel);
  if (config_.tracer != nullptr)
    config_.tracer->FinishTrace(trace_ctx, root.End(), any_violation);
}

bool Shard::ApplyBatchLocked(const std::vector<PendingUpdate>& batch,
                             obs::TraceSpan* root,
                             const obs::TraceContext& trace_ctx) {
  bool any_violation = false;
  // One clock read covers the whole batch: every entry waited until this
  // apply, and per-entry now() would put ~30ns of clock traffic on the
  // exclusive-lock path.
  if (config_.obs.queue_wait_us != nullptr) {
    auto now = std::chrono::steady_clock::now();
    for (const PendingUpdate& u : batch) {
      if (u.enqueued_at.time_since_epoch().count() != 0)
        config_.obs.queue_wait_us->Record(obs::MicrosBetween(u.enqueued_at,
                                                             now));
    }
  }
  // UpdateLocationsBatch cloaks everyone against one timestamp, so the
  // batch is split into runs of equal report time (streams usually arrive
  // tick-aligned, making this one run).
  size_t i = 0;
  while (i < batch.size()) {
    size_t j = i;
    std::vector<std::pair<UserId, Point>> updates;
    while (j < batch.size() && batch[j].time == batch[i].time) {
      // Shed poisoned entries (unknown user, point outside the space) up
      // front: UpdateLocationsBatch is all-or-nothing, and one bad entry
      // used to force the whole run through the serial fallback below.
      if (!anonymizer_->IsRegistered(batch[j].user) ||
          !config_.anonymizer.space.Contains(batch[j].location)) {
        if (config_.obs.rejected != nullptr) config_.obs.rejected->Increment();
        ++j;
        continue;
      }
      updates.push_back({batch[j].user, batch[j].location});
      ++j;
    }
    if (updates.empty()) {
      i = j;
      continue;
    }
    obs::ScopedTimer cloak_timer(config_.obs.cloak_us);
    obs::TraceSpan cloak_span(root->context(), "cloak.batch");
    cloak_span.AddAttr("updates", static_cast<double>(updates.size()));
    auto results = anonymizer_->UpdateLocationsBatch(updates, batch[i].time);
    cloak_span.End();
    cloak_timer.Stop();
    if (config_.obs.batch_size != nullptr)
      config_.obs.batch_size->Record(static_cast<double>(updates.size()));
    // Every applied cloak gets an audit-carrying span (duration ~0: the
    // computation was timed by cloak.batch; this span is the per-user
    // privacy record).
    auto audit_one = [&](UserId user, const CloakedUpdate& u) {
      if (config_.tracer == nullptr) return;
      obs::TraceSpan span(root->context(), "cloak");
      span.AddAttr("achieved_k", static_cast<double>(u.cloaked.achieved_k));
      span.AddAttr("area", u.cloaked.region.Area());
      if (EmitCloakAudit(&span, user, u, trace_ctx.trace_id).Violation())
        any_violation = true;
    };
    if (results.ok()) {
      for (size_t u = 0; u < results.value().size(); ++u) {
        ForwardCloaked(results.value()[u], updates[u].first);
        audit_one(updates[u].first, results.value()[u]);
      }
      if (config_.obs.applied != nullptr)
        config_.obs.applied->Increment(updates.size());
    } else {
      // The batch refused atomically for a reason pre-validation could not
      // see; retry one by one so the failure sheds only itself.
      for (const auto& [user, location] : updates) {
        auto result =
            anonymizer_->UpdateLocation(user, location, batch[i].time);
        if (result.ok()) {
          ForwardCloaked(result.value(), user);
          audit_one(user, result.value());
          if (config_.obs.applied != nullptr) config_.obs.applied->Increment();
        } else {
          if (config_.obs.rejected != nullptr)
            config_.obs.rejected->Increment();
        }
      }
    }
    i = j;
  }
  return any_violation;
}

void Shard::ForwardCloaked(const CloakedUpdate& update, UserId user) {
  if (update.retired_pseudonym != 0) {
    DropServerRecord(update.retired_pseudonym);
    if (config_.obs.rotations != nullptr) config_.obs.rotations->Increment();
  }
  const size_t count_bumps =
      KeepCountWindows(update.pseudonym, update.cloaked.region);
  (void)server_.ApplyCloakedUpdate(update.pseudonym, update.cloaked.region);
  if (continuous_.size() > 0 || count_windows_.num_standing() > 0)
    continuous_.OnLocationUpdate(user, update.cloaked.region, count_bumps);
}

void Shard::DropServerRecord(ObjectId pseudonym) {
  (void)KeepCountWindows(pseudonym, std::nullopt);
  (void)server_.DropPseudonym(pseudonym);
}

size_t Shard::KeepCountWindows(ObjectId pseudonym,
                               const std::optional<Rect>& new_region) {
  // Lock-free when no window is held: the update path stays as it is.
  if (count_windows_.size() == 0) return 0;
  // The server held the old region until this change, so it is what every
  // count part and standing generation read for this record.
  std::optional<Rect> old_region;
  if (auto old = server_.store().GetPrivateRegion(pseudonym); old.ok())
    old_region = old.value();
  return count_windows_.OnRegionChanged(old_region, new_region);
}

Result<CloakedUpdate> Shard::UpdateLocation(UserId user,
                                            const Point& location,
                                            TimeOfDay now) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (config_.durability != nullptr) {
    // A one-entry batch: replay re-applies it through ApplyBatchLocked,
    // which cloaks a lone entry exactly like the call below.
    storage::WalRecord rec;
    rec.type = storage::WalRecordType::kUpdateBatch;
    rec.updates.push_back({user, location, now.seconds()});
    CLOAKDB_RETURN_IF_ERROR(LogDurable(std::move(rec)));
  }
  obs::TraceSpan span(obs::CurrentTraceContext(), "cloak");
  auto update = anonymizer_->UpdateLocation(user, location, now);
  if (!update.ok()) return update.status();
  ForwardCloaked(update.value(), user);
  if (config_.obs.applied != nullptr) config_.obs.applied->Increment();
  if (span.active())
    EmitCloakAudit(&span, user, update.value(),
                   obs::CurrentTraceContext().trace_id);
  return update;
}

Result<CloakedUpdate> Shard::CloakForQuery(UserId user, TimeOfDay now) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  obs::TraceSpan span(obs::CurrentTraceContext(), "cloak");
  auto update = anonymizer_->CloakForQuery(user, now);
  if (!update.ok()) return update.status();
  // A rotation at query time re-keys the server record too, otherwise the
  // user would disappear from public queries until the next report.
  if (update.value().retired_pseudonym != 0)
    ForwardCloaked(update.value(), user);
  if (span.active())
    EmitCloakAudit(&span, user, update.value(),
                   obs::CurrentTraceContext().trace_id);
  return update;
}

Status Shard::AddPublicObject(const PublicObject& object) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  // A write the store would reject must not reach the WAL: replay would
  // count it, and a long name would poison every record after it. So the
  // store logs it between its checks and the change.
  return server_.store().AddPublicObject(object, [&]() -> Status {
    if (config_.durability == nullptr) return Status::OK();
    storage::WalRecord rec;
    rec.type = storage::WalRecordType::kAddPublicObject;
    rec.object = object;
    return LogDurable(std::move(rec));
  });
}

Status Shard::BulkLoadCategory(Category category,
                               std::vector<PublicObject> objects) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  storage::WalRecord rec;
  if (config_.durability != nullptr) {
    rec.type = storage::WalRecordType::kBulkLoadCategory;
    rec.category = category;
    rec.objects = objects;
  }
  return server_.store().BulkLoadCategory(
      category, std::move(objects),
      [&]() -> Status { return LogDurable(std::move(rec)); });
}

bool Shard::HasCategory(Category category) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return server_.store().CategoryIndex(category).ok();
}

Result<HeatmapResult> Shard::Heatmap(uint32_t resolution) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return server_.Heatmap(resolution);
}

Result<PrivateRangeResult> Shard::PrivateRange(
    const Rect& cloaked, double radius, Category category,
    const PrivateRangeOptions& opts) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return server_.PrivateRange(cloaked, radius, category, opts);
}

Result<PrivateNnResult> Shard::PrivateNn(const Rect& cloaked,
                                         Category category) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return server_.PrivateNn(cloaked, category);
}

Result<PrivateKnnResult> Shard::PrivateKnn(const Rect& cloaked, size_t k,
                                           Category category) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return server_.PrivateKnn(cloaked, k, category);
}

Result<PublicCountPart> Shard::ReadCountPart(const Rect& window,
                                             bool one_shot) const {
  if (auto cached = count_windows_.Lookup(window); cached != nullptr)
    return *cached;
  auto part = one_shot ? server_.ScanPublicCount(window)
                       : ScanPublicCount(server_.store(), window);
  if (part.ok()) count_windows_.Insert(window, part.value());
  return part;
}

Result<PublicCountPart> Shard::PublicCount(const Rect& window) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return ReadCountPart(window, /*one_shot=*/true);
}

Result<Rect> Shard::CurrentRegionOfUser(UserId user) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto pseudonym = anonymizer_->PseudonymOf(user);
  if (!pseudonym.ok()) return pseudonym.status();
  return server_.store().GetPrivateRegion(pseudonym.value());
}

Result<double> Shard::KnnReach(const Rect& cloaked, size_t k,
                               Category category) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return KnnFetchRadius(server_.store(), cloaked, k, category);
}

Result<std::vector<PublicObject>> Shard::ProbeRegion(
    const Rect& probe, Category category) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto hits = server_.SharedProbe(probe, category);
  if (!hits.ok()) return hits.status();
  return Materialize(server_.store(), category, hits.value());
}

Result<StandingCountPart> Shard::StandingCount(ContinuousQueryId id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto standing = count_windows_.Standing(id);
  if (!standing.ok()) return standing.status();
  StandingCountPart part = std::move(standing).value();
  auto read = ReadCountPart(part.window, /*one_shot=*/false);
  if (!read.ok()) return read.status();
  for (const CountContribution& c : read.value().contributions) {
    if (c.probability > 0.0) part.contributions.push_back(c);
  }
  return part;
}

Status Shard::WriteCheckpoint() {
  if (config_.durability == nullptr) return Status::OK();
  // Shared lock: durable mutations append under the exclusive lock, so the
  // WAL cannot advance while the state is being exported — the engine's
  // last LSN exactly covers this snapshot. Queries proceed concurrently.
  std::shared_lock<std::shared_mutex> lock(mu_);
  storage::ShardSnapshot snap;
  snap.anonymizer = anonymizer_->ExportState();
  snap.public_objects = server_.store().AllPublicObjects();
  snap.private_regions = server_.store().AllPrivateRegions();
  // Standing private queries and count windows, in id order.
  auto specs = continuous_.RegisteredSpecs();
  for (const auto& [id, window] : count_windows_.StandingWindows())
    specs.push_back({id, {.kind = QueryKind::kPublicCount, .window = window}});
  std::sort(specs.begin(), specs.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  snap.cqs.reserve(specs.size());
  for (const auto& [id, spec] : specs) {
    storage::SnapshotCq cq;
    cq.id = id;
    cq.kind = static_cast<uint8_t>(spec.kind);
    cq.issuer = spec.issuer;
    cq.radius = spec.radius;
    cq.k = spec.k;
    cq.category = spec.category;
    cq.window = spec.window;
    snap.cqs.push_back(cq);
  }
  return config_.durability->WriteCheckpoint(
      storage::EncodeShardSnapshot(snap));
}

Status Shard::RestoreSnapshot(const storage::ShardSnapshot& snapshot) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  CLOAKDB_RETURN_IF_ERROR(anonymizer_->RestoreState(snapshot.anonymizer));
  std::map<Category, std::vector<PublicObject>> by_category;
  for (const PublicObject& o : snapshot.public_objects)
    by_category[o.category].push_back(o);
  for (auto& [category, objects] : by_category) {
    CLOAKDB_RETURN_IF_ERROR(
        server_.store().BulkLoadCategory(category, std::move(objects)));
  }
  for (const auto& [pseudonym, region] : snapshot.private_regions)
    CLOAKDB_RETURN_IF_ERROR(server_.ApplyCloakedUpdate(pseudonym, region));
  return Status::OK();
}

Status Shard::ReplayWalRecord(const storage::WalRecord& record) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  // The log is write-ahead, so a record may mirror an apply that failed
  // (e.g. a duplicate registration); replaying it fails identically, which
  // is exactly the original outcome — such statuses are not errors here.
  switch (record.type) {
    case storage::WalRecordType::kRegisterUser: {
      auto profile = PrivacyProfile::Create(record.profile);
      if (!profile.ok()) return profile.status();
      (void)anonymizer_->RegisterUser(record.user,
                                      std::move(profile).value());
      return Status::OK();
    }
    case storage::WalRecordType::kUpdateProfile: {
      auto profile = PrivacyProfile::Create(record.profile);
      if (!profile.ok()) return profile.status();
      (void)anonymizer_->UpdateProfile(record.user,
                                       std::move(profile).value());
      return Status::OK();
    }
    case storage::WalRecordType::kUnregisterUser: {
      auto pseudonym = anonymizer_->PseudonymOf(record.user);
      if (anonymizer_->UnregisterUser(record.user).ok() && pseudonym.ok())
        DropServerRecord(pseudonym.value());
      return Status::OK();
    }
    case storage::WalRecordType::kUpdateBatch: {
      std::vector<PendingUpdate> batch;
      batch.reserve(record.updates.size());
      for (const storage::WalUpdate& u : record.updates) {
        PendingUpdate p;
        p.user = u.user;
        p.location = u.location;
        p.time = TimeOfDay::FromSeconds(u.time_seconds);
        batch.push_back(p);
      }
      obs::TraceSpan root;  // Inert: recovery is not a traced ingest.
      (void)ApplyBatchLocked(batch, &root, obs::TraceContext{});
      return Status::OK();
    }
    case storage::WalRecordType::kAddPublicObject:
      (void)server_.store().AddPublicObject(record.object);
      return Status::OK();
    case storage::WalRecordType::kBulkLoadCategory:
      (void)server_.store().BulkLoadCategory(
          record.category, std::vector<PublicObject>(record.objects));
      return Status::OK();
    case storage::WalRecordType::kCqRegister:
    case storage::WalRecordType::kCqUnregister:
      return Status::InvalidArgument(
          "standing-query records replay at the service layer");
  }
  return Status::InvalidArgument("unknown WAL record type");
}

Status Shard::LogCqRegister(ContinuousQueryId id,
                            const ContinuousSpec& spec) {
  if (config_.durability == nullptr) return Status::OK();
  std::unique_lock<std::shared_mutex> lock(mu_);
  storage::WalRecord rec;
  rec.type = storage::WalRecordType::kCqRegister;
  rec.cq_id = id;
  rec.cq_kind = static_cast<uint8_t>(spec.kind);
  rec.cq_issuer = spec.issuer;
  rec.cq_radius = spec.radius;
  rec.cq_k = spec.k;
  rec.cq_category = spec.category;
  rec.cq_window = spec.window;
  return LogDurable(std::move(rec));
}

Status Shard::LogCqUnregister(ContinuousQueryId id) {
  if (config_.durability == nullptr) return Status::OK();
  std::unique_lock<std::shared_mutex> lock(mu_);
  storage::WalRecord rec;
  rec.type = storage::WalRecordType::kCqUnregister;
  rec.cq_id = id;
  return LogDurable(std::move(rec));
}

ShardStats Shard::Stats() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  ShardStats stats;
  stats.shard = config_.index;
  stats.anonymizer = anonymizer_->stats();
  stats.queue_depth = queue_.size();
  stats.num_users = anonymizer_->num_users();
  return stats;
}

}  // namespace cloakdb
