#include "service/shard.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <thread>
#include <utility>

#include "core/attack.h"
#include "obs/scoped_timer.h"

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
      server_(config.anonymizer.space, config.rect_grid_cells,
              config.wire_cost, config.public_index),
      signature_(config.anonymizer.space, config.signature_cells),
      continuous_(config.anonymizer.space, config.continuous, config.cq_obs),
      cache_(config.cache_capacity),
      queue_(config.queue_capacity) {
  queue_.SetObs(config.obs.queue);
  server_.SetObs(config.server_obs);
  cache_.SetObs(config.cache_obs);
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
  enqueued_.fetch_add(1, std::memory_order_relaxed);
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
    (void)LogDurable(std::move(rec), sync_wal);
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
        ++ingest_.updates_rejected;
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
    ++ingest_.batches_drained;
    ingest_.batch_size.Add(static_cast<double>(updates.size()));
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
      ingest_.updates_applied += updates.size();
    } else {
      // The batch refused atomically for a reason pre-validation could not
      // see; retry one by one so the failure sheds only itself.
      for (const auto& [user, location] : updates) {
        auto result =
            anonymizer_->UpdateLocation(user, location, batch[i].time);
        if (result.ok()) {
          ForwardCloaked(result.value(), user);
          audit_one(user, result.value());
          ++ingest_.updates_applied;
        } else {
          ++ingest_.updates_rejected;
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
    ++ingest_.pseudonym_rotations;
    if (config_.obs.rotations != nullptr) config_.obs.rotations->Increment();
  }
  // The old region drives region-precise cache invalidation and the
  // standing-count generation; read it once when either consumer is live.
  const bool standing = continuous_.size() > 0;
  std::optional<Rect> old_region;
  if (cache_.enabled() || standing) {
    auto old = server_.store().GetPrivateRegion(update.pseudonym);
    if (old.ok()) old_region = old.value();
  }
  if (cache_.enabled()) {
    // Region-precise invalidation: only count answers whose window touches
    // where the user was or now is can have changed.
    if (old_region.has_value())
      cache_.InvalidatePrivateRegion(old_region.value());
    cache_.InvalidatePrivateRegion(update.cloaked.region);
  }
  (void)server_.ApplyCloakedUpdate(update.pseudonym, update.cloaked.region);
  if (standing)
    continuous_.OnLocationUpdate(user, old_region, update.cloaked.region);
}

void Shard::DropServerRecord(ObjectId pseudonym) {
  const bool standing = continuous_.size() > 0;
  std::optional<Rect> old_region;
  if (cache_.enabled() || standing) {
    auto old = server_.store().GetPrivateRegion(pseudonym);
    if (old.ok()) old_region = old.value();
  }
  if (cache_.enabled() && old_region.has_value())
    cache_.InvalidatePrivateRegion(old_region.value());
  (void)server_.DropPseudonym(pseudonym);
  if (standing && old_region.has_value())
    continuous_.OnLocationRemoved(old_region.value());
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
  ++ingest_.updates_applied;
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
  // count it, and a long name would poison every record after it.
  CLOAKDB_RETURN_IF_ERROR(server_.store().CheckAdd(object));
  if (config_.durability != nullptr) {
    storage::WalRecord rec;
    rec.type = storage::WalRecordType::kAddPublicObject;
    rec.object = object;
    CLOAKDB_RETURN_IF_ERROR(LogDurable(std::move(rec)));
  }
  // Only probe supersets that could have fetched this point go stale.
  cache_.InvalidatePublicRegion(Rect::FromPoint(object.location));
  return server_.store().AddPublicObject(object);
}

Status Shard::BulkLoadCategory(Category category,
                               std::vector<PublicObject> objects) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  CLOAKDB_RETURN_IF_ERROR(server_.store().CheckCategoryIds(category, objects));
  if (config_.durability != nullptr) {
    storage::WalRecord rec;
    rec.type = storage::WalRecordType::kBulkLoadCategory;
    rec.category = category;
    rec.objects = objects;
    CLOAKDB_RETURN_IF_ERROR(LogDurable(std::move(rec)));
  }
  // A bulk load replaces the category wholesale; no probe of it survives.
  cache_.InvalidateCategory(category);
  return server_.store().BulkLoadCategory(category, std::move(objects));
}

bool Shard::HasCategory(Category category) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return server_.store().CategoryIndex(category).ok();
}

Result<HeatmapResult> Shard::Heatmap(uint32_t resolution) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return server_.Heatmap(resolution);
}

namespace {

// Snapping + reach quantization widen the shared probe beyond what the
// query alone would fetch. Past this area ratio a cold miss costs more
// than cache reuse can recover (and the entry crowds out denser keys), so
// such outliers are served from the index — the answer is identical
// either way.
constexpr double kMaxProbeBloat = 2.5;

}  // namespace

Result<std::shared_ptr<const CacheEntry>> Shard::CachedHits(
    CacheKind kind, const RefineQuery& refine, Category category,
    const Rect& cover) const {
  const std::shared_ptr<const CacheEntry> from_index;
  // No bounded probe covers the whole category of the pigeonhole fetch.
  if (!cache_.enabled() || std::isinf(refine.reach)) return from_index;
  CacheKey key;
  key.kind = kind;
  key.category = category;
  key.region =
      cover.IsEmpty() ? signature_.SnapToCells(refine.cloaked) : cover;
  key.reach = signature_.QuantizeReach(refine.reach);
  const Rect probe = key.region.Expanded(key.reach);
  const Rect window = refine.cloaked.Expanded(refine.reach);
  if (probe.Area() > kMaxProbeBloat * window.Area()) return from_index;

  obs::TraceSpan span(obs::CurrentTraceContext(), "cache.lookup");
  span.AddAttr("shard", static_cast<double>(config_.index));
  if (auto entry = cache_.Lookup(key); entry != nullptr) {
    span.AddAttr("hit", 1.0);
    return entry;
  }
  span.AddAttr("hit", 0.0);  // Span covers the widened probe below.
  obs::ScopedTimer probe_timer(config_.shared_probe_us);
  auto hits = server_.SharedProbe(probe, category);
  if (!hits.ok()) {
    probe_timer.Cancel();
    return hits.status();
  }
  probe_timer.Stop();
  CacheEntry entry;
  entry.superset = std::move(hits).value();
  entry.coverage = probe;
  auto shared = std::make_shared<const CacheEntry>(std::move(entry));
  // Still under the caller's shared lock, so no writer can have slipped a
  // conflicting update between the probe and this insert.
  cache_.Insert(key, shared);
  return shared;
}

template <typename R>
Result<R> Shard::Serve(CacheKind kind, const Result<PrivateFetch<R>>& fetch,
                       const Rect& cover) const {
  if (!fetch.ok()) return fetch.status();
  auto entry =
      CachedHits(kind, fetch.value().refine, fetch.value().category, cover);
  if (!entry.ok()) return entry.status();
  return server_.Answer(fetch.value(), entry.value() == nullptr
                                           ? nullptr
                                           : &entry.value()->superset);
}

Result<PrivateRangeResult> Shard::PrivateRange(
    const Rect& cloaked, double radius, Category category,
    const PrivateRangeOptions& opts, const Rect& cover) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return Serve(
      CacheKind::kRange,
      PlanPrivateRange(server_.store(), cloaked, radius, category, opts),
      cover);
}

Result<PrivateNnResult> Shard::PrivateNn(const Rect& cloaked,
                                         Category category,
                                         const Rect& cover) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  // The NN reach depends on this shard's data, so the key is computed here
  // under the lock (cluster members with similar regions quantize to the
  // same reach and still share the probe).
  return Serve(CacheKind::kNn,
               PlanPrivateNn(server_.store(), cloaked, category), cover);
}

Result<PrivateKnnResult> Shard::PrivateKnn(const Rect& cloaked, size_t k,
                                           Category category,
                                           const Rect& cover) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return Serve(CacheKind::kKnn,
               PlanPrivateKnn(server_.store(), cloaked, k, category), cover);
}

Result<PublicCountResult> Shard::PublicCount(const Rect& window) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (!cache_.enabled()) return server_.PublicCount(window);
  CacheKey key;
  key.kind = CacheKind::kCount;
  key.region = window;
  if (auto entry = cache_.Lookup(key); entry != nullptr) {
    server_.NotePublicCountFromCache();
    return entry->count;
  }
  auto result = server_.PublicCount(window);
  if (!result.ok()) return result;
  CacheEntry entry;
  entry.count = result.value();
  entry.coverage = window;
  cache_.Insert(key, std::move(entry));
  return result;
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
  return Materialize(server_.store(), hits.value());
}

Result<StandingCountPart> Shard::StandingCount(ContinuousQueryId id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto info = continuous_.Info(id);
  if (!info.ok()) return info.status();
  if (info.value().spec.kind != QueryKind::kPublicCount)
    return Status::NotFound("not a standing count");
  StandingCountPart part;
  part.generation = info.value().generation;
  for (const CountContribution& c :
       ScanCountContributions(server_.store(), info.value().spec.window)) {
    if (c.probability > 0.0) part.contributions.push_back(c);
  }
  std::sort(part.contributions.begin(), part.contributions.end(),
            [](const CountContribution& a, const CountContribution& b) {
              return a.pseudonym < b.pseudonym;
            });
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
  auto specs = continuous_.RegisteredSpecs();
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
  CLOAKDB_RETURN_IF_ERROR(config_.durability->WriteCheckpoint(
      storage::EncodeShardSnapshot(snap)));
  // Refresh the sealed-tree sidecar under the same shared hold, so the
  // blobs match the snapshot just written. The sidecar is an accelerator,
  // not a source of truth: a write failure (e.g. more categories than the
  // directory holds) degrades recovery to an STR rebuild, never fails the
  // checkpoint.
  if (!config_.index_blob_path.empty()) {
    std::vector<std::pair<uint32_t, std::string>> blobs;
    for (Category category : server_.store().Categories()) {
      auto index = server_.store().CategoryIndex(category);
      if (index.ok())
        blobs.emplace_back(category, index.value()->SerializeSealedBlob());
    }
    (void)storage::WriteIndexBlobFile(config_.index_blob_path, blobs);
  }
  return Status::OK();
}

Status Shard::CompactPublicIndex() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (Category category : server_.store().Categories()) {
    PublicCategoryIndex* index = server_.store().MutableCategoryIndex(category);
    if (index != nullptr && index->NeedsCompaction())
      CLOAKDB_RETURN_IF_ERROR(index->Compact());
  }
  return Status::OK();
}

Status Shard::RestoreSnapshot(const storage::ShardSnapshot& snapshot) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  CLOAKDB_RETURN_IF_ERROR(anonymizer_->RestoreState(snapshot.anonymizer));
  std::map<Category, std::vector<PublicObject>> by_category;
  for (const PublicObject& o : snapshot.public_objects)
    by_category[o.category].push_back(o);
  // Try to adopt each category's sealed tree straight out of the mmap'd
  // sidecar. The sidecar is untrusted: open, parse, and per-entry
  // verification against the snapshot can each fail, and every failure
  // falls back to the historical STR rebuild below.
  std::shared_ptr<util::MmapFile> sidecar;
  std::map<Category, storage::IndexBlobEntry> sidecar_entries;
  if (!config_.index_blob_path.empty()) {
    auto opened = storage::OpenIndexBlobFile(
        config_.index_blob_path, config_.index_blob_force_read_fallback);
    if (opened.ok()) {
      sidecar = opened.value().file;
      for (const storage::IndexBlobEntry& e : opened.value().entries)
        sidecar_entries[e.category] = e;
      if (config_.sidecar_obs.opens_total != nullptr)
        config_.sidecar_obs.opens_total->Increment();
      if (sidecar->mapped()) {
        if (config_.sidecar_obs.bytes_mapped_total != nullptr)
          config_.sidecar_obs.bytes_mapped_total->Increment(sidecar->size());
      } else if (config_.sidecar_obs.read_fallbacks_total != nullptr) {
        config_.sidecar_obs.read_fallbacks_total->Increment();
      }
    }
  }
  for (auto& [category, objects] : by_category) {
    bool adopted = false;
    auto entry = sidecar_entries.find(category);
    if (entry != sidecar_entries.end()) {
      auto tree = StaticRTree::FromMapped(sidecar, entry->second.offset,
                                          entry->second.length);
      if (tree.ok() &&
          server_.store()
              .AdoptCategorySealed(category, std::move(tree).value(), objects)
              .ok()) {
        adopted = true;
      } else {
        if (config_.sidecar_obs.verify_failures_total != nullptr)
          config_.sidecar_obs.verify_failures_total->Increment();
        if (config_.public_index.obs != nullptr &&
            config_.public_index.obs->rebuilds_total != nullptr)
          config_.public_index.obs->rebuilds_total->Increment();
      }
    }
    if (!adopted) {
      CLOAKDB_RETURN_IF_ERROR(
          server_.store().BulkLoadCategory(category, std::move(objects)));
    }
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
  stats.server = server_.stats();
  stats.ingest = ingest_;
  stats.ingest.updates_enqueued = enqueued_.load(std::memory_order_relaxed);
  stats.queue_depth = queue_.size();
  stats.num_users = anonymizer_->num_users();
  return stats;
}

}  // namespace cloakdb
