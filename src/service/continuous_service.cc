// Continuous-query members of CloakDbService: registration through the
// admission + trace path, the standing full evaluation (fan-out over the
// stripes a coverage rectangle overlaps), answer/introspection reads, and
// the stale-repair sweep that idle workers and Flush() drive.
//
// The split from cloak_db_service.cc is purely structural — same class,
// same locking rules (shard lock before registry mutex, sweep evaluates
// with no locks held).

#include <utility>

#include "obs/scoped_timer.h"
#include "server/id_order.h"
#include "service/cloak_db_service.h"
#include "service/root_trace.h"
#include "util/poisson_binomial.h"

namespace cloakdb {

Result<ContinuousQueryId> CloakDbService::RegisterContinuousRange(
    UserId user, double radius, Category category) {
  if (!(radius > 0.0))
    return Status::InvalidArgument("query radius must be positive");
  ContinuousSpec spec;
  spec.kind = QueryKind::kPrivateRange;
  spec.issuer = user;
  spec.radius = radius;
  spec.category = category;
  return RegisterContinuousImpl(spec);
}

Result<ContinuousQueryId> CloakDbService::RegisterContinuousNn(
    UserId user, Category category) {
  ContinuousSpec spec;
  spec.kind = QueryKind::kPrivateNn;
  spec.issuer = user;
  spec.k = 1;
  spec.category = category;
  return RegisterContinuousImpl(spec);
}

Result<ContinuousQueryId> CloakDbService::RegisterContinuousKnn(
    UserId user, size_t k, Category category) {
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  ContinuousSpec spec;
  spec.kind = QueryKind::kPrivateKnn;
  spec.issuer = user;
  spec.k = k;
  spec.category = category;
  return RegisterContinuousImpl(spec);
}

Result<ContinuousQueryId> CloakDbService::RegisterContinuousImpl(
    const ContinuousSpec& spec) {
  RootTrace trace(tracer_.get(), "cq.register");
  obs::ScopedTraceContext scope(trace.context());
  obs::ScopedTimer timer(cq_obs_.register_latency_us);
  Admission admission = AdmitQuery();
  if (!admission.status.ok()) return admission.status;
  if (admission.degraded_admission) trace.AddAttr("degraded_admission", 1.0);

  Shard& home = *shards_[ShardOfUser(spec.issuer)];
  auto region = home.CurrentRegionOfUser(spec.issuer);
  if (!region.ok()) return region.status();
  ContinuousShardRegistry& registry = home.continuous();

  // Capture the public version before evaluating: a public-data change
  // that lands mid-evaluation makes the snapshot unstamped-stale.
  const uint64_t version = registry.public_version();
  auto snap = EvaluateStanding(spec, region.value(), admission.deadline,
                               admission.shard_budget);
  if (!snap.ok()) return snap.status();

  const ContinuousQueryId id =
      next_cq_id_.fetch_add(1, std::memory_order_relaxed);
  trace.AddAttr("cq_id", static_cast<double>(id));
  CLOAKDB_RETURN_IF_ERROR(registry.InsertPrivate(
      id, spec, region.value(), std::move(snap).value(), version));
  // A drain may have applied a newer region between evaluation and
  // insertion (the registry was empty, so it was not notified): adopt it.
  auto region2 = home.CurrentRegionOfUser(spec.issuer);
  if (region2.ok()) (void)registry.RefreshRegion(id, region2.value());
  // Logged after the registration sticks: a crash in between loses an
  // unacknowledged registration, which the client retries anyway.
  (void)home.LogCqRegister(id, spec);

  {
    std::lock_guard<std::mutex> lock(cq_mu_);
    cq_routes_[id] = CqRoute{spec.kind, ShardOfUser(spec.issuer)};
  }
  if (cq_obs_.registrations != nullptr) cq_obs_.registrations->Increment();
  return id;
}

Result<ContinuousQueryId> CloakDbService::RegisterContinuousCount(
    const Rect& window) {
  if (window.IsEmpty())
    return Status::InvalidArgument("count window must be non-empty");
  if (!window.Intersects(options_.space))
    return Status::InvalidArgument(
        "count window must intersect the service space");
  RootTrace trace(tracer_.get(), "cq.register");
  obs::ScopedTraceContext scope(trace.context());
  obs::ScopedTimer timer(cq_obs_.register_latency_us);
  Admission admission = AdmitQuery();
  if (!admission.status.ok()) return admission.status;

  const ContinuousQueryId id =
      next_cq_id_.fetch_add(1, std::memory_order_relaxed);
  trace.AddAttr("cq_id", static_cast<double>(id));
  // Users are hash-scattered, so the window is held on every shard and
  // each shard's part merges exactly at read time. Ids are never reused,
  // so no shard can refuse it.
  for (const auto& shard : shards_)
    (void)shard->count_windows().Register(id, window);
  // Logged on every shard so recovery of any one shard's WAL resurrects
  // the window there; the service-level union dedupes across shards.
  ContinuousSpec spec;
  spec.kind = QueryKind::kPublicCount;
  spec.window = window;
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    (void)shards_[s]->LogCqRegister(id, spec);
  }
  {
    std::lock_guard<std::mutex> lock(cq_mu_);
    cq_routes_[id] = CqRoute{QueryKind::kPublicCount, 0};
  }
  if (cq_obs_.registrations != nullptr) cq_obs_.registrations->Increment();
  return id;
}

Result<StandingSnapshot> CloakDbService::EvaluateStanding(
    const ContinuousSpec& spec, const Rect& region, Deadline deadline,
    uint32_t shard_budget) const {
  StandingSnapshot snap;
  double reach = 0.0;
  bool whole_space = false;
  if (spec.kind == QueryKind::kPrivateRange) {
    reach = spec.radius;
  } else {
    // Conservative k-NN fetch reach: any one shard that can cover k
    // category objects within r proves the global k-th neighbour lies
    // within r of the region, so the tightest per-shard reach bounds the
    // fetch. No shard reporting a positive reach means every shard holds
    // at most k objects — fetch the whole category (pigeonhole answer).
    const size_t k = StandingK(spec);
    bool category_seen = false;
    double best = 0.0;
    for (const auto& shard : shards_) {
      auto r = shard->KnnReach(region, k, spec.category);
      if (!r.ok()) continue;  // Category absent on this shard.
      category_seen = true;
      if (r.value() > 0.0 && (best == 0.0 || r.value() < best))
        best = r.value();
    }
    if (!category_seen) return Status::NotFound("unknown category");
    if (best == 0.0) {
      whole_space = true;
    } else {
      reach = best;
    }
  }
  snap.fetch_radius = reach;
  snap.coverage = whole_space
                      ? options_.space
                      : region.Expanded(reach + options_.continuous.slack_margin);

  // Fan out over the stripes the coverage overlaps; stripes beyond it hold
  // nothing the standing answer can ever need (their x-distance exceeds
  // the fetch reach), so they count as covered.
  std::vector<std::vector<PublicObject>> parts;  // Id-sorted, per stripe.
  const FanoutGuard guard = FanOut(
      StripeRangeOf(snap.coverage), deadline, shard_budget,
      [&](uint32_t s, obs::TraceSpan* probe_span) -> Status {
        auto part = shards_[s]->ProbeRegion(snap.coverage, spec.category);
        if (!part.ok()) return part.status();
        probe_span->AddAttr("candidates",
                            static_cast<double>(part.value().size()));
        parts.push_back(std::move(part).value());
        return Status::OK();
      });
  if (parts.empty()) {
    if (guard.degraded) return guard.EmptyError();
    // Every probed stripe lacks the category; it may still exist beyond
    // the coverage (range queries with a short radius).
    bool exists_elsewhere = false;
    for (const auto& shard : shards_) {
      if (shard->HasCategory(spec.category)) {
        exists_elsewhere = true;
        break;
      }
    }
    if (!exists_elsewhere) return Status::NotFound("unknown category");
  }
  // Each part is id-sorted and the stripes hold disjoint objects, so the
  // merge equals the sorted concatenation.
  snap.fetched = MergeSortedById(std::move(parts));
  snap.degraded = guard.degraded;
  snap.covered_shards = guard.covered;
  snap.current = ComputeStandingAnswer(spec, region, snap.fetched, nullptr);
  return snap;
}

Result<StandingAnswer> CloakDbService::AnswerContinuous(
    ContinuousQueryId id) const {
  CqRoute route;
  {
    std::lock_guard<std::mutex> lock(cq_mu_);
    auto it = cq_routes_.find(id);
    if (it == cq_routes_.end())
      return Status::NotFound("unknown continuous query id");
    route = it->second;
  }
  if (route.kind != QueryKind::kPublicCount)
    return shards_[route.shard]->continuous().Answer(id);

  StandingAnswer answer;
  answer.kind = QueryKind::kPublicCount;
  std::vector<std::vector<CountContribution>> parts;
  for (const auto& shard : shards_) {
    auto part = shard->StandingCount(id);
    if (!part.ok()) return part.status();
    parts.push_back(std::move(part.value().contributions));
    answer.generation += part.value().generation;
  }
  // Merged in pseudonym order, like a one-shot count over the same state.
  answer.contributions = MergeSorted(std::move(parts), ByPseudonym{});
  auto count = MakeCountAnswer(CountProbabilities(answer.contributions));
  if (!count.ok()) return count.status();
  answer.count = std::move(count).value();
  return answer;
}

Result<ContinuousQueryInfo> CloakDbService::ContinuousInfo(
    ContinuousQueryId id) const {
  CqRoute route;
  {
    std::lock_guard<std::mutex> lock(cq_mu_);
    auto it = cq_routes_.find(id);
    if (it == cq_routes_.end())
      return Status::NotFound("unknown continuous query id");
    route = it->second;
  }
  if (route.kind != QueryKind::kPublicCount)
    return shards_[route.shard]->continuous().Info(id);
  ContinuousQueryInfo merged;
  merged.spec.kind = QueryKind::kPublicCount;
  for (const auto& shard : shards_) {
    auto part = shard->StandingCount(id);
    if (!part.ok()) return part.status();
    merged.spec.window = part.value().window;
    merged.generation += part.value().generation;
    merged.answer_size += part.value().contributions.size();
  }
  return merged;
}

Status CloakDbService::UnregisterContinuous(ContinuousQueryId id) {
  CqRoute route;
  {
    std::lock_guard<std::mutex> lock(cq_mu_);
    auto it = cq_routes_.find(id);
    if (it == cq_routes_.end())
      return Status::NotFound("unknown continuous query id");
    route = it->second;
    cq_routes_.erase(it);
  }
  if (route.kind == QueryKind::kPublicCount) {
    for (const auto& shard : shards_) {
      (void)shard->count_windows().Unregister(id);
      (void)shard->LogCqUnregister(id);
    }
  } else {
    (void)shards_[route.shard]->continuous().Remove(id);
    (void)shards_[route.shard]->LogCqUnregister(id);
  }
  if (cq_obs_.unregistrations != nullptr)
    cq_obs_.unregistrations->Increment();
  return Status::OK();
}

size_t CloakDbService::NumContinuousQueries() const {
  std::lock_guard<std::mutex> lock(cq_mu_);
  return cq_routes_.size();
}

size_t CloakDbService::SweepShardContinuous(uint32_t shard, size_t max) {
  ContinuousShardRegistry& registry = shards_[shard]->continuous();
  std::vector<StaleEntry> stale = registry.TakeStale(max);
  for (const StaleEntry& entry : stale) {
    RootTrace trace(tracer_.get(), "cq.full_reeval");
    obs::ScopedTraceContext scope(trace.context());
    trace.AddAttr("cq_id", static_cast<double>(entry.id));
    // No locks held: the evaluation fans out like a registration; a
    // mutation that lands meanwhile bumps the epoch and the restore is
    // discarded (the entry is already queued again).
    auto snap = EvaluateStanding(entry.spec, entry.region, Deadline(), 0);
    if (snap.ok() && !snap.value().degraded) {
      registry.Restore(entry.id, entry.epoch, std::move(snap).value());
    } else {
      registry.RepairFailed(entry.id, entry.epoch);
    }
    if (cq_obs_.full_reevals != nullptr) cq_obs_.full_reevals->Increment();
    registry.RepairSettled();
  }
  return stale.size();
}

size_t CloakDbService::SweepContinuousStale() {
  size_t swept = 0;
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    swept += SweepShardContinuous(s, 64);
  }
  return swept;
}

}  // namespace cloakdb
