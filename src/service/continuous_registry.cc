#include "service/continuous_registry.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <utility>

#include "obs/trace.h"
#include "server/dominance.h"

namespace cloakdb {

namespace {

/// The closed ball around `center` lies inside `rect` (a ball is inside a
/// rectangle iff its bounding square is).
bool BallInside(const Point& center, double radius, const Rect& rect) {
  return center.x - radius >= rect.min_x && center.x + radius <= rect.max_x &&
         center.y - radius >= rect.min_y && center.y + radius <= rect.max_y;
}

/// Candidates entering plus leaving between two id-sorted answers.
uint64_t SymmetricDelta(const std::vector<PublicObject>& a,
                        const std::vector<PublicObject>& b) {
  size_t i = 0, j = 0;
  uint64_t delta = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].id == b[j].id) {
      ++i;
      ++j;
    } else if (a[i].id < b[j].id) {
      ++delta;
      ++i;
    } else {
      ++delta;
      ++j;
    }
  }
  return delta + (a.size() - i) + (b.size() - j);
}

/// One evaluation of a standing spec at `region` over a fetched superset.
/// For NN/kNN with more than k objects fetched it computes the k-th nearest
/// fetched distance from each region corner once, so the coverage gate and
/// the refilter of one update share them. The k-th order statistic is
/// taken over squared distances: sqrt is monotone and correctly rounded, so
/// sqrt(k-th d^2) is bit-identical to the k-th of the square roots.
class StandingKernel {
 public:
  StandingKernel(const ContinuousSpec& spec, const Rect& region,
                 const std::vector<PublicObject>& fetched)
      : spec_(spec),
        region_(region),
        fetched_(fetched),
        k_(StandingK(spec)),
        reach_(spec.kind == QueryKind::kPrivateRange
                   ? spec.radius
                   : std::numeric_limits<double>::infinity()) {
    if (spec.kind == QueryKind::kPrivateRange || fetched.size() <= k_) return;
    corners_ = region.Corners();
    double max_kth = 0.0;
    std::vector<double> sq;
    if (k_ > 1) sq.resize(fetched.size());
    for (size_t c = 0; c < corners_.size(); ++c) {
      const Point& from = corners_[c];
      auto dist_sq = [&from](const PublicObject& o) {
        const double dx = o.location.x - from.x;
        const double dy = o.location.y - from.y;
        return dx * dx + dy * dy;
      };
      double kth_sq = std::numeric_limits<double>::infinity();
      if (k_ == 1) {
        for (const auto& o : fetched) kth_sq = std::min(kth_sq, dist_sq(o));
      } else {
        for (size_t i = 0; i < fetched.size(); ++i) sq[i] = dist_sq(fetched[i]);
        std::nth_element(sq.begin(), sq.begin() + (k_ - 1), sq.end());
        kth_sq = sq[k_ - 1];
      }
      kth_[c] = std::sqrt(kth_sq);
      max_kth = std::max(max_kth, kth_[c]);
    }
    reach_ = max_kth + region.HalfDiagonal();
  }

  /// See StandingCoverageHolds.
  bool CoverageHolds(const Rect& coverage) const {
    if (spec_.kind == QueryKind::kPrivateRange)
      return coverage.Contains(region_.Expanded(spec_.radius));
    // Pigeonhole snapshot (the fetch holds the whole category): every
    // object is a candidate for any region the coverage contains.
    if (fetched_.size() <= k_) return coverage.Contains(region_);
    // The cached corner distances are exact only when each corner's k-th
    // candidate ball is fully fetched; the conservative reach built from
    // them must then also stay inside the coverage.
    for (size_t c = 0; c < corners_.size(); ++c) {
      if (!BallInside(corners_[c], kth_[c], coverage)) return false;
    }
    return coverage.Contains(region_.Expanded(reach_));
  }

  /// See ComputeStandingAnswer.
  std::vector<PublicObject> Answer(double* fetch_radius) const {
    const bool range = spec_.kind == QueryKind::kPrivateRange;
    // A pigeonhole snapshot keeps everything and reports radius 0.
    if (fetch_radius != nullptr)
      *fetch_radius = range || std::isinf(reach_) ? 0.0 : reach_;
    const Refined<PublicObject> refined =
        RefineHits({.kind = range ? RefineKind::kRange : RefineKind::kNearest,
                    .cloaked = region_,
                    .reach = reach_,
                    .k = k_},
                   fetched_);
    std::vector<PublicObject> answer;
    answer.reserve(refined.survivors.size());
    for (const PublicObject* o : refined.survivors) answer.push_back(*o);
    return answer;
  }

 private:
  const ContinuousSpec& spec_;
  const Rect& region_;
  const std::vector<PublicObject>& fetched_;
  const size_t k_;
  std::array<Point, 4> corners_{};
  std::array<double, 4> kth_{};
  /// Range: the radius. NN/kNN: the conservative fetch radius built from
  /// the corner distances, +infinity for a pigeonhole snapshot.
  double reach_;
};

}  // namespace

size_t StandingK(const ContinuousSpec& spec) {
  if (spec.kind == QueryKind::kPrivateNn) return 1;
  return spec.k == 0 ? 1 : spec.k;
}

bool StandingCoverageHolds(const ContinuousSpec& spec, const Rect& region,
                           const StandingSnapshot& snap) {
  return StandingKernel(spec, region, snap.fetched)
      .CoverageHolds(snap.coverage);
}

std::vector<PublicObject> ComputeStandingAnswer(
    const ContinuousSpec& spec, const Rect& region,
    const std::vector<PublicObject>& fetched, double* fetch_radius) {
  return StandingKernel(spec, region, fetched).Answer(fetch_radius);
}

ContinuousShardRegistry::ContinuousShardRegistry(
    const ContinuousRegistryOptions& options, const ContinuousObs& obs)
    : options_(options), obs_(obs) {}

void ContinuousShardRegistry::MarkStaleLocked(ContinuousQueryId id) {
  auto it = private_.find(id);
  if (it == private_.end()) return;
  ++it->second.epoch;
  if (!it->second.stale) {
    it->second.stale = true;
    stale_queue_.push_back(id);
    if (obs_.stale_marked != nullptr) obs_.stale_marked->Increment();
  }
}

Status ContinuousShardRegistry::InsertPrivate(ContinuousQueryId id,
                                              const ContinuousSpec& spec,
                                              const Rect& region,
                                              StandingSnapshot snap,
                                              uint64_t expected_version) {
  std::lock_guard<std::mutex> lock(mu_);
  if (private_.count(id) != 0)
    return Status::AlreadyExists("continuous query id already registered");
  PrivateEntry entry;
  entry.spec = spec;
  entry.region = region;
  entry.snap = std::move(snap);
  const bool needs_repair =
      entry.snap.degraded ||
      public_version_.load(std::memory_order_acquire) != expected_version;
  private_.emplace(id, std::move(entry));
  by_user_[spec.issuer].push_back(id);
  total_.fetch_add(1, std::memory_order_relaxed);
  if (obs_.registered != nullptr) obs_.registered->Add(1.0);
  if (needs_repair) MarkStaleLocked(id);
  return Status::OK();
}

Status ContinuousShardRegistry::RefreshRegion(ContinuousQueryId id,
                                              const Rect& region) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = private_.find(id);
  if (it == private_.end())
    return Status::NotFound("unknown continuous query");
  if (it->second.region == region) return Status::OK();
  // A drain slipped a newer region in before the query was registered;
  // adopt it and let the sweep rebuild the answer.
  it->second.region = region;
  MarkStaleLocked(id);
  return Status::OK();
}

Status ContinuousShardRegistry::Remove(ContinuousQueryId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = private_.find(id);
  if (it == private_.end())
    return Status::NotFound("unknown continuous query");
  auto& ids = by_user_[it->second.spec.issuer];
  ids.erase(std::remove(ids.begin(), ids.end(), id), ids.end());
  if (ids.empty()) by_user_.erase(it->second.spec.issuer);
  private_.erase(it);
  total_.fetch_sub(1, std::memory_order_relaxed);
  if (obs_.registered != nullptr) obs_.registered->Add(-1.0);
  return Status::OK();
}

bool ContinuousShardRegistry::TouchPrivateLocked(ContinuousQueryId id,
                                                 PrivateEntry* entry,
                                                 const Rect& new_region) {
  if (entry->region == new_region) return false;  // Reused cloak: no-op.
  entry->region = new_region;
  ++entry->epoch;
  if (entry->stale) return true;  // Already queued; sweep sees new region.
  if (options_.force_full_reeval) {
    MarkStaleLocked(id);
    return true;
  }
  // One kernel per touch: the gate and the refilter share its corner
  // distances.
  const StandingKernel kernel(entry->spec, new_region, entry->snap.fetched);
  if (!kernel.CoverageHolds(entry->snap.coverage)) {
    MarkStaleLocked(id);
    return true;
  }
  auto fresh = kernel.Answer(&entry->snap.fetch_radius);
  if (obs_.incremental_refilters != nullptr)
    obs_.incremental_refilters->Increment();
  const uint64_t delta = SymmetricDelta(entry->snap.current, fresh);
  if (delta > 0) {
    if (obs_.delta_candidates != nullptr)
      obs_.delta_candidates->Increment(delta);
    ++entry->generation;
    entry->snap.current = std::move(fresh);
  }
  return true;
}

void ContinuousShardRegistry::OnLocationUpdate(UserId user,
                                               const Rect& new_region,
                                               size_t count_bumps) {
  std::lock_guard<std::mutex> lock(mu_);
  if (obs_.updates_seen != nullptr) obs_.updates_seen->Increment();
  uint64_t affected = count_bumps;
  size_t refiltered = 0;
  size_t staled = 0;
  if (auto it = by_user_.find(user); it != by_user_.end()) {
    for (ContinuousQueryId id : it->second) {
      auto entry = private_.find(id);
      if (entry == private_.end()) continue;
      const bool was_stale = entry->second.stale;
      if (TouchPrivateLocked(id, &entry->second, new_region)) {
        ++affected;
        if (entry->second.stale && !was_stale) ++staled;
        else if (!entry->second.stale) ++refiltered;
      }
    }
  }
  if (obs_.affected_per_update != nullptr)
    obs_.affected_per_update->Record(static_cast<double>(affected));
  if (affected > 0) {
    obs::TraceSpan span(obs::CurrentTraceContext(), "cq.incremental");
    if (span.active()) {
      span.AddAttr("affected", static_cast<double>(affected));
      span.AddAttr("refiltered", static_cast<double>(refiltered));
      span.AddAttr("staled", static_cast<double>(staled));
    }
  }
}

void ContinuousShardRegistry::OnPublicChanged(const Point& location,
                                              Category category) {
  std::lock_guard<std::mutex> lock(mu_);
  public_version_.fetch_add(1, std::memory_order_acq_rel);
  for (auto& [id, entry] : private_) {
    if (entry.spec.category == category &&
        entry.snap.coverage.Contains(location))
      MarkStaleLocked(id);
  }
}

void ContinuousShardRegistry::OnCategoryReloaded(Category category) {
  std::lock_guard<std::mutex> lock(mu_);
  public_version_.fetch_add(1, std::memory_order_acq_rel);
  for (auto& [id, entry] : private_) {
    if (entry.spec.category == category) MarkStaleLocked(id);
  }
}

Result<StandingAnswer> ContinuousShardRegistry::Answer(
    ContinuousQueryId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = private_.find(id);
  if (it == private_.end())
    return Status::NotFound("unknown continuous query");
  StandingAnswer answer;
  answer.kind = it->second.spec.kind;
  answer.candidates = it->second.snap.current;
  answer.generation = it->second.generation;
  answer.stale = it->second.stale;
  answer.degraded = it->second.snap.degraded;
  answer.covered_shards = it->second.snap.covered_shards;
  return answer;
}

Result<ContinuousQueryInfo> ContinuousShardRegistry::Info(
    ContinuousQueryId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = private_.find(id);
  if (it == private_.end())
    return Status::NotFound("unknown continuous query");
  ContinuousQueryInfo info;
  info.spec = it->second.spec;
  info.region = it->second.region;
  info.coverage = it->second.snap.coverage;
  info.stale = it->second.stale;
  info.degraded = it->second.snap.degraded;
  info.generation = it->second.generation;
  info.answer_size = it->second.snap.current.size();
  return info;
}

std::vector<std::pair<ContinuousQueryId, ContinuousSpec>>
ContinuousShardRegistry::RegisteredSpecs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<ContinuousQueryId, ContinuousSpec>> specs;
  specs.reserve(private_.size());
  for (const auto& [id, entry] : private_) specs.emplace_back(id, entry.spec);
  return specs;
}

std::vector<StaleEntry> ContinuousShardRegistry::TakeStale(size_t max) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<StaleEntry> taken;
  size_t kept = 0;
  for (size_t i = 0; i < stale_queue_.size(); ++i) {
    const ContinuousQueryId id = stale_queue_[i];
    if (taken.size() >= max) {
      stale_queue_[kept++] = id;
      continue;
    }
    if (auto it = private_.find(id); it != private_.end() &&
        it->second.stale) {
      it->second.stale = false;
      taken.push_back({id, it->second.spec, it->second.region,
                       it->second.epoch});
    }
  }
  stale_queue_.resize(kept);
  repairs_inflight_.fetch_add(taken.size(), std::memory_order_acq_rel);
  return taken;
}

void ContinuousShardRegistry::Restore(ContinuousQueryId id, uint64_t epoch,
                                      StandingSnapshot snap) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = private_.find(id);
  if (it == private_.end()) return;
  if (it->second.epoch != epoch || it->second.stale) return;  // Moved on.
  if (SymmetricDelta(it->second.snap.current, snap.current) > 0)
    ++it->second.generation;
  it->second.snap = std::move(snap);
}

void ContinuousShardRegistry::RepairFailed(ContinuousQueryId id,
                                           uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = private_.find(id);
  if (it == private_.end()) return;
  if (it->second.epoch != epoch || it->second.stale) return;
  it->second.snap.current.clear();
  it->second.snap.fetched.clear();
  it->second.snap.degraded = true;
  ++it->second.generation;
}

}  // namespace cloakdb
