#include "core/anonymizer.h"

#include <algorithm>
#include <map>
#include <tuple>

#include "core/grid_cloaking.h"
#include "core/mbr_cloaking.h"
#include "core/multilevel_grid_cloaking.h"
#include "core/naive_cloaking.h"

namespace cloakdb {

Result<CloakingKind> CloakingKindFromName(const std::string& name) {
  for (CloakingKind kind :
       {CloakingKind::kNaive, CloakingKind::kMbr, CloakingKind::kQuadtree,
        CloakingKind::kGrid, CloakingKind::kMultiLevelGrid}) {
    if (name == CloakingKindName(kind)) return kind;
  }
  return Status::InvalidArgument("unknown cloaking algorithm: " + name);
}

const char* CloakingKindName(CloakingKind kind) {
  switch (kind) {
    case CloakingKind::kNaive:
      return "naive";
    case CloakingKind::kMbr:
      return "mbr";
    case CloakingKind::kQuadtree:
      return "quadtree";
    case CloakingKind::kGrid:
      return "grid";
    case CloakingKind::kMultiLevelGrid:
      return "multilevel-grid";
  }
  return "unknown";
}

namespace {

// The multi-level grid cloaker, which serves both pyramid kinds, is the
// pyramid's only reader; every other algorithm runs on the grid alone.
bool ReadsPyramid(CloakingKind kind) {
  return kind == CloakingKind::kQuadtree ||
         kind == CloakingKind::kMultiLevelGrid;
}

}  // namespace

Anonymizer::Anonymizer(const AnonymizerOptions& options)
    : options_(options), pseudonym_rng_(options.pseudonym_seed) {
  ResetSnapshot();
}

void Anonymizer::ResetSnapshot() {
  snapshot_ = std::make_unique<UserSnapshot>(
      options_.space, options_.snapshot, ReadsPyramid(options_.algorithm));
  switch (options_.algorithm) {
    case CloakingKind::kNaive:
      algorithm_ =
          std::make_unique<NaiveCloaking>(snapshot_.get(), options_.policy);
      break;
    case CloakingKind::kMbr:
      algorithm_ =
          std::make_unique<MbrCloaking>(snapshot_.get(), options_.policy);
      break;
    case CloakingKind::kGrid:
      algorithm_ =
          std::make_unique<GridCloaking>(snapshot_.get(), options_.policy);
      break;
    case CloakingKind::kQuadtree:
    case CloakingKind::kMultiLevelGrid:
      algorithm_ = std::make_unique<MultiLevelGridCloaking>(snapshot_.get(),
                                                            options_.policy);
      break;
  }
}

Result<std::unique_ptr<Anonymizer>> Anonymizer::Create(
    const AnonymizerOptions& options) {
  if (options.space.IsEmpty() || options.space.Area() <= 0.0)
    return Status::InvalidArgument("anonymizer space must be non-empty");
  return std::unique_ptr<Anonymizer>(new Anonymizer(options));
}

ObjectId Anonymizer::NewPseudonym() {
  for (;;) {
    ObjectId p = pseudonym_rng_.Next();
    if (p != 0 && used_pseudonyms_.insert(p).second) return p;
  }
}

Status Anonymizer::RegisterUser(UserId user, PrivacyProfile profile) {
  if (users_.count(user) > 0)
    return Status::AlreadyExists("user already registered");
  UserState state;
  state.profile = std::move(profile);
  state.pseudonym = NewPseudonym();
  users_.emplace(user, std::move(state));
  return Status::OK();
}

Status Anonymizer::UpdateProfile(UserId user, PrivacyProfile profile) {
  auto it = users_.find(user);
  if (it == users_.end()) return Status::NotFound("user not registered");
  it->second.profile = std::move(profile);
  it->second.has_cached_region = false;
  return Status::OK();
}

Status Anonymizer::UnregisterUser(UserId user) {
  auto it = users_.find(user);
  if (it == users_.end()) return Status::NotFound("user not registered");
  if (it->second.has_location) {
    CLOAKDB_RETURN_IF_ERROR(snapshot_->Remove(user));
  }
  used_pseudonyms_.erase(it->second.pseudonym);
  users_.erase(it);
  return Status::OK();
}

Result<ObjectId> Anonymizer::PseudonymOf(UserId user) const {
  auto it = users_.find(user);
  if (it == users_.end()) return Status::NotFound("user not registered");
  return it->second.pseudonym;
}

std::optional<uint32_t> Anonymizer::CanReuseCached(
    const UserState& state, const Point& location,
    const PrivacyRequirement& req) const {
  if (!options_.enable_incremental || !state.has_cached_region)
    return std::nullopt;
  const CloakedRegion& prev = state.cached;
  if (!(prev.requirement == req)) return std::nullopt;
  if (!prev.region.Contains(location)) return std::nullopt;
  // Never pin a best-effort region: a region that missed a constraint when
  // it was computed (e.g. the whole space under an infeasible k) must be
  // recomputed so quality recovers as conditions change.
  if (!prev.FullySatisfied()) return std::nullopt;
  // The region must still be k-anonymous against the *current* snapshot,
  // and must not have become grossly over-populated (which would mean a
  // much tighter region is now available — reuse would silently degrade
  // the quality of service).
  size_t count = snapshot_->CountInRect(prev.region);
  if (count < req.k) return std::nullopt;
  if (count > 2 * static_cast<size_t>(std::max(prev.achieved_k, 1u)))
    return std::nullopt;
  return static_cast<uint32_t>(count);
}

Result<CloakedRegion> Anonymizer::ComputeCloak(
    UserId user, const Point& location, const PrivacyRequirement& req) const {
  return algorithm_->Cloak(user, location, req);
}

ObjectId Anonymizer::MaybeRotatePseudonym(UserState* state) {
  if (options_.pseudonym_rotation_period == 0) return 0;
  ++state->updates_since_rotation;
  if (state->updates_since_rotation < options_.pseudonym_rotation_period)
    return 0;
  state->updates_since_rotation = 0;
  ObjectId retired = state->pseudonym;
  state->pseudonym = NewPseudonym();
  return retired;
}

CloakedUpdate Anonymizer::FinishUpdate(UserState* state, CloakedRegion region,
                                       bool reused, bool shared) {
  ++stats_.updates;
  if (reused) {
    ++stats_.incremental_reuses;
  } else if (shared) {
    ++stats_.shared_reuses;
  } else {
    ++stats_.cloaks_computed;
  }
  if (!region.FullySatisfied()) ++stats_.unsatisfied;
  if (!reused) {
    // Cache only freshly computed regions: refreshing the cached copy on
    // every reuse would ratchet achieved_k upward and defeat the
    // over-population check in CanReuseCached.
    state->cached = region;
    state->has_cached_region = true;
  }
  CloakedUpdate update;
  update.retired_pseudonym = MaybeRotatePseudonym(state);
  update.pseudonym = state->pseudonym;
  update.cloaked = std::move(region);
  update.reused_previous = reused;
  update.shared = shared;
  return update;
}

Result<CloakedUpdate> Anonymizer::UpdateLocation(UserId user,
                                                 const Point& location,
                                                 TimeOfDay now) {
  auto it = users_.find(user);
  if (it == users_.end()) return Status::NotFound("user not registered");
  if (!options_.space.Contains(location))
    return Status::OutOfRange("location outside the anonymizer space");
  UserState& state = it->second;

  if (state.has_location) {
    CLOAKDB_RETURN_IF_ERROR(snapshot_->Move(user, location));
  } else {
    CLOAKDB_RETURN_IF_ERROR(snapshot_->Insert(user, location));
    state.has_location = true;
  }
  state.location = location;

  PrivacyRequirement req = state.profile.Resolve(now);
  if (auto count = CanReuseCached(state, location, req)) {
    CloakedRegion region = state.cached;
    region.achieved_k = *count;
    region.k_satisfied = region.achieved_k >= req.k;
    return FinishUpdate(&state, std::move(region), /*reused=*/true,
                        /*shared=*/false);
  }

  auto region = ComputeCloak(user, location, req);
  if (!region.ok()) return region.status();
  return FinishUpdate(&state, std::move(region).value(), /*reused=*/false,
                      /*shared=*/false);
}

Result<std::vector<CloakedUpdate>> Anonymizer::UpdateLocationsBatch(
    const std::vector<std::pair<UserId, Point>>& updates, TimeOfDay now) {
  // Phase 0: validate the whole batch before touching any state, so a bad
  // entry anywhere in the batch leaves no partial snapshot changes behind.
  for (const auto& [user, location] : updates) {
    if (users_.find(user) == users_.end())
      return Status::NotFound("user not registered in batch update");
    if (!options_.space.Contains(location))
      return Status::OutOfRange("location outside the anonymizer space");
  }

  // Phase 1: apply every snapshot change.
  for (const auto& [user, location] : updates) {
    UserState& state = users_.find(user)->second;
    if (state.has_location) {
      CLOAKDB_RETURN_IF_ERROR(snapshot_->Move(user, location));
    } else {
      CLOAKDB_RETURN_IF_ERROR(snapshot_->Insert(user, location));
      state.has_location = true;
    }
    state.location = location;
  }

  // Phase 2: cloak against the settled snapshot, sharing per-group work.
  const bool reads_pyramid = ReadsPyramid(options_.algorithm);
  const bool share =
      options_.enable_shared_execution &&
      (options_.algorithm == CloakingKind::kGrid || reads_pyramid);

  // Group key: (algorithm base cell, requirement) -> the group's region.
  // The base cell must come from the structure the algorithm partitions by
  // (grid cell for kGrid, finest pyramid cell for the pyramid kinds) so the
  // shared region is guaranteed to contain every group member.
  using GroupKey = std::tuple<uint32_t, uint32_t, uint32_t, double, double>;
  std::map<GroupKey, CloakedRegion> groups;
  auto base_cell = [&](const Point& p) -> std::pair<uint32_t, uint32_t> {
    if (reads_pyramid) {
      PyramidCell c =
          snapshot_->pyramid().CellAt(snapshot_->pyramid().height(), p);
      return {c.cx, c.cy};
    }
    const GridIndex& grid = snapshot_->grid();
    return {grid.CellX(p.x), grid.CellY(p.y)};
  };

  std::vector<CloakedUpdate> out;
  out.reserve(updates.size());
  for (const auto& [user, location] : updates) {
    UserState& state = users_.at(user);
    PrivacyRequirement req = state.profile.Resolve(now);

    if (auto count = CanReuseCached(state, location, req)) {
      CloakedRegion region = state.cached;
      region.achieved_k = *count;
      region.k_satisfied = region.achieved_k >= req.k;
      out.push_back(FinishUpdate(&state, std::move(region), /*reused=*/true,
                                 /*shared=*/false));
      continue;
    }

    if (share) {
      auto [cell_x, cell_y] = base_cell(location);
      GroupKey key{cell_x, cell_y, req.k, req.min_area, req.max_area};
      auto git = groups.find(key);
      if (git != groups.end()) {
        // The shared region covers the whole cell, hence every group
        // member; only the per-user flags are already identical.
        out.push_back(FinishUpdate(&state, git->second, /*reused=*/false,
                                   /*shared=*/true));
        continue;
      }
      auto region = ComputeCloak(user, location, req);
      if (!region.ok()) return region.status();
      groups.emplace(key, region.value());
      out.push_back(FinishUpdate(&state, std::move(region).value(),
                                 /*reused=*/false, /*shared=*/false));
      continue;
    }

    auto region = ComputeCloak(user, location, req);
    if (!region.ok()) return region.status();
    out.push_back(FinishUpdate(&state, std::move(region).value(),
                               /*reused=*/false, /*shared=*/false));
  }
  return out;
}

Result<CloakedUpdate> Anonymizer::CloakForQuery(UserId user, TimeOfDay now) {
  auto it = users_.find(user);
  if (it == users_.end()) return Status::NotFound("user not registered");
  UserState& state = it->second;
  if (!state.has_location)
    return Status::FailedPrecondition(
        "user has not reported a location yet");

  PrivacyRequirement req = state.profile.Resolve(now);
  if (auto count = CanReuseCached(state, state.location, req)) {
    CloakedRegion region = state.cached;
    region.achieved_k = *count;
    region.k_satisfied = region.achieved_k >= req.k;
    return FinishUpdate(&state, std::move(region), /*reused=*/true,
                        /*shared=*/false);
  }
  auto region = ComputeCloak(user, state.location, req);
  if (!region.ok()) return region.status();
  return FinishUpdate(&state, std::move(region).value(), /*reused=*/false,
                      /*shared=*/false);
}

AnonymizerState Anonymizer::ExportState() const {
  AnonymizerState out;
  out.users.reserve(users_.size());
  for (const auto& [user, state] : users_) {
    ExportedUserState e;
    e.user = user;
    e.profile = state.profile.entries();
    e.pseudonym = state.pseudonym;
    e.has_location = state.has_location;
    e.location = state.location;
    e.has_cached_region = state.has_cached_region;
    e.cached = state.cached;
    e.updates_since_rotation = state.updates_since_rotation;
    out.users.push_back(std::move(e));
  }
  std::sort(out.users.begin(), out.users.end(),
            [](const ExportedUserState& a, const ExportedUserState& b) {
              return a.user < b.user;
            });
  out.used_pseudonyms.assign(used_pseudonyms_.begin(), used_pseudonyms_.end());
  std::sort(out.used_pseudonyms.begin(), out.used_pseudonyms.end());
  out.pseudonym_rng = pseudonym_rng_.SaveState();
  out.stats = stats_;
  return out;
}

Status Anonymizer::RestoreState(const AnonymizerState& state) {
  // Start from scratch: restore replaces, never merges.
  users_.clear();
  used_pseudonyms_.clear();
  ResetSnapshot();
  for (const ExportedUserState& e : state.users) {
    auto profile = PrivacyProfile::Create(e.profile);
    if (!profile.ok()) return profile.status();
    UserState s;
    s.profile = std::move(profile).value();
    s.pseudonym = e.pseudonym;
    s.has_location = e.has_location;
    s.location = e.location;
    s.has_cached_region = e.has_cached_region;
    s.cached = e.cached;
    s.updates_since_rotation = e.updates_since_rotation;
    if (e.has_location) {
      CLOAKDB_RETURN_IF_ERROR(snapshot_->Insert(e.user, e.location));
    }
    if (!users_.emplace(e.user, std::move(s)).second) {
      return Status::MalformedRequest("duplicate user in anonymizer state");
    }
  }
  used_pseudonyms_.insert(state.used_pseudonyms.begin(),
                          state.used_pseudonyms.end());
  pseudonym_rng_.LoadState(state.pseudonym_rng);
  stats_ = state.stats;
  return Status::OK();
}

}  // namespace cloakdb
