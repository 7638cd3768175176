#include "service/count_windows.h"

#include <cstring>

#include "util/random.h"

namespace cloakdb {

namespace {

constexpr uint32_t kWindowGridCells = 64;  ///< Window-grid cells per side.

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  v += 0.0;  // -0.0 and 0.0 compare equal, so they must hash equal.
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

}  // namespace

size_t CountWindows::RectHash::operator()(const Rect& rect) const {
  uint64_t h = Mix64(DoubleBits(rect.min_x));
  h = Mix64(h ^ DoubleBits(rect.min_y));
  h = Mix64(h ^ DoubleBits(rect.max_x));
  h = Mix64(h ^ DoubleBits(rect.max_y));
  return static_cast<size_t>(h);
}

CountWindows::CountWindows(const Rect& space, size_t capacity,
                           const CountWindowsObs& obs)
    : capacity_(capacity), obs_(obs), grid_(space, kWindowGridCells) {}

CountWindows::Window& CountWindows::HoldLocked(const Rect& window) {
  auto [it, inserted] = windows_.try_emplace(window);
  if (inserted) {
    // A window missing the space is refused and needs no cell.
    (void)grid_.Insert(GridId(it->second), window);
    held_.store(windows_.size(), std::memory_order_relaxed);
  }
  return it->second;
}

void CountWindows::ReleaseIfUnusedLocked(WindowMap::iterator it) {
  if (it->second.part != nullptr || it->second.standing > 0) return;
  (void)grid_.Remove(GridId(it->second));
  windows_.erase(it);
  held_.store(windows_.size(), std::memory_order_relaxed);
}

void CountWindows::DropPartLocked(WindowMap::iterator it) {
  lru_.erase(it->second.lru);
  it->second.part.reset();
  ReleaseIfUnusedLocked(it);
}

std::shared_ptr<const PublicCountPart> CountWindows::Lookup(
    const Rect& window) {
  if (capacity_ == 0) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = windows_.find(window);
  if (it == windows_.end() || it->second.part == nullptr) {
    if (obs_.misses != nullptr) obs_.misses->Increment();
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru);
  if (obs_.hits != nullptr) obs_.hits->Increment();
  return it->second.part;
}

void CountWindows::Insert(const Rect& window, const PublicCountPart& part) {
  if (capacity_ == 0 || window.HasNaN()) return;  // NaN never finds itself.
  auto shared = std::make_shared<const PublicCountPart>(part);
  std::lock_guard<std::mutex> lock(mu_);
  Window& entry = HoldLocked(window);
  const bool replacing = entry.part != nullptr;
  entry.part = std::move(shared);
  if (replacing) {
    lru_.splice(lru_.begin(), lru_, entry.lru);
    return;
  }
  lru_.push_front(window);
  entry.lru = lru_.begin();
  if (obs_.insertions != nullptr) obs_.insertions->Increment();
  while (lru_.size() > capacity_) {
    DropPartLocked(windows_.find(lru_.back()));
    if (obs_.lru_evictions != nullptr) obs_.lru_evictions->Increment();
  }
}

Status CountWindows::Register(ContinuousQueryId id, const Rect& window) {
  std::lock_guard<std::mutex> lock(mu_);
  if (standing_.count(id) != 0)
    return Status::AlreadyExists("continuous query id already registered");
  Window& entry = HoldLocked(window);
  ++entry.standing;
  standing_.emplace(id, StandingEntry{window, entry.bumps});
  standing_count_.store(standing_.size(), std::memory_order_relaxed);
  if (obs_.registered != nullptr) obs_.registered->Add(1.0);
  return Status::OK();
}

Status CountWindows::Unregister(ContinuousQueryId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = standing_.find(id);
  if (it == standing_.end())
    return Status::NotFound("unknown continuous query");
  auto window = windows_.find(it->second.window);
  standing_.erase(it);
  standing_count_.store(standing_.size(), std::memory_order_relaxed);
  --window->second.standing;
  ReleaseIfUnusedLocked(window);
  if (obs_.registered != nullptr) obs_.registered->Add(-1.0);
  return Status::OK();
}

Result<StandingCountPart> CountWindows::Standing(ContinuousQueryId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = standing_.find(id);
  if (it == standing_.end()) return Status::NotFound("not a standing count");
  StandingCountPart part;
  part.window = it->second.window;
  part.generation =
      1 + windows_.at(it->second.window).bumps - it->second.base;
  return part;
}

std::vector<std::pair<ContinuousQueryId, Rect>>
CountWindows::StandingWindows() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<ContinuousQueryId, Rect>> windows;
  windows.reserve(standing_.size());
  for (const auto& [id, entry] : standing_)
    windows.emplace_back(id, entry.window);
  return windows;
}

size_t CountWindows::OnRegionChanged(const std::optional<Rect>& old_region,
                                     const std::optional<Rect>& new_region) {
  // A reused cloak changes no scan and no contribution.
  if (old_region == new_region) return 0;
  const Rect hull =
      old_region.value_or(Rect()).Union(new_region.value_or(Rect()));
  std::lock_guard<std::mutex> lock(mu_);
  size_t bumped = 0;
  for (const RectEntry& w : grid_.IntersectingRects(hull)) {
    Window& window = *reinterpret_cast<Window*>(w.id);
    // A scan lists every region meeting the window's closed extent, a
    // boundary touch with p = 0: presence and p together are the part.
    const bool was_in = old_region && old_region->Intersects(w.rect);
    const bool is_in = new_region && new_region->Intersects(w.rect);
    const double old_p = was_in ? CountContributionOf(*old_region, w.rect) : 0;
    const double new_p = is_in ? CountContributionOf(*new_region, w.rect) : 0;
    if (old_p != new_p && window.standing > 0) {
      ++window.bumps;
      ++bumped;
      if (obs_.generation_bumps != nullptr)
        obs_.generation_bumps->Increment();
    }
    if (window.part != nullptr && (was_in != is_in || old_p != new_p)) {
      DropPartLocked(windows_.find(w.rect));
      if (obs_.invalidations != nullptr) obs_.invalidations->Increment();
    }
  }
  return bumped;
}

}  // namespace cloakdb
