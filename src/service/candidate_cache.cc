#include "service/candidate_cache.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

namespace cloakdb {

namespace {

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// splitmix64 finalizer — the same mixer the service uses for routing.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

size_t CacheKeyHash::operator()(const CacheKey& key) const {
  uint64_t h = Mix64(static_cast<uint64_t>(key.kind) |
                     (static_cast<uint64_t>(key.category) << 8));
  h = Mix64(h ^ DoubleBits(key.region.min_x));
  h = Mix64(h ^ DoubleBits(key.region.min_y));
  h = Mix64(h ^ DoubleBits(key.region.max_x));
  h = Mix64(h ^ DoubleBits(key.region.max_y));
  h = Mix64(h ^ DoubleBits(key.reach));
  return static_cast<size_t>(h);
}

CellSignature::CellSignature(const Rect& space, uint32_t cells)
    : space_(space), cells_(cells == 0 ? 1 : cells) {
  cell_w_ = space_.Width() / static_cast<double>(cells_);
  cell_h_ = space_.Height() / static_cast<double>(cells_);
  if (!(cell_w_ > 0.0)) cell_w_ = 1.0;
  if (!(cell_h_ > 0.0)) cell_h_ = 1.0;
  cell_size_ = std::max(cell_w_, cell_h_);
}

Rect CellSignature::SnapToCells(const Rect& region) const {
  auto cell_of = [](double v, double origin, double size,
                    uint32_t cells) -> uint32_t {
    double c = std::floor((v - origin) / size);
    if (c < 0.0) return 0;
    if (c >= static_cast<double>(cells)) return cells - 1;
    return static_cast<uint32_t>(c);
  };
  uint32_t cx0 = cell_of(region.min_x, space_.min_x, cell_w_, cells_);
  uint32_t cy0 = cell_of(region.min_y, space_.min_y, cell_h_, cells_);
  uint32_t cx1 = cell_of(region.max_x, space_.min_x, cell_w_, cells_);
  uint32_t cy1 = cell_of(region.max_y, space_.min_y, cell_h_, cells_);
  return Rect(space_.min_x + cx0 * cell_w_, space_.min_y + cy0 * cell_h_,
              space_.min_x + (cx1 + 1) * cell_w_,
              space_.min_y + (cy1 + 1) * cell_h_);
}

double CellSignature::QuantizeReach(double reach) const {
  double q = cell_size_;
  while (q < reach) q *= 2.0;
  return q;
}

CandidateCache::CandidateCache(size_t capacity) : capacity_(capacity) {}

size_t CandidateCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_.size();
}

std::shared_ptr<const CacheEntry> CandidateCache::Lookup(
    const CacheKey& key, uint64_t seal_generation) {
  if (!enabled()) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end() ||
      it->second->entry->seal_generation != seal_generation) {
    if (obs_.misses != nullptr) obs_.misses->Increment();
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  if (obs_.hits != nullptr) obs_.hits->Increment();
  return it->second->entry;
}

void CandidateCache::Insert(const CacheKey& key, CacheEntry entry) {
  Insert(key, std::make_shared<const CacheEntry>(std::move(entry)));
}

void CandidateCache::Insert(const CacheKey& key,
                            std::shared_ptr<const CacheEntry> entry) {
  if (!enabled()) return;
  auto shared = std::move(entry);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->entry = std::move(shared);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front({key, std::move(shared)});
  index_.emplace(key, lru_.begin());
  (key.kind == CacheKind::kCount ? count_entries_ : probe_entries_) += 1;
  if (obs_.insertions != nullptr) obs_.insertions->Increment();
  while (index_.size() > capacity_) {
    const Node& victim = lru_.back();
    (victim.key.kind == CacheKind::kCount ? count_entries_
                                          : probe_entries_) -= 1;
    index_.erase(victim.key);
    lru_.pop_back();
    if (obs_.lru_evictions != nullptr) obs_.lru_evictions->Increment();
  }
}

template <typename Pred>
void CandidateCache::EvictMatching(const Pred& pred) {
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (!pred(*it)) {
      ++it;
      continue;
    }
    (it->key.kind == CacheKind::kCount ? count_entries_
                                       : probe_entries_) -= 1;
    index_.erase(it->key);
    it = lru_.erase(it);
    if (obs_.invalidations != nullptr) obs_.invalidations->Increment();
  }
}

void CandidateCache::InvalidatePublicRegion(const Rect& region) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (probe_entries_ == 0) return;
  EvictMatching([&](const Node& node) {
    return node.key.kind != CacheKind::kCount &&
           node.entry->coverage.Intersects(region);
  });
}

void CandidateCache::InvalidateCategory(Category category) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (probe_entries_ == 0) return;
  EvictMatching([&](const Node& node) {
    return node.key.kind != CacheKind::kCount &&
           node.key.category == category;
  });
}

void CandidateCache::InvalidatePrivateRegion(const Rect& region) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (count_entries_ == 0) return;
  EvictMatching([&](const Node& node) {
    return node.key.kind == CacheKind::kCount &&
           node.entry->coverage.Intersects(region);
  });
}

void CandidateCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  probe_entries_ = 0;
  count_entries_ = 0;
}

}  // namespace cloakdb
