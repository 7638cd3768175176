#include "service/candidate_cache.h"

#include <cstdint>
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

size_t CandidateCache::RectHash::operator()(const Rect& rect) const {
  uint64_t h = Mix64(DoubleBits(rect.min_x));
  h = Mix64(h ^ DoubleBits(rect.min_y));
  h = Mix64(h ^ DoubleBits(rect.max_x));
  h = Mix64(h ^ DoubleBits(rect.max_y));
  return static_cast<size_t>(h);
}

CandidateCache::CandidateCache(size_t capacity) : capacity_(capacity) {}

size_t CandidateCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_.size();
}

std::shared_ptr<const PublicCountPart> CandidateCache::Lookup(
    const Rect& window) {
  if (!enabled()) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(window);
  if (it == index_.end()) {
    if (obs_.misses != nullptr) obs_.misses->Increment();
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  if (obs_.hits != nullptr) obs_.hits->Increment();
  return it->second->part;
}

void CandidateCache::Insert(const Rect& window, PublicCountPart part) {
  if (!enabled()) return;
  auto shared = std::make_shared<const PublicCountPart>(std::move(part));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(window);
  if (it != index_.end()) {
    it->second->part = std::move(shared);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front({window, std::move(shared)});
  index_.emplace(window, lru_.begin());
  if (obs_.insertions != nullptr) obs_.insertions->Increment();
  while (index_.size() > capacity_) {
    index_.erase(lru_.back().window);
    lru_.pop_back();
    if (obs_.lru_evictions != nullptr) obs_.lru_evictions->Increment();
  }
}

void CandidateCache::InvalidatePrivateRegion(const Rect& region) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (!it->window.Intersects(region)) {
      ++it;
      continue;
    }
    index_.erase(it->window);
    it = lru_.erase(it);
    if (obs_.invalidations != nullptr) obs_.invalidations->Increment();
  }
}

}  // namespace cloakdb
