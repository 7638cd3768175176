#include "index/public_index.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <string>
#include <tuple>
#include <utility>

#include "geom/distance.h"

namespace cloakdb {

namespace {

/// Heap doubles a thread keeps between MaxKthDistanceSquared calls: four
/// points at k = 4,096 (128 KB). A call over more frees them on return.
constexpr size_t kHeapScratchKeep = size_t{1} << 14;

void BumpCounter(obs::Counter* c, uint64_t delta = 1) {
  if (c != nullptr && delta > 0) c->Increment(delta);
}

bool ByXThenId(const IndexHit& a, const IndexHit& b) {
  return std::tie(a.location.x, a.id) < std::tie(b.location.x, b.id);
}

/// First entry of the x-sorted `overlay` with x >= `x`.
std::vector<IndexHit>::const_iterator FirstAtX(
    const std::vector<IndexHit>& overlay, double x) {
  return std::lower_bound(
      overlay.begin(), overlay.end(), x,
      [](const IndexHit& e, double v) { return e.location.x < v; });
}

/// Calls `fn` on every overlay entry inside `window`: a binary search to
/// the window's min_x, then a scan that stops past its max_x.
template <typename Fn>
void ForEachInWindow(const std::vector<IndexHit>& overlay,
                     const Rect& window, Fn&& fn) {
  for (auto it = FirstAtX(overlay, window.min_x);
       it != overlay.end() && it->location.x <= window.max_x; ++it) {
    if (window.Contains(it->location)) fn(*it);
  }
}

}  // namespace

std::vector<IndexHit>::const_iterator PublicCategoryIndex::OverlayFind(
    ObjectId id) const {
  return std::find_if(overlay_.begin(), overlay_.end(),
                      [id](const IndexHit& e) { return e.id == id; });
}

void PublicCategoryIndex::Reseal(StaticRTree sealed) {
  sealed_ = std::move(sealed);
  overlay_.clear();
  tombstones_.clear();
  free_rows_.clear();
  next_row_ = sealed_.size();
  ++seal_generation_;
}

Status PublicCategoryIndex::CompactIfOverLimit() {
  if (overlay_.size() + tombstones_.size() <= config_.overlay_compact_limit) {
    return Status::OK();
  }
  return Compact();
}

Status PublicCategoryIndex::Insert(ObjectId id, const Point& location) {
  if (!std::isfinite(location.x) || !std::isfinite(location.y)) {
    return Status::InvalidArgument("public object location is not finite");
  }
  if (RowOf(id).has_value()) {
    return Status::AlreadyExists("public object id already stored");
  }
  uint64_t row = next_row_;
  if (free_rows_.empty()) {
    ++next_row_;
  } else {
    row = free_rows_.back();
    free_rows_.pop_back();
  }
  const IndexHit entry{id, location, row};
  overlay_.insert(
      std::upper_bound(overlay_.begin(), overlay_.end(), entry, ByXThenId),
      entry);
  BumpCounter(config_.obs != nullptr ? config_.obs->overlay_inserts_total
                                     : nullptr);
  return CompactIfOverLimit();
}

Status PublicCategoryIndex::Remove(ObjectId id) {
  auto it = OverlayFind(id);
  if (it != overlay_.end()) {
    free_rows_.push_back(it->row);
    overlay_.erase(it);
    return Status::OK();
  }
  if (sealed_.ContainsId(id) && tombstones_.insert(id).second) {
    BumpCounter(config_.obs != nullptr ? config_.obs->tombstones_total
                                       : nullptr);
    return CompactIfOverLimit();
  }
  return Status::NotFound("public object id not stored");
}

Status PublicCategoryIndex::BulkLoad(std::vector<PointEntry> entries,
                                     std::vector<uint64_t>* input_of_row) {
  const uint64_t n = entries.size();
  Result<StaticRTree> built =
      StaticRTree::Build(std::move(entries), input_of_row);
  if (!built.ok()) return built.status();
  Reseal(std::move(built).value());
  if (config_.obs != nullptr) {
    BumpCounter(config_.obs->seals_total);
    BumpCounter(config_.obs->sealed_objects_total, n);
  }
  return Status::OK();
}

size_t PublicCategoryIndex::size() const {
  return sealed_.size() - tombstones_.size() + overlay_.size();
}

Result<Point> PublicCategoryIndex::Locate(ObjectId id) const {
  auto it = OverlayFind(id);
  if (it != overlay_.end()) return it->location;
  if (tombstones_.count(id) != 0) {
    return Status::NotFound("object " + std::to_string(id) +
                            " not in static index");
  }
  return sealed_.Locate(id);
}

std::optional<uint64_t> PublicCategoryIndex::RowOf(ObjectId id) const {
  auto it = OverlayFind(id);
  if (it != overlay_.end()) return it->row;
  if (!tombstones_.empty() && tombstones_.count(id) != 0) return std::nullopt;
  return sealed_.SlotOf(id);
}

bool PublicCategoryIndex::HoldsAny(
    const std::unordered_set<ObjectId>& ids) const {
  for (const IndexHit& e : overlay_) {
    if (ids.count(e.id) != 0) return true;
  }
  for (ObjectId id : ids) {
    if (tombstones_.count(id) == 0 && sealed_.SlotOf(id).has_value())
      return true;
  }
  return false;
}

std::vector<IndexHit> PublicCategoryIndex::RangeSearch(
    const Rect& window) const {
  std::vector<IndexHit> out;
  sealed_.RangeSearchInto(window, Skip(), &out);
  ForEachInWindow(overlay_, window,
                  [&out](const IndexHit& e) { out.push_back(e); });
  return out;
}

size_t PublicCategoryIndex::RangeCount(const Rect& window) const {
  size_t count = sealed_.RangeCount(window, Skip());
  ForEachInWindow(overlay_, window, [&count](const IndexHit&) { ++count; });
  return count;
}

std::vector<PointEntry> PublicCategoryIndex::KNearest(const Point& from,
                                                      size_t k) const {
  std::vector<PointEntry> best = sealed_.KNearest(from, k, Skip());
  if (k == 0) return best;
  const auto closer = [&from](const PointEntry& a, const PointEntry& b) {
    return std::make_pair(Distance(from, a.location), a.id) <
           std::make_pair(Distance(from, b.location), b.id);
  };
  // Folds one overlay entry into `best` (the k smallest (distance, id) so
  // far, seeded with the sealed tree's answer). Returns false once the x
  // gap alone exceeds the k-th distance: every entry further out on that
  // side of the query is then out of reach too.
  const auto fold = [&](const IndexHit& hit) {
    const PointEntry e{hit.id, hit.location};
    if (best.size() == k && Distance(from, {e.location.x, from.y}) >
                                Distance(from, best.back().location)) {
      return false;
    }
    if (best.size() < k || closer(e, best.back())) {
      best.insert(std::upper_bound(best.begin(), best.end(), e, closer), e);
      if (best.size() > k) best.pop_back();
    }
    return true;
  };
  const auto pivot = FirstAtX(overlay_, from.x);
  for (auto it = pivot; it != overlay_.end() && fold(*it); ++it) {
  }
  for (auto it = pivot; it != overlay_.begin() && fold(*std::prev(it));
       --it) {
  }
  return best;
}

double PublicCategoryIndex::NearestDistance(const Point& from) const {
  std::vector<PointEntry> nearest = KNearest(from, 1);
  if (nearest.empty()) return std::numeric_limits<double>::infinity();
  return Distance(from, nearest.front().location);
}

double PublicCategoryIndex::MaxKthDistanceSquared(std::span<const Point> from,
                                                  size_t k) const {
  if (k == 0 || from.empty()) return 0.0;
  // Per-thread scratch: the k doubles of each point's heap.
  thread_local std::vector<double> storage;
  thread_local std::vector<KSmallest> heaps;
  storage.resize(from.size() * k);
  heaps.clear();
  for (size_t i = 0; i < from.size(); ++i)
    heaps.emplace_back(storage.data() + i * k, k);
  sealed_.NearestSquaresInto(from, Skip(), heaps);
  double max_kth = 0.0;
  for (size_t i = 0; i < from.size(); ++i) {
    const Point& p = from[i];
    KSmallest& heap = heaps[i];
    // Folds the spill in as KNearest does: outward from p's x on each
    // side, stopping once the x gap alone passes the heap's bound.
    const auto fold = [&](const IndexHit& e) {
      const double dx = e.location.x - p.x;
      if (dx * dx > heap.Bound()) return false;
      heap.Offer(DistanceSquared(p, e.location));
      return true;
    };
    const auto pivot = FirstAtX(overlay_, p.x);
    for (auto it = pivot; it != overlay_.end() && fold(*it); ++it) {
    }
    for (auto it = pivot; it != overlay_.begin() && fold(*std::prev(it));
         --it) {
    }
    max_kth = std::max(max_kth, heap.Bound());
  }
  if (storage.capacity() > kHeapScratchKeep) std::vector<double>().swap(storage);
  return max_kth;
}

std::vector<PointEntry> PublicCategoryIndex::LiveEntries() const {
  std::vector<PointEntry> out;
  out.reserve(size());
  sealed_.ForEachEntry([this, &out](ObjectId id, const Point& p) {
    if (tombstones_.count(id) == 0) out.push_back({id, p});
  });
  for (const IndexHit& e : overlay_) out.push_back({e.id, e.location});
  return out;
}

Status PublicCategoryIndex::Compact() {
  const uint64_t n_live = size();
  Result<StaticRTree> built = StaticRTree::Build(LiveEntries());
  if (!built.ok()) return built.status();
  Reseal(std::move(built).value());
  if (config_.obs != nullptr) {
    BumpCounter(config_.obs->compactions_total);
    BumpCounter(config_.obs->sealed_objects_total, n_live);
  }
  return Status::OK();
}

}  // namespace cloakdb
