#include "index/static_rtree.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <queue>
#include <string>
#include <tuple>

#include "geom/distance.h"

namespace cloakdb {

namespace {

constexpr double kQMaxD = 4294967295.0;  // 2^32 - 1
constexpr uint32_t kQMax = 0xFFFFFFFFu;

/// Pending nodes a thread keeps between NearestSquaresInto calls (96 KB);
/// a traversal that queued more frees them on return.
constexpr size_t kPendingKeep = size_t{1} << 12;

/// Floor-quantization with clamping. Monotone in `v`, so quantizing both a
/// stored coordinate and a window edge with the same function preserves
/// interval membership: v in [lo, hi] implies Q(v) in [Q(lo), Q(hi)].
uint32_t Quantize(double v, double origin, double scale) {
  double t = (v - origin) * scale;
  if (!(t > 0.0)) return 0;  // also catches NaN
  if (t >= kQMaxD) return kQMax;
  return static_cast<uint32_t>(t);  // floor, since t > 0
}

/// Grows `rec` to cover the quantized box [x0, x1] x [y0, y1].
void Extend(StaticRTree::NodeRec* rec, uint32_t x0, uint32_t y0, uint32_t x1,
            uint32_t y1) {
  rec->min_qx = std::min(rec->min_qx, x0);
  rec->min_qy = std::min(rec->min_qy, y0);
  rec->max_qx = std::max(rec->max_qx, x1);
  rec->max_qy = std::max(rec->max_qy, y1);
}

struct BuildRec {
  uint32_t qx;
  uint32_t qy;
  ObjectId id;
  double x;
  double y;
  uint64_t input;  // index in Build's `entries`
};

}  // namespace

Result<StaticRTree> StaticRTree::Build(std::vector<PointEntry> entries,
                                       std::vector<uint64_t>* input_of_slot) {
  const uint64_t n = entries.size();

  Rect frame;
  for (const PointEntry& e : entries) {
    if (!std::isfinite(e.location.x) || !std::isfinite(e.location.y)) {
      return Status::InvalidArgument(
          "static r-tree: non-finite coordinate for object " +
          std::to_string(e.id));
    }
    frame = frame.Union(e.location);
  }

  StaticRTree tree;
  const double width_x = n > 0 ? frame.max_x - frame.min_x : 0.0;
  const double width_y = n > 0 ? frame.max_y - frame.min_y : 0.0;
  tree.frame_ = frame;
  tree.scale_x_ = width_x > 0.0 ? kQMaxD / width_x : 0.0;
  tree.scale_y_ = width_y > 0.0 ? kQMaxD / width_y : 0.0;
  tree.inv_scale_x_ = width_x > 0.0 ? width_x / kQMaxD : 0.0;
  tree.inv_scale_y_ = width_y > 0.0 ? width_y / kQMaxD : 0.0;

  std::vector<BuildRec> recs;
  recs.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    const PointEntry& e = entries[i];
    recs.push_back({Quantize(e.location.x, frame.min_x, tree.scale_x_),
                    Quantize(e.location.y, frame.min_y, tree.scale_y_), e.id,
                    e.location.x, e.location.y, i});
  }

  // STR packing: sort by x into vertical slices of ceil(sqrt(P)) pages,
  // then by y within each slice. Pages are then consecutive 64-entry runs
  // of this order (only the globally last page is partial, which keeps the
  // slot <-> exact-array mapping dense).
  const uint64_t num_pages = (n + kLeafCapacity - 1) / kLeafCapacity;
  std::sort(recs.begin(), recs.end(), [](const BuildRec& a, const BuildRec& b) {
    return std::tie(a.x, a.y, a.id) < std::tie(b.x, b.y, b.id);
  });
  if (num_pages > 1) {
    const uint64_t slices = static_cast<uint64_t>(
        std::ceil(std::sqrt(static_cast<double>(num_pages))));
    const uint64_t slice_entries = slices * kLeafCapacity;
    for (uint64_t begin = 0; begin < n; begin += slice_entries) {
      const uint64_t end = std::min(n, begin + slice_entries);
      std::sort(recs.begin() + begin, recs.begin() + end,
                [](const BuildRec& a, const BuildRec& b) {
                  return std::tie(a.y, a.x, a.id) < std::tie(b.y, b.x, b.id);
                });
    }
  }

  // Id directory for Locate/ContainsId; its sort also finds duplicate ids.
  tree.ids_.resize(n);
  for (uint64_t slot = 0; slot < n; ++slot)
    tree.ids_[slot] = {recs[slot].id, slot};
  std::sort(tree.ids_.begin(), tree.ids_.end(),
            [](const IdSlot& a, const IdSlot& b) { return a.id < b.id; });
  for (uint64_t i = 1; i < n; ++i) {
    if (tree.ids_[i].id == tree.ids_[i - 1].id) {
      return Status::InvalidArgument("static r-tree: duplicate id " +
                                     std::to_string(tree.ids_[i].id));
    }
  }
  if (input_of_slot != nullptr) {
    input_of_slot->resize(n);
    for (uint64_t slot = 0; slot < n; ++slot)
      (*input_of_slot)[slot] = recs[slot].input;
  }

  tree.leaves_.reserve(n);
  tree.exact_.reserve(n);
  for (const BuildRec& r : recs) {
    tree.leaves_.push_back({r.id, r.qx, r.qy});
    tree.exact_.push_back({r.x, r.y});
  }

  // Level 0: per-page quantized MBRs. Upper levels: MBRs over kBranching
  // children from the level below, up to a single root.
  if (n == 0) return Result<StaticRTree>(std::move(tree));
  std::vector<NodeRec> pages(num_pages, NodeRec{kQMax, kQMax, 0, 0});
  for (uint64_t slot = 0; slot < n; ++slot) {
    const LeafEntry& e = tree.leaves_[slot];
    Extend(&pages[slot / kLeafCapacity], e.qx, e.qy, e.qx, e.qy);
  }
  tree.levels_.push_back(std::move(pages));
  while (tree.levels_.back().size() > 1) {
    const std::vector<NodeRec>& children = tree.levels_.back();
    std::vector<NodeRec> parents((children.size() + kBranching - 1) /
                                     kBranching,
                                 NodeRec{kQMax, kQMax, 0, 0});
    for (uint64_t c = 0; c < children.size(); ++c) {
      const NodeRec& child = children[c];
      Extend(&parents[c / kBranching], child.min_qx, child.min_qy,
             child.max_qx, child.max_qy);
    }
    tree.levels_.push_back(std::move(parents));
  }
  return Result<StaticRTree>(std::move(tree));
}

Rect StaticRTree::DequantRect(const NodeRec& rec) const {
  // One full quantum of slack on each side keeps this a true cover of every
  // exact point under the node despite floor rounding; clamping to the
  // frame (which contains all exact points by construction) tightens it
  // back without losing the cover property.
  const double lo_x = std::max(
      frame_.min_x,
      frame_.min_x + (static_cast<double>(rec.min_qx) - 1.0) * inv_scale_x_);
  const double hi_x = std::min(
      frame_.max_x,
      frame_.min_x + (static_cast<double>(rec.max_qx) + 2.0) * inv_scale_x_);
  const double lo_y = std::max(
      frame_.min_y,
      frame_.min_y + (static_cast<double>(rec.min_qy) - 1.0) * inv_scale_y_);
  const double hi_y = std::min(
      frame_.max_y,
      frame_.min_y + (static_cast<double>(rec.max_qy) + 2.0) * inv_scale_y_);
  return Rect(lo_x, lo_y, hi_x, hi_y);
}

template <typename Emit>
void StaticRTree::ForEachInWindow(const Rect& window, const IdFilter* skip,
                                  Emit&& emit) const {
  if (leaves_.empty() || window.IsEmpty() || !window.Intersects(frame_)) return;
  const uint32_t lo_qx = Quantize(window.min_x, frame_.min_x, scale_x_);
  const uint32_t hi_qx = Quantize(window.max_x, frame_.min_x, scale_x_);
  const uint32_t lo_qy = Quantize(window.min_y, frame_.min_y, scale_y_);
  const uint32_t hi_qy = Quantize(window.max_y, frame_.min_y, scale_y_);
  const uint32_t span_qx = hi_qx - lo_qx;
  const uint32_t span_qy = hi_qy - lo_qy;

  struct Frame {
    uint32_t level;
    uint64_t idx;
  };
  std::vector<Frame> stack;
  stack.push_back({static_cast<uint32_t>(levels_.size() - 1), 0});
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    const NodeRec& rec = levels_[f.level][f.idx];
    if (rec.min_qx > hi_qx || rec.max_qx < lo_qx || rec.min_qy > hi_qy ||
        rec.max_qy < lo_qy) {
      continue;
    }
    if (f.level > 0) {
      const uint64_t begin = f.idx * kBranching;
      const uint64_t end =
          std::min<uint64_t>(levels_[f.level - 1].size(), begin + kBranching);
      for (uint64_t c = end; c > begin; --c) {  // pop order = ascending
        stack.push_back({f.level - 1, c - 1});
      }
      continue;
    }
    const uint64_t first_slot = f.idx * kLeafCapacity;
    const LeafEntry* entries = leaves_.data() + first_slot;
    const uint64_t in_page =
        std::min<uint64_t>(kLeafCapacity, leaves_.size() - first_slot);
    for (uint64_t i = 0; i < in_page; ++i) {
      // Branchless coarse window test over the fixed-point coordinates:
      // the unsigned subtraction wraps below-range values far above the
      // span.
      const uint32_t okx =
          static_cast<uint32_t>(entries[i].qx - lo_qx) <= span_qx;
      const uint32_t oky =
          static_cast<uint32_t>(entries[i].qy - lo_qy) <= span_qy;
      if (okx & oky) {
        const Point& p = exact_[first_slot + i];
        if (!window.Contains(p)) continue;  // exact refine kills coarse hits
        if (skip != nullptr && skip->count(entries[i].id) != 0) continue;
        emit(first_slot + i, entries[i].id, p);
      }
    }
  }
}

void StaticRTree::RangeSearchInto(const Rect& window, const IdFilter* skip,
                                  std::vector<PointEntry>* out) const {
  ForEachInWindow(window, skip, [out](uint64_t, ObjectId id, const Point& p) {
    out->push_back({id, p});
  });
}

void StaticRTree::RangeSearchInto(const Rect& window, const IdFilter* skip,
                                  std::vector<IndexHit>* out) const {
  ForEachInWindow(window, skip,
                  [out](uint64_t slot, ObjectId id, const Point& p) {
                    out->push_back({id, p, slot});
                  });
}

size_t StaticRTree::RangeCount(const Rect& window, const IdFilter* skip) const {
  size_t total = 0;
  ForEachInWindow(window, skip,
                  [&total](uint64_t, ObjectId, const Point&) { ++total; });
  return total;
}

std::vector<PointEntry> StaticRTree::KNearest(const Point& from, size_t k,
                                              const IdFilter* skip) const {
  std::vector<PointEntry> out;
  if (leaves_.empty() || k == 0) return out;
  out.reserve(std::min<uint64_t>(k, leaves_.size()));

  // Bounded best-first search: a nodes-only min-PQ drives expansion while
  // the best k entries so far live in a max-heap keyed by (distance, id).
  // A node is expanded only while its MinDist could still improve the
  // k-th best (non-strict at ties, so an equal-distance entry with a
  // smaller id is never missed); entries never enter the node PQ. The
  // result is the k smallest (distance, id) pairs — identical to popping
  // a combined heap, with a fraction of the heap traffic.
  struct NodeItem {
    double dist;
    uint32_t level;
    uint64_t idx;
  };
  struct NodeCmp {
    bool operator()(const NodeItem& a, const NodeItem& b) const {
      return a.dist > b.dist;
    }
  };
  struct Best {
    double dist;
    ObjectId id;
    uint64_t slot;
    bool operator<(const Best& other) const {  // max-heap: worst on top
      return std::tie(dist, id) < std::tie(other.dist, other.id);
    }
  };
  std::priority_queue<NodeItem, std::vector<NodeItem>, NodeCmp> heap;
  std::vector<Best> best;  // heap via std::push_heap/pop_heap, size <= k
  best.reserve(std::min<uint64_t>(k, leaves_.size()));
  const auto worst_dist = [&] {
    return best.size() < k ? std::numeric_limits<double>::infinity()
                           : best.front().dist;
  };
  const uint32_t root_level = static_cast<uint32_t>(levels_.size() - 1);
  heap.push({MinDist(from, DequantRect(levels_[root_level][0])),
             root_level, 0});
  while (!heap.empty()) {
    const NodeItem item = heap.top();
    heap.pop();
    if (item.dist > worst_dist()) break;  // nothing nearer remains
    if (item.level == 0) {
      const uint64_t first_slot = item.idx * kLeafCapacity;
      const uint64_t in_page =
          std::min<uint64_t>(kLeafCapacity, leaves_.size() - first_slot);
      const LeafEntry* entries = leaves_.data() + first_slot;
      for (uint64_t i = 0; i < in_page; ++i) {
        if (skip != nullptr && skip->count(entries[i].id) != 0) continue;
        const uint64_t slot = first_slot + i;
        const Best candidate{Distance(from, exact_[slot]),
                             entries[i].id, slot};
        if (best.size() < k) {
          best.push_back(candidate);
          std::push_heap(best.begin(), best.end());
        } else if (candidate < best.front()) {
          std::pop_heap(best.begin(), best.end());
          best.back() = candidate;
          std::push_heap(best.begin(), best.end());
        }
      }
      continue;
    }
    const uint64_t begin = item.idx * kBranching;
    const uint64_t end =
        std::min<uint64_t>(levels_[item.level - 1].size(), begin + kBranching);
    const double bound = worst_dist();
    for (uint64_t c = begin; c < end; ++c) {
      const double d =
          MinDist(from, DequantRect(levels_[item.level - 1][c]));
      if (d <= bound) heap.push({d, item.level - 1, c});
    }
  }
  std::sort(best.begin(), best.end());
  for (const Best& b : best) out.push_back({b.id, exact_[b.slot]});
  return out;
}

double StaticRTree::NearestDistance(const Point& from,
                                    const IdFilter* skip) const {
  std::vector<PointEntry> nearest = KNearest(from, 1, skip);
  if (nearest.empty()) return std::numeric_limits<double>::infinity();
  return Distance(from, nearest[0].location);
}

void StaticRTree::NearestSquaresInto(std::span<const Point> from,
                                     const IdFilter* skip,
                                     std::span<KSmallest> heaps) const {
  // A node's users are a 64-bit mask: probe 64 points at a time.
  constexpr size_t kMaxPoints = 64;
  if (from.size() > kMaxPoints) {
    NearestSquaresInto(from.first(kMaxPoints), skip, heaps.first(kMaxPoints));
    NearestSquaresInto(from.subspan(kMaxPoints), skip,
                       heaps.subspan(kMaxPoints));
    return;
  }
  if (leaves_.empty() || from.empty()) return;
  // Nodes wait in a min-heap (per-thread scratch) keyed by their squared
  // MinDist to the points' bounding box, a lower bound on every point's
  // own: one test per child, not one per point. Which points can use a
  // node is asked when it comes off the heap.
  Rect hull;
  for (const Point& p : from) hull = hull.Union(p);
  struct NodeItem {
    double key;
    uint32_t level;
    uint64_t idx;
  };
  const auto later = [](const NodeItem& a, const NodeItem& b) {
    return a.key > b.key;
  };
  thread_local std::vector<NodeItem> pending;
  pending.clear();
  const uint32_t root = static_cast<uint32_t>(levels_.size() - 1);
  pending.push_back({0.0, root, 0});
  while (!pending.empty()) {
    std::pop_heap(pending.begin(), pending.end(), later);
    const NodeItem item = pending.back();
    pending.pop_back();
    // Bounds only shrink. Past the loosest no point can use this node or
    // any after it; below it, find the points that still can.
    double loosest = 0.0;
    for (const KSmallest& heap : heaps)
      loosest = std::max(loosest, heap.Bound());
    if (item.key > loosest) break;
    const Rect node = DequantRect(levels_[item.level][item.idx]);
    uint64_t mask = 0;
    for (size_t i = 0; i < from.size(); ++i) {
      if (MinDistSquared(from[i], node) <= heaps[i].Bound())
        mask |= uint64_t{1} << i;
    }
    if (mask == 0) continue;
    if (item.level == 0) {
      // Only the points that can use the page scan it.
      const uint64_t first = item.idx * kLeafCapacity;
      const uint64_t last =
          first + std::min<uint64_t>(kLeafCapacity, leaves_.size() - first);
      for (uint64_t m = mask; m != 0; m &= m - 1) {
        const size_t i = static_cast<size_t>(std::countr_zero(m));
        for (uint64_t slot = first; slot < last; ++slot) {
          const double d = DistanceSquared(from[i], exact_[slot]);
          if (d >= heaps[i].Bound()) continue;
          if (skip != nullptr && skip->count(leaves_[slot].id) != 0) continue;
          heaps[i].Offer(d);
        }
      }
      continue;
    }
    const uint64_t begin = item.idx * kBranching;
    const uint64_t end =
        std::min<uint64_t>(levels_[item.level - 1].size(), begin + kBranching);
    for (uint64_t c = begin; c < end; ++c) {
      const double key =
          MinDistSquared(DequantRect(levels_[item.level - 1][c]), hull);
      if (key > loosest) continue;
      pending.push_back({key, item.level - 1, c});
      std::push_heap(pending.begin(), pending.end(), later);
    }
  }
  if (pending.capacity() > kPendingKeep) std::vector<NodeItem>().swap(pending);
}

const StaticRTree::IdSlot* StaticRTree::FindId(ObjectId id) const {
  const IdSlot* end = ids_.data() + ids_.size();
  const IdSlot* it = std::lower_bound(
      ids_.data(), end, id, [](const IdSlot& s, ObjectId v) { return s.id < v; });
  return it != end && it->id == id ? it : nullptr;
}

Result<Point> StaticRTree::Locate(ObjectId id) const {
  const IdSlot* found = FindId(id);
  if (found == nullptr) {
    return Status::NotFound("object " + std::to_string(id) +
                            " not in static index");
  }
  return exact_[found->slot];
}

bool StaticRTree::ContainsId(ObjectId id) const {
  return FindId(id) != nullptr;
}

std::optional<uint64_t> StaticRTree::SlotOf(ObjectId id) const {
  const IdSlot* found = FindId(id);
  if (found == nullptr) return std::nullopt;
  return found->slot;
}

}  // namespace cloakdb
