#include "index/static_rtree.h"

// Blob layout (all little-endian, fixed-width; doubles as IEEE-754 bit
// patterns — written and read with util/byte_codec.h):
//
//   offset 0    char[8]  magic "CDBSRT01"
//   offset 8    u64      count                 (number of entries)
//   offset 16   u32      num_levels            (0 iff count == 0)
//   offset 20   u32      leaf_capacity         (== kLeafCapacity)
//   offset 24   u32      branching             (== kBranching)
//   offset 28   u32      crc32                 (bytes [0,28) ++ [32,total))
//   offset 32   f64[4]   frame fx0, fy0, fx1, fy1
//   offset 64   u64      nodes_offset          (== 128 + 8*num_levels)
//   offset 72   u64      num_nodes_total       (sum of level counts)
//   offset 80   u64      leaves_offset         (1024-aligned)
//   offset 88   u64      num_leaf_pages        (== ceil(count/64))
//   offset 96   u64      exact_offset
//   offset 104  u64      ids_offset
//   offset 112  u64      total_size
//   offset 120  u64      reserved (0)
//   offset 128  u64[num_levels] level_counts   (level 0 = leaf pages first)
//   nodes_offset   NodeRec[num_nodes_total]    (level 0, then 1, ... root)
//   leaves_offset  LeafEntry[num_leaf_pages*64] (tail of last page padded)
//   exact_offset   f64[2*count]                (exact x,y in leaf-slot order)
//   ids_offset     IdSlot[count]               (sorted by id, for Locate)
//
// The leaf section starts on a 1024-byte boundary so leaf pages stay
// page-aligned inside an mmap'd file (file offsets of embedded blobs are
// 4096-aligned by the sidecar writer, storage/index_blob.cc).

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <queue>
#include <tuple>
#include <unordered_set>

#include "geom/distance.h"
#include "util/byte_codec.h"

namespace cloakdb {

namespace {

constexpr char kMagic[8] = {'C', 'D', 'B', 'S', 'R', 'T', '0', '1'};
constexpr size_t kHeaderBytes = 128;
constexpr double kQMaxD = 4294967295.0;  // 2^32 - 1
constexpr uint32_t kQMax = 0xFFFFFFFFu;

/// Floor-quantization with clamping. Monotone in `v`, so quantizing both a
/// stored coordinate and a window edge with the same function preserves
/// interval membership: v in [lo, hi] implies Q(v) in [Q(lo), Q(hi)].
uint32_t Quantize(double v, double origin, double scale) {
  double t = (v - origin) * scale;
  if (!(t > 0.0)) return 0;  // also catches NaN
  if (t >= kQMaxD) return kQMax;
  return static_cast<uint32_t>(t);  // floor, since t > 0
}

uint64_t RoundUp(uint64_t v, uint64_t align) {
  return (v + align - 1) / align * align;
}

uint32_t BlobCrc(const uint8_t* base, size_t total) {
  uint32_t crc = util::Crc32Update(0, base, 28);
  return util::Crc32Update(crc, base + 32, total - 32);
}

struct BuildRec {
  uint32_t qx;
  uint32_t qy;
  ObjectId id;
  double x;
  double y;
};

}  // namespace

Result<StaticRTree> StaticRTree::Build(std::vector<PointEntry> entries) {
  const uint64_t n = entries.size();

  std::unordered_set<ObjectId> seen;
  seen.reserve(n * 2);
  Rect frame;
  for (const PointEntry& e : entries) {
    if (!std::isfinite(e.location.x) || !std::isfinite(e.location.y)) {
      return Status::InvalidArgument(
          "static r-tree: non-finite coordinate for object " +
          std::to_string(e.id));
    }
    if (!seen.insert(e.id).second) {
      return Status::InvalidArgument("static r-tree: duplicate id " +
                                     std::to_string(e.id));
    }
    frame = frame.Union(e.location);
  }

  const double width_x = n > 0 ? frame.max_x - frame.min_x : 0.0;
  const double width_y = n > 0 ? frame.max_y - frame.min_y : 0.0;
  const double scale_x = width_x > 0.0 ? kQMaxD / width_x : 0.0;
  const double scale_y = width_y > 0.0 ? kQMaxD / width_y : 0.0;

  std::vector<BuildRec> recs;
  recs.reserve(n);
  for (const PointEntry& e : entries) {
    recs.push_back({Quantize(e.location.x, frame.min_x, scale_x),
                    Quantize(e.location.y, frame.min_y, scale_y), e.id,
                    e.location.x, e.location.y});
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

  // Implicit level geometry.
  std::vector<uint64_t> level_counts;
  if (n > 0) {
    uint64_t c = num_pages;
    level_counts.push_back(c);
    while (c > 1) {
      c = (c + kBranching - 1) / kBranching;
      level_counts.push_back(c);
    }
  }
  uint64_t num_nodes_total = 0;
  for (uint64_t c : level_counts) num_nodes_total += c;

  const uint64_t num_levels = level_counts.size();
  const uint64_t nodes_offset = kHeaderBytes + 8 * num_levels;
  const uint64_t leaves_offset =
      RoundUp(nodes_offset + num_nodes_total * sizeof(NodeRec), kLeafPageBytes);
  const uint64_t exact_offset = leaves_offset + num_pages * kLeafPageBytes;
  const uint64_t ids_offset = exact_offset + n * 2 * sizeof(double);
  const uint64_t total = ids_offset + n * sizeof(IdSlot);

  std::string blob(total, '\0');
  uint8_t* base = reinterpret_cast<uint8_t*>(&blob[0]);

  std::memcpy(base, kMagic, 8);
  util::Store<uint64_t>(base + 8, n);
  util::Store<uint32_t>(base + 16, static_cast<uint32_t>(num_levels));
  util::Store<uint32_t>(base + 20, kLeafCapacity);
  util::Store<uint32_t>(base + 24, kBranching);
  util::Store<double>(base + 32, n > 0 ? frame.min_x : 0.0);
  util::Store<double>(base + 40, n > 0 ? frame.min_y : 0.0);
  util::Store<double>(base + 48, n > 0 ? frame.max_x : 0.0);
  util::Store<double>(base + 56, n > 0 ? frame.max_y : 0.0);
  util::Store<uint64_t>(base + 64, nodes_offset);
  util::Store<uint64_t>(base + 72, num_nodes_total);
  util::Store<uint64_t>(base + 80, leaves_offset);
  util::Store<uint64_t>(base + 88, num_pages);
  util::Store<uint64_t>(base + 96, exact_offset);
  util::Store<uint64_t>(base + 104, ids_offset);
  util::Store<uint64_t>(base + 112, total);
  for (uint64_t l = 0; l < num_levels; ++l) {
    util::Store<uint64_t>(base + kHeaderBytes + 8 * l, level_counts[l]);
  }

  // Leaves + exact coordinates (slot order). The tail of the last page is
  // left zeroed; scans never read past `count`.
  uint8_t* leaf_bytes = base + leaves_offset;
  uint8_t* exact_bytes = base + exact_offset;
  for (uint64_t slot = 0; slot < n; ++slot) {
    const BuildRec& r = recs[slot];
    uint8_t* e = leaf_bytes + slot * sizeof(LeafEntry);
    util::Store<uint64_t>(e, r.id);
    util::Store<uint32_t>(e + 8, r.qx);
    util::Store<uint32_t>(e + 12, r.qy);
    util::Store<double>(exact_bytes + slot * 16, r.x);
    util::Store<double>(exact_bytes + slot * 16 + 8, r.y);
  }

  // Level 0: per-page quantized MBRs. Upper levels: MBRs over kBranching
  // children from the level below.
  uint8_t* node_bytes = base + nodes_offset;
  uint64_t node_cursor = 0;
  for (uint64_t p = 0; p < num_pages; ++p) {
    const uint64_t begin = p * kLeafCapacity;
    const uint64_t end = std::min(n, begin + kLeafCapacity);
    NodeRec rec{kQMax, kQMax, 0, 0};
    for (uint64_t s = begin; s < end; ++s) {
      rec.min_qx = std::min(rec.min_qx, recs[s].qx);
      rec.min_qy = std::min(rec.min_qy, recs[s].qy);
      rec.max_qx = std::max(rec.max_qx, recs[s].qx);
      rec.max_qy = std::max(rec.max_qy, recs[s].qy);
    }
    std::memcpy(node_bytes + (node_cursor + p) * sizeof(NodeRec), &rec,
                sizeof(rec));
  }
  for (uint64_t l = 1; l < num_levels; ++l) {
    const uint64_t child_base = node_cursor;
    const uint64_t child_count = level_counts[l - 1];
    node_cursor += child_count;
    for (uint64_t j = 0; j < level_counts[l]; ++j) {
      const uint64_t begin = j * kBranching;
      const uint64_t end = std::min(child_count, begin + kBranching);
      NodeRec rec{kQMax, kQMax, 0, 0};
      for (uint64_t c = begin; c < end; ++c) {
        NodeRec child;
        std::memcpy(&child, node_bytes + (child_base + c) * sizeof(NodeRec),
                    sizeof(child));
        rec.min_qx = std::min(rec.min_qx, child.min_qx);
        rec.min_qy = std::min(rec.min_qy, child.min_qy);
        rec.max_qx = std::max(rec.max_qx, child.max_qx);
        rec.max_qy = std::max(rec.max_qy, child.max_qy);
      }
      std::memcpy(node_bytes + (node_cursor + j) * sizeof(NodeRec), &rec,
                  sizeof(rec));
    }
  }

  // Id directory for Locate/ContainsId.
  std::vector<IdSlot> ids(n);
  for (uint64_t slot = 0; slot < n; ++slot) ids[slot] = {recs[slot].id, slot};
  std::sort(ids.begin(), ids.end(),
            [](const IdSlot& a, const IdSlot& b) { return a.id < b.id; });
  uint8_t* id_bytes = base + ids_offset;
  for (uint64_t i = 0; i < n; ++i) {
    util::Store<uint64_t>(id_bytes + i * sizeof(IdSlot), ids[i].id);
    util::Store<uint64_t>(id_bytes + i * sizeof(IdSlot) + 8, ids[i].slot);
  }

  util::Store<uint32_t>(base + 28, BlobCrc(base, total));
  return FromBlob(std::move(blob));
}

Result<StaticRTree> StaticRTree::FromBlob(std::string blob) {
  StaticRTree tree;
  tree.owned_blob_ = std::move(blob);
  Status st =
      tree.AttachTo(reinterpret_cast<const uint8_t*>(tree.owned_blob_.data()),
                    tree.owned_blob_.size());
  if (!st.ok()) return st;
  return Result<StaticRTree>(std::move(tree));
}

Result<StaticRTree> StaticRTree::FromMapped(
    std::shared_ptr<util::MmapFile> file, size_t offset, size_t length) {
  if (file == nullptr) return Status::InvalidArgument("null mapped file");
  if (offset % 8 != 0) {
    return Status::InvalidArgument("static r-tree blob offset not 8-aligned");
  }
  if (offset > file->size() || length > file->size() - offset) {
    return Status::Internal("static r-tree blob extends past end of " +
                              file->path());
  }
  StaticRTree tree;
  Status st = tree.AttachTo(file->data() + offset, length);
  if (!st.ok()) return st;
  tree.mapped_file_ = std::move(file);
  return Result<StaticRTree>(std::move(tree));
}

Status StaticRTree::AttachTo(const uint8_t* base, size_t size) {
  if (size < kHeaderBytes) {
    return Status::Internal("static r-tree blob too short");
  }
  if (std::memcmp(base, kMagic, 8) != 0) {
    return Status::Internal("static r-tree blob: bad magic");
  }
  const uint64_t count = util::Load<uint64_t>(base + 8);
  const uint32_t num_levels = util::Load<uint32_t>(base + 16);
  if (util::Load<uint32_t>(base + 20) != kLeafCapacity ||
      util::Load<uint32_t>(base + 24) != kBranching) {
    return Status::Internal("static r-tree blob: geometry mismatch");
  }
  const uint64_t nodes_offset = util::Load<uint64_t>(base + 64);
  const uint64_t num_nodes_total = util::Load<uint64_t>(base + 72);
  const uint64_t leaves_offset = util::Load<uint64_t>(base + 80);
  const uint64_t num_pages = util::Load<uint64_t>(base + 88);
  const uint64_t exact_offset = util::Load<uint64_t>(base + 96);
  const uint64_t ids_offset = util::Load<uint64_t>(base + 104);
  const uint64_t total = util::Load<uint64_t>(base + 112);

  // Recompute the whole section layout from (count, num_levels) and insist
  // the header agrees — cheaper to reason about than bounds-checking each
  // field independently, and it rejects any overlapping-section corruption.
  if (count > (uint64_t{1} << 40)) {
    return Status::Internal("static r-tree blob: implausible count");
  }
  if ((count == 0) != (num_levels == 0)) {
    return Status::Internal("static r-tree blob: count/levels disagree");
  }
  std::vector<uint64_t> level_counts(num_levels);
  uint64_t nodes_sum = 0;
  for (uint32_t l = 0; l < num_levels; ++l) {
    if (kHeaderBytes + 8 * (l + 1) > size) {
      return Status::Internal("static r-tree blob: truncated level table");
    }
    level_counts[l] = util::Load<uint64_t>(base + kHeaderBytes + 8 * l);
    nodes_sum += level_counts[l];
  }
  const uint64_t want_pages = (count + kLeafCapacity - 1) / kLeafCapacity;
  if (num_levels > 0) {
    if (level_counts[0] != want_pages ||
        level_counts[num_levels - 1] != 1) {
      return Status::Internal("static r-tree blob: bad level geometry");
    }
    for (uint32_t l = 1; l < num_levels; ++l) {
      if (level_counts[l] !=
          (level_counts[l - 1] + kBranching - 1) / kBranching) {
        return Status::Internal("static r-tree blob: bad level geometry");
      }
    }
  }
  const uint64_t want_nodes_offset = kHeaderBytes + 8 * uint64_t{num_levels};
  const uint64_t want_leaves_offset = RoundUp(
      want_nodes_offset + nodes_sum * sizeof(NodeRec), kLeafPageBytes);
  const uint64_t want_exact_offset =
      want_leaves_offset + want_pages * kLeafPageBytes;
  const uint64_t want_ids_offset = want_exact_offset + count * 16;
  const uint64_t want_total = want_ids_offset + count * sizeof(IdSlot);
  if (nodes_offset != want_nodes_offset || num_nodes_total != nodes_sum ||
      leaves_offset != want_leaves_offset || num_pages != want_pages ||
      exact_offset != want_exact_offset || ids_offset != want_ids_offset ||
      total != want_total || total != size) {
    return Status::Internal("static r-tree blob: section layout mismatch");
  }
  if (BlobCrc(base, size) != util::Load<uint32_t>(base + 28)) {
    return Status::Internal("static r-tree blob: checksum mismatch");
  }

  const double fx0 = util::Load<double>(base + 32);
  const double fy0 = util::Load<double>(base + 40);
  const double fx1 = util::Load<double>(base + 48);
  const double fy1 = util::Load<double>(base + 56);
  if (count > 0) {
    if (!std::isfinite(fx0) || !std::isfinite(fy0) || !std::isfinite(fx1) ||
        !std::isfinite(fy1) || fx0 > fx1 || fy0 > fy1) {
      return Status::Internal("static r-tree blob: bad frame");
    }
    frame_ = Rect(fx0, fy0, fx1, fy1);
  } else {
    frame_ = Rect();
  }

  count_ = count;
  num_leaf_pages_ = num_pages;
  const double width_x = count > 0 ? fx1 - fx0 : 0.0;
  const double width_y = count > 0 ? fy1 - fy0 : 0.0;
  scale_x_ = width_x > 0.0 ? kQMaxD / width_x : 0.0;
  scale_y_ = width_y > 0.0 ? kQMaxD / width_y : 0.0;
  inv_scale_x_ = width_x > 0.0 ? width_x / kQMaxD : 0.0;
  inv_scale_y_ = width_y > 0.0 ? width_y / kQMaxD : 0.0;

  levels_.clear();
  const NodeRec* nodes = reinterpret_cast<const NodeRec*>(base + nodes_offset);
  uint64_t cursor = 0;
  for (uint32_t l = 0; l < num_levels; ++l) {
    levels_.push_back({nodes + cursor, level_counts[l]});
    cursor += level_counts[l];
  }
  base_ = base;
  blob_size_ = size;
  leaves_ = reinterpret_cast<const LeafEntry*>(base + leaves_offset);
  exact_ = reinterpret_cast<const double*>(base + exact_offset);
  ids_ = reinterpret_cast<const IdSlot*>(base + ids_offset);

  // The id directory must be strictly ascending with in-range slots for the
  // binary searches below to be sound.
  for (uint64_t i = 0; i < count_; ++i) {
    if (ids_[i].slot >= count_ ||
        (i > 0 && ids_[i].id <= ids_[i - 1].id)) {
      return Status::Internal("static r-tree blob: bad id directory");
    }
  }
  return Status::OK();
}

std::string StaticRTree::SerializeBlob() const {
  if (base_ == nullptr) return std::string();
  return std::string(reinterpret_cast<const char*>(base_), blob_size_);
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

void StaticRTree::ScanLeafPage(uint64_t page, uint32_t lo_qx, uint32_t span_qx,
                               uint32_t lo_qy, uint32_t span_qy,
                               const Rect& window, const IdFilter* skip,
                               std::vector<PointEntry>* out,
                               size_t* count_only) const {
  const LeafEntry* entries = leaves_ + page * kLeafCapacity;
  const uint64_t first_slot = page * kLeafCapacity;
  const uint64_t in_page = std::min<uint64_t>(kLeafCapacity, count_ - first_slot);
  for (uint64_t i = 0; i < in_page; ++i) {
    // Branchless coarse window test over the fixed-point coordinates: the
    // unsigned subtraction wraps below-range values far above the span.
    const uint32_t okx =
        static_cast<uint32_t>(entries[i].qx - lo_qx) <= span_qx;
    const uint32_t oky =
        static_cast<uint32_t>(entries[i].qy - lo_qy) <= span_qy;
    if (okx & oky) {
      const Point p = ExactLocation(first_slot + i);
      if (!window.Contains(p)) continue;  // exact refine kills coarse hits
      if (skip != nullptr && skip->count(entries[i].id) != 0) continue;
      if (out != nullptr) {
        out->push_back({entries[i].id, p});
      } else {
        ++*count_only;
      }
    }
  }
}

void StaticRTree::RangeSearchInto(const Rect& window, const IdFilter* skip,
                                  std::vector<PointEntry>* out) const {
  if (count_ == 0 || window.IsEmpty() || !window.Intersects(frame_)) return;
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
    const NodeRec& rec = levels_[f.level].nodes[f.idx];
    if (rec.min_qx > hi_qx || rec.max_qx < lo_qx || rec.min_qy > hi_qy ||
        rec.max_qy < lo_qy) {
      continue;
    }
    if (f.level == 0) {
      ScanLeafPage(f.idx, lo_qx, span_qx, lo_qy, span_qy, window, skip, out,
                   nullptr);
      continue;
    }
    const uint64_t begin = f.idx * kBranching;
    const uint64_t end =
        std::min(levels_[f.level - 1].count, begin + kBranching);
    for (uint64_t c = end; c > begin; --c) {  // pop order = ascending
      stack.push_back({f.level - 1, c - 1});
    }
  }
}

size_t StaticRTree::RangeCount(const Rect& window, const IdFilter* skip) const {
  if (count_ == 0 || window.IsEmpty() || !window.Intersects(frame_)) return 0;
  const uint32_t lo_qx = Quantize(window.min_x, frame_.min_x, scale_x_);
  const uint32_t hi_qx = Quantize(window.max_x, frame_.min_x, scale_x_);
  const uint32_t lo_qy = Quantize(window.min_y, frame_.min_y, scale_y_);
  const uint32_t hi_qy = Quantize(window.max_y, frame_.min_y, scale_y_);
  size_t total = 0;

  struct Frame {
    uint32_t level;
    uint64_t idx;
  };
  std::vector<Frame> stack;
  stack.push_back({static_cast<uint32_t>(levels_.size() - 1), 0});
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    const NodeRec& rec = levels_[f.level].nodes[f.idx];
    if (rec.min_qx > hi_qx || rec.max_qx < lo_qx || rec.min_qy > hi_qy ||
        rec.max_qy < lo_qy) {
      continue;
    }
    if (f.level == 0) {
      ScanLeafPage(f.idx, lo_qx, hi_qx - lo_qx, lo_qy, hi_qy - lo_qy, window,
                   skip, nullptr, &total);
      continue;
    }
    const uint64_t begin = f.idx * kBranching;
    const uint64_t end =
        std::min(levels_[f.level - 1].count, begin + kBranching);
    for (uint64_t c = begin; c < end; ++c) stack.push_back({f.level - 1, c});
  }
  return total;
}

std::vector<PointEntry> StaticRTree::KNearest(const Point& from, size_t k,
                                              const IdFilter* skip) const {
  std::vector<PointEntry> out;
  if (count_ == 0 || k == 0) return out;
  out.reserve(std::min<uint64_t>(k, count_));

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
  best.reserve(std::min<uint64_t>(k, count_));
  const auto worst_dist = [&] {
    return best.size() < k ? std::numeric_limits<double>::infinity()
                           : best.front().dist;
  };
  const uint32_t root_level = static_cast<uint32_t>(levels_.size() - 1);
  heap.push({MinDist(from, DequantRect(levels_[root_level].nodes[0])),
             root_level, 0});
  while (!heap.empty()) {
    const NodeItem item = heap.top();
    heap.pop();
    if (item.dist > worst_dist()) break;  // nothing nearer remains
    if (item.level == 0) {
      const uint64_t first_slot = item.idx * kLeafCapacity;
      const uint64_t in_page =
          std::min<uint64_t>(kLeafCapacity, count_ - first_slot);
      const LeafEntry* entries = leaves_ + first_slot;
      for (uint64_t i = 0; i < in_page; ++i) {
        if (skip != nullptr && skip->count(entries[i].id) != 0) continue;
        const uint64_t slot = first_slot + i;
        const Best candidate{Distance(from, ExactLocation(slot)),
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
        std::min(levels_[item.level - 1].count, begin + kBranching);
    const double bound = worst_dist();
    for (uint64_t c = begin; c < end; ++c) {
      const double d =
          MinDist(from, DequantRect(levels_[item.level - 1].nodes[c]));
      if (d <= bound) heap.push({d, item.level - 1, c});
    }
  }
  std::sort(best.begin(), best.end());
  for (const Best& b : best) out.push_back({b.id, ExactLocation(b.slot)});
  return out;
}

double StaticRTree::NearestDistance(const Point& from,
                                    const IdFilter* skip) const {
  std::vector<PointEntry> nearest = KNearest(from, 1, skip);
  if (nearest.empty()) return std::numeric_limits<double>::infinity();
  return Distance(from, nearest[0].location);
}

Result<Point> StaticRTree::Locate(ObjectId id) const {
  const IdSlot* end = ids_ + count_;
  const IdSlot* it = std::lower_bound(
      ids_, end, id, [](const IdSlot& s, ObjectId v) { return s.id < v; });
  if (it == end || it->id != id) {
    return Status::NotFound("object " + std::to_string(id) +
                            " not in static index");
  }
  return ExactLocation(it->slot);
}

bool StaticRTree::ContainsId(ObjectId id) const {
  const IdSlot* end = ids_ + count_;
  const IdSlot* it = std::lower_bound(
      ids_, end, id, [](const IdSlot& s, ObjectId v) { return s.id < v; });
  return it != end && it->id == id;
}

}  // namespace cloakdb
