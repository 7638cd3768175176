// The Fig. 5 refine kernel: every private range, NN and kNN answer keeps
// exactly the fetched hits this kernel keeps. A fetch filter drops hits
// outside the query's reach (range: the radius-expanded cloak, then the
// exact rounded rectangle; NN/kNN: MinDist(o, R) <= reach), and k-dominance
// pruning drops an NN/kNN object that cannot be among the k nearest of any
// point of the cloaked region R.
//
// The prune keeps o iff, in at least one tile T of a fixed 4x4 grid of
// closed tiles over R, MinDist(o, T) is at most the k-th smallest
// MaxDist(o', T) over the hits: fewer than k objects are then nearer than o
// at every point of T. Every point of R lies in some tile, and its true k
// nearest survive that tile's test, so the union over tiles is still a
// candidate superset for every point of R. A tile only shrinks MaxDist and
// grows MinDist, so the kernel keeps a subset of whole-R k-dominance. It
// runs over squared distances in two passes:
// 1. Whole cloak (k > 1): one nth_element finds the k-th smallest
//    MaxDist(o', R). The objects within it are k objects near every tile,
//    so they bound each tile's k-th from above, and each tile selects its
//    k-th with nth_element among the values under its bound. (k = 1 takes
//    each tile's minimum in one scan instead.)
// 2. Tiles: a hit whose MinDist(o, R) exceeds the largest tile threshold
//    (everything whole-R dominance drops, and more) goes with one test; the
//    rest take the 16 tile tests, branch-free.
// The grid is a function of R alone, so the list says nothing about where
// in R the user is. A union of per-shard lists re-pruned by this kernel
// equals the one-shard list: a tile's k smallest MaxDist always survive
// their shard, so the merge sees the same per-tile thresholds.
//
// Header-only and templated over the hit type, so the one-shot queries
// (IndexHit hits), standing queries (PublicObject fetches) and the
// cross-shard merge (PublicObject candidates) all run one predicate by
// construction rather than by review.

#ifndef CLOAKDB_SERVER_DOMINANCE_H_
#define CLOAKDB_SERVER_DOMINANCE_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "geom/distance.h"

namespace cloakdb {

/// A hit held by value or by pointer into someone else's vector.
template <typename T>
const T& HitOf(const T& hit) {
  return hit;
}
template <typename T>
const T& HitOf(const T* hit) {
  return *hit;
}

/// Tiles per side of the grid over the cloak.
inline constexpr size_t kDominanceTiles = 4;

/// Edge e (0..kDominanceTiles) of the tile grid over [lo, hi]. Edges are
/// non-decreasing and stay inside [lo, hi], so the closed tiles cover it.
inline double DominanceTileEdge(double lo, double hi, size_t e) {
  if (e == kDominanceTiles) return hi;
  return std::min(hi, lo + (hi - lo) * (static_cast<double>(e) /
                                        static_cast<double>(kDominanceTiles)));
}

/// Closed tile (i, j) of the grid over `cloaked`: column i, row j.
inline Rect DominanceTile(const Rect& cloaked, size_t i, size_t j) {
  return Rect(DominanceTileEdge(cloaked.min_x, cloaked.max_x, i),
              DominanceTileEdge(cloaked.min_y, cloaked.max_y, j),
              DominanceTileEdge(cloaked.min_x, cloaked.max_x, i + 1),
              DominanceTileEdge(cloaked.min_y, cloaked.max_y, j + 1));
}

namespace dominance_internal {

inline constexpr size_t kTiles = kDominanceTiles * kDominanceTiles;
using TileEdges = std::array<double, kDominanceTiles + 1>;
using AxisTerms = std::array<double, kDominanceTiles>;

inline TileEdges Edges(double lo, double hi) {
  TileEdges e;
  for (size_t i = 0; i <= kDominanceTiles; ++i)
    e[i] = DominanceTileEdge(lo, hi, i);
  return e;
}

/// Squared gap (MinDist) or far (MaxDist) term of v against each interval.
template <double (*Term)(double, double, double)>
AxisTerms Squares(double v, const TileEdges& e) {
  AxisTerms out;
  for (size_t i = 0; i < kDominanceTiles; ++i) {
    const double d = Term(v, e[i], e[i + 1]);
    out[i] = d * d;
  }
  return out;
}

/// Doubles of scratch a thread keeps between calls: 16 columns of up to
/// 1,024 hits (128 KB). A call over more hits frees its scratch on return,
/// so one large cloak does not pin its size on the thread.
inline constexpr size_t kScratchKeep = size_t{1} << 14;

/// Per-thread scratch (k > 1): pass 1's MaxDist column, then the per-tile
/// columns of MaxDist.
inline std::vector<double>& Scratch() {
  thread_local std::vector<double> scratch;
  return scratch;
}

}  // namespace dominance_internal

/// The tile k-dominance prune (see the file comment). Verdicts equal the
/// quadratic per-tile test "fewer than k objects o' have MaxDistSquared(o',
/// T) < MinDistSquared(o, T) for some tile T" bit for bit. Order-preserving;
/// returns the prune count.
template <typename T>
size_t KDominancePrune(std::vector<T>* hits, const Rect& cloaked, size_t k) {
  namespace di = dominance_internal;
  const size_t n = hits->size();
  if (n <= k) return 0;
  std::vector<double>& scratch = di::Scratch();
  auto point = [](const T& h) -> const Point& { return HitOf(h).location; };
  const di::TileEdges xe = di::Edges(cloaked.min_x, cloaked.max_x);
  const di::TileEdges ye = di::Edges(cloaked.min_y, cloaked.max_y);
  // Tile t = (i, j) adds the x-term of column i to the y-term of row j, as
  // MinDistSquared and MaxDistSquared do on the tile's Rect.
  auto for_each_tile = [](const di::AxisTerms& x, const di::AxisTerms& y,
                          auto&& f) {
    for (size_t t = 0; t < di::kTiles; ++t)
      f(t, x[t / kDominanceTiles] + y[t % kDominanceTiles]);
  };

  // kth[t]: the k-th smallest MaxDist to tile t over the hits.
  std::array<double, di::kTiles> kth;
  if (k == 1) {
    kth.fill(std::numeric_limits<double>::infinity());
    for (const T& h : *hits) {
      for_each_tile(di::Squares<AxisFar>(point(h).x, xe),
                    di::Squares<AxisFar>(point(h).y, ye),
                    [&](size_t t, double v) { kth[t] = std::min(kth[t], v); });
    }
  } else {
    // Pass 1: the k-th smallest MaxDist to the whole cloak, in what is
    // then tile 0's column.
    scratch.resize(di::kTiles * n);
    for (size_t i = 0; i < n; ++i)
      scratch[i] = MaxDistSquared(point((*hits)[i]), cloaked);
    std::nth_element(scratch.begin(), scratch.begin() + (k - 1),
                     scratch.begin() + n);
    const double whole_kth = scratch[k - 1];
    // The objects behind whole_kth are at least k, so their largest
    // MaxDist to a tile bounds that tile's k-th from above.
    std::array<double, di::kTiles> bound{};
    for (const T& h : *hits) {
      if (MaxDistSquared(point(h), cloaked) > whole_kth) continue;
      for_each_tile(
          di::Squares<AxisFar>(point(h).x, xe),
          di::Squares<AxisFar>(point(h).y, ye),
          [&](size_t t, double v) { bound[t] = std::max(bound[t], v); });
    }
    // Per tile, append the values within the bound to the tile's column
    // (branch-free), then select the k-th among them.
    std::array<size_t, di::kTiles> count{};
    for (const T& h : *hits) {
      for_each_tile(di::Squares<AxisFar>(point(h).x, xe),
                    di::Squares<AxisFar>(point(h).y, ye),
                    [&](size_t t, double v) {
                      scratch[t * n + count[t]] = v;
                      count[t] += v <= bound[t];
                    });
    }
    for (size_t t = 0; t < di::kTiles; ++t) {
      double* column = scratch.data() + t * n;
      std::nth_element(column, column + (k - 1), column + count[t]);
      kth[t] = column[k - 1];
    }
    if (scratch.capacity() > di::kScratchKeep)
      std::vector<double>().swap(scratch);
  }

  // MinDist to a tile is at least MinDist to the cloak, so one test drops
  // every hit beyond the largest tile threshold. That threshold is at most
  // the whole-cloak k-th, so this drops all that whole-cloak dominance
  // would.
  const double max_kth = *std::max_element(kth.begin(), kth.end());
  auto pruned_in_every_tile = [&](const T& h) {
    if (MinDistSquared(point(h), cloaked) > max_kth) return true;
    bool keep = false;
    for_each_tile(di::Squares<AxisGap>(point(h).x, xe),
                  di::Squares<AxisGap>(point(h).y, ye),
                  [&](size_t t, double v) { keep |= v <= kth[t]; });
    return !keep;
  };
  hits->erase(std::remove_if(hits->begin(), hits->end(), pruned_in_every_tile),
              hits->end());
  return n - hits->size();
}

/// The two shapes of Fig. 5: a range (5a) or a k-nearest query (5b; NN is
/// k = 1).
enum class RefineKind : uint8_t { kRange, kNearest };

/// What the kernel needs to know about one private query.
struct RefineQuery {
  RefineKind kind = RefineKind::kRange;
  Rect cloaked;
  /// Range: the query radius. NN/kNN: the conservative fetch radius, or
  /// +infinity when every object of the category is a candidate (the kNN
  /// pigeonhole case).
  double reach = 0.0;
  size_t k = 1;                    ///< NN/kNN.
  bool exact_rounded_rect = true;  ///< Range: apply the exact disc test.
};

/// The kernel's verdict: pointers to the kept hits, in hit order.
template <typename T>
struct Refined {
  std::vector<const T*> survivors;
  size_t rounded_rect_pruned = 0;  ///< Range: in the MBR, outside the disc.
  size_t dominance_pruned = 0;     ///< NN/kNN.
};

/// Filters `hits` to the query's fetch and prunes them. Any hits outside
/// the fetch are dropped uncounted, so a superset of the fetch (a standing
/// coverage fetch) refines to the same survivors and counts as a fetch of
/// exactly the query's window.
template <typename T>
Refined<T> RefineHits(const RefineQuery& q, const std::vector<T>& hits) {
  Refined<T> out;
  const Rect window = q.cloaked.Expanded(q.reach);
  // MinDistSquared > reach2 iff MinDist > reach, with no root per hit.
  const double reach2 = SquaredBound(q.reach);
  for (const T& h : hits) {
    const Point& p = h.location;
    if (q.kind == RefineKind::kRange) {
      if (!window.Contains(p)) continue;
      // The exact region is the Minkowski sum of R and a radius disc (the
      // paper's rounded rectangle): MinDist(o, R) <= r.
      if (q.exact_rounded_rect && MinDistSquared(p, q.cloaked) > reach2) {
        ++out.rounded_rect_pruned;
        continue;
      }
    } else if (MinDistSquared(p, q.cloaked) > reach2) {
      // The window over-approximates the disc sum; drop its corners.
      continue;
    }
    out.survivors.push_back(&h);
  }
  if (q.kind == RefineKind::kNearest) {
    // Every dominator of an in-reach object is itself in reach, so pruning
    // the filtered hits equals pruning the whole category.
    out.dominance_pruned = KDominancePrune(&out.survivors, q.cloaked, q.k);
  }
  return out;
}

}  // namespace cloakdb

#endif  // CLOAKDB_SERVER_DOMINANCE_H_
