// Private queries over public data (paper Section 6.2.1, Fig. 5).
//
// The querying user is known to the server only as a cloaked rectangle R.
// The server returns a *candidate list* that is guaranteed to contain the
// exact answer for every possible location inside R; the mobile client then
// refines the list locally against her true location. The server-side
// guarantee / client-side refinement split is the paper's trade-off between
// transmission cost and privacy.

#ifndef CLOAKDB_SERVER_PRIVATE_QUERIES_H_
#define CLOAKDB_SERVER_PRIVATE_QUERIES_H_

#include <string>
#include <vector>

#include "server/dominance.h"
#include "server/object_store.h"
#include "util/status.h"

namespace cloakdb {

/// Result of a private range query (Fig. 5a): "all objects within `radius`
/// of my location".
struct PrivateRangeResult {
  /// Candidate objects: every object that can be within `radius` of *some*
  /// point of the cloaked region.
  std::vector<PublicObject> candidates;
  /// The extended search region actually used (cloaked region expanded by
  /// the radius — the MBR approximation of the paper's rounded rectangle).
  Rect extended_region;
  /// Number of objects fetched from the extended MBR but discarded by the
  /// exact rounded-rectangle test.
  size_t rounded_rect_pruned = 0;
  /// Set by the service layer when the fan-out was cut short (deadline,
  /// overload budget, or shard failure). The candidate list is then a
  /// correct superset only for objects on the shards marked in
  /// `covered_shards`; it never silently drops coverage without the flag.
  bool degraded = false;
  /// Service-layer coverage bitmap: bit i set iff shard i's contribution is
  /// fully reflected (the shard answered, or provably holds no qualifying
  /// object). All-ones (on the shards that exist) when !degraded.
  uint64_t covered_shards = 0;
};

/// Options for private range queries.
struct PrivateRangeOptions {
  /// When true (default), candidates are filtered with the exact rounded-
  /// rectangle test MinDist(object, R) <= radius; when false, the MBR
  /// approximation the paper mentions for real implementations is returned.
  bool exact_rounded_rect = true;
};

/// Executes a private range query for cloaked region `cloaked` and radius
/// `radius` over category `category`. Fails with InvalidArgument on an
/// empty region or non-positive radius and NotFound on an empty category.
Result<PrivateRangeResult> PrivateRangeQuery(
    const ObjectStore& store, const Rect& cloaked, double radius,
    Category category, const PrivateRangeOptions& options = {});

/// Result of a private nearest-neighbor query (Fig. 5b).
struct PrivateNnResult {
  /// Candidate objects: for every point p in the cloaked region, the true
  /// nearest neighbor of p is one of these.
  std::vector<PublicObject> candidates;
  /// The conservative fetch radius used before pruning.
  double fetch_radius = 0.0;
  /// Number of fetched objects eliminated by dominance pruning: o goes when
  /// in every tile T of the kernel's grid over R some o' satisfies
  /// MaxDist(o', T) < MinDist(o, T), i.e. o' is guaranteed nearer for every
  /// user location in T — the paper's "target A is eliminated" argument,
  /// tile by tile.
  size_t dominance_pruned = 0;
  /// Degradation markers filled by the service layer; see
  /// PrivateRangeResult::degraded / covered_shards.
  bool degraded = false;
  uint64_t covered_shards = 0;
};

/// Executes a private NN query for cloaked region `cloaked` over category
/// `category`. Fails with InvalidArgument on an empty region and NotFound
/// on an empty category.
Result<PrivateNnResult> PrivateNnQuery(const ObjectStore& store,
                                       const Rect& cloaked,
                                       Category category);

/// Result of a private k-nearest-neighbor query (the natural k > 1
/// generalization of Fig. 5b: "find my 3 nearest gas stations").
struct PrivateKnnResult {
  /// Candidates guaranteed to contain the true k nearest neighbors of
  /// every point in the cloaked region.
  std::vector<PublicObject> candidates;
  double fetch_radius = 0.0;
  /// Objects eliminated because, in every tile of the kernel's grid over
  /// R, at least k others are guaranteed nearer for every user location.
  size_t dominance_pruned = 0;
  /// Degradation markers filled by the service layer; see
  /// PrivateRangeResult::degraded / covered_shards.
  bool degraded = false;
  uint64_t covered_shards = 0;
};

/// Executes a private k-NN query. Fails with InvalidArgument on an empty
/// region or k = 0, and NotFound on an empty category. When the category
/// holds fewer than k objects, all of them are returned.
Result<PrivateKnnResult> PrivateKnnQuery(const ObjectStore& store,
                                         const Rect& cloaked, size_t k,
                                         Category category);

// --- One pipeline: plan -> fetch -> refine -> materialize ----------------
//
// Every private range/NN/kNN answer runs the Fig. 5 kernel of
// server/dominance.h. A Plan* call validates the query and fixes its fetch
// (NN/kNN probe the cloak's corners for the conservative reach);
// AnswerPrivate probes the index over the fetch window, refines the hits
// through the kernel, sorts the survivors by id and materializes them from
// the category's record table by row.

/// One planned private query; `R` is the result type it answers with.
template <typename R>
struct PrivateFetch {
  RefineQuery refine;
  Category category = 0;
  /// Every candidate lies in here: the cloak expanded by the reach (the
  /// whole plane in the kNN pigeonhole case).
  Rect Window() const { return refine.cloaked.Expanded(refine.reach); }
};

/// Plans a private range query; fails like PrivateRangeQuery.
Result<PrivateFetch<PrivateRangeResult>> PlanPrivateRange(
    const ObjectStore& store, const Rect& cloaked, double radius,
    Category category, const PrivateRangeOptions& options = {});

/// Plans a private NN query; fails like PrivateNnQuery.
Result<PrivateFetch<PrivateNnResult>> PlanPrivateNn(const ObjectStore& store,
                                                    const Rect& cloaked,
                                                    Category category);

/// Plans a private k-NN query; fails like PrivateKnnQuery.
Result<PrivateFetch<PrivateKnnResult>> PlanPrivateKnn(
    const ObjectStore& store, const Rect& cloaked, size_t k,
    Category category);

/// Answers a planned query from one index probe of fetch.Window().
/// Candidates come sorted by id. Fails with Internal when a kept hit's row
/// does not hold its id.
template <typename R>
Result<R> AnswerPrivate(const ObjectStore& store, const PrivateFetch<R>& fetch);

/// The conservative k-NN fetch radius; returns 0.0 when the category holds
/// at most k objects (the probe is bypassed: everything is a candidate).
/// Fails like PrivateKnnQuery.
Result<double> KnnFetchRadius(const ObjectStore& store, const Rect& cloaked,
                              size_t k, Category category);

/// The full records of `category` index hits (held by value or by
/// pointer), in hit order: each is a copy of the row its hit names, with no
/// lookup. The index and the record table change together, so a row that
/// is dead or does not hold its hit's id is a broken invariant (or a hit
/// from before the last seal): it fails with Internal rather than return a
/// shorter or wrong list.
template <typename Hit>
Result<std::vector<PublicObject>> Materialize(const ObjectStore& store,
                                              Category category,
                                              const std::vector<Hit>& hits) {
  auto table = store.CategoryTable(category);
  if (!table.ok()) return table.status();
  const std::vector<PublicObject>& rows = table.value()->rows;
  const std::vector<bool>& live = table.value()->live;
  std::vector<PublicObject> out;
  out.reserve(hits.size());
  for (const Hit& h : hits) {
    const IndexHit& hit = HitOf(h);
    if (hit.row >= rows.size() || !live[hit.row] ||
        rows[hit.row].id != hit.id)
      return Status::Internal("index hit " + std::to_string(hit.id) +
                              " has no public object");
    out.push_back(rows[hit.row]);
  }
  return out;
}

/// Picks the true k nearest neighbors from k-NN candidates, sorted by
/// distance (ties by id). Returns fewer when the list is shorter than k.
std::vector<PublicObject> RefineKnnCandidates(
    const std::vector<PublicObject>& candidates, const Point& true_location,
    size_t k);

// --- Client-side refinement (runs on the mobile device) -------------------

/// Filters range-query candidates down to the exact answer for the client's
/// true location.
std::vector<PublicObject> RefineRangeCandidates(
    const std::vector<PublicObject>& candidates, const Point& true_location,
    double radius);

/// Picks the true nearest neighbor from NN candidates (ties broken by id);
/// fails with NotFound on an empty candidate list.
Result<PublicObject> RefineNnCandidates(
    const std::vector<PublicObject>& candidates, const Point& true_location);

}  // namespace cloakdb

#endif  // CLOAKDB_SERVER_PRIVATE_QUERIES_H_
