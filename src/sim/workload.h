// Query-workload generation: a configurable mix of the paper's two novel
// query classes plus their sub-types, drawn deterministically from a seed.

#ifndef CLOAKDB_SIM_WORKLOAD_H_
#define CLOAKDB_SIM_WORKLOAD_H_

#include <vector>

#include "core/anonymizer.h"
#include "geom/point.h"
#include "geom/rect.h"
#include "server/object_store.h"
#include "util/random.h"
#include "util/status.h"

namespace cloakdb {

/// The query shapes the privacy-aware server supports.
enum class QueryType {
  kPrivateRange,  ///< Private query over public data, range predicate.
  kPrivateNn,     ///< Private query over public data, nearest neighbor.
  kPrivateKnn,    ///< Private query over public data, k nearest neighbors.
  kPublicCount,   ///< Public query over private data, window count.
  kPublicNn,      ///< Public query over private data, nearest user.
};

const char* QueryTypeName(QueryType type);

/// One generated query.
struct QuerySpec {
  QueryType type = QueryType::kPrivateNn;
  /// Issuer for private queries (drawn from the registered users).
  UserId issuer = 0;
  /// Radius for private range queries.
  double radius = 0.0;
  /// Result size for private k-NN queries.
  size_t knn_k = 1;
  /// Target POI category for private queries.
  Category category = 0;
  /// Window for public count queries.
  Rect window;
  /// Query point for public NN queries.
  Point from;
};

/// Relative weights of each query type (normalized internally).
struct WorkloadMix {
  double private_range = 0.25;
  double private_nn = 0.25;
  double private_knn = 0.0;  ///< Off by default (k-NN is an extension).
  double public_count = 0.25;
  double public_nn = 0.25;
};

/// Generator parameters.
struct WorkloadOptions {
  WorkloadMix mix;
  /// Private range radii drawn uniformly from this interval (fractions of
  /// the space's shorter side).
  double min_radius_fraction = 0.01;
  double max_radius_fraction = 0.05;
  /// Public count windows: side drawn from this fractional interval.
  double min_window_fraction = 0.05;
  double max_window_fraction = 0.20;
  /// POI categories to target (uniformly picked).
  std::vector<Category> categories = {1};
  /// k-NN result sizes drawn uniformly from [min_knn, max_knn].
  size_t min_knn = 2;
  size_t max_knn = 8;
  /// Probability that a draw re-issues the previous spec verbatim instead
  /// of sampling a fresh one. Models the temporal locality real LBS
  /// workloads exhibit (the same hot queries recur), which is what the
  /// service's count cache exploits. 0 disables repetition.
  double repeat_probability = 0.0;
};

/// Draws query specs over a fixed user population and space.
class WorkloadGenerator {
 public:
  /// `users` are the candidate issuers of private queries (non-empty when
  /// the mix includes private queries). Fails with InvalidArgument on a
  /// degenerate mix or missing issuers/categories.
  static Result<WorkloadGenerator> Create(const Rect& space,
                                          std::vector<UserId> users,
                                          const WorkloadOptions& options);

  /// The next query spec.
  QuerySpec Next(Rng* rng);

  /// A batch of `n` specs.
  std::vector<QuerySpec> Batch(size_t n, Rng* rng);

 private:
  WorkloadGenerator(const Rect& space, std::vector<UserId> users,
                    const WorkloadOptions& options);

  Rect space_;
  std::vector<UserId> users_;
  WorkloadOptions options_;
  double cum_[5] = {0, 0, 0, 0, 0};  // normalized cumulative mix
  bool has_last_ = false;
  QuerySpec last_;  // previous spec, re-issued with repeat_probability
};

}  // namespace cloakdb

#endif  // CLOAKDB_SIM_WORKLOAD_H_
