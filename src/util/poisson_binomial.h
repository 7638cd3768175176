// Poisson-binomial distribution: the law of a sum of independent Bernoulli
// trials with heterogeneous success probabilities.
//
// Paper Fig. 6a answers a public count query over private (cloaked) data as
// a probability density function: each cloaked object i contributes to the
// count with probability p_i = overlap(region_i, query) / area(region_i);
// the count is then Poisson-binomial distributed over the p_i.

#ifndef CLOAKDB_UTIL_POISSON_BINOMIAL_H_
#define CLOAKDB_UTIL_POISSON_BINOMIAL_H_

#include <cstddef>
#include <vector>

#include "util/status.h"

namespace cloakdb {

/// The exact PMF of sum_i Bernoulli(p_i), computed by O(n^2) dynamic
/// programming (numerically stable; exact up to float rounding).
///
/// Returns a vector of size n+1 where element j is P(count == j).
/// Fails if any p_i is outside [0, 1].
Result<std::vector<double>> PoissonBinomialPmf(const std::vector<double>& ps);

/// Summary of a Poisson-binomial count answer in the paper's three formats.
struct CountAnswer {
  double expected = 0.0;  ///< Absolute-value format: sum of p_i.
  int min_count = 0;      ///< Interval lower bound: #"{p_i == 1}".
  int max_count = 0;      ///< Interval upper bound: #"{p_i > 0}".
  std::vector<double> pmf;  ///< PDF format: pmf[j] = P(count == j).

  /// The most likely count (mode of the PMF); 0 when the PMF is empty.
  int MostLikely() const;

  /// Variance of the count: sum p_i (1 - p_i).
  double variance = 0.0;
};

/// Builds the O(n) answer formats from the per-object probabilities:
/// expected value, variance and the [min, max] interval; `pmf` stays
/// empty. Probabilities within `certainty_eps` of 0 or 1 are snapped,
/// matching the paper's "100% sure" reading of fully-contained / disjoint
/// regions.
Result<CountAnswer> SummarizeCount(const std::vector<double>& ps,
                                   double certainty_eps = 1e-12);

/// Builds all three answer formats: SummarizeCount plus the O(n^2) PMF
/// over the same snapped probabilities.
Result<CountAnswer> MakeCountAnswer(const std::vector<double>& ps,
                                    double certainty_eps = 1e-12);

}  // namespace cloakdb

#endif  // CLOAKDB_UTIL_POISSON_BINOMIAL_H_
