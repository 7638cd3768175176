#include "util/poisson_binomial.h"

#include <algorithm>

namespace cloakdb {

Result<std::vector<double>> PoissonBinomialPmf(const std::vector<double>& ps) {
  for (double p : ps) {
    if (p < 0.0 || p > 1.0)
      return Status::InvalidArgument(
          "Poisson-binomial probability outside [0, 1]");
  }
  std::vector<double> pmf(ps.size() + 1, 0.0);
  pmf[0] = 1.0;
  size_t upper = 0;  // highest index that can be non-zero so far
  for (double p : ps) {
    ++upper;
    // Walk downward so each trial is folded in exactly once.
    for (size_t j = upper; j > 0; --j) {
      pmf[j] = pmf[j] * (1.0 - p) + pmf[j - 1] * p;
    }
    pmf[0] *= (1.0 - p);
  }
  return pmf;
}

int CountAnswer::MostLikely() const {
  if (pmf.empty()) return 0;
  auto it = std::max_element(pmf.begin(), pmf.end());
  return static_cast<int>(it - pmf.begin());
}

namespace {

// The paper's "100% sure": a probability within `eps` of 0 or 1 is exact.
double Snapped(double p, double eps) {
  double q = std::clamp(p, 0.0, 1.0);
  if (q <= eps) q = 0.0;
  if (q >= 1.0 - eps) q = 1.0;
  return q;
}

}  // namespace

Result<CountAnswer> SummarizeCount(const std::vector<double>& ps,
                                   double certainty_eps) {
  CountAnswer ans;
  for (double p : ps) {
    if (p < -certainty_eps || p > 1.0 + certainty_eps)
      return Status::InvalidArgument("count probability outside [0, 1]");
    const double q = Snapped(p, certainty_eps);
    ans.expected += q;
    ans.variance += q * (1.0 - q);
    if (q == 1.0) ++ans.min_count;
    if (q > 0.0) ++ans.max_count;
  }
  return ans;
}

Result<CountAnswer> MakeCountAnswer(const std::vector<double>& ps,
                                    double certainty_eps) {
  auto ans = SummarizeCount(ps, certainty_eps);
  if (!ans.ok()) return ans;
  std::vector<double> snapped;
  snapped.reserve(ps.size());
  for (double p : ps) snapped.push_back(Snapped(p, certainty_eps));
  auto pmf = PoissonBinomialPmf(snapped);
  if (!pmf.ok()) return pmf.status();
  ans.value().pmf = std::move(pmf).value();
  return ans;
}

}  // namespace cloakdb
