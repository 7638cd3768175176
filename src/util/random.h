// Deterministic, seedable random-number generation and the distributions the
// workload generators need (uniform, normal, exponential, Zipf).
//
// All randomized components in CloakDB take an explicit Rng (or a seed) so
// every experiment is reproducible bit-for-bit from its seed.

#ifndef CLOAKDB_UTIL_RANDOM_H_
#define CLOAKDB_UTIL_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace cloakdb {

/// splitmix64 (golden-ratio step plus finalizer): a cheap, well-mixed hash.
/// It seeds Rng and routes users to shards, so a data directory's layout
/// depends on its values (pinned by a golden test).
inline uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Full serializable state of an Rng: the four xoshiro256++ words plus the
/// Box-Muller spare. Saving and restoring this reproduces the generator's
/// future stream bit-exactly — the durability layer checkpoints the
/// pseudonym generator with it so recovered shards keep assigning the same
/// pseudonyms an uninterrupted service would have.
struct RngState {
  uint64_t s[4] = {0, 0, 0, 0};
  bool have_cached_gaussian = false;
  double cached_gaussian = 0.0;
};

/// xoshiro256++ pseudo-random generator.
///
/// Fast, high-quality, and fully deterministic from its 64-bit seed (seeded
/// via Mix64, splitmix64 as the algorithm's authors recommend). Not cryptographic.
class Rng {
 public:
  /// Creates a generator whose whole stream is determined by `seed`.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t NextBelow(uint64_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Bernoulli trial: true with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Standard normal via Box-Muller (mean 0, stddev 1).
  double NextGaussian();

  /// Normal with the given mean and standard deviation.
  double Gaussian(double mean, double stddev);

  /// Exponential with the given rate lambda (> 0).
  double Exponential(double lambda);

  /// Snapshot of the complete generator state (see RngState).
  RngState SaveState() const {
    RngState st;
    for (int i = 0; i < 4; ++i) st.s[i] = s_[i];
    st.have_cached_gaussian = have_cached_gaussian_;
    st.cached_gaussian = cached_gaussian_;
    return st;
  }

  /// Restores a state captured by SaveState; the future stream continues
  /// bit-exactly from the capture point.
  void LoadState(const RngState& st) {
    for (int i = 0; i < 4; ++i) s_[i] = st.s[i];
    have_cached_gaussian_ = st.have_cached_gaussian;
    cached_gaussian_ = st.cached_gaussian;
  }

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    if (items->empty()) return;
    for (size_t i = items->size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(NextBelow(i + 1));
      std::swap((*items)[i], (*items)[j]);
    }
  }

 private:
  uint64_t s_[4];
  bool have_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

/// Zipf-distributed integer sampler over {0, 1, ..., n-1}.
///
/// P(i) proportional to 1 / (i+1)^theta. theta = 0 degenerates to uniform;
/// larger theta concentrates mass on low ranks. Sampling is O(log n) via a
/// precomputed CDF, so constructing one sampler and reusing it is cheap.
class ZipfSampler {
 public:
  /// Builds the CDF for `n` ranks with skew `theta` (>= 0). Requires n > 0.
  ZipfSampler(size_t n, double theta);

  /// Draws a rank in [0, n).
  size_t Sample(Rng* rng) const;

  size_t n() const { return cdf_.size(); }
  double theta() const { return theta_; }

 private:
  std::vector<double> cdf_;
  double theta_;
};

}  // namespace cloakdb

#endif  // CLOAKDB_UTIL_RANDOM_H_
