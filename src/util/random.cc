#include "util/random.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace cloakdb {

namespace {

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  // splitmix64 steps: word i is Mix64(seed + i * golden ratio).
  for (auto& s : s_)
    s = Mix64(std::exchange(seed, seed + 0x9E3779B97F4A7C15ULL));
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 random mantissa bits -> uniform in [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) {
  assert(lo <= hi);
  return lo + (hi - lo) * NextDouble();
}

uint64_t Rng::NextBelow(uint64_t n) {
  assert(n > 0);
  // Rejection sampling to remove modulo bias.
  const uint64_t threshold = (0 - n) % n;
  for (;;) {
    uint64_t r = Next();
    if (r >= threshold) return r % n;
  }
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  return lo + static_cast<int64_t>(
                  NextBelow(static_cast<uint64_t>(hi - lo) + 1));
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

double Rng::NextGaussian() {
  if (have_cached_gaussian_) {
    have_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  // Box-Muller; u1 in (0,1] so log(u1) is finite.
  double u1 = 1.0 - NextDouble();
  double u2 = NextDouble();
  double mag = std::sqrt(-2.0 * std::log(u1));
  cached_gaussian_ = mag * std::sin(2.0 * M_PI * u2);
  have_cached_gaussian_ = true;
  return mag * std::cos(2.0 * M_PI * u2);
}

double Rng::Gaussian(double mean, double stddev) {
  return mean + stddev * NextGaussian();
}

double Rng::Exponential(double lambda) {
  assert(lambda > 0.0);
  double u = 1.0 - NextDouble();  // (0, 1]
  return -std::log(u) / lambda;
}

ZipfSampler::ZipfSampler(size_t n, double theta) : theta_(theta) {
  assert(n > 0);
  assert(theta >= 0.0);
  cdf_.resize(n);
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf_[i] = sum;
  }
  for (auto& c : cdf_) c /= sum;
  cdf_.back() = 1.0;  // guard against rounding
}

size_t ZipfSampler::Sample(Rng* rng) const {
  double u = rng->NextDouble();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) --it;
  return static_cast<size_t>(it - cdf_.begin());
}

}  // namespace cloakdb
