#include "common.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>

namespace perfbench {

double ProcessCpuS() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

namespace {

double ThreadCpuUs() {
  timespec t{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) * 1e6 +
         static_cast<double>(t.tv_nsec) / 1e3;
}

/// Keeps the reference kernel's result live.
volatile uint32_t reference_sink = 0;

}  // namespace

double ReferenceKernelUs() {
  constexpr uint32_t kMask = (1u << 22) - 1;  // 4M words, 16 MB.
  static const std::vector<uint32_t> table = [] {
    std::vector<uint32_t> t(kMask + 1);
    uint32_t x = 777;
    for (uint32_t& v : t) {
      x = x * 1664525u + 1013904223u;
      v = x;
    }
    return t;
  }();
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = ThreadCpuUs();
    uint32_t idx = 0, acc = 0;
    for (int i = 0; i < 300; ++i) {
      for (int j = 0; j < 16; ++j) {
        idx = table[(idx ^ acc) & kMask];
        acc += idx;
      }
      std::vector<std::string> names;
      for (int j = 0; j < 32; ++j) {
        names.push_back("poi" + std::to_string((acc >> (j % 8)) ^
                                               table[(idx + j) & kMask]));
      }
      std::sort(names.begin(), names.end());
      acc ^= static_cast<uint32_t>(names[7].size()) +
             static_cast<uint8_t>(names[3][4]);
    }
    reference_sink = acc;
    const double us = ThreadCpuUs() - t0;
    if (rep == 0 || us < best) best = us;
  }
  return best;
}

CpuPerOpSlices::CpuPerOpSlices(double slice_s)
    : slice_(SecondsToDuration(slice_s)),
      slice_start_(Clock::now()),
      cpu_start_(ProcessCpuS()) {}

void CpuPerOpSlices::Add(uint64_t ops) {
  ops_ += ops;
  if (Clock::now() - slice_start_ < slice_) return;
  const double cpu = ProcessCpuS();
  if (ops_ > 0) {
    per_op_us_.push_back((cpu - cpu_start_) * 1e6 / ops_);
    reference_us_.push_back(ReferenceKernelUs());
  }
  slice_start_ = Clock::now();
  cpu_start_ = ProcessCpuS();
  ops_ = 0;
}

double CpuPerOpSlices::LowerQuartileUs() const {
  std::vector<double> scaled;
  for (size_t i = 0; i < per_op_us_.size(); ++i)
    scaled.push_back(per_op_us_[i] * kReferenceNominalUs / reference_us_[i]);
  return Quantile(std::move(scaled), 0.25);
}

double CpuPerOpSlices::RawLowerQuartileUs() const {
  return Quantile(per_op_us_, 0.25);
}

double CpuPerOpSlices::MedianReferenceUs() const {
  return Median(reference_us_);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double RelativeIqr(const std::vector<double>& values) {
  if (values.size() < 4) return 0.0;
  const double median = Median(values);
  if (median == 0.0) return 0.0;
  return (Quantile(values, 0.75) - Quantile(values, 0.25)) / median;
}

void MetricSet::Add(const std::string& name, double value,
                    const std::string& unit, MetricKind kind, double spread) {
  metrics_.push_back({name, value, unit, kind, spread});
}

void Checks::Fail(const std::string& what) {
  ++checked_;
  ++failed_;
  if (messages_.size() < 8) messages_.push_back(what);
}

void Checks::Merge(const Checks& other) {
  checked_ += other.checked_;
  failed_ += other.failed_;
  for (const std::string& m : other.messages_) {
    if (messages_.size() < 8) messages_.push_back(m);
  }
}

}  // namespace perfbench
