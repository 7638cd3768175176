// Shared vocabulary of the CloakDB benchmark: clock helpers, order
// statistics, the run configuration and the metric/check accumulators every
// workload reports through.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double UsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

inline Clock::duration SecondsToDuration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

/// CPU seconds (user + system) this process has used, on all its threads.
double ProcessCpuS();

/// CPU microseconds this thread spends on one fixed piece of benchmark code
/// (best of three runs): dependent random reads over 16 MB, short string
/// allocations and a small sort, the mix of work a query or an update does.
/// Its fastest runs on a 4-vCPU 2.1 GHz Xeon VM took about
/// kReferenceNominalUs.
double ReferenceKernelUs();
constexpr double kReferenceNominalUs = 1500.0;

/// Process CPU time per operation, sampled in fixed slices of a closed loop
/// and scaled to a reference speed. On a shared host, co-tenants that
/// contend for caches, memory and cores slow every instruction of a run by
/// a factor that moved by 15-30% between runs a minute apart, with steal
/// near 1%. So each closed slice is followed by ReferenceKernelUs(), and
/// its CPU per operation is scaled by kReferenceNominalUs / that time.
/// Contention only ever inflates a slice, so the lower quartile over the
/// scaled slices is reported. The kernel's own CPU time falls between
/// slices and is not counted.
class CpuPerOpSlices {
 public:
  explicit CpuPerOpSlices(double slice_s = 0.25);
  /// Counts `ops` completed operations; closes a slice once it has lasted
  /// slice_s.
  void Add(uint64_t ops);
  /// Lower quartile over the closed slices of scaled CPU microseconds per
  /// operation.
  double LowerQuartileUs() const;
  /// The same without scaling, and the median reference time, for the
  /// report.
  double RawLowerQuartileUs() const;
  double MedianReferenceUs() const;

 private:
  Clock::duration slice_;
  Clock::time_point slice_start_;
  double cpu_start_;
  uint64_t ops_ = 0;
  std::vector<double> per_op_us_;     ///< Unscaled, one per closed slice.
  std::vector<double> reference_us_;  ///< Kernel time after each slice.
};

/// q-quantile by linear interpolation between order statistics (the
/// "inclusive" method); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);
/// (q3 - q1) / median; 0 when the median is 0 or the sample is tiny.
double RelativeIqr(const std::vector<double>& values);

/// Command-line configuration of one run.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Validity gate: open-loop query p90 must stay under this.
  double p90_limit_us = 2000.0;
  /// Where spans, data directories and reports go (inside the checkout).
  std::string out_dir = ".bench_out";
};

/// How a reported number behaves across runs at the same seed.
enum class MetricKind {
  kTiming,   ///< A measured time or rate: varies run to run.
  kExact,    ///< Counted in a single-threaded replay: repeats exactly.
  kVarying,  ///< Counted under concurrency: varies; spread reported.
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  MetricKind kind = MetricKind::kTiming;
  /// Within-run spread (relative IQR over waves) for kVarying metrics.
  double spread = 0.0;
};

/// Ordered metric list (printing order = insertion order).
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           MetricKind kind = MetricKind::kTiming, double spread = 0.0);
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Answer-check accounting. Any failure fails the run.
class Checks {
 public:
  void Pass(uint64_t n = 1) { checked_ += n; }
  /// Records a failure; the first few messages are kept for the report.
  void Fail(const std::string& what);
  uint64_t checked() const { return checked_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& messages() const { return messages_; }
  void Merge(const Checks& other);

 private:
  uint64_t checked_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> messages_;
};

/// Operation accounting behind the result line's attempted/failed fields:
/// failed = failed answers + shed + transport errors + rejected updates.
struct OpCounts {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// Validity of one run: reasons it cannot be read as a measurement.
struct Validity {
  std::vector<std::string> problems;
  void Require(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  }
  bool valid() const { return problems.empty(); }
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
