// In-memory span recording for the traced run, plus the per-layer budget
// table built from it.
//
// A span is recorded around every call the benchmark makes into a CloakDB
// layer (live: sends, receives, EnqueueUpdate, Flush) and around every
// single-threaded replay call (ExecuteQuery, Shard probes, QueryProcessor,
// StaticRTree, Anonymizer). The layer is the span name's prefix up to the
// first '.', and names the src/ module the call enters. Spans stay in
// memory and are written out as JSON lines when the run ends.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct Span {
  const char* name = "";  ///< "<layer>.<call>"; static storage.
  int64_t start_ns = 0;   ///< Relative to the recorder's origin.
  int64_t end_ns = 0;
  int64_t parent = -1;    ///< Index of the span this one decomposes.
  uint64_t request = 0;   ///< Query or wave id shared by all its spans.
};

/// Thread-safe span sink. Disabled recorders drop everything for free.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);

  bool enabled() const { return enabled_; }

  /// Records one span; returns its index, or -1 when disabled.
  int64_t Record(const char* name, Clock::time_point start,
                 Clock::time_point end, int64_t parent, uint64_t request);

  size_t size() const;

  /// Writes every span as one JSON object per line. Returns false on an
  /// I/O error.
  bool WriteJsonl(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// One budget row: a layer's self time at the median request or wave.
struct BudgetRow {
  std::string layer;
  double value = 0.0;
};

/// Per-request self times of each layer; the budget takes the median of
/// each column. Rows are layer names in print order.
class Budget {
 public:
  Budget(std::string title, std::string unit, std::vector<std::string> layers);

  /// Adds one request's self times, in the order of `layers`.
  void AddRequest(const std::vector<double>& self_times);
  size_t requests() const { return rows_.size(); }

  /// Prints the table: one row per layer (median self time), the explicit
  /// residual that makes the rows sum to `untraced_p50`, and the tracing
  /// overhead (traced p50 - untraced p50).
  void Print(double untraced_p50, double traced_p50) const;

 private:
  /// Median of one layer's column.
  double LayerMedian(size_t layer) const;

  std::string title_;
  std::string unit_;
  std::vector<std::string> layers_;
  std::vector<std::vector<double>> rows_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
