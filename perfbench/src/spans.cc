#include "spans.h"

#include <cstdio>

namespace perfbench {

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_(Clock::now()) {}

int64_t SpanRecorder::Record(const char* name, Clock::time_point start,
                             Clock::time_point end, int64_t parent,
                             uint64_t request) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(start - origin_)
          .count();
  span.end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - origin_)
          .count();
  span.parent = parent;
  span.request = request;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
  return static_cast<int64_t>(spans_.size() - 1);
}

size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool SpanRecorder::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                 "\"end_us\":%.3f,\"parent\":%lld,\"request\":%llu}\n",
                 i, s.name, s.start_ns / 1e3, s.end_ns / 1e3,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

Budget::Budget(std::string title, std::string unit,
               std::vector<std::string> layers)
    : title_(std::move(title)),
      unit_(std::move(unit)),
      layers_(std::move(layers)) {}

void Budget::AddRequest(const std::vector<double>& self_times) {
  rows_.push_back(self_times);
}

double Budget::LayerMedian(size_t layer) const {
  std::vector<double> column;
  column.reserve(rows_.size());
  for (const auto& row : rows_) column.push_back(row[layer]);
  return Median(std::move(column));
}

void Budget::Print(double untraced_p50, double traced_p50) const {
  std::printf("budget %s (median self time per layer, %zu traced)\n",
              title_.c_str(), rows_.size());
  double sum = 0.0;
  for (size_t i = 0; i < layers_.size(); ++i) {
    const double v = LayerMedian(i);
    sum += v;
    std::printf("  %-10s %12.2f %s\n", layers_[i].c_str(), v, unit_.c_str());
  }
  std::printf("  %-10s %12.2f %s\n", "residual", untraced_p50 - sum,
              unit_.c_str());
  std::printf("  %-10s %12.2f %s  (untraced p50)\n", "total", untraced_p50,
              unit_.c_str());
  std::printf("  tracing overhead: traced p50 %.2f - untraced p50 %.2f = "
              "%.2f %s\n",
              traced_p50, untraced_p50, traced_p50 - untraced_p50,
              unit_.c_str());
}

}  // namespace perfbench
