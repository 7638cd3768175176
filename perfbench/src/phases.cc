#include "phases.h"

#include <algorithm>
#include <string>

namespace perfbench {

using namespace cloakdb;

namespace {

/// True counts of exact positions in `window`: (closed, strictly inside).
std::pair<int64_t, int64_t> TrueCount(const std::vector<Point>& positions,
                                      const Rect& window) {
  int64_t closed = 0, strict = 0;
  for (const Point& p : positions) {
    if (p.x < window.min_x || p.x > window.max_x || p.y < window.min_y ||
        p.y > window.max_y)
      continue;
    ++closed;
    if (p.x > window.min_x && p.x < window.max_x && p.y > window.min_y &&
        p.y < window.max_y)
      ++strict;
  }
  return {closed, strict};
}

}  // namespace

void CheckAnswer(const QueryStream& stream, size_t query,
                 const QueryResponse& response,
                 std::vector<std::pair<int64_t, int64_t>>* count_memo,
                 Checks* checks) {
  const QuerySpec& spec = stream.inputs->queries[query];
  if (response.kind != spec.kind) {
    checks->Fail("query " + std::to_string(query) + ": wrong answer kind");
    return;
  }
  if (spec.kind == QueryKind::kPublicCount) {
    if (!(response.count_min <= response.expected_count + 1e-9 &&
          response.expected_count <= response.count_max + 1e-9)) {
      checks->Fail("query " + std::to_string(query) +
                   ": expected count outside its interval");
      return;
    }
    if (stream.positions == nullptr) {
      checks->Pass();
      return;
    }
    auto& memo = (*count_memo)[query];
    if (memo.first < 0) memo = TrueCount(*stream.positions, spec.window);
    if (static_cast<int64_t>(response.count_min) > memo.first ||
        static_cast<int64_t>(response.count_max) < memo.second) {
      checks->Fail("query " + std::to_string(query) + ": count interval [" +
                   std::to_string(response.count_min) + ", " +
                   std::to_string(response.count_max) +
                   "] misses true count " + std::to_string(memo.first));
      return;
    }
    checks->Pass();
    return;
  }
  // Private kinds: the candidate list (sorted by id) must contain the
  // exact answer for the issuer's true location.
  const auto& candidates = response.candidates;
  auto less = [](const PublicObject& a, ObjectId id) { return a.id < id; };
  const bool sorted = std::is_sorted(
      candidates.begin(), candidates.end(),
      [](const PublicObject& a, const PublicObject& b) { return a.id < b.id; });
  for (ObjectId id : stream.inputs->truth[query]) {
    bool found;
    if (sorted) {
      auto it = std::lower_bound(candidates.begin(), candidates.end(), id, less);
      found = it != candidates.end() && it->id == id;
    } else {
      found = std::any_of(candidates.begin(), candidates.end(),
                          [id](const PublicObject& o) { return o.id == id; });
    }
    if (!found) {
      checks->Fail("query " + std::to_string(query) + " (" +
                   QueryKindName(spec.kind) + "): true answer " +
                   std::to_string(id) + " missing from " +
                   std::to_string(candidates.size()) + " candidates");
      return;
    }
  }
  checks->Pass();
}

OpenLoopQueries::OpenLoopQueries(WireConn* conn, const QueryStream& stream,
                                 const QueryPhaseOptions& options)
    : conn_(conn), stream_(stream), options_(options) {
  const uint64_t n =
      static_cast<uint64_t>(options.seconds * options.rate);
  result_.planned = n;
  // Start slightly in the future so thread start-up is not lateness.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  const double interval_s = 1.0 / options.rate;
  scheduled_.reserve(n);
  for (uint64_t i = 0; i < n; ++i)
    scheduled_.push_back(start + SecondsToDuration(interval_s * i));
  sent_at_.resize(n);
}

OpenLoopQueries::~OpenLoopQueries() {
  if (sender_.joinable()) sender_.join();
  if (receiver_.joinable()) receiver_.join();
}

void OpenLoopQueries::Start() {
  sender_ = std::thread([this] { SendLoop(); });
  receiver_ = std::thread([this] { ReceiveLoop(); });
}

void OpenLoopQueries::SendLoop() {
  const auto& requests = *stream_.requests;
  for (uint64_t i = 0; i < scheduled_.size(); ++i) {
    std::this_thread::sleep_until(scheduled_[i]);
    sent_at_[i] = Clock::now();
    const size_t q = (options_.first_query + i) % requests.size();
    if (!conn_->Send(i + 1, requests[q]).ok()) {
      send_failed_.store(true, std::memory_order_release);
      conn_->Shutdown();
      return;
    }
    sent_.store(i + 1, std::memory_order_release);
  }
}

void OpenLoopQueries::ReceiveLoop() {
  QueryPhaseResult& r = result_;
  const size_t nq = stream_.requests->size();
  std::vector<std::pair<int64_t, int64_t>> count_memo(nq, {-1, -1});
  r.latency_us.reserve(scheduled_.size());
  WireFrame frame;
  Clock::time_point last = Clock::now();
  while (r.answered < scheduled_.size()) {
    if (!conn_->Receive(&frame).ok()) {
      ++r.transport_errors;
      break;
    }
    const Clock::time_point now = Clock::now();
    last = now;
    const uint64_t idx = frame.request_id - 1;
    if (idx >= scheduled_.size()) {
      ++r.transport_errors;
      break;
    }
    // The response can only follow the send; wait for its timestamp.
    bool stamped = true;
    while (sent_.load(std::memory_order_acquire) <= idx) {
      if (send_failed_.load(std::memory_order_acquire)) {
        stamped = false;
        break;
      }
      std::this_thread::yield();
    }
    if (!stamped) {
      ++r.transport_errors;
      break;
    }
    ++r.answered;
    r.latency_us.push_back(UsBetween(scheduled_[idx], now));
    const size_t q = (options_.first_query + idx) % nq;
    if (!frame.is_response || !frame.response.ok()) {
      ++r.errors;
      r.checks.Fail("query " + std::to_string(q) + ": error answer " +
                    to_string(frame.error));
      continue;
    }
    const QueryResponse& resp = frame.response;
    if (resp.kind != QueryKind::kPublicCount) {
      ++r.private_answers;
      r.candidates += resp.candidates.size();
    }
    CheckAnswer(stream_, q, resp, &count_memo, &r.checks);
    const double rtt = UsBetween(sent_at_[idx], now);
    if (options_.keep_records) {
      r.records.push_back({q, UsBetween(scheduled_[idx], sent_at_[idx]), rtt,
                           static_cast<double>(resp.server_latency_us)});
    }
    if (options_.spans != nullptr && options_.spans->enabled()) {
      SpanRecorder& spans = *options_.spans;
      const int64_t root =
          spans.Record("query", scheduled_[idx], now, -1, q);
      spans.Record("gen.send_lateness", scheduled_[idx], sent_at_[idx], root,
                   q);
      const int64_t wire =
          spans.Record("net.rtt", sent_at_[idx], now, root, q);
      // The server reports only its duration; centre it in the round trip.
      const auto server = std::chrono::microseconds(resp.server_latency_us);
      const auto mid = sent_at_[idx] + (now - sent_at_[idx] - server) / 2;
      spans.Record("service.execute", mid, mid + server, wire, q);
    }
    if (options_.sample_every > 0 && idx % options_.sample_every == 0)
      r.samples.emplace_back(q, resp);
  }
  if (!scheduled_.empty()) r.drain_us = UsBetween(scheduled_.back(), last);
}

QueryPhaseResult OpenLoopQueries::Join() {
  if (sender_.joinable()) sender_.join();
  if (receiver_.joinable()) receiver_.join();
  QueryPhaseResult r = std::move(result_);
  r.sent = sent_.load(std::memory_order_acquire);
  if (send_failed_.load()) ++r.transport_errors;
  for (uint64_t i = 0; i < r.sent; ++i)
    r.lateness_us.push_back(UsBetween(scheduled_[i], sent_at_[i]));
  r.elapsed_s = options_.seconds;
  r.next_query = options_.first_query + r.sent;
  return r;
}

QueryPhaseResult RunClosedLoopQueries(WireConn* conn,
                                      const QueryStream& stream,
                                      const QueryPhaseOptions& options) {
  QueryPhaseResult r;
  const auto& requests = *stream.requests;
  const size_t nq = requests.size();
  std::vector<std::pair<int64_t, int64_t>> count_memo(nq, {-1, -1});
  std::vector<Clock::time_point> sent_at;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = start + SecondsToDuration(options.seconds);
  auto send_next = [&]() -> bool {
    const uint64_t i = sent_at.size();
    sent_at.push_back(Clock::now());
    if (!conn->Send(i + 1, requests[(options.first_query + i) % nq]).ok())
      return false;
    ++r.sent;
    return true;
  };
  bool ok = true;
  CpuPerOpSlices cpu;
  for (size_t i = 0; i < options.depth && ok; ++i) ok = send_next();
  uint64_t answered_in_window = 0;
  WireFrame frame;
  while (ok && r.answered < r.sent) {
    if (!conn->Receive(&frame).ok()) {
      ok = false;
      break;
    }
    const Clock::time_point now = Clock::now();
    const uint64_t idx = frame.request_id - 1;
    if (idx >= sent_at.size()) {
      ok = false;
      break;
    }
    ++r.answered;
    if (now < deadline) {
      ++answered_in_window;
      cpu.Add(1);
      ok = send_next();
    }
    r.latency_us.push_back(UsBetween(sent_at[idx], now));
    const size_t q = (options.first_query + idx) % nq;
    if (!frame.is_response || !frame.response.ok()) {
      ++r.errors;
      r.checks.Fail("query " + std::to_string(q) + ": error answer " +
                    to_string(frame.error));
      continue;
    }
    if (frame.response.kind != QueryKind::kPublicCount) {
      ++r.private_answers;
      r.candidates += frame.response.candidates.size();
    }
    CheckAnswer(stream, q, frame.response, &count_memo, &r.checks);
  }
  if (!ok) ++r.transport_errors;
  r.elapsed_s = options.seconds;
  r.planned = answered_in_window;
  r.cpu_us_per_op = cpu.LowerQuartileUs();
  r.cpu_raw_us_per_op = cpu.RawLowerQuartileUs();
  r.cpu_reference_us = cpu.MedianReferenceUs();
  r.next_query = options.first_query + r.sent;
  return r;
}

WavePhaseResult RunWaves(CloakDbService* service,
                         const std::vector<Wave>& waves, size_t* cursor,
                         std::vector<Point>* last_ack,
                         const WavePhaseOptions& options) {
  WavePhaseResult r;
  const TimeOfDay now = Noon();
  const bool traced = options.spans != nullptr && options.spans->enabled();
  const obs::MetricsRegistry& metrics = service->metrics();
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  const Clock::time_point deadline = start + SecondsToDuration(options.seconds);
  const uint64_t planned =
      options.open_loop ? static_cast<uint64_t>(options.seconds /
                                                options.period_s)
                        : 0;
  r.planned = planned;
  std::vector<bool> accepted;
  Clock::time_point last_done = start;
  CpuPerOpSlices cpu;
  for (uint64_t i = 0;; ++i) {
    Clock::time_point scheduled;
    if (options.open_loop) {
      if (i >= planned) break;
      scheduled = start + SecondsToDuration(options.period_s * i);
      std::this_thread::sleep_until(scheduled);
    } else {
      scheduled = Clock::now();
      if (scheduled >= deadline) break;
    }
    const size_t wave_index = *cursor;
    *cursor = (*cursor + 1) % waves.size();
    const Wave& wave = waves[wave_index];
    WaveRecord rec;
    if (options.keep_records) {
      rec.commit_us = metrics.SnapshotHistogram("wal.commit_us").sum;
      rec.fsyncs = static_cast<double>(metrics.CounterValue("wal.fsyncs_total"));
      rec.batches =
          static_cast<double>(metrics.SnapshotHistogram("ingest.batch_size").count);
      rec.refilters = static_cast<double>(
          metrics.CounterValue("cq.incremental_refilters_total"));
    }
    const Clock::time_point began = Clock::now();
    accepted.assign(wave.size(), false);
    for (size_t j = 0; j < wave.size(); ++j) {
      const Clock::time_point call = traced ? Clock::now() : Clock::time_point();
      const Status status =
          service->EnqueueUpdate(wave[j].first, wave[j].second, now);
      if (traced) r.enqueue_call_us.push_back(UsBetween(call, Clock::now()));
      if (status.ok()) {
        accepted[j] = true;
      } else {
        ++r.rejected;
      }
    }
    const Clock::time_point enqueued = Clock::now();
    const Status flushed = service->Flush();
    const Clock::time_point done = Clock::now();
    last_done = done;
    if (!flushed.ok()) r.rejected += wave.size();
    for (size_t j = 0; j < wave.size(); ++j) {
      if (accepted[j] && flushed.ok())
        (*last_ack)[wave[j].first - 1] = wave[j].second;
    }
    r.updates += wave.size();
    if (!options.open_loop) cpu.Add(wave.size());
    r.wave_ms.push_back(UsBetween(scheduled, done) / 1000.0);
    r.lateness_us.push_back(UsBetween(scheduled, began));
    if (options.keep_records) {
      rec.lateness_us = UsBetween(scheduled, began);
      rec.enqueue_us = UsBetween(began, enqueued);
      rec.flush_us = UsBetween(enqueued, done);
      rec.commit_us =
          metrics.SnapshotHistogram("wal.commit_us").sum - rec.commit_us;
      rec.fsyncs =
          static_cast<double>(metrics.CounterValue("wal.fsyncs_total")) -
          rec.fsyncs;
      rec.batches = static_cast<double>(
                        metrics.SnapshotHistogram("ingest.batch_size").count) -
                    rec.batches;
      rec.refilters = static_cast<double>(metrics.CounterValue(
                          "cq.incremental_refilters_total")) -
                      rec.refilters;
      r.records.push_back(rec);
    }
    if (traced) {
      SpanRecorder& spans = *options.spans;
      const int64_t root = spans.Record("wave", scheduled, done, -1, wave_index);
      spans.Record("gen.wave_lateness", scheduled, began, root, wave_index);
      spans.Record("service.enqueue", began, enqueued, root, wave_index);
      spans.Record("service.flush", enqueued, done, root, wave_index);
    }
  }
  r.elapsed_s = UsBetween(start, last_done) / 1e6;
  r.cpu_us_per_op = cpu.LowerQuartileUs();
  r.cpu_raw_us_per_op = cpu.RawLowerQuartileUs();
  r.cpu_reference_us = cpu.MedianReferenceUs();
  return r;
}

}  // namespace perfbench
