#include "workloads.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>

#include "phases.h"
#include "replay.h"
#include "spans.h"
#include "world.h"

namespace perfbench {

using namespace cloakdb;
namespace fs = std::filesystem;

namespace {

constexpr double kWavePeriodS = 0.05;
constexpr size_t kWaveSize = 1000;
/// Queries of the traced phase replayed single-threaded.
constexpr size_t kReplayQueries = 1500;
/// Every N-th open-loop answer is re-executed in process (bit identity).
constexpr size_t kIdentitySampleEvery = 50;
/// Upper bound on closed-loop throughput, only to size the query stream.
constexpr double kMaxQps = 20000.0;
constexpr double kMaxWavesPerS = 400.0;
/// Closed-loop queries in flight on the one query connection.
constexpr size_t kClosedLoopDepth = 16;

/// Per-workload knobs. Phase lengths are shares of --seconds; traced runs
/// add a traced repeat of the open-loop phase (`traced` share).
struct Shape {
  WorldParams world;
  double query_rate = 0.0;  ///< Open-loop queries per second.
  double q_open = 0.0, q_closed = 0.0, w_open = 0.0, w_closed = 0.0;
  double traced = 0.0;
  int setups = 3;  ///< Set-ups per run; setup_s is their median.
};

Shape ShapeOf(const std::string& workload, double seconds) {
  Shape s;
  s.world.wave_size = kWaveSize;
  if (workload == "wire_read") {
    // Reads first on a quiet service, then an ingest tail with durability
    // off: the write-path control for ingest_durable.
    s.world.pois = 100000;
    s.query_rate = 1000.0;
    s.q_open = 0.2, s.q_closed = 0.4, s.w_open = 0.1, s.w_closed = 0.3;
    s.traced = 0.2;
    s.setups = 5;  // A fifth of a second each: more of them, steadier median.
  } else if (workload == "ingest_durable") {
    // Writes first, then a crash-style reopen, then a read tail against
    // the recovered (mmap-adopted) service.
    s.world.pois = 20000;
    s.world.durability = storage::DurabilityMode::kFsync;
    s.query_rate = 1000.0;
    s.w_open = 0.2, s.w_closed = 0.35, s.q_open = 0.1, s.q_closed = 0.35;
    s.traced = 0.2;
  } else {
    // Open-loop reads and waves at once, then each closed loop alone.
    s.world.pois = 20000;
    s.world.standing = 5000;
    s.world.shared_execution = true;
    s.world.hot_set = 256;
    s.world.repeat_probability = 0.9;
    s.world.wave_size = 250;
    s.query_rate = 1000.0;
    s.q_open = 0.25, s.w_open = 0.25, s.q_closed = 0.4, s.w_closed = 0.35;
    s.traced = 0.3;
    s.setups = 5;  // Two to three seconds each, with worker threads.
  }
  const double warm = 0.5;
  s.world.num_queries = static_cast<size_t>(
      s.query_rate * (s.q_open + s.traced) * seconds +
      kMaxQps * (s.q_closed * seconds + warm) + 1000);
  s.world.num_waves = static_cast<size_t>(
      (s.w_open + s.traced) * seconds / kWavePeriodS +
      kMaxWavesPerS * s.w_closed * seconds + 16);
  return s;
}

/// Machine-wide CPU ticks from /proc/stat: busy (user+nice+system) and
/// stolen by the hypervisor. Zeros where /proc/stat is unreadable.
struct CpuTicks {
  double busy = 0.0;
  double steal = 0.0;
};

CpuTicks ReadCpuTicks() {
  CpuTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  unsigned long long user = 0, nice = 0, system = 0, idle = 0, iowait = 0,
                     irq = 0, softirq = 0, steal = 0;
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &user,
                  &nice, &system, &idle, &iowait, &irq, &softirq,
                  &steal) == 8) {
    t.busy = static_cast<double>(user + nice + system);
    t.steal = static_cast<double>(steal);
  }
  std::fclose(f);
  return t;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

double CounterDelta(const obs::RegistrySnapshot& before,
                    const obs::RegistrySnapshot& after,
                    const std::string& name) {
  auto a = after.counters.find(name);
  auto b = before.counters.find(name);
  const double av = a == after.counters.end() ? 0.0 : a->second;
  const double bv = b == before.counters.end() ? 0.0 : b->second;
  return av - bv;
}

obs::HistogramSnapshot HistDelta(const obs::RegistrySnapshot& before,
                                 const obs::RegistrySnapshot& after,
                                 const std::string& name) {
  auto a = after.histograms.find(name);
  if (a == after.histograms.end()) return {};
  auto b = before.histograms.find(name);
  if (b == before.histograms.end()) return a->second;
  return obs::HistogramDelta(a->second, b->second);
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

bool SameAnswer(const QueryResponse& a, const QueryResponse& b) {
  if (a.kind != b.kind || a.error != b.error ||
      a.candidates.size() != b.candidates.size() ||
      !(a.extended_region == b.extended_region) ||
      a.fetch_radius != b.fetch_radius || a.pruned != b.pruned ||
      a.expected_count != b.expected_count || a.count_min != b.count_min ||
      a.count_max != b.count_max || a.degraded != b.degraded ||
      a.covered_shards != b.covered_shards)
    return false;
  for (size_t i = 0; i < a.candidates.size(); ++i) {
    const PublicObject& x = a.candidates[i];
    const PublicObject& y = b.candidates[i];
    if (x.id != y.id || !(x.location == y.location) ||
        x.category != y.category || x.name != y.name)
      return false;
  }
  return true;
}

/// Everything one run accumulates.
struct Run {
  explicit Run(const RunConfig& c) : cfg(c), spans(c.trace) {}

  const RunConfig& cfg;
  Shape shape;
  SpanRecorder spans;
  MetricSet e2e;
  MetricSet wall;
  MetricSet layers;
  Checks checks;
  OpCounts ops;
  Validity validity;
  std::string data_root;

  double Seconds(double share) const { return cfg.seconds * share; }
};

/// Closed loops: the scaled CPU per operation, unscaled, and the reference
/// kernel time the scaling used (CpuPerOpSlices).
void PrintCpuPerOp(double scaled_us, double raw_us, double reference_us) {
  if (scaled_us <= 0.0) return;
  std::printf(" | cpu/op %.2f us (unscaled %.2f us, reference kernel %.0f us)",
              scaled_us, raw_us, reference_us);
}

void PrintQueryPhase(const char* name, const QueryPhaseResult& r) {
  std::printf(
      "phase %-14s planned %7llu sent %7llu answered %7llu errors %llu | "
      "latency p50 %8.1f p90 %8.1f p99 %8.1f us (n=%zu)",
      name, static_cast<unsigned long long>(r.planned),
      static_cast<unsigned long long>(r.sent),
      static_cast<unsigned long long>(r.answered),
      static_cast<unsigned long long>(r.errors + r.transport_errors),
      Quantile(r.latency_us, 0.5), Quantile(r.latency_us, 0.9),
      Quantile(r.latency_us, 0.99), r.latency_us.size());
  if (!r.lateness_us.empty()) {
    std::printf(" | send lateness p50 %.1f p99 %.1f max %.1f us, drain %.1f us",
                Quantile(r.lateness_us, 0.5), Quantile(r.lateness_us, 0.99),
                Quantile(r.lateness_us, 1.0), r.drain_us);
  }
  PrintCpuPerOp(r.cpu_us_per_op, r.cpu_raw_us_per_op, r.cpu_reference_us);
  std::printf("\n");
}

void PrintWavePhase(const char* name, const WavePhaseResult& r) {
  std::printf(
      "phase %-14s waves %5zu updates %8llu rejected %llu | wave p50 %7.2f "
      "p90 %7.2f max %7.2f ms | start lateness p50 %.1f max %.1f us",
      name, r.wave_ms.size(), static_cast<unsigned long long>(r.updates),
      static_cast<unsigned long long>(r.rejected), Quantile(r.wave_ms, 0.5),
      Quantile(r.wave_ms, 0.9), Quantile(r.wave_ms, 1.0),
      Quantile(r.lateness_us, 0.5), Quantile(r.lateness_us, 1.0));
  PrintCpuPerOp(r.cpu_us_per_op, r.cpu_raw_us_per_op, r.cpu_reference_us);
  std::printf("\n");
}

void Account(Run& run, const QueryPhaseResult& r) {
  run.ops.attempted += r.sent;
  run.ops.failed += r.checks.failed() + (r.sent - r.answered);
  run.checks.Merge(r.checks);
  if (r.transport_errors > 0 || r.answered < r.sent)
    run.checks.Fail("transport: " + std::to_string(r.sent - r.answered) +
                    " queries unanswered");
}

void Account(Run& run, const WavePhaseResult& r) {
  run.ops.attempted += r.updates;
  run.ops.failed += r.rejected;
  if (r.rejected > 0)
    run.checks.Fail(std::to_string(r.rejected) + " updates rejected");
}

/// Open-loop gate: the whole offered load answered, p90 under the limit,
/// and no backlog left when the schedule ended.
void GateQueries(Run& run, const char* name, const QueryPhaseResult& r) {
  const std::string p(name);
  run.validity.Require(r.answered >= 0.99 * r.planned,
                       p + ": completed < 99% of offered load");
  run.validity.Require(Quantile(r.latency_us, 0.9) < run.cfg.p90_limit_us,
                       p + ": p90 over the latency limit");
  run.validity.Require(r.drain_us < run.cfg.p90_limit_us,
                       p + ": backlog at end of schedule");
}

void GateWaves(Run& run, const char* name, const WavePhaseResult& r) {
  const std::string p(name);
  run.validity.Require(Quantile(r.wave_ms, 0.9) < kWavePeriodS * 1000.0,
                       p + ": wave p90 over the wave period");
  run.validity.Require(Quantile(r.lateness_us, 1.0) < kWavePeriodS * 1e6,
                       p + ": generator fell a full wave behind");
}

/// Sets up shape.setups times (fresh data directory each time) and keeps
/// the last; returns the median set-up time.
Result<Live> MeasuredSetUp(Run& run, const Inputs& inputs, double* setup_s,
                           std::string* data_dir) {
  std::vector<double> times;
  Live keep;
  const int setups = run.shape.setups;
  for (int i = 0; i < setups; ++i) {
    const std::string dir = run.data_root + "/setup-" + std::to_string(i);
    std::error_code ec;
    fs::create_directories(dir, ec);
    const Clock::time_point t0 = Clock::now();
    auto live = SetUp(run.shape.world, inputs, dir);
    const Clock::time_point t1 = Clock::now();
    if (!live.ok()) return live.status();
    times.push_back(UsBetween(t0, t1) / 1e6);
    if (i + 1 < setups) {
      Live discard = std::move(live).value();
      discard.server.reset();
      discard.service.reset();
      fs::remove_all(dir, ec);
    } else {
      keep = std::move(live).value();
      *data_dir = dir;
    }
  }
  *setup_s = Median(times);
  std::printf("set-up:");
  for (double t : times) std::printf(" %.3f", t);
  std::printf(" s, median %.3f s\n", *setup_s);
  return keep;
}

/// Re-executes sampled wire answers in process; they must match exactly.
void CheckIdentity(Run& run, const CloakDbService& service,
                   const std::vector<QueryRequest>& requests,
                   const QueryPhaseResult& r, bool include_counts) {
  for (const auto& [q, wire] : r.samples) {
    if (!include_counts && wire.kind == QueryKind::kPublicCount) continue;
    const QueryResponse local = service.ExecuteQuery(requests[q]);
    if (SameAnswer(wire, local)) {
      run.checks.Pass();
    } else {
      run.checks.Fail("query " + std::to_string(q) +
                      ": wire answer differs from in-process ExecuteQuery");
    }
  }
}

/// Count intervals of in-process answers must bracket the true counts of
/// `positions` (used once users have stopped moving).
void CheckCountsInProcess(Run& run, const CloakDbService& service,
                          const Inputs& inputs,
                          const std::vector<QueryRequest>& requests,
                          const std::vector<Point>& positions) {
  QueryStream stream{&requests, &inputs, &positions};
  std::vector<std::pair<int64_t, int64_t>> memo(requests.size(), {-1, -1});
  size_t checked = 0;
  for (size_t q = 0; q < requests.size() && checked < 200; ++q) {
    if (requests[q].kind != QueryKind::kPublicCount) continue;
    ++checked;
    CheckAnswer(stream, q, service.ExecuteQuery(requests[q]), &memo,
                &run.checks);
  }
}

/// Standing answers after the final Flush: ranges and counts equal their
/// one-shot answers; NN lists contain the issuer's true nearest neighbour.
void CheckStanding(Run& run, const CloakDbService& service, const Live& live,
                   const Inputs& inputs, const std::vector<Point>& positions) {
  for (size_t i = 0; i < live.standing_ids.size(); i += 25) {
    const ContinuousQueryId id = live.standing_ids[i];
    const ContinuousSpec& spec = inputs.standing[i];
    auto answer = service.AnswerContinuous(id);
    auto info = service.ContinuousInfo(id);
    const std::string what = "standing query " + std::to_string(id);
    if (!answer.ok() || !info.ok() || answer.value().stale) {
      run.checks.Fail(what + ": no current answer");
      continue;
    }
    const StandingAnswer& a = answer.value();
    bool ok = true;
    if (spec.kind == QueryKind::kPublicCount) {
      const QueryResponse one = service.ExecuteQuery(QueryRequest::Count(spec.window));
      ok = one.ok() && a.count.min_count == static_cast<int>(one.count_min) &&
           a.count.max_count == static_cast<int>(one.count_max) &&
           std::fabs(a.count.expected - one.expected_count) < 1e-9;
    } else if (spec.kind == QueryKind::kPrivateRange) {
      const QueryResponse one = service.ExecuteQuery(
          QueryRequest::Range(info.value().region, spec.radius, spec.category));
      ok = one.ok() && one.candidates.size() == a.candidates.size();
      for (size_t j = 0; ok && j < a.candidates.size(); ++j)
        ok = a.candidates[j].id == one.candidates[j].id;
    } else {
      const Point& at = positions[spec.issuer - 1];
      const auto nearest = inputs.truth_tree.KNearest(at, 1, nullptr);
      ok = info.value().region.Contains(at) && !nearest.empty() &&
           std::any_of(a.candidates.begin(), a.candidates.end(),
                       [&](const PublicObject& o) {
                         return o.id == nearest.front().id;
                       });
    }
    if (ok) {
      run.checks.Pass();
    } else {
      run.checks.Fail(what + " (" + QueryKindName(spec.kind) +
                      "): standing answer differs from one-shot");
    }
  }
}

/// Traced-run results gathered across a workload's phases.
struct Traced {
  QueryPhaseResult queries;   ///< Traced open-loop query phase.
  WavePhaseResult waves;      ///< Traced open-loop wave phase.
  size_t waves_run_before = 0;  ///< Cursor at the traced wave phase.
  double untraced_query_p50_us = 0.0;
  double untraced_wave_p50_ms = 0.0;
};

/// Runs one open-loop query phase (optionally beside an open-loop wave
/// phase on this thread) and returns both.
struct OpenResult {
  QueryPhaseResult queries;
  WavePhaseResult waves;
};

OpenResult RunOpen(Run& run, WireConn* conn, const QueryStream& stream,
                   size_t* query_cursor, CloakDbService* wave_service,
                   const Inputs& inputs, size_t* wave_cursor,
                   std::vector<Point>* last_ack, double seconds, bool queries,
                   bool traced) {
  OpenResult out;
  std::unique_ptr<OpenLoopQueries> runner;
  if (queries) {
    QueryPhaseOptions qo;
    qo.rate = run.shape.query_rate;
    qo.seconds = seconds;
    qo.first_query = *query_cursor;
    qo.spans = traced ? &run.spans : nullptr;
    qo.keep_records = traced;
    qo.sample_every = traced ? 0 : kIdentitySampleEvery;
    runner = std::make_unique<OpenLoopQueries>(conn, stream, qo);
    runner->Start();
  }
  if (wave_service != nullptr) {
    WavePhaseOptions wo;
    wo.open_loop = true;
    wo.period_s = kWavePeriodS;
    wo.seconds = seconds;
    wo.spans = traced ? &run.spans : nullptr;
    wo.keep_records = traced;
    out.waves = RunWaves(wave_service, inputs.waves, wave_cursor, last_ack, wo);
  }
  if (runner != nullptr) {
    out.queries = runner->Join();
    *query_cursor = out.queries.next_query;
  }
  return out;
}

QueryPhaseResult RunClosed(WireConn* conn, const QueryStream& stream,
                           size_t* query_cursor, double seconds) {
  QueryPhaseOptions qo;
  qo.depth = kClosedLoopDepth;
  qo.seconds = seconds;
  qo.first_query = *query_cursor;
  QueryPhaseResult r = RunClosedLoopQueries(conn, stream, qo);
  *query_cursor = r.next_query;
  return r;
}

WavePhaseResult RunClosedWaves(CloakDbService* service, const Inputs& inputs,
                               size_t* cursor, std::vector<Point>* last_ack,
                               double seconds) {
  WavePhaseOptions wo;
  wo.open_loop = false;
  wo.seconds = seconds;
  return RunWaves(service, inputs.waves, cursor, last_ack, wo);
}

/// The gated end-to-end metrics: set-up time, memory, the candidate-list
/// cost of privacy, and the machine cost of a query and of an update. The
/// wall-clock timings are reported too (ReportWallClock), without a bound.
void ReportEndToEnd(Run& run, double setup_s, double setup_rss_mb,
                    const QueryPhaseResult& q_open,
                    const QueryPhaseResult& q_closed,
                    const WavePhaseResult& w_closed) {
  run.e2e.Add("setup_s", setup_s, "s");
  run.e2e.Add("peak_rss_mb", setup_rss_mb, "MB");
  run.e2e.Add("candidates_per_query",
              Ratio(q_open.candidates, q_open.private_answers), "count",
              MetricKind::kExact);
  // Process CPU time per operation in the closed loops, scaled to the
  // reference kernel's speed (CpuPerOpSlices): what an operation costs the
  // machine, insensitive to CPU time the host steals and to how much
  // co-tenants slow the cores.
  run.e2e.Add("query_cpu_us", q_closed.cpu_us_per_op, "us");
  run.e2e.Add("update_cpu_us", w_closed.cpu_us_per_op, "us");
}

/// Wall-clock latency and throughput of the open and closed loops. Printed
/// by every run and carried in the traced run's metrics with no bound: on a
/// shared host they move with the CPU time other tenants take.
void ReportWallClock(MetricSet* m, const QueryPhaseResult& q_open,
                     const QueryPhaseResult& q_closed,
                     const WavePhaseResult& w_open,
                     const WavePhaseResult& w_closed) {
  m->Add("wall.query_p50_us", Quantile(q_open.latency_us, 0.5), "us");
  m->Add("wall.query_p90_us", Quantile(q_open.latency_us, 0.9), "us");
  m->Add("wall.query_capacity_qps", Ratio(q_closed.planned, q_closed.elapsed_s),
         "queries/s");
  m->Add("wall.update_wave_p50_ms", Quantile(w_open.wave_ms, 0.5), "ms");
  m->Add("wall.update_wave_p90_ms", Quantile(w_open.wave_ms, 0.9), "ms");
  m->Add("wall.update_capacity_ups", Ratio(w_closed.updates, w_closed.elapsed_s),
         "updates/s");
}

/// What the per-layer report reads beyond the traced phases.
struct LayerInputs {
  const Inputs* inputs = nullptr;
  const Live* live = nullptr;             ///< Set-up cloaks.
  const CloakDbService* query_service = nullptr;
  /// Options and shard routing for the wave replicas.
  const CloakDbService* wave_service = nullptr;
  const std::vector<QueryRequest>* requests = nullptr;
  /// Registry of the service that ran the waves, after set-up and after
  /// the last wave.
  obs::RegistrySnapshot before, after;
  AnonymizerStats anon_before, anon_after;
  uint64_t updates = 0;  ///< Wave updates applied in the interval.
  uint64_t waves = 0;
  std::string data_dir;
  uint64_t all_updates = 0;  ///< Including set-up reports.
  double recovery_s = 0.0;
  uint64_t replayed_records = 0;
};

void ReportLayers(Run& run, const Traced& traced, const LayerInputs& in) {
  SpanRecorder& spans = run.spans;
  // Send order, not arrival order: the replayed set is then the same on
  // every run of a seed, which keeps the replay counters exact.
  std::vector<QueryRecord> records = traced.queries.records;
  std::sort(records.begin(), records.end(),
            [](const QueryRecord& a, const QueryRecord& b) {
              return a.query < b.query;
            });

  // --- Query replays on the traced phase's first queries. ---------------
  QueryReplayer query_replayer(*in.inputs, *in.query_service);
  std::vector<QueryReplay> replays;
  const size_t nq = std::min(kReplayQueries, records.size());
  for (size_t i = 0; i < nq; ++i) {
    replays.push_back(query_replayer.Replay((*in.requests)[records[i].query],
                                            records[i].query, &spans));
  }
  Budget qbudget("query, from scheduled send (us)", "us",
                 {"gen", "net", "service", "server", "index"});
  std::vector<double> rtt_minus, server_lat, exec, fanout_self, qp, qp_self,
      codec, range_us, corner_us;
  double shards = 0, bytes = 0, cand = 0, pruned = 0, fetch = 0,
         results = 0, range_probes = 0;
  size_t fetch_n = 0;
  for (size_t i = 0; i < replays.size(); ++i) {
    const QueryRecord& rec = records[i];
    const QueryReplay& rp = replays[i];
    const double svc = std::max(0.0, rp.exec_us - rp.qp_us);
    const double srv = std::max(0.0, rp.qp_us - rp.index_us);
    const double idx = std::max(0.0, rp.index_us);
    const double sum = svc + srv + idx;
    const double s = rec.server_us;
    qbudget.AddRequest({rec.lateness_us, rec.rtt_us - s,
                        sum > 0 ? s * svc / sum : s,
                        sum > 0 ? s * srv / sum : 0.0,
                        sum > 0 ? s * idx / sum : 0.0});
    exec.push_back(rp.exec_us);
    fanout_self.push_back(rp.exec_us - rp.shard_us);
    qp.push_back(rp.qp_us);
    codec.push_back(rp.codec_us);
    shards += rp.shards_touched;
    bytes += rp.response_bytes;
    if (rp.private_kind) {
      qp_self.push_back(rp.qp_us - rp.index_us);
      cand += rp.candidates;
      pruned += rp.pruned;
      results += rp.index_results;
      range_probes += rp.range_probes;
      if (rp.range_probes > 0) range_us.push_back(rp.index_range_us / rp.range_probes);
      if (rp.corner_probes > 0) corner_us.push_back(rp.index_corner_us / rp.corner_probes);
      if (rp.kind != QueryKind::kPrivateRange) {
        fetch += rp.fetch_radius;
        ++fetch_n;
      }
    }
  }
  // Per-kind replay cost: where the heavy tail of the mix comes from.
  for (QueryKind kind : {QueryKind::kPrivateRange, QueryKind::kPrivateNn,
                         QueryKind::kPrivateKnn, QueryKind::kPublicCount}) {
    std::vector<double> us, cands;
    for (const QueryReplay& rp : replays) {
      if (rp.kind != kind) continue;
      us.push_back(rp.exec_us);
      cands.push_back(static_cast<double>(rp.candidates));
    }
    std::printf("replay %-14s n=%5zu exec p50 %8.1f p99 %8.1f us | "
                "candidates p50 %6.0f p99 %6.0f\n",
                QueryKindName(kind), us.size(), Quantile(us, 0.5),
                Quantile(us, 0.99), Quantile(cands, 0.5),
                Quantile(cands, 0.99));
  }
  for (const QueryRecord& rec : records) {
    rtt_minus.push_back(rec.rtt_us - rec.server_us);
    server_lat.push_back(rec.server_us);
  }

  // --- Wave replays: every wave up to the end of the traced phase, in
  // order, so the replicas follow the same location history. ------------
  const auto& wrecs = traced.waves.records;
  Budget wbudget("update wave, from scheduled start (ms)", "ms",
                 {"gen", "service", "server", "core", "storage"});
  WaveReplayer wave_replayer(*in.inputs, *in.wave_service);
  double cloak_total = 0.0;
  uint64_t cloak_updates = 0;
  const size_t traced_begin = traced.waves_run_before;
  const size_t traced_end = traced_begin + wrecs.size();
  const double nshards = in.wave_service->num_shards();
  std::vector<double> flush_us, fsync_per_wave, batch_per_wave,
      refilter_per_wave;
  for (size_t w = 0; w < traced_end; ++w) {
    const WaveReplay wr = wave_replayer.Replay(in.inputs->waves[w], w, &spans);
    cloak_total += wr.core_total_us;
    cloak_updates += wr.updates;
    if (w < traced_begin) continue;
    const WaveRecord& rec = wrecs[w - traced_begin];
    const double total = rec.enqueue_us + rec.flush_us;
    double core = wr.core_us, server = wr.server_us,
           storage = rec.commit_us / nshards;
    const double parts = core + server + storage;
    if (parts > total && parts > 0) {
      core *= total / parts;
      server *= total / parts;
      storage *= total / parts;
    }
    wbudget.AddRequest({rec.lateness_us / 1e3,
                        (total - core - server - storage) / 1e3, server / 1e3,
                        core / 1e3, storage / 1e3});
    flush_us.push_back(rec.flush_us);
    const double size = static_cast<double>(wr.updates);
    fsync_per_wave.push_back(rec.fsyncs / size);
    batch_per_wave.push_back(Ratio(size, rec.batches));
    refilter_per_wave.push_back(rec.refilters / size);
  }

  const double traced_q = Quantile(traced.queries.latency_us, 0.5);
  const double traced_w = Quantile(traced.waves.wave_ms, 0.5);
  if (qbudget.requests() > 0) qbudget.Print(traced.untraced_query_p50_us, traced_q);
  if (wbudget.requests() > 0) wbudget.Print(traced.untraced_wave_p50_ms, traced_w);

  const auto& b = in.before;
  const auto& a = in.after;
  const double updates = static_cast<double>(in.updates);
  MetricSet& m = run.layers;
  const MetricKind kT = MetricKind::kTiming, kE = MetricKind::kExact,
                   kV = MetricKind::kVarying;
  m.Add("net.rtt_minus_server_us_p50", Median(rtt_minus), "us", kT);
  m.Add("net.codec_us_per_query", Mean(codec), "us", kT);
  m.Add("net.response_bytes_per_query", Ratio(bytes, replays.size()), "bytes", kE);
  m.Add("service.server_latency_us_p50", Median(server_lat), "us", kT);
  m.Add("service.exec_us_p50", Median(exec), "us", kT);
  m.Add("service.fanout_self_us_p50", Median(fanout_self), "us", kT);
  m.Add("service.shards_touched_mean", Ratio(shards, replays.size()), "count", kE);
  const double hits = CounterDelta(b, a, "cache.hits_total");
  const double misses = CounterDelta(b, a, "cache.misses_total");
  m.Add("service.cache_hit_rate", Ratio(hits, hits + misses), "fraction", kV);
  m.Add("service.cache_invalidations_per_update",
        Ratio(CounterDelta(b, a, "cache.invalidations_total"), updates), "count", kV);
  m.Add("service.enqueue_us_p50", Median(traced.waves.enqueue_call_us), "us", kT);
  m.Add("service.flush_us_p50", Median(flush_us), "us", kT);
  m.Add("service.queue_wait_us_p50",
        HistDelta(b, a, "ingest.queue_wait_us").p50(), "us", kT);
  m.Add("service.drain_batch_mean", HistDelta(b, a, "ingest.batch_size").mean(),
        "count", kV, RelativeIqr(batch_per_wave));
  m.Add("service.cq.affected_per_update_mean",
        HistDelta(b, a, "cq.affected_per_update").mean(), "count", kV);
  m.Add("service.cq.refilters_per_update",
        Ratio(CounterDelta(b, a, "cq.incremental_refilters_total"), updates),
        "count", kV, RelativeIqr(refilter_per_wave));
  m.Add("service.cq.full_reevals_per_wave",
        Ratio(CounterDelta(b, a, "cq.full_reevals_total"), in.waves), "count", kV);
  m.Add("server.probe_us_p50", Median(qp), "us", kT);
  m.Add("server.refine_self_us_p50", Median(qp_self), "us", kT);
  m.Add("server.pruned_frac", Ratio(pruned, cand + pruned), "fraction", kE);
  m.Add("server.fetch_radius_mean", Ratio(fetch, fetch_n), "length", kE);
  m.Add("index.range_us_p50", Median(range_us), "us", kT);
  m.Add("index.knn_us_p50", Median(corner_us), "us", kT);
  m.Add("index.results_per_probe_mean", Ratio(results, range_probes), "count", kE);
  m.Add("core.cloak_us_per_update", Ratio(cloak_total, cloak_updates), "us", kT);
  const double anon_updates =
      static_cast<double>(in.anon_after.updates - in.anon_before.updates);
  m.Add("core.reuse_frac",
        Ratio(static_cast<double>(in.anon_after.incremental_reuses +
                                  in.anon_after.shared_reuses -
                                  in.anon_before.incremental_reuses -
                                  in.anon_before.shared_reuses),
              anon_updates),
        "fraction", kV);
  m.Add("core.best_effort_frac",
        Ratio(static_cast<double>(in.anon_after.unsatisfied -
                                  in.anon_before.unsatisfied),
              anon_updates),
        "fraction", kV);
  double k_ratio = 0.0, area = 0.0;
  for (UserId user : in.inputs->issuers) {
    const CloakedRegion& c = in.live->cloaks.at(user);
    k_ratio += c.RelativeAnonymity();
    area += c.region.Area();
  }
  const double issuers = static_cast<double>(in.inputs->issuers.size());
  m.Add("core.achieved_k_ratio_mean", Ratio(k_ratio, issuers), "ratio", kE);
  m.Add("core.cloak_area_mean", Ratio(area, issuers), "sq_units", kE);
  m.Add("storage.fsyncs_per_update",
        Ratio(CounterDelta(b, a, "wal.fsyncs_total"), updates), "count", kV,
        RelativeIqr(fsync_per_wave));
  m.Add("storage.wal_bytes_per_update",
        Ratio(CounterDelta(b, a, "wal.bytes_total"), updates), "bytes", kV);
  m.Add("storage.commit_us_p50", HistDelta(b, a, "wal.commit_us").p50(), "us", kT);
  m.Add("storage.checkpoint_ms_p50",
        HistDelta(b, a, "checkpoint.duration_us").p50() / 1e3, "ms", kT);
  m.Add("storage.checkpoints", CounterDelta(b, a, "checkpoint.completed_total"),
        "count", kV);
  m.Add("storage.disk_bytes_per_update",
        in.data_dir.empty() ? 0.0 : Ratio(DirBytes(in.data_dir), in.all_updates),
        "bytes", kV);
  m.Add("storage.replay_us_per_record",
        Ratio(in.recovery_s * 1e6, in.replayed_records), "us", kT);
  m.Add("storage.recovery_s", in.recovery_s, "s", kT);
  m.Add("trace.query_overhead_us", traced_q - traced.untraced_query_p50_us, "us", kT);
  m.Add("trace.wave_overhead_ms", traced_w - traced.untraced_wave_p50_ms, "ms", kT);
}

// --- The workloads -------------------------------------------------------

/// wire_read: queries, then an ingest tail (durability off).
/// standing_mixed: queries beside waves, then each closed loop alone.
/// ingest_durable: waves, reopen, then a query tail.
Status RunPhases(Run& run, const std::string& workload) {
  const bool traced = run.cfg.trace;
  const Inputs inputs = Generate(run.shape.world, run.cfg.seed);
  double setup_s = 0.0;
  std::string data_dir;
  auto live_or = MeasuredSetUp(run, inputs, &setup_s, &data_dir);
  if (!live_or.ok()) return live_or.status();
  Live live = std::move(live_or).value();
  // Memory is read once the kept set-up is ready, before any measured
  // phase: later peaks depend on how many checkpoints and drains the
  // machine's speed allowed, set-up memory only on the inputs.
  const double setup_rss_mb = PeakRssMb();
  CloakDbService* service = live.service.get();
  const std::vector<QueryRequest> requests = MaterializeRequests(inputs, live);
  std::vector<Point> last_ack = inputs.start;
  size_t query_cursor = 0, wave_cursor = 0;

  LayerInputs layer;
  layer.inputs = &inputs;
  layer.live = &live;
  layer.requests = &requests;
  layer.wave_service = service;
  layer.query_service = service;
  layer.before = service->metrics().SnapshotAll();
  layer.anon_before = service->Stats().anonymizer;
  layer.all_updates = inputs.start.size();

  Traced tr;
  QueryPhaseResult q_open, q_closed;
  WavePhaseResult w_open, w_closed;
  std::unique_ptr<WireConn> conn;
  uint64_t wave_updates = 0, waves = 0;
  auto note_waves = [&](const WavePhaseResult& r) {
    wave_updates += r.updates;
    waves += r.wave_ms.size();
    Account(run, r);
  };
  auto connect = [&](uint16_t port) -> Status {
    auto c = WireConn::Connect(port);
    if (!c.ok()) return c.status();
    conn = std::move(c).value();
    return Status::OK();
  };
  // Warm-up: lazy set-up and caches settle before anything is timed.
  // It reads from the middle of the stream so the measured phases, which
  // start at its head, send the same queries on every run of a seed.
  auto warm_queries = [&](const QueryStream& stream) {
    size_t warm_cursor = requests.size() / 2;
    QueryPhaseResult r = RunClosed(conn.get(), stream, &warm_cursor, 0.5);
    Account(run, r);
  };

  if (workload == "wire_read") {
    CLOAKDB_RETURN_IF_ERROR(connect(live.server->port()));
    const QueryStream stream{&requests, &inputs, &inputs.start};
    warm_queries(stream);
    q_open = RunOpen(run, conn.get(), stream, &query_cursor, nullptr, inputs,
                     &wave_cursor, &last_ack, run.Seconds(run.shape.q_open),
                     true, false).queries;
    PrintQueryPhase("q_open", q_open);
    Account(run, q_open);
    GateQueries(run, "q_open", q_open);
    CheckIdentity(run, *service, requests, q_open, true);
    if (traced) {
      tr.queries = RunOpen(run, conn.get(), stream, &query_cursor, nullptr,
                           inputs, &wave_cursor, &last_ack,
                           run.Seconds(run.shape.traced), true, true).queries;
      PrintQueryPhase("q_open_traced", tr.queries);
      Account(run, tr.queries);
    }
    q_closed = RunClosed(conn.get(), stream, &query_cursor,
                         run.Seconds(run.shape.q_closed));
    PrintQueryPhase("q_closed", q_closed);
    Account(run, q_closed);
    w_open = RunOpen(run, nullptr, stream, &query_cursor, service, inputs,
                     &wave_cursor, &last_ack, run.Seconds(run.shape.w_open),
                     false, false).waves;
    PrintWavePhase("w_open", w_open);
    note_waves(w_open);
    GateWaves(run, "w_open", w_open);
    if (traced) {
      tr.waves_run_before = wave_cursor;
      tr.waves = RunOpen(run, nullptr, stream, &query_cursor, service, inputs,
                         &wave_cursor, &last_ack,
                         run.Seconds(run.shape.traced) / 2, false, true).waves;
      PrintWavePhase("w_open_traced", tr.waves);
      note_waves(tr.waves);
    }
    w_closed = RunClosedWaves(service, inputs, &wave_cursor, &last_ack,
                              run.Seconds(run.shape.w_closed));
    PrintWavePhase("w_closed", w_closed);
    note_waves(w_closed);
  } else if (workload == "standing_mixed") {
    CLOAKDB_RETURN_IF_ERROR(connect(live.server->port()));
    // Users move under these queries, so counts are checked in process
    // after the final Flush instead of as they arrive.
    const QueryStream stream{&requests, &inputs, nullptr};
    warm_queries(stream);
    OpenResult mixed = RunOpen(run, conn.get(), stream, &query_cursor, service,
                               inputs, &wave_cursor, &last_ack,
                               run.Seconds(run.shape.q_open), true, false);
    q_open = std::move(mixed.queries);
    w_open = std::move(mixed.waves);
    PrintQueryPhase("q_open", q_open);
    PrintWavePhase("w_open", w_open);
    Account(run, q_open);
    note_waves(w_open);
    GateQueries(run, "q_open", q_open);
    GateWaves(run, "w_open", w_open);
    CheckIdentity(run, *service, requests, q_open, false);
    if (traced) {
      tr.waves_run_before = wave_cursor;
      OpenResult t = RunOpen(run, conn.get(), stream, &query_cursor, service,
                             inputs, &wave_cursor, &last_ack,
                             run.Seconds(run.shape.traced), true, true);
      tr.queries = std::move(t.queries);
      tr.waves = std::move(t.waves);
      PrintQueryPhase("q_open_traced", tr.queries);
      PrintWavePhase("w_open_traced", tr.waves);
      Account(run, tr.queries);
      note_waves(tr.waves);
    }
    q_closed = RunClosed(conn.get(), stream, &query_cursor,
                         run.Seconds(run.shape.q_closed));
    PrintQueryPhase("q_closed", q_closed);
    Account(run, q_closed);
    w_closed = RunClosedWaves(service, inputs, &wave_cursor, &last_ack,
                              run.Seconds(run.shape.w_closed));
    PrintWavePhase("w_closed", w_closed);
    note_waves(w_closed);
    CLOAKDB_RETURN_IF_ERROR(service->Flush());
    CheckStanding(run, *service, live, inputs, last_ack);
    CheckCountsInProcess(run, *service, inputs, requests, last_ack);
  } else {  // ingest_durable
    {
      // A few unmeasured waves first, like the query warm-up.
      WavePhaseOptions wo;
      wo.open_loop = false;
      wo.seconds = 0.1;
      note_waves(RunWaves(service, inputs.waves, &wave_cursor, &last_ack, wo));
    }
    w_open = RunOpen(run, nullptr, QueryStream{}, &query_cursor, service,
                     inputs, &wave_cursor, &last_ack,
                     run.Seconds(run.shape.w_open), false, false).waves;
    PrintWavePhase("w_open", w_open);
    note_waves(w_open);
    GateWaves(run, "w_open", w_open);
    if (traced) {
      tr.waves_run_before = wave_cursor;
      tr.waves = RunOpen(run, nullptr, QueryStream{}, &query_cursor, service,
                         inputs, &wave_cursor, &last_ack,
                         run.Seconds(run.shape.traced), false, true).waves;
      PrintWavePhase("w_open_traced", tr.waves);
      note_waves(tr.waves);
    }
    w_closed = RunClosedWaves(service, inputs, &wave_cursor, &last_ack,
                              run.Seconds(run.shape.w_closed));
    PrintWavePhase("w_closed", w_closed);
    note_waves(w_closed);

    layer.after = service->metrics().SnapshotAll();
    layer.anon_after = service->Stats().anonymizer;
    layer.updates = wave_updates;
    layer.waves = waves;

    // Drop the service without a final checkpoint (every wave was already
    // acknowledged by Flush) and reopen it from its data directory.
    const WorldParams& world = run.shape.world;
    live.server.reset();
    Live reopened;
    live.service.reset();
    const Clock::time_point t0 = Clock::now();
    auto recovered = CloakDbService::Create(ServiceOptions(world, data_dir));
    const Clock::time_point t1 = Clock::now();
    if (!recovered.ok()) return recovered.status();
    reopened.service = std::move(recovered).value();
    layer.recovery_s = UsBetween(t0, t1) / 1e6;
    layer.replayed_records = reopened.service->recovery_info().replayed_records;
    std::printf("recovery: %.3f s, %llu wal records replayed, %llu checkpoints "
                "loaded, %llu static indexes adopted\n",
                layer.recovery_s,
                static_cast<unsigned long long>(layer.replayed_records),
                static_cast<unsigned long long>(
                    reopened.service->recovery_info().checkpoints_loaded),
                static_cast<unsigned long long>(
                    reopened.service->recovery_info().static_indexes_adopted));
    service = reopened.service.get();
    // Every user is back, and each recovered region holds the user's last
    // acknowledged location.
    if (service->Stats().num_users != inputs.start.size())
      run.checks.Fail("recovery: user count differs");
    for (UserId user = 1; user <= inputs.start.size(); ++user) {
      auto region = service->shard(service->ShardOfUser(user))
                        .CurrentRegionOfUser(user);
      if (region.ok() && region.value().Contains(last_ack[user - 1])) {
        run.checks.Pass();
      } else {
        run.checks.Fail("recovery: user " + std::to_string(user) +
                        " region misses last acknowledged location");
      }
    }
    auto server = BindServer(service);
    if (!server.ok()) return server.status();
    reopened.server = std::move(server).value();
    CLOAKDB_RETURN_IF_ERROR(connect(reopened.server->port()));
    const QueryStream stream{&requests, &inputs, &last_ack};
    warm_queries(stream);
    q_open = RunOpen(run, conn.get(), stream, &query_cursor, nullptr, inputs,
                     &wave_cursor, &last_ack, run.Seconds(run.shape.q_open),
                     true, false).queries;
    PrintQueryPhase("q_open", q_open);
    Account(run, q_open);
    GateQueries(run, "q_open", q_open);
    CheckIdentity(run, *service, requests, q_open, true);
    if (traced) {
      tr.queries = RunOpen(run, conn.get(), stream, &query_cursor, nullptr,
                           inputs, &wave_cursor, &last_ack,
                           run.Seconds(run.shape.traced) / 2, true, true).queries;
      PrintQueryPhase("q_open_traced", tr.queries);
      Account(run, tr.queries);
    }
    q_closed = RunClosed(conn.get(), stream, &query_cursor,
                         run.Seconds(run.shape.q_closed));
    PrintQueryPhase("q_closed", q_closed);
    Account(run, q_closed);
    ReportEndToEnd(run, setup_s, setup_rss_mb, q_open, q_closed, w_closed);
    ReportWallClock(&run.wall, q_open, q_closed, w_open, w_closed);
    if (traced) {
      layer.query_service = service;
      layer.data_dir = data_dir;
      layer.all_updates += wave_updates;
      tr.untraced_query_p50_us = Quantile(q_open.latency_us, 0.5);
      tr.untraced_wave_p50_ms = Quantile(w_open.wave_ms, 0.5);
      // The wave replicas start from the set-up state, which the recovered
      // service no longer has; they only need its options and routing.
      layer.wave_service = service;
      ReportLayers(run, tr, layer);
    }
    conn.reset();
    reopened.server.reset();
    reopened.service.reset();
    return Status::OK();
  }

  ReportEndToEnd(run, setup_s, setup_rss_mb, q_open, q_closed, w_closed);
  ReportWallClock(&run.wall, q_open, q_closed, w_open, w_closed);
  if (traced) {
    layer.after = service->metrics().SnapshotAll();
    layer.anon_after = service->Stats().anonymizer;
    layer.updates = wave_updates;
    layer.waves = waves;
    tr.untraced_query_p50_us = Quantile(q_open.latency_us, 0.5);
    tr.untraced_wave_p50_ms = Quantile(w_open.wave_ms, 0.5);
    ReportLayers(run, tr, layer);
  }
  conn.reset();
  return Status::OK();
}

void PrintMetrics(const char* title, const MetricSet& set) {
  std::printf("%s\n", title);
  for (const Metric& m : set.all()) {
    const char* kind = m.kind == MetricKind::kExact     ? "exact"
                       : m.kind == MetricKind::kVarying ? "varying"
                                                        : "timing";
    std::printf("  %-38s %16.6g %-10s %-8s", m.name.c_str(), m.value,
                m.unit.c_str(), kind);
    if (m.kind == MetricKind::kVarying && m.spread > 0)
      std::printf(" within-run spread %.3f", m.spread);
    std::printf("\n");
  }
}

void PrintJson(bool correct, const OpCounts& ops, const MetricSet& set) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(std::max<uint64_t>(ops.attempted, 1));
  out += ", \"failed\": " + std::to_string(ops.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : set.all()) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (!first) out += ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return name == "wire_read" || name == "ingest_durable" ||
         name == "standing_mixed";
}

int RunWorkload(const RunConfig& config) {
  Run run(config);
  run.shape = ShapeOf(config.workload, config.seconds);
  run.data_root = config.out_dir + "/data-" + std::to_string(::getpid());
  double load[3] = {0, 0, 0};
  getloadavg(load, 3);
  std::printf("== cloakbench workload=%s seed=%llu seconds=%.1f trace=%d ==\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  std::printf("env: nproc=%ld loadavg=%.2f %.2f %.2f\n",
              sysconf(_SC_NPROCESSORS_ONLN), load[0], load[1], load[2]);
  std::fflush(stdout);

  const CpuTicks cpu_before = ReadCpuTicks();
  const Status status = RunPhases(run, config.workload);
  const CpuTicks cpu_after = ReadCpuTicks();
  const double steal = cpu_after.steal - cpu_before.steal;
  const double steal_frac =
      Ratio(steal, cpu_after.busy - cpu_before.busy + steal);
  run.validity.Require(steal_frac < 0.25,
                       "host stole >= 25% of the CPU time this run wanted");
  std::error_code ec;
  fs::remove_all(run.data_root, ec);
  if (!status.ok()) {
    std::fprintf(stderr, "cloakbench: %s\n", status.ToString().c_str());
    return 2;
  }
  if (config.trace) {
    const std::string path = config.out_dir + "/spans-" + config.workload +
                             "-" + std::to_string(config.seed) + ".jsonl";
    if (run.spans.WriteJsonl(path)) {
      std::printf("spans: %zu written to %s\n", run.spans.size(), path.c_str());
    }
  }
  std::printf("host cpu steal during the run: %.1f%%\n", 100.0 * steal_frac);
  std::printf("validity: %s\n", run.validity.valid() ? "VALID" : "INVALID");
  for (const std::string& p : run.validity.problems)
    std::printf("  invalid: %s\n", p.c_str());
  std::printf("checks: %llu answers checked, %llu failed\n",
              static_cast<unsigned long long>(run.checks.checked()),
              static_cast<unsigned long long>(run.checks.failed()));
  for (const std::string& m : run.checks.messages())
    std::printf("  FAILED: %s\n", m.c_str());
  std::printf("error_rate: %.6f (%llu failed of %llu attempted operations)\n",
              Ratio(run.ops.failed, run.ops.attempted),
              static_cast<unsigned long long>(run.ops.failed),
              static_cast<unsigned long long>(run.ops.attempted));
  PrintMetrics("end-to-end metrics:", run.e2e);
  PrintMetrics("wall-clock metrics (no bound):", run.wall);
  if (config.trace) {
    for (const Metric& m : run.wall.all())
      run.layers.Add(m.name, m.value, m.unit, m.kind, m.spread);
    PrintMetrics("per-layer metrics:", run.layers);
  }
  const bool correct = run.checks.failed() == 0;
  PrintJson(correct, run.ops, config.trace ? run.layers : run.e2e);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace perfbench
