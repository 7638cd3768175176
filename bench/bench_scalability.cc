// Experiment S53 — paper Section 5.3 (scalability of the anonymizer).
//
// The two techniques the paper proposes, measured directly:
//   - incremental evaluation: reuse of the previous cloaked region under a
//     small-step movement workload vs. always recomputing;
//   - shared execution: batch cloaking with per-(cell, profile) sharing vs.
//     per-user computation;
// plus the population-size scaling of a full update round.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "service/cloak_db_service.h"
#include "sim/movement.h"

namespace cloakdb {
namespace {

using bench::kInf;

// One round of small random moves for every user (the continuous-movement
// workload of the paper), through the single-update path. Swept over both
// a cheap cloaking algorithm (grid) and an expensive one (naive) — the
// paper's incremental hypothesis pays off when the saved computation
// outweighs the validity check.
void BM_S53_IncrementalVsRecompute(benchmark::State& state) {
  const bool incremental = state.range(0) != 0;
  const CloakingKind kind =
      state.range(1) == 0 ? CloakingKind::kGrid : CloakingKind::kNaive;
  const size_t users = 10000;
  auto anonymizer = bench::MakeAnonymizer(
      kind, users, 20, PopulationModel::kGaussianClusters,
      incremental, /*shared=*/false);
  auto locations = bench::MakeUsers(users);
  Rng rng(77);
  for (auto _ : state) {
    for (auto& u : locations) {
      u.location.x =
          std::clamp(u.location.x + rng.Uniform(-0.2, 0.2), 0.0, 100.0);
      u.location.y =
          std::clamp(u.location.y + rng.Uniform(-0.2, 0.2), 0.0, 100.0);
      benchmark::DoNotOptimize(
          anonymizer->UpdateLocation(u.id, u.location, bench::Noon()));
    }
  }
  state.counters["incremental"] = incremental ? 1.0 : 0.0;
  state.counters["algo_naive"] = state.range(1) != 0 ? 1.0 : 0.0;
  state.counters["reuse_fraction"] =
      anonymizer->stats().updates == 0
          ? 0.0
          : static_cast<double>(anonymizer->stats().incremental_reuses) /
                static_cast<double>(anonymizer->stats().updates);
  state.counters["updates_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations() * users),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_S53_IncrementalVsRecompute)
    ->Args({0, 0})->Args({1, 0})   // grid: cheap recompute
    ->Args({0, 1})->Args({1, 1})   // naive: expensive recompute
    ->Unit(benchmark::kMillisecond);

// Batch update with and without shared execution.
void BM_S53_SharedVsIndividual(benchmark::State& state) {
  const bool shared = state.range(0) != 0;
  const size_t users = 10000;
  auto anonymizer = bench::MakeAnonymizer(
      CloakingKind::kGrid, users, 20, PopulationModel::kGaussianClusters,
      /*incremental=*/false, shared);
  auto locations = bench::MakeUsers(users);
  std::vector<std::pair<UserId, Point>> batch;
  batch.reserve(users);
  Rng rng(78);
  for (auto _ : state) {
    state.PauseTiming();
    batch.clear();
    for (auto& u : locations) {
      u.location.x =
          std::clamp(u.location.x + rng.Uniform(-1.0, 1.0), 0.0, 100.0);
      u.location.y =
          std::clamp(u.location.y + rng.Uniform(-1.0, 1.0), 0.0, 100.0);
      batch.push_back({u.id, u.location});
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        anonymizer->UpdateLocationsBatch(batch, bench::Noon()));
  }
  state.counters["shared"] = shared ? 1.0 : 0.0;
  state.counters["share_fraction"] =
      anonymizer->stats().updates == 0
          ? 0.0
          : static_cast<double>(anonymizer->stats().shared_reuses) /
                static_cast<double>(anonymizer->stats().updates);
  state.counters["updates_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations() * users),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_S53_SharedVsIndividual)
    ->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Population scaling of one full cloaking round, per algorithm family
// (kQuadtree runs the multi-level grid cloaker, so ScaleMultiLevel is its
// row too).
void RunPopulationScaling(benchmark::State& state, CloakingKind kind) {
  const auto users = static_cast<size_t>(state.range(0));
  auto anonymizer = bench::MakeAnonymizer(kind, users, 20);
  auto locations = bench::MakeUsers(users);
  Rng rng(79);
  size_t idx = 0;
  for (auto _ : state) {
    const auto& u = locations[idx % locations.size()];
    ++idx;
    benchmark::DoNotOptimize(
        anonymizer->UpdateLocation(u.id, u.location, bench::Noon()));
  }
  state.counters["users"] = static_cast<double>(users);
}
void BM_S53_ScaleGrid(benchmark::State& state) {
  RunPopulationScaling(state, CloakingKind::kGrid);
}
void BM_S53_ScaleMultiLevel(benchmark::State& state) {
  RunPopulationScaling(state, CloakingKind::kMultiLevelGrid);
}
void BM_S53_ScaleMbr(benchmark::State& state) {
  RunPopulationScaling(state, CloakingKind::kMbr);
}
BENCHMARK(BM_S53_ScaleGrid)
    ->Arg(1000)->Arg(10000)->Arg(50000)->Arg(200000)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_S53_ScaleMultiLevel)
    ->Arg(1000)->Arg(10000)->Arg(50000)->Arg(200000)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_S53_ScaleMbr)
    ->Arg(1000)->Arg(10000)->Arg(50000)
    ->Unit(benchmark::kMicrosecond);

// Shard/worker sweep of the service layer: one round = every user's exact
// location enqueued (blocking) and the queues fully drained through the
// batched shared-execution path. Single-shard is the sequential baseline;
// N shards with N workers should approach Nx on real multicore hardware
// (the shards share no locks, only the producer thread).
void BM_Service_ShardedUpdateRounds(benchmark::State& state) {
  const auto shards = static_cast<uint32_t>(state.range(0));
  const size_t users = 20000;

  CloakDbServiceOptions options;
  options.space = bench::Space();
  options.num_shards = shards;
  options.worker_threads = shards;  // one drain worker per shard
  options.queue_capacity = 8192;
  options.max_batch = 512;
  auto service = CloakDbService::Create(options);
  if (!service.ok()) {
    state.SkipWithError("service setup failed");
    return;
  }
  CloakDbService& db = *service.value();
  auto locations = bench::MakeUsers(users);
  PrivacyProfile profile =
      PrivacyProfile::Uniform({20, 0.0, kInf}).value();
  for (const auto& u : locations) (void)db.RegisterUser(u.id, profile);

  Rng rng(83);
  TimeOfDay now = bench::Noon();
  for (auto _ : state) {
    for (auto& u : locations) {
      u.location.x =
          std::clamp(u.location.x + rng.Uniform(-1.0, 1.0), 0.0, 100.0);
      u.location.y =
          std::clamp(u.location.y + rng.Uniform(-1.0, 1.0), 0.0, 100.0);
      if (!db.EnqueueUpdate(u.id, u.location, now).ok()) {
        state.SkipWithError("enqueue failed");
        return;
      }
    }
    if (!db.Flush().ok()) {
      state.SkipWithError("flush failed");
      return;
    }
    now = now.Plus(60);
  }
  ServiceStats stats = db.Stats();
  state.counters["shards"] = static_cast<double>(shards);
  state.counters["avg_batch"] = stats.ingest.mean_batch_size;
  state.counters["updates_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations() * users),
      benchmark::Counter::kIsRate);
  // Ingest-side percentiles from the service's MetricsRegistry: time spent
  // waiting in the shard queues and inside batched cloaking.
  auto queue_wait =
      db.metrics().SnapshotHistogram("ingest.queue_wait_us");
  state.counters["queue_wait_p50_us"] = queue_wait.p50();
  state.counters["queue_wait_p95_us"] = queue_wait.p95();
  state.counters["queue_wait_p99_us"] = queue_wait.p99();
  auto cloak = db.metrics().SnapshotHistogram("ingest.cloak_us");
  state.counters["cloak_p50_us"] = cloak.p50();
  state.counters["cloak_p95_us"] = cloak.p95();
  state.counters["cloak_p99_us"] = cloak.p99();
}
BENCHMARK(BM_Service_ShardedUpdateRounds)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()  // wall clock: the work happens on the worker pool
    ->Unit(benchmark::kMillisecond);

// Fan-out query throughput while the shards hold a live population: mixed
// private range + NN + kNN + public count against a 4-shard service,
// driven by `threads` concurrent clients (queries take only shared locks,
// so client scaling measures reader-side contention). Per-kind latency
// percentiles come from the service's MetricsRegistry.
void BM_Service_FanOutQueries(benchmark::State& state) {
  static CloakDbService* db = nullptr;
  if (state.thread_index() == 0 && db == nullptr) {
    CloakDbServiceOptions options;
    options.space = bench::Space();
    options.num_shards = 4;
    auto service = CloakDbService::Create(options);
    Rng poi_rng(bench::kSeed ^ 0x9999);
    PoiOptions poi;
    poi.count = 2000;
    poi.category = poi_category::kGasStation;
    auto pois = GeneratePois(bench::Space(), poi, &poi_rng).value();
    (void)service.value()->BulkLoadCategory(poi_category::kGasStation,
                                            std::move(pois));
    PrivacyProfile profile =
        PrivacyProfile::Uniform({20, 0.0, kInf}).value();
    Rng rng(84);
    for (UserId user = 1; user <= 10000; ++user) {
      (void)service.value()->RegisterUser(user, profile);
      (void)service.value()->UpdateLocation(
          user, {rng.Uniform(0, 100), rng.Uniform(0, 100)}, bench::Noon());
    }
    db = service.value().release();
  }
  Rng rng(85 + state.thread_index());
  for (auto _ : state) {
    double x = rng.Uniform(0, 90), y = rng.Uniform(0, 90);
    Rect cloaked(x, y, x + 5, y + 5);
    benchmark::DoNotOptimize(
        db->PrivateRange(cloaked, 2.0, poi_category::kGasStation));
    benchmark::DoNotOptimize(
        db->PrivateNn(cloaked, poi_category::kGasStation));
    benchmark::DoNotOptimize(
        db->PrivateKnn(cloaked, 5, poi_category::kGasStation));
    benchmark::DoNotOptimize(db->PublicCount(Rect(x, y, x + 20, y + 20)));
  }
  state.counters["queries_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations() * 4),
      benchmark::Counter::kIsRate);
  if (state.thread_index() == 0) {
    for (const auto& [label, metric] :
         {std::pair<const char*, const char*>{
              "range", "query.private_range.latency_us"},
          {"nn", "query.private_nn.latency_us"},
          {"knn", "query.private_knn.latency_us"}}) {
      auto snap = db->metrics().SnapshotHistogram(metric);
      state.counters[std::string(label) + "_p50_us"] = snap.p50();
      state.counters[std::string(label) + "_p95_us"] = snap.p95();
      state.counters[std::string(label) + "_p99_us"] = snap.p99();
    }
  }
}
BENCHMARK(BM_Service_FanOutQueries)
    ->Threads(1)->Threads(2)->Threads(4)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// Shared-execution payoff under a temporally-local count workload: a hot
// pool of public-count windows is counted over and over (the locality real
// LBS traffic exhibits, cf. WorkloadOptions::repeat_probability) through
// the query envelope, on a service holding 20k reported users. Arg(0)
// scans every shard's private index on every count; Arg(1) serves repeats
// from each shard's count-part cache. The CI perf gate compares the two.
void BM_Service_RepeatedQueryCache(benchmark::State& state) {
  const bool shared = state.range(0) != 0;
  CloakDbServiceOptions options;
  options.space = bench::Space();
  options.num_shards = 4;
  options.enable_shared_execution = shared;
  options.cache_capacity = 4096;
  auto service = CloakDbService::Create(options);
  if (!service.ok()) {
    state.SkipWithError("service setup failed");
    return;
  }
  CloakDbService& db = *service.value();
  const PrivacyProfile profile =
      PrivacyProfile::Uniform({20, 0.0, kInf}).value();
  for (const auto& u : bench::MakeUsers(20000)) {
    (void)db.RegisterUser(u.id, profile);
    if (!db.EnqueueUpdate(u.id, u.location, bench::Noon()).ok()) {
      state.SkipWithError("enqueue failed");
      return;
    }
  }
  if (!db.Flush().ok()) {
    state.SkipWithError("flush failed");
    return;
  }

  // The hot set: 48 count windows, revisited uniformly.
  Rng rng(86);
  std::vector<QueryRequest> hot;
  for (int i = 0; i < 48; ++i) {
    double x = rng.Uniform(0, 88), y = rng.Uniform(0, 88);
    hot.push_back(QueryRequest::Count(
        Rect(x, y, x + rng.Uniform(4, 12), y + rng.Uniform(4, 12))));
  }
  // Prime the cache so short --quick runs measure the steady state (the
  // hit path) instead of the one-off cold misses.
  for (const QueryRequest& q : hot)
    benchmark::DoNotOptimize(db.ExecuteQuery(q));
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.ExecuteQuery(hot[rng.NextBelow(hot.size())]));
  }
  state.counters["shared"] = shared ? 1.0 : 0.0;
  const double hits =
      static_cast<double>(db.metrics().counter("cache.hits_total")->Value());
  const double misses = static_cast<double>(
      db.metrics().counter("cache.misses_total")->Value());
  state.counters["cache_hit_rate"] =
      hits + misses == 0.0 ? 0.0 : hits / (hits + misses);
  state.counters["count_p95_us"] =
      db.metrics().SnapshotHistogram("query.public_count.latency_us").p95();
  state.counters["queries_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Service_RepeatedQueryCache)
    ->Arg(0)->Arg(1)
    ->Unit(benchmark::kMicrosecond);

// Per-update upkeep of the count windows (the cache's side of an applied
// cloaked update): one shard with the cache on holds N count parts, each
// window counted once, while the timed loop applies synchronous location
// updates of 2,000 users walking by random waypoint. Every 256 updates the
// loop re-counts the windows (untimed) so about N parts stay cached. Arg 0
// has no window, so the update takes no lookup at all. Every run applies
// the same 10,000 updates (five rounds), so the
// `invalidations_per_update` counter (cache.invalidations_total per
// update: the parts an update's region change dropped) repeats exactly.
void BM_Service_CountWindowUpkeep(benchmark::State& state) {
  const size_t num_windows = static_cast<size_t>(state.range(0));
  CloakDbServiceOptions options;
  options.space = bench::Space();
  options.num_shards = 1;
  options.enable_shared_execution = true;
  options.cache_capacity = 4096;
  auto service = CloakDbService::Create(options);
  if (!service.ok()) {
    state.SkipWithError("service setup failed");
    return;
  }
  CloakDbService& db = *service.value();
  const PrivacyProfile profile =
      PrivacyProfile::Uniform({5, 0.0, kInf}).value();
  RandomWaypointModel::Options move_options;
  move_options.seed = bench::kSeed ^ 0xc0de;
  RandomWaypointModel movement(bench::Space(), move_options);
  std::vector<UserId> users;
  for (const auto& u : bench::MakeUsers(2000)) {
    (void)db.RegisterUser(u.id, profile);
    (void)movement.AddUser(u.id, u.location);
    (void)db.UpdateLocation(u.id, u.location, bench::Noon());
    users.push_back(u.id);
  }
  Rng rng(bench::kSeed ^ 0x0c0de);
  std::vector<QueryRequest> windows;
  for (size_t i = 0; i < num_windows; ++i) {
    const Point c{rng.Uniform(5, 95), rng.Uniform(5, 95)};
    windows.push_back(
        QueryRequest::Count(Rect::CenteredSquare(c, rng.Uniform(2, 10))));
  }
  const auto count_windows = [&] {
    for (const QueryRequest& q : windows)
      benchmark::DoNotOptimize(db.ExecuteQuery(q));
  };
  count_windows();
  const uint64_t invalidations_before =
      db.metrics().CounterValue("cache.invalidations_total");
  size_t next = 0;
  for (auto _ : state) {
    if (next % users.size() == 0) movement.Step(1.0);
    const UserId user = users[next % users.size()];
    benchmark::DoNotOptimize(db.UpdateLocation(
        user, movement.LocationOf(user).value(), bench::Noon()));
    if (++next % 256 == 0) {
      state.PauseTiming();
      count_windows();
      state.ResumeTiming();
    }
  }
  state.counters["windows"] = static_cast<double>(num_windows);
  state.counters["invalidations_per_update"] =
      static_cast<double>(
          db.metrics().CounterValue("cache.invalidations_total") -
          invalidations_before) /
      static_cast<double>(std::max<size_t>(next, 1));
}
BENCHMARK(BM_Service_CountWindowUpkeep)
    ->Arg(0)->Arg(256)->Arg(2048)
    ->Iterations(10000)
    ->Unit(benchmark::kMicrosecond);

// Tracing overhead on the fan-out query path: the same mixed private-query
// workload with tracing off (0), head-sampled at 1% (1), and fully sampled
// (2). Spans are recorded into the per-thread rings in every traced mode —
// sampling only decides retention — so mode 1 measures the steady-state
// production cost (the ≤5%-overhead budget), and mode 2 bounds the
// worst case. Collection (TakeCompletedSpans) runs amortized inside the
// loop, as a live deployment's collector would.
void BM_Service_TraceOverhead(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  CloakDbServiceOptions options;
  options.space = bench::Space();
  options.num_shards = 4;
  if (mode > 0) {
    options.trace.enabled = true;
    options.trace.sample_probability = mode == 1 ? 0.01 : 1.0;
    options.trace.slow_trace_us = 0.0;  // Isolate the sampling knob.
  }
  auto service = CloakDbService::Create(options);
  if (!service.ok()) {
    state.SkipWithError("service setup failed");
    return;
  }
  CloakDbService& db = *service.value();
  Rng poi_rng(bench::kSeed ^ 0x5151);
  PoiOptions poi;
  poi.count = 5000;
  poi.category = poi_category::kGasStation;
  (void)db.BulkLoadCategory(
      poi_category::kGasStation,
      GeneratePois(bench::Space(), poi, &poi_rng).value());

  Rng rng(87);
  size_t spans_collected = 0;
  size_t iterations = 0;
  for (auto _ : state) {
    double x = rng.Uniform(0, 90), y = rng.Uniform(0, 90);
    Rect cloaked(x, y, x + 5, y + 5);
    benchmark::DoNotOptimize(
        db.PrivateRange(cloaked, 2.0, poi_category::kGasStation));
    benchmark::DoNotOptimize(
        db.PrivateNn(cloaked, poi_category::kGasStation));
    benchmark::DoNotOptimize(
        db.PrivateKnn(cloaked, 5, poi_category::kGasStation));
    if ((++iterations & 1023) == 0 && db.tracer() != nullptr)
      spans_collected += db.tracer()->TakeCompletedSpans().size();
  }
  if (db.tracer() != nullptr)
    spans_collected += db.tracer()->TakeCompletedSpans().size();
  state.counters["trace_mode"] = static_cast<double>(mode);
  state.counters["spans_collected"] = static_cast<double>(spans_collected);
  state.counters["dropped_spans"] =
      db.tracer() == nullptr
          ? 0.0
          : static_cast<double>(db.tracer()->dropped_spans());
  state.counters["queries_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations() * 3),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Service_TraceOverhead)
    ->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMicrosecond);

// Robustness-layer overhead on the fan-out query path. Mode 0 is the
// baseline (no deadlines, no admission control). Mode 1 arms the full
// admission path — a generous deadline plus a token bucket far above the
// offered rate — so every query pays the deadline stamp, the bucket, and
// the per-probe deadline checks but nothing ever sheds: the counter
// `degraded_queries` must stay 0 and the delta over mode 0 is the pure
// steady-state cost of overload protection. Mode 2 runs the same workload
// under chaos (seeded probe failures) to show the degraded path's cost.
void BM_Service_RobustnessOverhead(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  CloakDbServiceOptions options;
  options.space = bench::Space();
  options.num_shards = 4;
  if (mode >= 1) {
    options.overload.query_deadline_us = 10'000'000;
    options.overload.max_queries_per_s = 50'000'000.0;
    options.overload.burst = 1'000'000;
    options.overload.policy = OverloadPolicy::kDegrade;
  }
  if (mode == 2) {
    options.fault_injection.enabled = true;
    options.fault_injection.seed = 17;
    options.fault_injection.probe_failure_probability = 0.2;
  }
  auto service = CloakDbService::Create(options);
  if (!service.ok()) {
    state.SkipWithError("service setup failed");
    return;
  }
  CloakDbService& db = *service.value();
  Rng poi_rng(bench::kSeed ^ 0x7A7A);
  PoiOptions poi;
  poi.count = 5000;
  poi.category = poi_category::kGasStation;
  (void)db.BulkLoadCategory(
      poi_category::kGasStation,
      GeneratePois(bench::Space(), poi, &poi_rng).value());

  Rng rng(53);
  uint64_t degraded = 0, failed = 0;
  for (auto _ : state) {
    double x = rng.Uniform(0, 90), y = rng.Uniform(0, 90);
    Rect cloaked(x, y, x + 5, y + 5);
    auto range = db.PrivateRange(cloaked, 2.0, poi_category::kGasStation);
    if (range.ok()) degraded += range.value().degraded ? 1 : 0;
    else ++failed;
    auto nn = db.PrivateNn(cloaked, poi_category::kGasStation);
    if (nn.ok()) degraded += nn.value().degraded ? 1 : 0;
    else ++failed;
    benchmark::DoNotOptimize(range);
    benchmark::DoNotOptimize(nn);
  }
  if (mode == 1 && (degraded != 0 || failed != 0)) {
    state.SkipWithError("mode 1 must not shed: overhead measurement invalid");
    return;
  }
  state.counters["robustness_mode"] = static_cast<double>(mode);
  state.counters["degraded_queries"] = static_cast<double>(degraded);
  state.counters["failed_queries"] = static_cast<double>(failed);
  state.counters["queries_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations() * 2),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Service_RobustnessOverhead)
    ->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMicrosecond);

// Durability-engine overhead on the ingest path. Mode 0 is the in-memory
// baseline, mode 1 WAL-logs every drained batch with OS-buffered appends
// (kAsync), mode 2 group-commit-fsyncs before each apply (kFsync). The
// workload is the seeded update-round loop of BM_Service_ShardedUpdateRounds
// at a smaller population; the WAL is a pure observer, so the delta over
// mode 0 is the whole durability tax. Checkpointing is disabled to isolate
// the log itself. Acceptance (EXPERIMENTS.md): async within 5% of baseline,
// fsync within 15%.
void BM_Service_DurabilityOverhead(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  const size_t users = 5000;

  CloakDbServiceOptions options;
  options.space = bench::Space();
  options.num_shards = 4;
  options.worker_threads = 4;
  options.queue_capacity = 8192;
  options.max_batch = 2048;
  options.checkpoint_interval = 0;
  std::filesystem::path dir;
  if (mode > 0) {
    options.durability_mode = mode == 1 ? storage::DurabilityMode::kAsync
                                        : storage::DurabilityMode::kFsync;
    dir = std::filesystem::temp_directory_path() /
          ("cloakdb_bench_dur_" + std::to_string(::getpid()) + "_" +
           std::to_string(mode));
    std::filesystem::remove_all(dir);
    options.data_dir = dir.string();
  }
  auto service = CloakDbService::Create(options);
  if (!service.ok()) {
    state.SkipWithError("service setup failed");
    return;
  }
  std::unique_ptr<CloakDbService> db = std::move(service).value();
  auto locations = bench::MakeUsers(users);
  PrivacyProfile profile = PrivacyProfile::Uniform({20, 0.0, kInf}).value();
  for (const auto& u : locations) (void)db->RegisterUser(u.id, profile);

  Rng rng(83);
  TimeOfDay now = bench::Noon();
  // Sustained ingest: EnqueueUpdate blocks on a full shard queue, so the
  // producer runs at drain speed; the durability barrier (Flush, which
  // fsyncs every deferred WAL record in kFsync mode) lands every 8 rounds
  // — the "sustained update throughput" the acceptance criterion names,
  // not a barrier-latency measurement of flushing after every round.
  size_t round = 0;
  for (auto _ : state) {
    for (auto& u : locations) {
      u.location.x =
          std::clamp(u.location.x + rng.Uniform(-1.0, 1.0), 0.0, 100.0);
      u.location.y =
          std::clamp(u.location.y + rng.Uniform(-1.0, 1.0), 0.0, 100.0);
      if (!db->EnqueueUpdate(u.id, u.location, now).ok()) {
        state.SkipWithError("enqueue failed");
        return;
      }
    }
    if (++round % 8 == 0 && !db->Flush().ok()) {
      state.SkipWithError("flush failed");
      return;
    }
    now = now.Plus(60);
  }
  state.counters["durability_mode"] = static_cast<double>(mode);
  state.counters["updates_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations() * users),
      benchmark::Counter::kIsRate);
  state.counters["wal_records"] = static_cast<double>(
      db->metrics().CounterValue("wal.records_total"));
  state.counters["wal_mb"] =
      static_cast<double>(db->metrics().CounterValue("wal.bytes_total")) /
      (1024.0 * 1024.0);
  state.counters["wal_fsyncs"] = static_cast<double>(
      db->metrics().CounterValue("wal.fsyncs_total"));
  state.counters["wal_commit_p95_us"] =
      db->metrics().SnapshotHistogram("wal.commit_us").p95();
  db.reset();  // close the WAL before deleting the directory
  if (!dir.empty()) std::filesystem::remove_all(dir);
}
BENCHMARK(BM_Service_DurabilityOverhead)
    ->Arg(0)->Arg(1)->Arg(2)
    ->UseRealTime()  // wall clock: the work happens on the worker pool
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace cloakdb

// Custom main so CI can pass `--quick`: it is rewritten into a short
// --benchmark_min_time before the library parses the arguments.
int main(int argc, char** argv) {
  std::vector<char*> args;
  static char quick_min_time[] = "--benchmark_min_time=0.05";
  bool quick = false;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") {
      quick = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  if (quick) args.push_back(quick_min_time);
  int effective_argc = static_cast<int>(args.size());
  benchmark::Initialize(&effective_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(effective_argc, args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
