// Experiment S53b — server-side incremental evaluation (paper Section 5.3:
// "processing the continuous queries at the location-based server should
// be done incrementally") plus the Section 2.1 trajectory-linkage threat.
//
// Series: the per-tick cost of the service's standing-query registry as the
// number of standing queries grows; and the exposure rate of the linkage
// adversary vs. privacy level k.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/linkage.h"
#include "service/cloak_db_service.h"
#include "sim/movement.h"

namespace cloakdb {
namespace {

using bench::kInf;

// Service-scale standing registry: one full movement tick (every user
// re-reports through the sharded update path) with N standing queries
// live. Per-tick cost must grow with the *affected* query count, not with
// N — the delta-notification grids gate which standing queries re-filter,
// so the affected_p95 counter stays flat while N grows 50x.
void BM_S53b_ServiceStandingScale(benchmark::State& state) {
  const size_t standing = static_cast<size_t>(state.range(0));
  const size_t num_users = 500;
  CloakDbServiceOptions options;
  options.space = bench::Space();
  options.num_shards = 4;
  auto service = CloakDbService::Create(options).value();
  CloakDbService& db = *service;
  auto profile = PrivacyProfile::Uniform({2, 0.0, kInf}).value();
  Rng rng(bench::kSeed ^ 0x53b);
  RandomWaypointModel::Options move_options;
  move_options.seed = bench::kSeed ^ 0x53b;
  RandomWaypointModel movement(bench::Space(), move_options);
  std::vector<UserId> users;
  for (const auto& entry : bench::MakeUsers(num_users)) {
    (void)db.RegisterUser(entry.id, profile);
    (void)movement.AddUser(entry.id, entry.location);
    (void)db.UpdateLocation(entry.id, entry.location, bench::Noon());
    users.push_back(entry.id);
  }
  PoiOptions poi;
  poi.count = 2000;
  poi.category = 1;
  (void)db.BulkLoadCategory(
      1, GeneratePois(bench::Space(), poi, &rng).value());
  for (size_t i = 0; i < standing; ++i) {
    if (i % 16 == 15) {
      Point c{rng.Uniform(10, 90), rng.Uniform(10, 90)};
      (void)db.RegisterContinuousCount(
          Rect::CenteredSquare(c, rng.Uniform(5, 25)));
      continue;
    }
    UserId user = users[i % users.size()];
    switch (i % 3) {
      case 0: (void)db.RegisterContinuousRange(user, 5.0, 1); break;
      case 1: (void)db.RegisterContinuousNn(user, 1); break;
      default: (void)db.RegisterContinuousKnn(user, 3, 1); break;
    }
  }
  for (auto _ : state) {
    movement.Step(1.0);
    for (UserId user : users) {
      (void)db.UpdateLocation(user, movement.LocationOf(user).value(),
                              bench::Noon());
    }
  }
  (void)db.Flush();
  const auto affected =
      db.metrics().SnapshotHistogram("cq.affected_per_update");
  state.counters["standing"] = static_cast<double>(standing);
  state.counters["affected_p95"] = affected.p95();
  state.counters["refilters"] = static_cast<double>(
      db.metrics().CounterValue("cq.incremental_refilters_total"));
}
BENCHMARK(BM_S53b_ServiceStandingScale)
    ->Arg(1000)->Arg(10000)->Arg(50000)
    ->Unit(benchmark::kMillisecond);

// Linkage exposure vs. privacy level (Section 2.1 "avoid location
// tracking"): moving users, consecutive anonymized batches, reachability
// adversary.
void BM_S21_LinkageExposure(benchmark::State& state) {
  const auto k = static_cast<uint32_t>(state.range(0));
  const size_t n = 2000;
  Rect space = bench::Space();
  AnonymizerOptions anon_options;
  anon_options.space = space;
  anon_options.algorithm = CloakingKind::kMultiLevelGrid;
  anon_options.enable_incremental = false;
  auto anonymizer = Anonymizer::Create(anon_options).value();
  RandomWaypointModel::Options move_options;
  move_options.min_speed = 0.5;
  move_options.max_speed = 2.0;
  RandomWaypointModel movement(space, move_options);
  auto profile = PrivacyProfile::Uniform({k, 0.0, kInf}).value();
  Rng rng(4);
  for (ObjectId id = 1; id <= n; ++id) {
    Point p{rng.Uniform(0, 100), rng.Uniform(0, 100)};
    (void)anonymizer->RegisterUser(id, profile);
    (void)movement.AddUser(id, p);
    (void)anonymizer->UpdateLocation(id, p, bench::Noon());
  }
  double exposure = 0.0, candidates = 0.0;
  size_t rounds = 0;
  for (auto _ : state) {
    std::vector<Rect> before;
    before.reserve(n);
    for (ObjectId id = 1; id <= n; ++id) {
      before.push_back(
          anonymizer->CloakForQuery(id, bench::Noon()).value().cloaked.region);
    }
    movement.Step(1.0);
    std::vector<Rect> after;
    after.reserve(n);
    for (ObjectId id = 1; id <= n; ++id) {
      after.push_back(anonymizer
                          ->UpdateLocation(
                              id, movement.LocationOf(id).value(),
                              bench::Noon())
                          .value()
                          .cloaked.region);
    }
    auto report = EvaluateLinkage(before, after, {2.0, 1.0}).value();
    exposure += report.ExposureRate();
    candidates += report.avg_candidates;
    ++rounds;
  }
  state.counters["k"] = k;
  state.counters["exposure_rate"] = exposure / static_cast<double>(rounds);
  state.counters["avg_link_candidates"] =
      candidates / static_cast<double>(rounds);
}
BENCHMARK(BM_S21_LinkageExposure)
    ->Arg(1)->Arg(5)->Arg(25)->Arg(100)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace cloakdb

BENCHMARK_MAIN();
