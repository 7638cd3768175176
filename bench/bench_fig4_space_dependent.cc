// Experiment F4 — paper Fig. 4 (space-dependent cloaking: fixed grid vs.
// multi-level grid; the multi-level grid's pyramid is a complete quadtree,
// so its row is also the Fig. 4a quadtree rule, which the anonymizer serves
// with the same class).
//
// Series per algorithm over a k sweep: cloaking latency, region area
// (space-dependent regions over-shoot the minimal k-region — the paper's
// accuracy cost for leakage resistance), relative anonymity, and adversary
// error, which should match the uniform baseline (no leakage).

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/attack.h"
#include "core/grid_cloaking.h"
#include "core/multilevel_grid_cloaking.h"

namespace cloakdb {
namespace {

using bench::kInf;

constexpr size_t kUsers = 20000;

template <typename Algo>
void RunCloakBench(benchmark::State& state) {
  const auto k = static_cast<uint32_t>(state.range(0));
  UserSnapshot snapshot(bench::Space(), UserSnapshot::Options{});
  auto users = bench::MakeUsers(kUsers);
  for (const auto& u : users) (void)snapshot.Insert(u.id, u.location);
  Algo algo(&snapshot);
  const PrivacyRequirement req{k, 0.0, kInf};

  size_t idx = 0;
  for (auto _ : state) {
    const auto& u = users[(idx * 7919) % users.size()];
    ++idx;
    benchmark::DoNotOptimize(algo.Cloak(u.id, u.location, req));
  }

  // The quality counters come from one cloak per user (7919 is coprime to
  // kUsers, so the timed order visits each user once), not from the timed
  // iterations: they repeat exactly between runs and commits, whatever
  // iteration count the timer picked.
  double total_area = 0.0, total_rel_k = 0.0;
  std::vector<CloakObservation> observations;
  for (size_t i = 0; i < users.size(); ++i) {
    const auto& u = users[(i * 7919) % users.size()];
    auto region = algo.Cloak(u.id, u.location, req).value();
    total_area += region.region.Area();
    total_rel_k += region.RelativeAnonymity();
    observations.push_back({region.region, u.location});
  }
  const auto cloaks = static_cast<double>(users.size());
  state.counters["k"] = k;
  state.counters["avg_area"] = total_area / cloaks;
  state.counters["avg_rel_anonymity"] = total_rel_k / cloaks;

  Rng rng(1);
  auto center = EvaluateLeakage(CenterAttack(), observations, &rng, 0.1);
  auto boundary = EvaluateLeakage(BoundaryAttack(), observations, &rng, 0.1);
  auto uniform = EvaluateLeakage(UniformAttack(), observations, &rng, 0.1);
  state.counters["err_center"] = center.normalized_error.mean();
  state.counters["err_boundary"] = boundary.normalized_error.mean();
  state.counters["err_uniform_baseline"] = uniform.normalized_error.mean();
  state.counters["center_hit_rate"] = center.hit_rate;
  state.counters["boundary_hit_rate"] = boundary.hit_rate;
  state.counters["uniform_hit_rate"] = uniform.hit_rate;
}

void BM_Fig4b_GridCloaking(benchmark::State& state) {
  RunCloakBench<GridCloaking>(state);
}
BENCHMARK(BM_Fig4b_GridCloaking)
    ->Arg(5)->Arg(25)->Arg(50)->Arg(100)->Arg(250)
    ->Unit(benchmark::kMicrosecond);

void BM_Fig4b_MultiLevelGridCloaking(benchmark::State& state) {
  RunCloakBench<MultiLevelGridCloaking>(state);
}
BENCHMARK(BM_Fig4b_MultiLevelGridCloaking)
    ->Arg(5)->Arg(25)->Arg(50)->Arg(100)->Arg(250)
    ->Unit(benchmark::kMicrosecond);

// Ablation: grid resolution vs. cloaking cost and area overshoot for the
// fixed-grid algorithm (the paper's "fixed grid cells" design knob).
void BM_Fig4_GridResolutionAblation(benchmark::State& state) {
  const auto cells = static_cast<uint32_t>(state.range(0));
  UserSnapshot::Options snap_options;
  snap_options.grid_cells_per_side = cells;
  UserSnapshot snapshot(bench::Space(), snap_options, /*with_pyramid=*/false);
  auto users = bench::MakeUsers(kUsers);
  for (const auto& u : users) (void)snapshot.Insert(u.id, u.location);
  GridCloaking algo(&snapshot);

  double total_area = 0.0;
  size_t cloaks = 0, idx = 0;
  for (auto _ : state) {
    const auto& u = users[(idx * 7919) % users.size()];
    ++idx;
    auto region =
        algo.Cloak(u.id, u.location, PrivacyRequirement{50, 0.0, kInf});
    benchmark::DoNotOptimize(region);
    total_area += region.value().region.Area();
    ++cloaks;
  }
  state.counters["cells_per_side"] = cells;
  state.counters["avg_area"] = total_area / static_cast<double>(cloaks);
}
BENCHMARK(BM_Fig4_GridResolutionAblation)
    ->Arg(16)->Arg(32)->Arg(64)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace cloakdb

BENCHMARK_MAIN();
