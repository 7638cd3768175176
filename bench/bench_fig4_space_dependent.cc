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
#include "core/grid_cloaking.h"
#include "core/multilevel_grid_cloaking.h"

namespace cloakdb {
namespace {

using bench::kInf;

constexpr size_t kUsers = 20000;

void BM_Fig4b_GridCloaking(benchmark::State& state) {
  bench::RunCloakBench<GridCloaking>(state);
}
BENCHMARK(BM_Fig4b_GridCloaking)
    ->Arg(5)->Arg(25)->Arg(50)->Arg(100)->Arg(250)
    ->Unit(benchmark::kMicrosecond);

void BM_Fig4b_MultiLevelGridCloaking(benchmark::State& state) {
  bench::RunCloakBench<MultiLevelGridCloaking>(state);
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
