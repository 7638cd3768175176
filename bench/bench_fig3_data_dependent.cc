// Experiment F3 — paper Fig. 3 (data-dependent cloaking: naive vs. MBR).
//
// Series per algorithm over a k sweep: cloaking latency, resulting region
// area, achieved k, and — the figure's core claim — information leakage
// measured as adversary guess error. The naive algorithm is fully defeated
// by the center attack; the MBR algorithm leaks boundary information for
// small k.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/attack.h"
#include "core/mbr_cloaking.h"
#include "core/naive_cloaking.h"

namespace cloakdb {
namespace {

using bench::kInf;

constexpr size_t kUsers = 20000;

void BM_Fig3a_NaiveCloaking(benchmark::State& state) {
  bench::RunCloakBench<NaiveCloaking>(state);
}
BENCHMARK(BM_Fig3a_NaiveCloaking)
    ->Arg(5)->Arg(25)->Arg(50)->Arg(100)->Arg(250)
    ->Unit(benchmark::kMicrosecond);

void BM_Fig3b_MbrCloaking(benchmark::State& state) {
  bench::RunCloakBench<MbrCloaking>(state);
}
BENCHMARK(BM_Fig3b_MbrCloaking)
    ->Arg(5)->Arg(25)->Arg(50)->Arg(100)->Arg(250)
    ->Unit(benchmark::kMicrosecond);

// The MBR leakage claim in isolation: boundary-attack advantage over the
// uniform baseline, as a function of k (small k => strong leakage).
void BM_Fig3_MbrBoundaryLeakage(benchmark::State& state) {
  const auto k = static_cast<uint32_t>(state.range(0));
  UserSnapshot snapshot(bench::Space(), UserSnapshot::Options{});
  auto users = bench::MakeUsers(kUsers);
  for (const auto& u : users) (void)snapshot.Insert(u.id, u.location);
  MbrCloaking algo(&snapshot);

  for (auto _ : state) {
    state.PauseTiming();
    std::vector<CloakObservation> observations;
    Rng pick(17);
    for (int i = 0; i < 500; ++i) {
      const auto& u = users[pick.NextBelow(users.size())];
      auto region = algo.Cloak(u.id, u.location,
                               PrivacyRequirement{k, 0.0, kInf});
      observations.push_back({region.value().region, u.location});
    }
    state.ResumeTiming();
    Rng rng(2);
    // The discriminating metric is the near-exact hit rate: boundary
    // guesses co-locate with the users the MBR property pins to the edges
    // (mean error barely moves because a guess can be on the wrong edge).
    auto boundary = EvaluateLeakage(BoundaryAttack(), observations, &rng,
                                    /*epsilon_fraction=*/0.1);
    auto uniform = EvaluateLeakage(UniformAttack(), observations, &rng,
                                   /*epsilon_fraction=*/0.1);
    state.counters["k"] = k;
    state.counters["boundary_hit_rate"] = boundary.hit_rate;
    state.counters["uniform_hit_rate"] = uniform.hit_rate;
    state.counters["hit_rate_advantage"] =
        boundary.hit_rate - uniform.hit_rate;
  }
}
BENCHMARK(BM_Fig3_MbrBoundaryLeakage)
    ->Arg(2)->Arg(5)->Arg(20)->Arg(100)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace cloakdb

BENCHMARK_MAIN();
