// Experiment BAS — the paper's Section 2.1 taxonomy, measured head to head.
//
// Four location-privacy families at a matched privacy budget:
//   dummies (n points), landmarks (density-bound), Euclidean k-cloaking
//   (this paper), and graph obfuscation (vertex sets) — comparing the
// adversary's identification/hit rate against the QoS cost (candidate-list
// size of an NN query). The table supports the paper's argument that
// spatial cloaking is the family that both scales and holds a tunable
// privacy level.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/attack.h"
#include "core/baselines.h"
#include "core/grid_cloaking.h"
#include "core/temporal_cloaking.h"
#include "roadnet/obfuscation.h"
#include "server/private_queries.h"

namespace cloakdb {
namespace {

using bench::kInf;

void BM_BAS_Dummies(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  auto server = bench::MakeServer(2000);
  const PublicCategoryIndex* index = server->store().CategoryIndex(1).value();
  Rng rng(1);
  DummyOptions options;
  options.num_points = n;
  options.locality_radius = 10.0;

  std::vector<DummyUpdate> updates;
  double candidates = 0.0;
  size_t queries = 0;
  for (auto _ : state) {
    Point truth{rng.Uniform(5, 95), rng.Uniform(5, 95)};
    auto update = MakeDummyUpdate(truth, bench::Space(), options, &rng);
    auto nn_ids = DummyNnQuery(*index, update.value());
    benchmark::DoNotOptimize(nn_ids);
    candidates += static_cast<double>(nn_ids.size());
    updates.push_back(std::move(update).value());
    ++queries;
  }
  auto leak = EvaluateDummyLeakage(updates, &rng);
  state.counters["privacy_n"] = static_cast<double>(n);
  state.counters["identification_rate"] = leak.identification_rate;
  state.counters["guess_error"] = leak.guess_error.mean();
  state.counters["nn_candidates"] =
      candidates / static_cast<double>(queries);
}
BENCHMARK(BM_BAS_Dummies)->Arg(2)->Arg(10)->Arg(50)
    ->Unit(benchmark::kMicrosecond);

void BM_BAS_Landmarks(benchmark::State& state) {
  const auto density = static_cast<size_t>(state.range(0));
  auto server = bench::MakeServer(2000);
  const PublicCategoryIndex* index = server->store().CategoryIndex(1).value();
  // Landmarks are a separate, fixed public layer.
  PublicCategoryIndex landmarks;
  {
    Rng rng(2);
    std::vector<PointEntry> entries;
    for (ObjectId id = 1; id <= density; ++id) {
      entries.push_back({id, {rng.Uniform(0, 100), rng.Uniform(0, 100)}});
    }
    (void)landmarks.BulkLoad(entries);
  }
  Rng rng(3);
  double displacement = 0.0, candidates = 0.0;
  size_t queries = 0;
  for (auto _ : state) {
    Point truth{rng.Uniform(0, 100), rng.Uniform(0, 100)};
    auto update = MakeLandmarkUpdate(truth, landmarks);
    // QoS: the NN is computed at the landmark — a single candidate whose
    // answer may simply be wrong for the true location.
    auto nn = index->KNearest(update.value().landmark, 1);
    benchmark::DoNotOptimize(nn);
    displacement += update.value().displacement;
    candidates += 1.0;
    ++queries;
  }
  state.counters["landmark_density"] = static_cast<double>(density);
  state.counters["privacy_radius"] =
      displacement / static_cast<double>(queries);
  state.counters["nn_candidates"] = 1.0;
}
BENCHMARK(BM_BAS_Landmarks)->Arg(50)->Arg(500)->Arg(5000)
    ->Unit(benchmark::kMicrosecond);

void BM_BAS_EuclideanCloaking(benchmark::State& state) {
  const auto k = static_cast<uint32_t>(state.range(0));
  auto server = bench::MakeServer(2000);
  UserSnapshot snapshot(bench::Space(), UserSnapshot::Options{});
  auto users = bench::MakeUsers(20000);
  for (const auto& u : users) (void)snapshot.Insert(u.id, u.location);
  GridCloaking algo(&snapshot);
  Rng rng(4);

  std::vector<CloakObservation> observations;
  double candidates = 0.0;
  size_t queries = 0;
  for (auto _ : state) {
    const auto& u = users[rng.NextBelow(users.size())];
    auto region = algo.Cloak(u.id, u.location,
                             PrivacyRequirement{k, 0.0, kInf});
    auto nn = PrivateNnQuery(server->store(), region.value().region, 1);
    benchmark::DoNotOptimize(nn);
    candidates += static_cast<double>(nn.value().candidates.size());
    observations.push_back({region.value().region, u.location});
    ++queries;
  }
  Rng attack_rng(5);
  auto uniform =
      EvaluateLeakage(UniformAttack(), observations, &attack_rng, 0.1);
  auto center =
      EvaluateLeakage(CenterAttack(), observations, &attack_rng, 0.1);
  state.counters["privacy_k"] = k;
  state.counters["guess_error_uniform"] = uniform.normalized_error.mean();
  state.counters["center_hit_rate"] = center.hit_rate;
  state.counters["nn_candidates"] =
      candidates / static_cast<double>(queries);
}
BENCHMARK(BM_BAS_EuclideanCloaking)->Arg(2)->Arg(10)->Arg(50)
    ->Unit(benchmark::kMicrosecond);

void BM_BAS_GraphObfuscation(benchmark::State& state) {
  const auto m = static_cast<size_t>(state.range(0));
  Rng rng(6);
  GridNetworkOptions grid;
  grid.rows = 24;
  grid.cols = 24;
  auto network = MakeGridNetwork(bench::Space(), grid, &rng).value();
  // Targets: every 12th vertex hosts a POI.
  std::vector<bool> targets(network.num_vertices(), false);
  for (VertexId v = 0; v < network.num_vertices(); v += 12) {
    targets[v] = true;
  }
  ObfuscationOptions options;
  options.min_vertices = m;

  std::vector<ObfuscationObservation> observations;
  double candidates = 0.0;
  size_t queries = 0;
  for (auto _ : state) {
    VertexId truth =
        static_cast<VertexId>(rng.NextBelow(network.num_vertices()));
    auto cloak = ObfuscateVertex(network, truth, options, &rng);
    auto nn = ObfuscatedNnCandidates(network, cloak.value(), targets);
    benchmark::DoNotOptimize(nn);
    candidates += static_cast<double>(nn.value().size());
    observations.push_back({std::move(cloak).value(), truth});
    ++queries;
  }
  auto leak = EvaluateObfuscationLeakage(network, observations, &rng).value();
  state.counters["privacy_m"] = static_cast<double>(m);
  state.counters["hit_rate"] = leak.hit_rate;
  state.counters["network_guess_error"] = leak.mean_network_error;
  state.counters["nn_candidates"] =
      candidates / static_cast<double>(queries);
}
BENCHMARK(BM_BAS_GraphObfuscation)->Arg(2)->Arg(10)->Arg(50)
    ->Unit(benchmark::kMicrosecond);

// Temporal cloaking (Gruteser & Grunwald's second dimension): the privacy
// cost is *staleness* instead of area — release delay grows with k.
void BM_BAS_TemporalCloaking(benchmark::State& state) {
  const auto k = static_cast<uint32_t>(state.range(0));
  TemporalCloakingOptions options;
  options.space = bench::Space();
  options.cells_per_side = 16;
  options.k = k;
  options.max_delay = 1e9;  // measure pure k-delay
  auto cloaker = TemporalCloaker::Create(options).value();
  Rng rng(7);
  double total_delay = 0.0;
  size_t released = 0;
  double clock = 0.0;
  for (auto _ : state) {
    UserId user = 1 + rng.NextBelow(2000);
    Point p{rng.Uniform(0, 100), rng.Uniform(0, 100)};
    clock += 0.01;  // 100 reports per time unit across the city
    auto out = cloaker.Report(user, p, clock);
    benchmark::DoNotOptimize(out);
    for (const auto& release : out.value()) {
      total_delay += release.Delay();
      ++released;
    }
  }
  state.counters["privacy_k"] = k;
  if (released > 0) {
    state.counters["avg_release_delay"] =
        total_delay / static_cast<double>(released);
  }
  state.counters["still_pending"] = static_cast<double>(cloaker.pending());
}
BENCHMARK(BM_BAS_TemporalCloaking)->Arg(2)->Arg(5)->Arg(20)->Arg(50)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace cloakdb

BENCHMARK_MAIN();
