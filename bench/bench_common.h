// Shared fixtures for the figure-reproduction benchmarks.
//
// Every benchmark binary regenerates one artifact of the paper (a figure
// scenario) as measured series; bench/README-style commentary lives in
// EXPERIMENTS.md. Fixtures are deterministic from fixed seeds so repeated
// runs produce identical series.

#ifndef CLOAKDB_BENCH_BENCH_COMMON_H_
#define CLOAKDB_BENCH_BENCH_COMMON_H_

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/anonymizer.h"
#include "core/attack.h"
#include "server/query_processor.h"
#include "sim/poi.h"
#include "sim/population.h"

namespace cloakdb {
namespace bench {

inline constexpr uint64_t kSeed = 0xBE7C5EEDULL;

inline Rect Space() { return Rect(0.0, 0.0, 100.0, 100.0); }

inline TimeOfDay Noon() { return TimeOfDay::FromHms(12, 0).value(); }

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// A populated anonymizer: `num_users` users with a uniform k-profile.
inline std::unique_ptr<Anonymizer> MakeAnonymizer(
    CloakingKind kind, size_t num_users, uint32_t k,
    PopulationModel model = PopulationModel::kGaussianClusters,
    bool incremental = true, bool shared = true) {
  AnonymizerOptions options;
  options.space = Space();
  options.algorithm = kind;
  options.enable_incremental = incremental;
  options.enable_shared_execution = shared;
  auto anonymizer = Anonymizer::Create(options);
  auto profile = PrivacyProfile::Uniform({k, 0.0, kInf}).value();
  Rng rng(kSeed);
  PopulationOptions pop;
  pop.num_users = num_users;
  pop.model = model;
  auto users = GeneratePopulation(Space(), pop, &rng).value();
  for (const auto& u : users) {
    (void)anonymizer.value()->RegisterUser(u.id, profile);
    (void)anonymizer.value()->UpdateLocation(u.id, u.location, Noon());
  }
  return std::move(anonymizer).value();
}

/// Deterministic user locations matching MakeAnonymizer's population.
inline std::vector<PointEntry> MakeUsers(
    size_t num_users,
    PopulationModel model = PopulationModel::kGaussianClusters) {
  Rng rng(kSeed);
  PopulationOptions pop;
  pop.num_users = num_users;
  pop.model = model;
  return GeneratePopulation(Space(), pop, &rng).value();
}

/// A server loaded with `num_pois` POIs of category 1.
inline std::unique_ptr<QueryProcessor> MakeServer(size_t num_pois) {
  auto server = std::make_unique<QueryProcessor>(Space());
  Rng rng(kSeed ^ 0x9999);
  PoiOptions poi;
  poi.count = num_pois;
  poi.category = 1;
  auto pois = GeneratePois(Space(), poi, &rng).value();
  (void)server->store().BulkLoadCategory(1, std::move(pois));
  return server;
}

/// One Fig. 3 / Fig. 4 row: times `Algo` cloaking the 20,000 users of
/// MakeUsers at k = state.range(0), then reports the region quality and
/// the leakage of three adversaries (error 0 / hit rate 1 = full recovery;
/// the uniform row is the no-knowledge baseline).
template <typename Algo>
void RunCloakBench(benchmark::State& state) {
  const auto k = static_cast<uint32_t>(state.range(0));
  UserSnapshot snapshot(Space(), UserSnapshot::Options{});
  const std::vector<PointEntry> users = MakeUsers(20000);
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
  // the user count, so the timed order visits each user once), not from
  // the timed iterations: they repeat exactly between runs and commits,
  // whatever iteration count the timer picked.
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

}  // namespace bench
}  // namespace cloakdb

#endif  // CLOAKDB_BENCH_BENCH_COMMON_H_
