// Experiment F5 — paper Fig. 5 (private queries over public data).
//
// Fig. 5a (private range) and Fig. 5b (private NN) series: query latency,
// candidate-list size, and bytes shipped to the client as functions of the
// privacy level k (region size) and POI density — against the paper's
// "send all target objects" naive baseline. Also an ablation of the
// dominance-pruning step, and one isolated query split into its server
// parts (probe, refine, materialize).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>

#include "bench_common.h"
#include "geom/distance.h"
#include "server/id_order.h"
#include "server/private_queries.h"

namespace cloakdb {
namespace {

using bench::kInf;

// Builds cloaked query regions from a real anonymizer at privacy level k.
std::vector<Rect> MakeQueryRegions(uint32_t k, size_t count) {
  auto anonymizer = bench::MakeAnonymizer(CloakingKind::kGrid, 20000, k);
  std::vector<Rect> regions;
  Rng rng(31);
  for (size_t i = 0; i < count; ++i) {
    UserId user = 1 + rng.NextBelow(20000);
    auto cloak = anonymizer->CloakForQuery(user, bench::Noon());
    regions.push_back(cloak.value().cloaked.region);
  }
  return regions;
}

void BM_Fig5a_PrivateRange(benchmark::State& state) {
  const auto k = static_cast<uint32_t>(state.range(0));
  auto server = bench::MakeServer(2000);
  auto regions = MakeQueryRegions(k, 256);
  const double radius = 3.0;

  double total_candidates = 0.0;
  size_t queries = 0, idx = 0;
  for (auto _ : state) {
    auto result =
        server->PrivateRange(regions[idx % regions.size()], radius, 1);
    benchmark::DoNotOptimize(result);
    total_candidates +=
        static_cast<double>(result.value().candidates.size());
    ++queries;
    ++idx;
  }
  state.counters["k"] = k;
  state.counters["avg_candidates"] =
      total_candidates / static_cast<double>(queries);
  state.counters["avg_bytes"] = total_candidates /
                                static_cast<double>(queries) *
                                WireCostModel{}.bytes_per_object;
  state.counters["naive_send_all_bytes"] =
      2000.0 * WireCostModel{}.bytes_per_object;  // the paper's baseline
}
BENCHMARK(BM_Fig5a_PrivateRange)
    ->Arg(1)->Arg(10)->Arg(50)->Arg(200)->Arg(1000)
    ->Unit(benchmark::kMicrosecond);

void BM_Fig5b_PrivateNn(benchmark::State& state) {
  const auto k = static_cast<uint32_t>(state.range(0));
  auto server = bench::MakeServer(2000);
  auto regions = MakeQueryRegions(k, 256);

  double total_candidates = 0.0, total_pruned = 0.0;
  size_t queries = 0, idx = 0;
  for (auto _ : state) {
    auto result = server->PrivateNn(regions[idx % regions.size()], 1);
    benchmark::DoNotOptimize(result);
    total_candidates +=
        static_cast<double>(result.value().candidates.size());
    total_pruned += static_cast<double>(result.value().dominance_pruned);
    ++queries;
    ++idx;
  }
  state.counters["k"] = k;
  state.counters["avg_candidates"] =
      total_candidates / static_cast<double>(queries);
  state.counters["avg_pruned"] = total_pruned / static_cast<double>(queries);
  state.counters["avg_bytes"] = total_candidates /
                                static_cast<double>(queries) *
                                WireCostModel{}.bytes_per_object;
  state.counters["naive_send_all_bytes"] = 2000.0 * WireCostModel{}.bytes_per_object;
}
BENCHMARK(BM_Fig5b_PrivateNn)
    ->Arg(1)->Arg(10)->Arg(50)->Arg(200)->Arg(1000)
    ->Unit(benchmark::kMicrosecond);

// POI-density sweep at fixed privacy: candidate size scales with density
// for range queries but stays near-constant for NN (the candidate region
// shrinks as objects get denser).
void BM_Fig5_PoiDensitySweep(benchmark::State& state) {
  const auto pois = static_cast<size_t>(state.range(0));
  auto server = bench::MakeServer(pois);
  auto regions = MakeQueryRegions(50, 128);

  double range_candidates = 0.0, nn_candidates = 0.0;
  size_t queries = 0, idx = 0;
  for (auto _ : state) {
    const Rect& region = regions[idx % regions.size()];
    auto range = server->PrivateRange(region, 3.0, 1);
    auto nn = server->PrivateNn(region, 1);
    benchmark::DoNotOptimize(range);
    benchmark::DoNotOptimize(nn);
    range_candidates +=
        static_cast<double>(range.value().candidates.size());
    nn_candidates += static_cast<double>(nn.value().candidates.size());
    ++queries;
    ++idx;
  }
  state.counters["pois"] = static_cast<double>(pois);
  state.counters["range_candidates"] =
      range_candidates / static_cast<double>(queries);
  state.counters["nn_candidates"] =
      nn_candidates / static_cast<double>(queries);
}
BENCHMARK(BM_Fig5_PoiDensitySweep)
    ->Arg(100)->Arg(500)->Arg(2000)->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

// Ablation of the NN dominance prune. Arg: 0 = fetch-radius filter only,
// 1 = plus whole-cloak dominance (keep o iff MinDist(o, R) <= the smallest
// MaxDist(o', R)), 2 = the server's kernel (whole cloak, then the union
// over 4x4 tiles). Arms 0 and 1 run inline here.
void BM_Fig5_DominancePruningAblation(benchmark::State& state) {
  const int64_t arm = state.range(0);
  auto server = bench::MakeServer(2000);
  auto regions = MakeQueryRegions(50, 128);
  const auto* index = server->store().CategoryIndex(1).value();

  double total_candidates = 0.0;
  size_t queries = 0, idx = 0;
  for (auto _ : state) {
    const Rect& cloaked = regions[idx % regions.size()];
    ++idx;
    if (arm == 2) {
      auto result = PrivateNnQuery(server->store(), cloaked, 1);
      total_candidates +=
          static_cast<double>(result.value().candidates.size());
    } else {
      double max_corner_nn = 0.0;
      for (const Point& corner : cloaked.Corners()) {
        max_corner_nn =
            std::max(max_corner_nn, index->NearestDistance(corner));
      }
      double half_diag =
          0.5 * std::sqrt(cloaked.Width() * cloaked.Width() +
                          cloaked.Height() * cloaked.Height());
      double radius = max_corner_nn + half_diag;
      auto hits = index->RangeSearch(cloaked.Expanded(radius));
      hits.erase(std::remove_if(hits.begin(), hits.end(),
                                [&](const IndexHit& h) {
                                  return MinDist(h.location, cloaked) > radius;
                                }),
                 hits.end());
      double min_max_dist = kInf;
      if (arm == 1) {
        for (const auto& h : hits)
          min_max_dist = std::min(min_max_dist, MaxDist(h.location, cloaked));
      }
      size_t kept = 0;
      for (const auto& h : hits) {
        if (MinDist(h.location, cloaked) <= min_max_dist) ++kept;
      }
      benchmark::DoNotOptimize(kept);
      total_candidates += static_cast<double>(kept);
    }
    ++queries;
  }
  state.counters["arm"] = static_cast<double>(arm);
  state.counters["avg_candidates"] =
      total_candidates / static_cast<double>(queries);
}
BENCHMARK(BM_Fig5_DominancePruningAblation)
    ->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMicrosecond);

// One isolated private query split into the parts the server runs: the
// plan (for NN/kNN the joint corner probe that fixes the reach), the window
// probe (PublicCategoryIndex::RangeSearch), the Fig. 5 kernel (RefineHits),
// the id sort of the survivors (SortById) and Materialize, which copies the
// kept records. 100k uniform POIs; 4,000 cloaks of side 1-3 (range radius
// 0.5-2, kNN k = 5), one query per cloak. Before each query an 8 MB sweep
// evicts the caches, as the server's other work does between two queries
// of one user. Each part is timed on its own (counters reach_us, probe_us,
// refine_us, sort_us, materialize_us: us per query); the row's time is
// their sum. The sweep runs untimed. Arg: 0 = range, 1 = NN, 2 = kNN.
void BM_Fig5_QueryParts(benchmark::State& state) {
  using Clock = std::chrono::steady_clock;
  const int64_t kind = state.range(0);
  auto server = bench::MakeServer(100000);
  const ObjectStore& store = server->store();
  const PublicCategoryIndex& index = *store.CategoryIndex(1).value();
  struct Query {
    Rect cloaked;
    double radius;
  };
  std::vector<Query> queries;
  Rng rng(41);
  for (int i = 0; i < 4000; ++i) {
    const Point c{rng.Uniform(5, 95), rng.Uniform(5, 95)};
    queries.push_back({Rect::CenteredSquare(c, rng.Uniform(1.0, 3.0)),
                       rng.Uniform(0.5, 2.0)});
  }
  std::vector<uint64_t> sweep((8u << 20) / sizeof(uint64_t));
  const auto us = [](Clock::duration d) {
    return std::chrono::duration<double, std::micro>(d).count();
  };

  double reach_us = 0.0, probe_us = 0.0, refine_us = 0.0, sort_us = 0.0,
         materialize_us = 0.0;
  double hits = 0.0, kept = 0.0;
  size_t idx = 0;
  for (auto _ : state) {
    const Query& q = queries[idx++ % queries.size()];
    for (size_t i = 0; i < sweep.size(); i += 8) ++sweep[i];  // 1 per line
    benchmark::ClobberMemory();

    const auto t0 = Clock::now();
    const RefineQuery refine =
        kind == 0   ? PlanPrivateRange(store, q.cloaked, q.radius, 1)
                          .value()
                          .refine
        : kind == 1 ? PlanPrivateNn(store, q.cloaked, 1).value().refine
                    : PlanPrivateKnn(store, q.cloaked, 5, 1).value().refine;
    const auto t1 = Clock::now();
    const auto probed =
        index.RangeSearch(refine.cloaked.Expanded(refine.reach));
    const auto t2 = Clock::now();
    auto refined = RefineHits(refine, probed);
    const auto t3 = Clock::now();
    SortById(&refined.survivors);
    const auto t4 = Clock::now();
    auto candidates = Materialize(store, 1, refined.survivors);
    const auto t5 = Clock::now();
    benchmark::DoNotOptimize(candidates);

    reach_us += us(t1 - t0);
    probe_us += us(t2 - t1);
    refine_us += us(t3 - t2);
    sort_us += us(t4 - t3);
    materialize_us += us(t5 - t4);
    hits += static_cast<double>(probed.size());
    kept += static_cast<double>(candidates.value().size());
    state.SetIterationTime(std::chrono::duration<double>(t5 - t0).count());
  }
  const auto per_query = benchmark::Counter::kAvgIterations;
  state.counters["reach_us"] = benchmark::Counter(reach_us, per_query);
  state.counters["probe_us"] = benchmark::Counter(probe_us, per_query);
  state.counters["refine_us"] = benchmark::Counter(refine_us, per_query);
  state.counters["sort_us"] = benchmark::Counter(sort_us, per_query);
  state.counters["materialize_us"] =
      benchmark::Counter(materialize_us, per_query);
  state.counters["hits"] = benchmark::Counter(hits, per_query);
  state.counters["kept"] = benchmark::Counter(kept, per_query);
  benchmark::DoNotOptimize(sweep.data());
}
BENCHMARK(BM_Fig5_QueryParts)
    ->Arg(0)->Arg(1)->Arg(2)
    ->Iterations(4000)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace cloakdb

BENCHMARK_MAIN();
