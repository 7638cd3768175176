// Experiment IDX — substrate ablation: the spatial index structures that
// everything above is built on (uniform grid, count pyramid,
// static R-tree and its post-seal facade, rect grid). Not a paper figure;
// justifies the structure choices recorded in DESIGN.md.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "index/grid_index.h"
#include "index/public_index.h"
#include "index/pyramid.h"
#include "index/rect_grid.h"
#include "index/static_rtree.h"

namespace cloakdb {
namespace {

template <typename Index>
Index MakeLoaded(size_t n) {
  Index index(bench::Space(), 64);
  for (const auto& u : bench::MakeUsers(n)) {
    (void)index.Insert(u.id, u.location);
  }
  return index;
}

void BM_IDX_GridMove(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  auto index = MakeLoaded<GridIndex>(n);
  auto users = bench::MakeUsers(n);
  Rng rng(1);
  size_t idx = 0;
  for (auto _ : state) {
    auto& u = users[idx % users.size()];
    ++idx;
    u.location.x = std::clamp(u.location.x + rng.Uniform(-1, 1), 0.0, 100.0);
    u.location.y = std::clamp(u.location.y + rng.Uniform(-1, 1), 0.0, 100.0);
    benchmark::DoNotOptimize(index.Move(u.id, u.location));
  }
  state.counters["n"] = static_cast<double>(n);
}
BENCHMARK(BM_IDX_GridMove)->Arg(10000)->Arg(100000);

void BM_IDX_PyramidMove(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  Pyramid index(bench::Space(), 8);
  auto users = bench::MakeUsers(n);
  for (const auto& u : users) index.Insert(u.location);
  Rng rng(2);
  size_t idx = 0;
  for (auto _ : state) {
    auto& u = users[idx % users.size()];
    ++idx;
    const Point from = u.location;
    u.location.x = std::clamp(u.location.x + rng.Uniform(-1, 1), 0.0, 100.0);
    u.location.y = std::clamp(u.location.y + rng.Uniform(-1, 1), 0.0, 100.0);
    index.Move(from, u.location);
    benchmark::ClobberMemory();
  }
  state.counters["n"] = static_cast<double>(n);
}
BENCHMARK(BM_IDX_PyramidMove)->Arg(10000)->Arg(100000);

void BM_IDX_GridRangeCount(benchmark::State& state) {
  auto index = MakeLoaded<GridIndex>(100000);
  Rng rng(4);
  for (auto _ : state) {
    Point c{rng.Uniform(10, 90), rng.Uniform(10, 90)};
    benchmark::DoNotOptimize(
        index.CountInRect(Rect::CenteredSquare(c, 10.0)));
  }
}
BENCHMARK(BM_IDX_GridRangeCount);

void BM_IDX_GridKnn(benchmark::State& state) {
  const auto k = static_cast<size_t>(state.range(0));
  auto index = MakeLoaded<GridIndex>(100000);
  Rng rng(5);
  for (auto _ : state) {
    Point q{rng.Uniform(0, 100), rng.Uniform(0, 100)};
    benchmark::DoNotOptimize(index.KNearest(q, k));
  }
  state.counters["k"] = static_cast<double>(k);
}
BENCHMARK(BM_IDX_GridKnn)->Arg(1)->Arg(10)->Arg(100);

// --- Public-POI probes on the packed StaticRTree ---------------------------

void BM_IDX_PoiRangeProbe(benchmark::State& state) {
  const StaticRTree tree = StaticRTree::Build(bench::MakeUsers(100000)).value();
  Rng rng(9);
  std::vector<PointEntry> hits;
  for (auto _ : state) {
    Point c{rng.Uniform(10, 90), rng.Uniform(10, 90)};
    hits.clear();
    tree.RangeSearchInto(Rect::CenteredSquare(c, 5.0), nullptr, &hits);
    benchmark::DoNotOptimize(hits.data());
  }
}
BENCHMARK(BM_IDX_PoiRangeProbe);

void BM_IDX_PoiKnn(benchmark::State& state) {
  const StaticRTree tree = StaticRTree::Build(bench::MakeUsers(100000)).value();
  Rng rng(10);
  for (auto _ : state) {
    Point q{rng.Uniform(0, 100), rng.Uniform(0, 100)};
    benchmark::DoNotOptimize(tree.KNearest(q, 10, nullptr));
  }
}
BENCHMARK(BM_IDX_PoiKnn);

// --- Post-seal probes: sealed POIs plus the spill overlay ------------------
//
// 100k POIs sealed by one bulk load, then Arg(0) more added one at a time,
// which land in the overlay (the default compact limit is 1,024, so none
// compacts). Arg(1) picks the probe: 0 = range (the 5 x 5 window of
// BM_IDX_PoiRangeProbe), 1 = kNN with k = 10, 2 = NearestDistance. Only
// PublicCategoryIndex's public API is used.

void BM_IDX_PostSealProbe(benchmark::State& state) {
  const auto spill = static_cast<ObjectId>(state.range(0));
  const int64_t probe = state.range(1);
  PublicCategoryIndex index;
  (void)index.BulkLoad(bench::MakeUsers(100000));
  Rng rng(11);
  for (ObjectId i = 1; i <= spill; ++i) {
    (void)index.Insert(1000000 + i, {rng.Uniform(0, 100), rng.Uniform(0, 100)});
  }
  for (auto _ : state) {
    const Point q{rng.Uniform(10, 90), rng.Uniform(10, 90)};
    if (probe == 0) {
      benchmark::DoNotOptimize(index.RangeSearch(Rect::CenteredSquare(q, 5.0)));
    } else if (probe == 1) {
      benchmark::DoNotOptimize(index.KNearest(q, 10));
    } else {
      benchmark::DoNotOptimize(index.NearestDistance(q));
    }
  }
  state.counters["overlay"] = static_cast<double>(index.overlay_size());
}
BENCHMARK(BM_IDX_PostSealProbe)
    ->ArgNames({"overlay", "probe"})
    ->ArgsProduct({{0, 64, 1024}, {0, 1, 2}});

void BM_IDX_StaticRTreeBuild(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  auto pois = bench::MakeUsers(n);
  for (auto _ : state) {
    auto tree = StaticRTree::Build(pois);
    benchmark::DoNotOptimize(tree);
  }
  state.counters["n"] = static_cast<double>(n);
}
BENCHMARK(BM_IDX_StaticRTreeBuild)
    ->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_IDX_RectGridUpdate(benchmark::State& state) {
  RectGrid index(bench::Space(), 64);
  Rng rng(7);
  for (ObjectId id = 1; id <= 50000; ++id) {
    Point c{rng.Uniform(5, 95), rng.Uniform(5, 95)};
    (void)index.Insert(id, Rect::CenteredSquare(c, rng.Uniform(0.5, 5)));
  }
  size_t idx = 0;
  for (auto _ : state) {
    ObjectId id = 1 + (idx % 50000);
    ++idx;
    Point c{rng.Uniform(5, 95), rng.Uniform(5, 95)};
    benchmark::DoNotOptimize(
        index.Update(id, Rect::CenteredSquare(c, rng.Uniform(0.5, 5))));
  }
}
BENCHMARK(BM_IDX_RectGridUpdate);

void BM_IDX_RectGridIntersecting(benchmark::State& state) {
  RectGrid index(bench::Space(), 64);
  Rng rng(8);
  for (ObjectId id = 1; id <= 50000; ++id) {
    Point c{rng.Uniform(5, 95), rng.Uniform(5, 95)};
    (void)index.Insert(id, Rect::CenteredSquare(c, rng.Uniform(0.5, 5)));
  }
  for (auto _ : state) {
    Point c{rng.Uniform(10, 90), rng.Uniform(10, 90)};
    benchmark::DoNotOptimize(
        index.IntersectingRects(Rect::CenteredSquare(c, 15.0)));
  }
}
BENCHMARK(BM_IDX_RectGridIntersecting);

}  // namespace
}  // namespace cloakdb

BENCHMARK_MAIN();
