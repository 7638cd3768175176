// Experiment F1 — paper Fig. 1 (the three-entity architecture end to end).
//
// Streams movement ticks and a mixed query workload through a one-shard
// CloakDbService (one anonymizer sees the whole crowd, as in the figure) and
// reports throughput, per-channel traffic, and end-to-end answer accuracy
// (which must remain exact for private queries — the architecture's promise).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <map>

#include "bench_common.h"
#include "server/private_queries.h"
#include "service/cloak_db_service.h"
#include "sim/movement.h"
#include "sim/workload.h"

namespace cloakdb {
namespace {

// Modeled ingest message sizes; like the WireCostModel that prices the
// server->user candidate lists, they carry no envelope.
constexpr double kLocationReportBytes = 8 + 16 + 8;  // user id, point, time
constexpr double kCloakedUpdateBytes = 8 + 32;       // pseudonym, rectangle

// POIs, a moving crowd with a uniform k-profile, and the service. The
// simulator keeps the true locations and POI copies the accuracy counters
// compare against.
struct Fig1World {
  Fig1World(size_t num_users, uint32_t k) {
    CloakDbServiceOptions options;
    options.space = bench::Space();
    options.num_shards = 1;
    db = CloakDbService::Create(options).value();
    Rng rng(bench::kSeed);
    for (Category cat :
         {poi_category::kGasStation, poi_category::kRestaurant}) {
      PoiOptions poi;
      poi.count = 500;
      poi.category = cat;
      poi.first_id = 1'000'000ULL + 1'000'000ULL * cat;
      pois[cat] = GeneratePois(bench::Space(), poi, &rng).value();
      (void)db->BulkLoadCategory(cat, pois[cat]);
    }
    auto profile = PrivacyProfile::Uniform({k, 0.0, bench::kInf}).value();
    for (const auto& u : bench::MakeUsers(num_users)) {
      (void)db->RegisterUser(u.id, profile);
      (void)movement.AddUser(u.id, u.location);
      users.push_back(u.id);
    }
    Tick(0.0);  // the initial reports
  }

  // Movement, then every location through the queue, drained in batches.
  void Tick(double dt) {
    movement.Step(dt);
    for (const auto& entry : movement.Locations())
      (void)db->EnqueueUpdate(entry.id, entry.location, bench::Noon());
    (void)db->Flush();
  }

  // One private NN or range query for `user`: cloak into request.region,
  // query, refine on the device, and compare with the same refinement over
  // every POI (brute force). A failed query counts as inexact.
  void RunPrivate(UserId user, QueryRequest request) {
    const bool nn = request.kind == QueryKind::kPrivateNn;
    ++(nn ? nn_queries : range_queries);
    auto cloak = db->CloakForQuery(user, bench::Noon());
    if (!cloak.ok()) return;
    request.region = cloak.value().cloaked.region;
    const QueryResponse answer = db->ExecuteQuery(request);
    if (!answer.ok()) return;
    const Point me = movement.LocationOf(user).value();
    auto refine = [&](const std::vector<PublicObject>& objects) {
      std::vector<ObjectId> ids;
      if (nn) {
        auto best = RefineNnCandidates(objects, me);  // a linear scan
        if (best.ok()) ids.push_back(best.value().id);
        return ids;
      }
      for (const auto& o : RefineRangeCandidates(objects, me, request.radius))
        ids.push_back(o.id);
      std::sort(ids.begin(), ids.end());
      return ids;
    };
    if (refine(answer.candidates) == refine(pois[request.category]))
      ++(nn ? nn_exact : range_exact);
  }

  // The Fig. 1 arrows (user->anonymizer, anonymizer->server,
  // server->user) as byte counts, from the service's own counters.
  std::array<double, 3> ChannelBytes() const {
    const ServiceStats stats = db->Stats();
    return {static_cast<double>(stats.ingest.updates_enqueued) *
                kLocationReportBytes,
            static_cast<double>(stats.ingest.updates_applied) *
                kCloakedUpdateBytes,
            static_cast<double>(stats.bytes_to_clients)};
  }

  std::unique_ptr<CloakDbService> db;
  RandomWaypointModel movement{bench::Space(), {}};
  std::vector<UserId> users;
  std::map<Category, std::vector<PublicObject>> pois;
  uint64_t nn_queries = 0, nn_exact = 0, range_queries = 0, range_exact = 0;
};

// Update-pipeline throughput: one full tick = movement + cloaking +
// server ingest for every user. Wall time, since the drain worker does
// part of the cloaking off the benchmark thread.
void BM_Fig1_UpdatePipeline(benchmark::State& state) {
  const auto users = static_cast<size_t>(state.range(0));
  Fig1World world(users, 10);
  for (auto _ : state) world.Tick(0.5);
  state.counters["users"] = static_cast<double>(users);
  state.counters["updates_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations() * users),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Fig1_UpdatePipeline)
    ->Arg(500)->Arg(2000)->Arg(8000)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Mixed query workload over a live system: reports exactness and traffic.
void BM_Fig1_MixedWorkload(benchmark::State& state) {
  const auto k = static_cast<uint32_t>(state.range(0));
  Fig1World world(2000, k);
  WorkloadOptions workload;
  workload.categories = {poi_category::kGasStation,
                         poi_category::kRestaurant};
  workload.mix.public_nn = 0.0;  // no public NN in the service; no k-NN
                                 // in the default mix either
  auto gen =
      WorkloadGenerator::Create(bench::Space(), world.users, workload).value();
  Rng rng(9);
  const auto before = world.ChannelBytes();
  for (auto _ : state) {
    auto spec = gen.Next(&rng);
    if (spec.type == QueryType::kPublicCount)
      benchmark::DoNotOptimize(world.db->PublicCount(spec.window));
    else if (spec.type == QueryType::kPrivateNn)
      world.RunPrivate(spec.issuer, QueryRequest::Nn({}, spec.category));
    else
      world.RunPrivate(spec.issuer,
                       QueryRequest::Range({}, spec.radius, spec.category));
  }
  auto rate = [](uint64_t exact, uint64_t total) {
    return total == 0 ? 1.0 : static_cast<double>(exact) / total;
  };
  const auto after = world.ChannelBytes();
  double loop_bytes = 0.0;  // set-up traffic excluded
  for (size_t i = 0; i < after.size(); ++i) loop_bytes += after[i] - before[i];
  state.counters["k"] = k;
  state.counters["nn_accuracy"] = rate(world.nn_exact, world.nn_queries);
  state.counters["range_accuracy"] =
      rate(world.range_exact, world.range_queries);
  state.counters["avg_nn_candidates"] =
      world.db->metrics().SnapshotHistogram("query.private_nn.candidates")
          .mean();
  state.counters["bytes_per_query"] =
      loop_bytes / static_cast<double>(state.iterations());
}
BENCHMARK(BM_Fig1_MixedWorkload)
    ->Arg(1)->Arg(10)->Arg(100)
    ->Unit(benchmark::kMicrosecond);

// Channel traffic decomposition for a fixed day of activity: regenerates
// the Fig. 1 arrows as byte counts.
void BM_Fig1_ChannelTraffic(benchmark::State& state) {
  for (auto _ : state) {
    Fig1World world(1000, 20);
    for (int tick = 0; tick < 3; ++tick) world.Tick(1.0);
    for (size_t i = 0; i < 100; ++i)
      world.RunPrivate(world.users[i * 7],
                       QueryRequest::Nn({}, poi_category::kGasStation));
    const auto bytes = world.ChannelBytes();
    state.counters["user_to_anonymizer_bytes"] = bytes[0];
    state.counters["anonymizer_to_server_bytes"] = bytes[1];
    state.counters["server_to_user_bytes"] = bytes[2];
  }
}
BENCHMARK(BM_Fig1_ChannelTraffic)->Unit(benchmark::kMillisecond)
    ->Iterations(3);

}  // namespace
}  // namespace cloakdb

BENCHMARK_MAIN();
