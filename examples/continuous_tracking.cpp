// Continuous privacy-aware queries (paper Section 5.3): a commuter drives
// across town with a standing "nearest gas station" subscription. The
// service keeps the candidate set current incrementally — each cloaked
// update re-filters the standing query's cached over-fetch, and only an
// update that leaves the cached coverage triggers a full re-evaluation —
// while the refined answer stays exact the whole way.
//
// Run: ./continuous_tracking

#include <cstdio>
#include <limits>

#include "geom/distance.h"
#include "service/cloak_db_service.h"
#include "sim/poi.h"
#include "sim/population.h"

using namespace cloakdb;

int main() {
  const Rect space(0.0, 0.0, 100.0, 100.0);
  const TimeOfDay now = TimeOfDay::FromHms(8, 0).value();
  Rng rng(314);

  CloakDbServiceOptions options;
  options.space = space;
  options.num_shards = 4;
  options.anonymizer.algorithm = CloakingKind::kGrid;
  auto db_or = CloakDbService::Create(options);
  if (!db_or.ok()) return 1;
  CloakDbService& db = *db_or.value();

  // Gas stations, and a crowd for anonymity.
  PoiOptions poi;
  poi.count = 800;
  poi.category = poi_category::kGasStation;
  poi.name_prefix = "gas";
  const std::vector<PublicObject> stations =
      GeneratePois(space, poi, &rng).value();
  if (!db.BulkLoadCategory(poi.category, stations).ok()) return 1;
  PopulationOptions crowd;
  crowd.num_users = 4000;
  crowd.first_id = 100;
  const std::vector<PointEntry> others =
      GeneratePopulation(space, crowd, &rng).value();
  for (const auto& u : others) {
    (void)db.RegisterUser(u.id, PrivacyProfile::Public());
    (void)db.EnqueueUpdate(u.id, u.location, now);
  }
  if (!db.Flush().ok()) return 1;

  // The commuter: 30-anonymous, driving west to east.
  auto profile = PrivacyProfile::Uniform(
      {30, 0.0, std::numeric_limits<double>::infinity()}).value();
  if (!db.RegisterUser(1, profile).ok()) return 1;

  const obs::Counter* refilters =
      db.metrics().counter("cq.incremental_refilters_total");
  const obs::Counter* reevals = db.metrics().counter("cq.full_reevals_total");
  ContinuousQueryId query_id = 0;
  size_t exact = 0, total = 0;

  std::printf("%8s %22s %12s %10s %14s\n", "mile", "cloaked region",
              "candidates", "answer", "evaluation");
  for (int step = 0; step <= 20; ++step) {
    Point me{5.0 + 4.5 * step, 52.0 + 0.3 * step};
    auto update = db.UpdateLocation(1, me, now);
    if (!update.ok()) return 1;
    const Rect& region = update.value().cloaked.region;

    const uint64_t refilters_before = refilters->Value();
    const uint64_t reevals_before = reevals->Value();
    if (step == 0) {
      auto id = db.RegisterContinuousNn(1, poi_category::kGasStation);
      if (!id.ok()) return 1;
      query_id = id.value();
    }
    // Flush settles any full re-evaluation the update queued.
    if (!db.Flush().ok()) return 1;
    const char* evaluation =
        step == 0                                ? "register"
        : reevals->Value() > reevals_before      ? "full"
        : refilters->Value() > refilters_before ? "re-filter"
                                                 : "cloak kept";
    auto standing = db.AnswerContinuous(query_id);
    if (!standing.ok()) return 1;
    const std::vector<PublicObject>& candidates = standing.value().candidates;

    // Client-side refinement against the true location.
    auto answer = RefineNnCandidates(candidates, me);
    if (!answer.ok()) return 1;
    // Ground truth: the nearest station over the whole category.
    const PublicObject* truth = &stations.front();
    for (const PublicObject& s : stations) {
      if (Distance(s.location, me) < Distance(truth->location, me))
        truth = &s;
    }
    ++total;
    if (truth->id == answer.value().id) ++exact;

    std::printf("%8.1f %22s %12zu %10s %14s\n", me.x,
                region.ToString().c_str(), candidates.size(),
                answer.value().name.c_str(), evaluation);
  }

  std::printf("\n%zu updates: %llu incremental re-filters, %llu full "
              "re-evaluations. Exact answers: %zu/%zu.\n",
              total - 1,
              static_cast<unsigned long long>(refilters->Value()),
              static_cast<unsigned long long>(reevals->Value()), exact,
              total);
  return exact == total ? 0 : 1;
}
