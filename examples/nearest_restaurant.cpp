// Private queries over public data (paper Fig. 5): a user asks for the
// nearest restaurant and for all restaurants within walking distance, under
// increasingly strict privacy profiles. Shows the privacy/QoS trade-off the
// paper describes: stronger privacy -> larger cloaked regions -> bigger
// candidate lists (more transmission cost), while the refined answer stays
// exact: the program exits non-zero if one differs from the non-private one.
//
// Run: ./nearest_restaurant

#include <algorithm>
#include <cstdio>

#include "server/private_queries.h"
#include "service/cloak_db_service.h"
#include "sim/poi.h"
#include "sim/population.h"

using namespace cloakdb;

int main() {
  const Rect space(0.0, 0.0, 20.0, 20.0);
  const TimeOfDay now = TimeOfDay::FromHms(19, 0).value();
  Rng rng(42);

  // One shard, so a single anonymizer sees the whole crowd.
  CloakDbServiceOptions options;
  options.space = space;
  options.num_shards = 1;
  options.anonymizer.algorithm = CloakingKind::kMultiLevelGrid;
  auto service = CloakDbService::Create(options);
  if (!service.ok()) return 1;
  CloakDbService& db = *service.value();

  PoiOptions poi;
  poi.count = 250;
  poi.category = poi_category::kRestaurant;
  poi.model = PopulationModel::kGaussianClusters;
  auto pois = GeneratePois(space, poi, &rng);
  if (!pois.ok() || !db.BulkLoadCategory(poi.category, pois.value()).ok())
    return 1;

  PopulationOptions crowd;
  crowd.num_users = 3000;
  crowd.first_id = 1000;
  crowd.model = PopulationModel::kGaussianClusters;
  auto others = GeneratePopulation(space, crowd, &rng);
  if (!others.ok()) return 1;
  for (const auto& u : others.value()) {
    (void)db.RegisterUser(u.id, PrivacyProfile::Public());
    (void)db.EnqueueUpdate(u.id, u.location, now);
  }
  if (!db.Flush().ok()) return 1;

  // The non-private answers: the same refinement over every restaurant.
  const Point me{11.37, 8.21};
  const double radius = 1.0;
  auto sorted_ids = [](const std::vector<PublicObject>& objects) {
    std::vector<ObjectId> ids;
    for (const auto& o : objects) ids.push_back(o.id);
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  const auto nn_truth = RefineKnnCandidates(pois.value(), me, 1).front();
  const auto range_truth =
      sorted_ids(RefineRangeCandidates(pois.value(), me, radius));

  std::printf("True location: %s\n", me.ToString().c_str());
  std::printf("%8s %14s %14s %16s %12s\n", "k", "cloak area", "NN cands",
              "range cands(1mi)", "exact?");
  bool all_exact = true;
  for (uint32_t k : {1u, 10u, 50u, 200u, 1000u}) {
    UserId uid = 5'000'000ULL + k;  // distinct id, clear of the crowd range
    auto profile = PrivacyProfile::Uniform(
        {k, 0.0, std::numeric_limits<double>::infinity()});
    if (!profile.ok() || !db.RegisterUser(uid, profile.value()).ok() ||
        !db.UpdateLocation(uid, me, now).ok())
      return 1;
    auto cloaked = db.CloakForQuery(uid, now);
    if (!cloaked.ok()) return 1;
    const Rect& region = cloaked.value().cloaked.region;
    auto nn = db.PrivateNn(region, poi_category::kRestaurant);
    auto range = db.PrivateRange(region, radius, poi_category::kRestaurant);
    if (!nn.ok() || !range.ok()) return 1;

    // Refinement on the device, the only place `me` is known.
    auto nearest = RefineNnCandidates(nn.value().candidates, me);
    bool exact =
        nearest.ok() && nearest.value().id == nn_truth.id &&
        sorted_ids(RefineRangeCandidates(range.value().candidates, me,
                                         radius)) == range_truth;
    all_exact = all_exact && exact;
    std::printf("%8u %11.4f sq %14zu %16zu %12s\n", k, region.Area(),
                nn.value().candidates.size(), range.value().candidates.size(),
                exact ? "yes" : "NO");
    if (!db.UnregisterUser(uid).ok()) return 1;
  }

  std::printf("\nNote how the candidate list (transmission cost) grows with "
              "k while the refined answer stays exact — the paper's "
              "privacy/quality-of-service trade-off.\n");
  return all_exact ? 0 : 1;
}
