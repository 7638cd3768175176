// The benchmark's world: every input the program receives (a fixed map of
// POIs and user homes; seed-drawn privacy profiles, query stream,
// location-report waves and standing queries; the answers the checks
// expect), and the timed set-up that loads it into a CloakDbService behind
// a loopback CloakServer.
//
// The program only ever receives generated inputs; the seed stays here.

#ifndef PERFBENCH_WORLD_H_
#define PERFBENCH_WORLD_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "index/static_rtree.h"
#include "net/server.h"
#include "service/cloak_db_service.h"

namespace perfbench {

inline constexpr cloakdb::Category kCategory = 1;

/// The managed space of every workload.
cloakdb::Rect Space();

/// One query of the stream. Private kinds take the issuer's set-up cloak
/// as their region; counts carry their own window.
struct QuerySpec {
  cloakdb::QueryKind kind = cloakdb::QueryKind::kPrivateRange;
  cloakdb::UserId issuer = 0;
  double radius = 0.0;  ///< kPrivateRange.
  uint64_t k = 0;       ///< kPrivateKnn.
  cloakdb::Rect window;  ///< kPublicCount.
};

/// Sizes and switches of one workload's world.
struct WorldParams {
  size_t pois = 20000;
  size_t users = 20000;
  cloakdb::storage::DurabilityMode durability =
      cloakdb::storage::DurabilityMode::kOff;
  bool shared_execution = false;
  /// Standing queries registered at set-up (thirds: range, NN, count).
  size_t standing = 0;
  /// Length of the query stream (cycled if a closed loop outruns it).
  size_t num_queries = 0;
  /// Hot set drawn with `repeat_probability`; 0 = every query fresh.
  size_t hot_set = 0;
  double repeat_probability = 0.0;
  /// Users reporting per wave, and how many waves to precompute (cycled).
  size_t wave_size = 1000;
  size_t num_waves = 0;
};

using Wave = std::vector<std::pair<cloakdb::UserId, cloakdb::Point>>;

/// Everything generated from the seed, before any service exists.
struct Inputs {
  std::vector<cloakdb::PublicObject> pois;
  std::vector<cloakdb::Point> start;  ///< Set-up location of user id i+1.
  std::vector<uint32_t> k;            ///< Requested k of user id i+1.
  std::vector<QuerySpec> queries;
  /// Per query (private kinds): ids of the true answer for the issuer's
  /// set-up location, sorted — the client-side result every candidate
  /// list must contain (Fig. 5).
  std::vector<std::vector<cloakdb::ObjectId>> truth;
  /// Distinct issuers that get a fresh query cloak at set-up.
  std::vector<cloakdb::UserId> issuers;
  std::vector<cloakdb::ContinuousSpec> standing;
  std::vector<Wave> waves;
  /// Every POI in one tree: the answer oracle (and index replay frame).
  cloakdb::StaticRTree truth_tree;
};

Inputs Generate(const WorldParams& params, uint64_t seed);

/// A running service plus its loopback server (declared in that order so
/// the server stops first).
struct Live {
  std::unique_ptr<cloakdb::CloakDbService> service;
  std::unique_ptr<cloakdb::net::CloakServer> server;
  /// Fresh set-up cloak of every issuer.
  std::unordered_map<cloakdb::UserId, cloakdb::CloakedRegion> cloaks;
  std::vector<cloakdb::ContinuousQueryId> standing_ids;
};

cloakdb::CloakDbServiceOptions ServiceOptions(const WorldParams& params,
                                              const std::string& data_dir);

/// The timed set-up: service creation, bulk load, registration and first
/// reports, fresh query cloaks, standing-query registration, server bind
/// (plus checkpoint and reopen for an fsync world).
cloakdb::Result<Live> SetUp(const WorldParams& params, const Inputs& inputs,
                            const std::string& data_dir);

/// Binds a loopback server (2 query threads, no metrics ticker).
cloakdb::Result<std::unique_ptr<cloakdb::net::CloakServer>> BindServer(
    cloakdb::CloakDbService* service);

/// The wire requests of the stream, regions filled from the set-up cloaks.
std::vector<cloakdb::QueryRequest> MaterializeRequests(const Inputs& inputs,
                                                       const Live& live);

cloakdb::TimeOfDay Noon();

}  // namespace perfbench

#endif  // PERFBENCH_WORLD_H_
