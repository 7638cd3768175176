#include "world.h"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "geom/point.h"
#include "sim/movement.h"
#include "sim/poi.h"
#include "sim/population.h"
#include "util/random.h"

namespace perfbench {

using namespace cloakdb;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr uint32_t kKChoices[] = {5, 20, 50};
/// Movement per wave: one wave is 50 ms of simulated time at speeds of
/// 0.5..2 units per second, so a user reporting every 20 waves has moved
/// 0.5..2 units — about one cloak width in the dense clusters.
constexpr double kWaveDt = 0.05;
constexpr uint64_t kMapSeed = 0x5EEDC17F;

QuerySpec DrawQuery(const std::vector<Point>& start, Rng* rng) {
  QuerySpec q;
  q.issuer = 1 + rng->NextBelow(start.size());
  const double pick = rng->NextDouble();
  if (pick < 0.4) {
    q.kind = QueryKind::kPrivateRange;
    q.radius = rng->Uniform(0.5, 2.0);
  } else if (pick < 0.7) {
    q.kind = QueryKind::kPrivateNn;
  } else if (pick < 0.9) {
    q.kind = QueryKind::kPrivateKnn;
    q.k = 5;
  } else {
    q.kind = QueryKind::kPublicCount;
    const Point& c = start[q.issuer - 1];
    const double half = rng->Uniform(0.5, 1.5);
    q.window = Rect(std::max(0.0, c.x - half), std::max(0.0, c.y - half),
                    std::min(100.0, c.x + half), std::min(100.0, c.y + half));
  }
  return q;
}

std::vector<ObjectId> TruthOf(const QuerySpec& q, const Point& at,
                              const StaticRTree& tree) {
  std::vector<ObjectId> ids;
  switch (q.kind) {
    case QueryKind::kPrivateRange: {
      std::vector<PointEntry> hits;
      tree.RangeSearchInto(Rect(at.x - q.radius, at.y - q.radius,
                                at.x + q.radius, at.y + q.radius),
                           nullptr, &hits);
      for (const PointEntry& e : hits) {
        if (Distance(e.location, at) <= q.radius) ids.push_back(e.id);
      }
      break;
    }
    case QueryKind::kPrivateNn:
    case QueryKind::kPrivateKnn:
      for (const PointEntry& e :
           tree.KNearest(at, q.kind == QueryKind::kPrivateNn ? 1 : q.k,
                         nullptr)) {
        ids.push_back(e.id);
      }
      break;
    default:
      break;
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace

Rect Space() { return Rect(0.0, 0.0, 100.0, 100.0); }

TimeOfDay Noon() { return TimeOfDay::FromHms(12, 0).value(); }

Inputs Generate(const WorldParams& params, uint64_t seed) {
  Inputs in;
  // The map (POIs and where users live) is the same for every seed, like a
  // fixed city dataset: with a handful of Gaussian cities, a map drawn per
  // seed moves cloak sizes and candidate counts by 10% from seed to seed.
  // The seed draws everything that happens on the map: privacy profiles,
  // queries, standing queries and movement.
  Rng map_rng(kMapSeed);
  Rng rng(seed);
  const Rect space = Space();

  PoiOptions poi_options;
  poi_options.count = params.pois;
  poi_options.category = kCategory;
  poi_options.name_prefix = "poi";
  in.pois = GeneratePois(space, poi_options, &map_rng).value();
  std::vector<PointEntry> entries;
  entries.reserve(in.pois.size());
  for (const PublicObject& p : in.pois) entries.push_back({p.id, p.location});
  in.truth_tree = StaticRTree::Build(std::move(entries)).value();

  PopulationOptions pop;
  pop.num_users = params.users;
  pop.model = PopulationModel::kGaussianClusters;
  const std::vector<PointEntry> users =
      GeneratePopulation(space, pop, &map_rng).value();
  for (const PointEntry& u : users) {
    in.start.push_back(u.location);
    in.k.push_back(kKChoices[rng.NextBelow(3)]);
  }

  // Query stream: a hot set drawn with the repeat probability, fresh
  // queries otherwise.
  std::vector<QuerySpec> hot;
  for (size_t i = 0; i < params.hot_set; ++i) hot.push_back(DrawQuery(in.start, &rng));
  in.queries.reserve(params.num_queries);
  for (size_t i = 0; i < params.num_queries; ++i) {
    if (!hot.empty() && rng.Bernoulli(params.repeat_probability)) {
      in.queries.push_back(hot[rng.NextBelow(hot.size())]);
    } else {
      in.queries.push_back(DrawQuery(in.start, &rng));
    }
  }
  std::vector<bool> is_issuer(params.users + 1, false);
  in.truth.reserve(in.queries.size());
  for (const QuerySpec& q : in.queries) {
    in.truth.push_back(TruthOf(q, in.start[q.issuer - 1], in.truth_tree));
    if (q.kind != QueryKind::kPublicCount && !is_issuer[q.issuer]) {
      is_issuer[q.issuer] = true;
      in.issuers.push_back(q.issuer);
    }
  }

  // Standing queries, thirds: range, NN, count; private issuers distinct.
  for (size_t i = 0; i < params.standing; ++i) {
    ContinuousSpec spec;
    spec.category = kCategory;
    const UserId issuer = 1 + (i * 7919) % params.users;
    switch (i % 3) {
      case 0:
        spec.kind = QueryKind::kPrivateRange;
        spec.issuer = issuer;
        spec.radius = rng.Uniform(0.5, 2.0);
        break;
      case 1:
        spec.kind = QueryKind::kPrivateNn;
        spec.issuer = issuer;
        break;
      default: {
        spec.kind = QueryKind::kPublicCount;
        const Point& c = in.start[issuer - 1];
        const double half = rng.Uniform(0.5, 1.5);
        spec.window =
            Rect(std::max(0.0, c.x - half), std::max(0.0, c.y - half),
                 std::min(100.0, c.x + half), std::min(100.0, c.y + half));
        break;
      }
    }
    in.standing.push_back(spec);
  }

  // Location-report waves: every user walks by random waypoint; each wave
  // the next slice of users (cyclically) reports its current position.
  RandomWaypointModel::Options move;
  move.seed = rng.Next();
  RandomWaypointModel model(space, move);
  for (size_t i = 0; i < in.start.size(); ++i) {
    (void)model.AddUser(i + 1, in.start[i]);
  }
  size_t cursor = 0;
  in.waves.reserve(params.num_waves);
  for (size_t w = 0; w < params.num_waves; ++w) {
    model.Step(kWaveDt);
    Wave wave;
    wave.reserve(params.wave_size);
    for (size_t j = 0; j < params.wave_size; ++j) {
      const UserId user = 1 + cursor;
      cursor = (cursor + 1) % params.users;
      wave.emplace_back(user, model.LocationOf(user).value());
    }
    in.waves.push_back(std::move(wave));
  }
  return in;
}

CloakDbServiceOptions ServiceOptions(const WorldParams& params,
                                     const std::string& data_dir) {
  CloakDbServiceOptions options;
  options.space = Space();
  options.num_shards = 2;
  options.worker_threads = 2;
  options.enable_shared_execution = params.shared_execution;
  options.durability_mode = params.durability;
  if (params.durability != storage::DurabilityMode::kOff)
    options.data_dir = data_dir;
  options.public_index = PublicIndexMode::kStatic;
  return options;
}

Result<std::unique_ptr<net::CloakServer>> BindServer(
    CloakDbService* service) {
  net::CloakServerOptions server_options;
  server_options.query_threads = 2;
  server_options.metrics_window_interval_ms = 0;
  return net::CloakServer::Create(service, server_options);
}

Result<Live> SetUp(const WorldParams& params, const Inputs& in,
                   const std::string& data_dir) {
  Live live;
  CloakDbServiceOptions options = ServiceOptions(params, data_dir);
  // Every registration is its own WAL record, so loading 20k users with
  // fsync on would time 20k disk flushes. A durable world is loaded with
  // async commits instead, checkpointed, and reopened with the configured
  // mode, which recovers it from the checkpoint.
  const bool reopen = options.durability_mode == storage::DurabilityMode::kFsync;
  if (reopen) options.durability_mode = storage::DurabilityMode::kAsync;
  auto service = CloakDbService::Create(options);
  if (!service.ok()) return service.status();
  live.service = std::move(service).value();
  CloakDbService& db = *live.service;

  CLOAKDB_RETURN_IF_ERROR(db.BulkLoadCategory(kCategory, in.pois));
  std::vector<PrivacyProfile> profiles;
  for (uint32_t k : kKChoices)
    profiles.push_back(PrivacyProfile::Uniform({k, 0.0, kInf}).value());
  auto profile_of = [&](UserId user) -> const PrivacyProfile& {
    const uint32_t k = in.k[user - 1];
    return profiles[k == 5 ? 0 : (k == 20 ? 1 : 2)];
  };
  const TimeOfDay now = Noon();
  for (UserId user = 1; user <= in.start.size(); ++user) {
    CLOAKDB_RETURN_IF_ERROR(db.RegisterUser(user, profile_of(user)));
  }
  for (UserId user = 1; user <= in.start.size(); ++user) {
    CLOAKDB_RETURN_IF_ERROR(db.EnqueueUpdate(user, in.start[user - 1], now));
  }
  CLOAKDB_RETURN_IF_ERROR(db.Flush());

  // Query cloaks: re-setting the profile drops the user's cached region,
  // so CloakForQuery computes a fresh cloak against the full population.
  // That makes every query region a function of the seed alone, not of
  // how the worker pool happened to batch the first reports.
  for (UserId user : in.issuers) {
    CLOAKDB_RETURN_IF_ERROR(db.UpdateProfile(user, profile_of(user)));
    auto cloak = db.CloakForQuery(user, now);
    if (!cloak.ok()) return cloak.status();
    live.cloaks[user] = cloak.value().cloaked;
  }

  for (const ContinuousSpec& spec : in.standing) {
    auto id = [&]() -> Result<ContinuousQueryId> {
      switch (spec.kind) {
        case QueryKind::kPrivateRange:
          return db.RegisterContinuousRange(spec.issuer, spec.radius,
                                            spec.category);
        case QueryKind::kPrivateNn:
          return db.RegisterContinuousNn(spec.issuer, spec.category);
        default:
          return db.RegisterContinuousCount(spec.window);
      }
    }();
    if (!id.ok()) return id.status();
    live.standing_ids.push_back(id.value());
  }

  if (reopen) {
    CLOAKDB_RETURN_IF_ERROR(db.Checkpoint());
    live.service.reset();
    auto reopened = CloakDbService::Create(ServiceOptions(params, data_dir));
    if (!reopened.ok()) return reopened.status();
    live.service = std::move(reopened).value();
  }
  auto server = BindServer(live.service.get());
  if (!server.ok()) return server.status();
  live.server = std::move(server).value();
  return live;
}

std::vector<QueryRequest> MaterializeRequests(const Inputs& in,
                                              const Live& live) {
  std::vector<QueryRequest> requests;
  requests.reserve(in.queries.size());
  for (const QuerySpec& q : in.queries) {
    switch (q.kind) {
      case QueryKind::kPrivateRange:
        requests.push_back(QueryRequest::Range(
            live.cloaks.at(q.issuer).region, q.radius, kCategory));
        break;
      case QueryKind::kPrivateNn:
        requests.push_back(
            QueryRequest::Nn(live.cloaks.at(q.issuer).region, kCategory));
        break;
      case QueryKind::kPrivateKnn:
        requests.push_back(QueryRequest::Knn(live.cloaks.at(q.issuer).region,
                                             q.k, kCategory));
        break;
      default:
        requests.push_back(QueryRequest::Count(q.window));
        break;
    }
  }
  return requests;
}

}  // namespace perfbench
