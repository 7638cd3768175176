// Tests of the service-level continuous-query subsystem: the twin oracle
// (a normal service against a force_full_reeval twin fed the identical
// update stream must produce bit-identical standing answers), one-shot
// consistency for range and count, registration validation, public-data
// staleness repair, and the cq.* metric wiring. The twin suite is the
// acceptance proof that incremental evaluation never drifts from full
// re-evaluation.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "geom/distance.h"
#include "service/cloak_db_service.h"
#include "sim/poi.h"
#include "util/random.h"

namespace cloakdb {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TimeOfDay Noon() { return TimeOfDay::FromHms(12, 0).value(); }

PrivacyProfile KProfile(uint32_t k) {
  return PrivacyProfile::Uniform({k, 0.0, kInf}).value();
}

CloakDbServiceOptions DefaultOptions(uint32_t shards) {
  CloakDbServiceOptions options;
  options.space = Rect(0, 0, 100, 100);
  options.num_shards = shards;
  return options;
}

std::vector<PublicObject> MakePois(size_t count, uint64_t seed = 31) {
  Rng rng(seed);
  PoiOptions options;
  options.count = count;
  options.category = poi_category::kGasStation;
  options.name_prefix = "gas";
  auto pois = GeneratePois(Rect(0, 0, 100, 100), options, &rng);
  EXPECT_TRUE(pois.ok());
  return std::move(pois).value();
}

std::vector<ObjectId> Ids(const std::vector<PublicObject>& objects) {
  std::vector<ObjectId> ids;
  ids.reserve(objects.size());
  for (const auto& o : objects) ids.push_back(o.id);
  return ids;
}

/// One pre-generated movement step, applied identically to twin services.
struct Step {
  UserId user = 0;
  Point location;
};

std::vector<Step> MakeStream(size_t steps, size_t users, uint64_t seed) {
  Rng rng(seed);
  std::vector<Step> stream;
  stream.reserve(steps);
  for (size_t i = 0; i < steps; ++i) {
    Step s;
    s.user = 1 + rng.NextBelow(users);
    s.location = {rng.Uniform(2, 98), rng.Uniform(2, 98)};
    stream.push_back(s);
  }
  return stream;
}

void ExpectSameAnswer(const StandingAnswer& a, const StandingAnswer& b,
                      ContinuousQueryId id) {
  EXPECT_EQ(a.kind, b.kind) << "cq " << id;
  EXPECT_EQ(Ids(a.candidates), Ids(b.candidates)) << "cq " << id;
  EXPECT_NEAR(a.count.expected, b.count.expected, 1e-9) << "cq " << id;
  EXPECT_EQ(a.count.min_count, b.count.min_count) << "cq " << id;
  EXPECT_EQ(a.count.max_count, b.count.max_count) << "cq " << id;
  ASSERT_EQ(a.count.pmf.size(), b.count.pmf.size()) << "cq " << id;
  for (size_t j = 0; j < a.count.pmf.size(); ++j) {
    EXPECT_NEAR(a.count.pmf[j], b.count.pmf[j], 1e-9) << "cq " << id;
  }
  ASSERT_EQ(a.contributions.size(), b.contributions.size()) << "cq " << id;
  for (size_t j = 0; j < a.contributions.size(); ++j) {
    EXPECT_EQ(a.contributions[j].pseudonym, b.contributions[j].pseudonym)
        << "cq " << id;
    EXPECT_NEAR(a.contributions[j].probability,
                b.contributions[j].probability, 1e-12)
        << "cq " << id;
  }
}

// The tentpole acceptance test: a normal service and a twin with every
// incremental gate disabled (each issuer update stales the query; every
// answer then comes from a full re-evaluation sweep) see the identical
// synchronous update stream. Standing answers must stay bit-identical —
// for every kind, at every checkpoint.
TEST(ContinuousServiceTest, TwinOracleIncrementalMatchesFullReevaluation) {
  constexpr size_t kUsers = 60;
  auto make = [&](bool force_full) {
    auto options = DefaultOptions(4);
    options.continuous.force_full_reeval = force_full;
    auto db = CloakDbService::Create(options);
    EXPECT_TRUE(db.ok());
    for (UserId u = 1; u <= kUsers; ++u) {
      EXPECT_TRUE(db.value()->RegisterUser(u, KProfile(2)).ok());
    }
    EXPECT_TRUE(
        db.value()->BulkLoadCategory(poi_category::kGasStation, MakePois(300))
            .ok());
    return std::move(db).value();
  };
  auto incremental = make(false);
  auto twin = make(true);

  // Everyone reports once (identical order => identical cloaks), then a
  // mixed population of standing queries registers on both services.
  auto seed_stream = MakeStream(kUsers, kUsers, 41);
  for (size_t i = 0; i < seed_stream.size(); ++i) {
    Step s{static_cast<UserId>(i + 1), seed_stream[i].location};
    ASSERT_TRUE(incremental->UpdateLocation(s.user, s.location, Noon()).ok());
    ASSERT_TRUE(twin->UpdateLocation(s.user, s.location, Noon()).ok());
  }
  std::vector<ContinuousQueryId> ids;
  auto register_both = [&](auto&& fn) {
    auto a = fn(*incremental);
    auto b = fn(*twin);
    ASSERT_TRUE(a.ok()) << a.status().message();
    ASSERT_TRUE(b.ok()) << b.status().message();
    ASSERT_EQ(a.value(), b.value());  // Same registration order, same ids.
    ids.push_back(a.value());
  };
  for (UserId u = 1; u <= 30; ++u) {
    switch (u % 3) {
      case 0:
        register_both([u](CloakDbService& db) {
          return db.RegisterContinuousRange(u, 8.0,
                                            poi_category::kGasStation);
        });
        break;
      case 1:
        register_both([u](CloakDbService& db) {
          return db.RegisterContinuousNn(u, poi_category::kGasStation);
        });
        break;
      default:
        register_both([u](CloakDbService& db) {
          return db.RegisterContinuousKnn(u, 3,
                                          poi_category::kGasStation);
        });
        break;
    }
  }
  register_both([](CloakDbService& db) {
    return db.RegisterContinuousCount(Rect(20, 20, 60, 60));
  });
  register_both([](CloakDbService& db) {
    return db.RegisterContinuousCount(Rect(55, 10, 95, 90));
  });

  auto stream = MakeStream(240, kUsers, 42);
  for (size_t i = 0; i < stream.size(); ++i) {
    const Step& s = stream[i];
    ASSERT_TRUE(incremental->UpdateLocation(s.user, s.location, Noon()).ok());
    ASSERT_TRUE(twin->UpdateLocation(s.user, s.location, Noon()).ok());
    if (i % 60 == 59 || i + 1 == stream.size()) {
      ASSERT_TRUE(incremental->Flush().ok());
      ASSERT_TRUE(twin->Flush().ok());
      for (ContinuousQueryId id : ids) {
        auto a = incremental->AnswerContinuous(id);
        auto b = twin->AnswerContinuous(id);
        ASSERT_TRUE(a.ok() && b.ok());
        EXPECT_FALSE(a.value().stale);
        EXPECT_FALSE(b.value().stale);
        ExpectSameAnswer(a.value(), b.value(), id);
      }
    }
  }
  // The incremental service must actually have taken the fast path: far
  // fewer full re-evaluations than the twin, with re-filters doing the
  // steady-state work.
  const auto& inc_metrics = incremental->metrics();
  const auto& twin_metrics = twin->metrics();
  EXPECT_GT(inc_metrics.CounterValue("cq.incremental_refilters_total"), 0u);
  EXPECT_LT(inc_metrics.CounterValue("cq.full_reevals_total"),
            twin_metrics.CounterValue("cq.full_reevals_total"));
}

TEST(ContinuousServiceTest, StandingRangeAndCountMatchOneShot) {
  auto options = DefaultOptions(4);
  auto db_or = CloakDbService::Create(options);
  ASSERT_TRUE(db_or.ok());
  auto db = std::move(db_or).value();
  for (UserId u = 1; u <= 40; ++u)
    ASSERT_TRUE(db->RegisterUser(u, KProfile(2)).ok());
  ASSERT_TRUE(
      db->BulkLoadCategory(poi_category::kGasStation, MakePois(250)).ok());
  Rng rng(51);
  for (UserId u = 1; u <= 40; ++u) {
    ASSERT_TRUE(db
                    ->UpdateLocation(
                        u, {rng.Uniform(5, 95), rng.Uniform(5, 95)}, Noon())
                    .ok());
  }
  auto range_id =
      db->RegisterContinuousRange(7, 9.0, poi_category::kGasStation);
  ASSERT_TRUE(range_id.ok());
  Rect window(25, 25, 75, 75);
  auto count_id = db->RegisterContinuousCount(window);
  ASSERT_TRUE(count_id.ok());

  // Drive churn through the queued (worker-drained) ingest path too.
  auto stream = MakeStream(200, 40, 52);
  for (const Step& s : stream) {
    ASSERT_TRUE(db->EnqueueUpdate(s.user, s.location, Noon()).ok());
  }
  ASSERT_TRUE(db->Flush().ok());

  auto standing = db->AnswerContinuous(range_id.value());
  ASSERT_TRUE(standing.ok());
  EXPECT_FALSE(standing.value().stale);
  auto info = db->ContinuousInfo(range_id.value());
  ASSERT_TRUE(info.ok());
  auto oneshot =
      db->PrivateRange(info.value().region, 9.0, poi_category::kGasStation);
  ASSERT_TRUE(oneshot.ok());
  auto oneshot_ids = Ids(oneshot.value().candidates);
  std::sort(oneshot_ids.begin(), oneshot_ids.end());
  EXPECT_EQ(Ids(standing.value().candidates), oneshot_ids);

  auto count = db->AnswerContinuous(count_id.value());
  ASSERT_TRUE(count.ok());
  auto oneshot_count = db->PublicCount(window);
  ASSERT_TRUE(oneshot_count.ok());
  EXPECT_NEAR(count.value().count.expected,
              oneshot_count.value().answer.expected, 1e-9);
  EXPECT_EQ(count.value().count.min_count,
            oneshot_count.value().answer.min_count);
  EXPECT_EQ(count.value().count.max_count,
            oneshot_count.value().answer.max_count);
}

/// A service whose issuer (user 1) walks; everyone else holds still.
std::unique_ptr<CloakDbService> WalkingIssuerService(
    CloakDbServiceOptions options, size_t pois, uint64_t seed) {
  auto db = CloakDbService::Create(options).value();
  EXPECT_TRUE(
      db->BulkLoadCategory(poi_category::kGasStation, MakePois(pois, seed))
          .ok());
  Rng rng(seed + 1);
  for (UserId u = 1; u <= 20; ++u) {
    EXPECT_TRUE(db->RegisterUser(u, u == 1 ? PrivacyProfile::Uniform(
                                                 {1, 30.0, kInf})
                                                 .value()
                                           : KProfile(1))
                    .ok());
    EXPECT_TRUE(db->UpdateLocation(
                      u, {rng.Uniform(5, 95), rng.Uniform(5, 95)}, Noon())
                    .ok());
  }
  EXPECT_TRUE(db->UpdateLocation(1, {40, 40}, Noon()).ok());
  return db;
}

TEST(ContinuousServiceTest, StandingNnHoldsEveryInteriorNearest) {
  const std::vector<PublicObject> pois = MakePois(300, 4);
  auto db = WalkingIssuerService(DefaultOptions(4), 300, 4);
  auto id = db->RegisterContinuousNn(1, poi_category::kGasStation);
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  // Small steps re-filter the cached fetch; every tenth step jumps far
  // enough to force a full re-evaluation.
  Rng rng(5);
  Point at{40, 40};
  for (int step = 0; step < 40; ++step) {
    const double jump = step % 10 == 9 ? 35.0 : 4.0;
    at = {std::clamp(at.x + rng.Uniform(-jump, jump), 1.0, 99.0),
          std::clamp(at.y + rng.Uniform(-jump, jump), 1.0, 99.0)};
    ASSERT_TRUE(db->UpdateLocation(1, at, Noon()).ok());
    ASSERT_TRUE(db->Flush().ok());
    auto standing = db->AnswerContinuous(id.value());
    ASSERT_TRUE(standing.ok());
    auto info = db->ContinuousInfo(id.value());
    ASSERT_TRUE(info.ok());
    const Rect& region = info.value().region;
    std::set<ObjectId> held;
    for (const auto& c : standing.value().candidates) held.insert(c.id);
    // Wherever the issuer really is inside its cloak, its nearest POI is
    // among the standing candidates.
    for (int probe = 0; probe < 8; ++probe) {
      const Point p{rng.Uniform(region.min_x, region.max_x),
                    rng.Uniform(region.min_y, region.max_y)};
      const PublicObject* nearest = &pois.front();
      for (const PublicObject& o : pois) {
        if (Distance(o.location, p) < Distance(nearest->location, p))
          nearest = &o;
      }
      EXPECT_TRUE(held.count(nearest->id)) << "step " << step;
    }
  }
  EXPECT_GT(db->metrics().CounterValue("cq.incremental_refilters_total"), 0u);
  EXPECT_GT(db->metrics().CounterValue("cq.full_reevals_total"), 0u);
}

TEST(ContinuousServiceTest, SlackMarginControlsFullReevaluations) {
  auto run = [](double slack) {
    CloakDbServiceOptions options = DefaultOptions(4);
    options.continuous.slack_margin = slack;
    auto db = WalkingIssuerService(options, 300, 9);
    EXPECT_TRUE(
        db->RegisterContinuousRange(1, 3.0, poi_category::kGasStation).ok());
    Rng rng(10);
    Point at{40, 40};
    for (int step = 0; step < 50; ++step) {
      at = {std::clamp(at.x + rng.Uniform(-3.0, 3.0), 1.0, 99.0),
            std::clamp(at.y + rng.Uniform(-3.0, 3.0), 1.0, 99.0)};
      EXPECT_TRUE(db->UpdateLocation(1, at, Noon()).ok());
      EXPECT_TRUE(db->Flush().ok());
    }
    return db->metrics().CounterValue("cq.full_reevals_total");
  };
  // A wider over-fetch absorbs more moves without leaving the coverage.
  EXPECT_LT(run(10.0), run(0.0));
}

TEST(ContinuousServiceTest, RegistrationValidationAndLifecycle) {
  auto db_or = CloakDbService::Create(DefaultOptions(2));
  ASSERT_TRUE(db_or.ok());
  auto db = std::move(db_or).value();
  for (UserId u = 1; u <= 8; ++u)
    ASSERT_TRUE(db->RegisterUser(u, KProfile(2)).ok());
  ASSERT_TRUE(
      db->BulkLoadCategory(poi_category::kGasStation, MakePois(50)).ok());

  // Bad parameters fail before touching any registry.
  EXPECT_EQ(db->RegisterContinuousRange(1, 0.0, poi_category::kGasStation)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db->RegisterContinuousKnn(1, 0, poi_category::kGasStation)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db->RegisterContinuousCount(Rect()).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      db->RegisterContinuousCount(Rect(200, 200, 300, 300)).status().code(),
      StatusCode::kInvalidArgument);
  // A user who never reported has no cloaked region to stand on.
  EXPECT_EQ(db->RegisterContinuousRange(1, 5.0, poi_category::kGasStation)
                .status()
                .code(),
            StatusCode::kNotFound);
  // An unknown category cannot be evaluated.
  ASSERT_TRUE(db->UpdateLocation(1, {50, 50}, Noon()).ok());
  EXPECT_EQ(db->RegisterContinuousRange(1, 5.0, 777).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(db->NumContinuousQueries(), 0u);

  auto id = db->RegisterContinuousRange(1, 5.0, poi_category::kGasStation);
  ASSERT_TRUE(id.ok());
  auto count_id = db->RegisterContinuousCount(Rect(10, 10, 90, 90));
  ASSERT_TRUE(count_id.ok());
  EXPECT_EQ(db->NumContinuousQueries(), 2u);
  EXPECT_TRUE(db->AnswerContinuous(id.value()).ok());
  EXPECT_TRUE(db->UnregisterContinuous(id.value()).ok());
  EXPECT_TRUE(db->UnregisterContinuous(count_id.value()).ok());
  EXPECT_EQ(db->NumContinuousQueries(), 0u);
  EXPECT_EQ(db->UnregisterContinuous(id.value()).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(db->AnswerContinuous(id.value()).status().code(),
            StatusCode::kNotFound);
}

TEST(ContinuousServiceTest, PublicDataChangesRepairStandingAnswers) {
  auto db_or = CloakDbService::Create(DefaultOptions(2));
  ASSERT_TRUE(db_or.ok());
  auto db = std::move(db_or).value();
  for (UserId u = 1; u <= 8; ++u)
    ASSERT_TRUE(db->RegisterUser(u, KProfile(2)).ok());
  auto pois = MakePois(120);
  ASSERT_TRUE(db->BulkLoadCategory(poi_category::kGasStation, pois).ok());
  Rng rng(61);
  for (UserId u = 1; u <= 8; ++u) {
    ASSERT_TRUE(db
                    ->UpdateLocation(
                        u, {rng.Uniform(30, 70), rng.Uniform(30, 70)}, Noon())
                    .ok());
  }
  auto id = db->RegisterContinuousRange(3, 12.0, poi_category::kGasStation);
  ASSERT_TRUE(id.ok());
  auto info = db->ContinuousInfo(id.value());
  ASSERT_TRUE(info.ok());

  // A fresh object inside the standing radius must show up after repair.
  PublicObject fresh;
  fresh.id = 999999;
  fresh.location = {(info.value().region.min_x + info.value().region.max_x) /
                        2,
                    (info.value().region.min_y + info.value().region.max_y) /
                        2};
  fresh.category = poi_category::kGasStation;
  ASSERT_TRUE(db->AddPublicObject(fresh).ok());
  ASSERT_TRUE(db->Flush().ok());
  auto answer = db->AnswerContinuous(id.value());
  ASSERT_TRUE(answer.ok());
  auto ids = Ids(answer.value().candidates);
  EXPECT_TRUE(std::find(ids.begin(), ids.end(), fresh.id) != ids.end());

  // A wholesale reload stales the query; the repaired answer reflects the
  // replacement data (the fresh object is gone with it).
  ASSERT_TRUE(db->BulkLoadCategory(poi_category::kGasStation, pois).ok());
  ASSERT_TRUE(db->Flush().ok());
  answer = db->AnswerContinuous(id.value());
  ASSERT_TRUE(answer.ok());
  ids = Ids(answer.value().candidates);
  EXPECT_TRUE(std::find(ids.begin(), ids.end(), fresh.id) == ids.end());
  info = db->ContinuousInfo(id.value());
  ASSERT_TRUE(info.ok());
  auto oneshot = db->PrivateRange(info.value().region, 12.0,
                                  poi_category::kGasStation);
  ASSERT_TRUE(oneshot.ok());
  auto oneshot_ids = Ids(oneshot.value().candidates);
  std::sort(oneshot_ids.begin(), oneshot_ids.end());
  EXPECT_EQ(ids, oneshot_ids);
}

/// The standing count must equal the one-shot count over the same applied
/// updates. The one-shot list also carries measure-zero touches (p = 0),
/// which the standing answer never reports.
void ExpectCountMatchesOneShot(const CloakDbService& db, ContinuousQueryId id,
                               const Rect& window, const std::string& where) {
  auto standing = db.AnswerContinuous(id);
  auto oneshot = db.PublicCount(window);
  ASSERT_TRUE(standing.ok() && oneshot.ok()) << where;
  EXPECT_FALSE(standing.value().stale) << where;
  const CountAnswer& a = standing.value().count;
  const CountAnswer& b = oneshot.value().answer;
  EXPECT_EQ(a.min_count, b.min_count) << where;
  EXPECT_EQ(a.max_count, b.max_count) << where;
  EXPECT_DOUBLE_EQ(a.expected, b.expected) << where;
  std::vector<CountContribution> want;
  for (const auto& c : oneshot.value().contributions) {
    if (c.probability > 0.0) want.push_back(c);
  }
  const auto& got = standing.value().contributions;
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].pseudonym, want[i].pseudonym) << where;
    EXPECT_EQ(got[i].probability, want[i].probability) << where;
  }
}

// A count window's generation is its delta signal: it moves exactly when
// some record's contribution to the window changed, and never otherwise.
TEST(ContinuousServiceTest, CountGenerationBumpsOnlyWhenAContributionChanges) {
  auto options = DefaultOptions(1);
  options.anonymizer.pseudonym_rotation_period = 7;
  auto db = CloakDbService::Create(options).value();
  ASSERT_TRUE(db->RegisterUser(1, KProfile(1)).ok());
  ASSERT_TRUE(db->RegisterUser(2, KProfile(1)).ok());
  ASSERT_TRUE(db->UpdateLocation(2, {45, 45}, Noon()).ok());  // Bystander.
  // Edges off every cell boundary, so a region crossing one overlaps it
  // partially.
  const Rect window(30.3, 30.3, 69.7, 69.7);
  auto first = db->UpdateLocation(1, {50, 50}, Noon());  // Update 1.
  ASSERT_TRUE(first.ok());
  auto id = db->RegisterContinuousCount(window);
  ASSERT_TRUE(id.ok());
  ExpectCountMatchesOneShot(*db, id.value(), window, "registered");

  Rect region = first.value().cloaked.region;
  auto generation = [&] {
    return db->AnswerContinuous(id.value()).value().generation;
  };
  // Updates 2..7; the seventh rotates the pseudonym.
  struct Move {
    Point to;
    const char* what;
    double old_p;  ///< Expected contribution before the move.
    double new_p;  ///< Expected contribution after; -1 = partial.
    uint64_t bumps;
  };
  const std::vector<Move> moves = {
      {{51, 51}, "inside->inside", 1.0, 1.0, 0},
      {{30.3, 50}, "inside->partial", 1.0, -1.0, 1},
      {{5, 50}, "partial->outside", -1.0, 0.0, 1},
      {{6, 8}, "outside->outside", 0.0, 0.0, 0},
      {{50, 52}, "outside->inside", 0.0, 1.0, 1},
      // Rotation: the retired record leaves (one bump), the fresh
      // pseudonym enters (another).
      {{52, 50}, "inside->inside with rotation", 1.0, 1.0, 2},
  };
  for (const Move& m : moves) {
    const uint64_t before = generation();
    auto update = db->UpdateLocation(1, m.to, Noon());
    ASSERT_TRUE(update.ok()) << m.what;
    const double old_p = CountContributionOf(region, window);
    region = update.value().cloaked.region;
    const double new_p = CountContributionOf(region, window);
    // The move really is the case it names.
    if (m.old_p < 0) {
      EXPECT_TRUE(old_p > 0.0 && old_p < 1.0) << m.what;
    } else {
      EXPECT_EQ(old_p, m.old_p) << m.what;
    }
    if (m.new_p < 0) {
      EXPECT_TRUE(new_p > 0.0 && new_p < 1.0) << m.what;
    } else {
      EXPECT_EQ(new_p, m.new_p) << m.what;
    }
    EXPECT_EQ(update.value().retired_pseudonym != 0, m.bumps == 2) << m.what;
    EXPECT_EQ(generation() - before, m.bumps) << m.what;
    ExpectCountMatchesOneShot(*db, id.value(), window, m.what);
  }

  // Dropping a record that contributed bumps once.
  const uint64_t before = generation();
  ASSERT_TRUE(db->UnregisterUser(1).ok());
  EXPECT_EQ(generation() - before, 1u);
  ExpectCountMatchesOneShot(*db, id.value(), window, "unregister");
}

// Public writes stale exactly the same-category standing queries whose
// cached coverage holds the new object, and the repair converges on the
// one-shot answer.
TEST(ContinuousServiceTest, PublicChangesStaleExactlyTheCoveringQueries) {
  auto db = CloakDbService::Create(DefaultOptions(2)).value();
  constexpr Category kOther = poi_category::kGasStation + 1;
  ASSERT_TRUE(
      db->BulkLoadCategory(poi_category::kGasStation, MakePois(150)).ok());
  std::vector<PublicObject> others = MakePois(60, 77);
  for (auto& o : others) {
    o.id += 100000;
    o.category = kOther;
  }
  ASSERT_TRUE(db->BulkLoadCategory(kOther, others).ok());
  for (UserId u = 1; u <= 12; ++u)
    ASSERT_TRUE(db->RegisterUser(u, KProfile(2)).ok());
  // Two rounds: the first reporters of a shard cloak against a near-empty
  // crowd; by the second everyone has company.
  Rng rng(81);
  for (int round = 0; round < 2; ++round) {
    for (UserId u = 1; u <= 12; ++u) {
      ASSERT_TRUE(db->UpdateLocation(
                        u, {rng.Uniform(10, 50), rng.Uniform(10, 50)}, Noon())
                      .ok());
    }
  }
  struct Standing {
    ContinuousQueryId id;
    Category category;
    double radius;
  };
  std::vector<Standing> queries;
  for (UserId u = 1; u <= 12; ++u) {
    const Category category = u % 2 == 0 ? poi_category::kGasStation : kOther;
    const double radius = 4.0 + static_cast<double>(u % 3);
    auto id = db->RegisterContinuousRange(u, radius, category);
    ASSERT_TRUE(id.ok());
    queries.push_back({id.value(), category, radius});
  }
  ASSERT_TRUE(db->Flush().ok());
  auto coverage_of = [&](const Standing& q) {
    return db->ContinuousInfo(q.id).value().coverage;
  };
  auto stale_marked = [&] {
    return db->metrics().CounterValue("cq.stale_marked_total");
  };

  // Outside every coverage: nothing goes stale.
  const Point far{95, 95};
  for (const Standing& q : queries) ASSERT_FALSE(coverage_of(q).Contains(far));
  uint64_t before = stale_marked();
  PublicObject lone;
  lone.id = 900001;
  lone.location = far;
  lone.category = poi_category::kGasStation;
  ASSERT_TRUE(db->AddPublicObject(lone).ok());
  EXPECT_EQ(stale_marked(), before);

  // At the centre of a gas-station query's coverage: exactly the
  // gas-station queries holding the point go stale, whatever the other
  // category's coverages hold.
  const Standing& anchor = queries[1];
  ASSERT_EQ(anchor.category, poi_category::kGasStation);
  const Rect c = coverage_of(anchor);
  const Point at{(c.min_x + c.max_x) / 2, (c.min_y + c.max_y) / 2};
  uint64_t covering_same = 0;
  uint64_t covering_other = 0;
  for (const Standing& q : queries) {
    if (!coverage_of(q).Contains(at)) continue;
    ++(q.category == poi_category::kGasStation ? covering_same
                                               : covering_other);
  }
  ASSERT_GE(covering_same, 1u);
  ASSERT_GE(covering_other, 1u);  // The category filter is exercised.
  before = stale_marked();
  PublicObject fresh;
  fresh.id = 900002;
  fresh.location = at;
  fresh.category = poi_category::kGasStation;
  ASSERT_TRUE(db->AddPublicObject(fresh).ok());
  EXPECT_EQ(stale_marked() - before, covering_same);
  for (const Standing& q : queries) {
    if (q.category == kOther) {
      EXPECT_FALSE(db->ContinuousInfo(q.id).value().stale) << "cq " << q.id;
    }
  }

  // After the repair every standing range equals its one-shot answer.
  ASSERT_TRUE(db->Flush().ok());
  for (const Standing& q : queries) {
    auto standing = db->AnswerContinuous(q.id);
    ASSERT_TRUE(standing.ok());
    EXPECT_FALSE(standing.value().stale);
    auto oneshot = db->PrivateRange(db->ContinuousInfo(q.id).value().region,
                                    q.radius, q.category);
    ASSERT_TRUE(oneshot.ok());
    auto want = Ids(oneshot.value().candidates);
    std::sort(want.begin(), want.end());
    EXPECT_EQ(Ids(standing.value().candidates), want) << "cq " << q.id;
  }
}

// Count windows are read from the shard's private index under its shared
// lock; concurrent readers and queued drains must not race (run under
// TSan in CI) and the settled answers equal the one-shot count.
TEST(ContinuousServiceTest, ConcurrentCountReadsDuringDrains) {
  auto db = CloakDbService::Create(DefaultOptions(4)).value();
  constexpr size_t kUsers = 80;
  for (UserId u = 1; u <= kUsers; ++u)
    ASSERT_TRUE(db->RegisterUser(u, KProfile(2)).ok());
  const std::vector<Rect> windows = {Rect(10, 10, 55, 55),
                                     Rect(40.5, 20.5, 90.5, 70.5)};
  std::vector<ContinuousQueryId> ids;
  for (const Rect& w : windows) {
    auto id = db->RegisterContinuousCount(w);
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  std::atomic<bool> done{false};
  auto reader = [&](bool info) {
    while (!done.load(std::memory_order_acquire)) {
      for (ContinuousQueryId id : ids) {
        if (info) {
          EXPECT_TRUE(db->ContinuousInfo(id).ok());
        } else {
          EXPECT_TRUE(db->AnswerContinuous(id).ok());
        }
      }
    }
  };
  std::thread answers(reader, false);
  std::thread infos(reader, true);
  for (const Step& s : MakeStream(600, kUsers, 91))
    ASSERT_TRUE(db->EnqueueUpdate(s.user, s.location, Noon()).ok());
  ASSERT_TRUE(db->Flush().ok());
  done.store(true, std::memory_order_release);
  answers.join();
  infos.join();
  for (size_t i = 0; i < ids.size(); ++i)
    ExpectCountMatchesOneShot(*db, ids[i], windows[i], "settled");
}

TEST(ContinuousServiceTest, MetricsTrackRegistrationsAndAffectedScaling) {
  auto db_or = CloakDbService::Create(DefaultOptions(4));
  ASSERT_TRUE(db_or.ok());
  auto db = std::move(db_or).value();
  constexpr size_t kUsers = 50;
  for (UserId u = 1; u <= kUsers; ++u)
    ASSERT_TRUE(db->RegisterUser(u, KProfile(2)).ok());
  ASSERT_TRUE(
      db->BulkLoadCategory(poi_category::kGasStation, MakePois(200)).ok());
  Rng rng(71);
  for (UserId u = 1; u <= kUsers; ++u) {
    ASSERT_TRUE(db
                    ->UpdateLocation(
                        u, {rng.Uniform(5, 95), rng.Uniform(5, 95)}, Noon())
                    .ok());
  }
  std::vector<ContinuousQueryId> ids;
  for (UserId u = 1; u <= kUsers; ++u) {
    auto id = db->RegisterContinuousRange(u, 6.0, poi_category::kGasStation);
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  EXPECT_EQ(db->NumContinuousQueries(), kUsers);
  EXPECT_EQ(db->metrics().CounterValue("cq.registrations_total"), kUsers);
  EXPECT_DOUBLE_EQ(db->metrics().gauge("cq.registered")->Value(),
                   static_cast<double>(kUsers));

  auto stream = MakeStream(150, kUsers, 72);
  for (const Step& s : stream)
    ASSERT_TRUE(db->UpdateLocation(s.user, s.location, Noon()).ok());
  ASSERT_TRUE(db->Flush().ok());

  EXPECT_GT(db->metrics().CounterValue("cq.updates_seen_total"), 0u);
  auto affected = db->metrics().SnapshotHistogram("cq.affected_per_update");
  ASSERT_GT(affected.count, 0u);
  // Per-update work must scale with the queries an update actually
  // touches, not with the registry: each user holds one standing query, so
  // the per-update affected count stays far below the registry size.
  EXPECT_LT(affected.max, static_cast<double>(kUsers) / 4.0);

  for (ContinuousQueryId id : ids)
    ASSERT_TRUE(db->UnregisterContinuous(id).ok());
  EXPECT_EQ(db->metrics().CounterValue("cq.unregistrations_total"), kUsers);
  EXPECT_DOUBLE_EQ(db->metrics().gauge("cq.registered")->Value(), 0.0);
}

}  // namespace
}  // namespace cloakdb
