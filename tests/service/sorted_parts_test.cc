// SortedPartsTest: every part a shard produces is sorted where the shard
// makes it, so each fan-in is a linear merge. Holds the standing fetch of
// Shard::ProbeRegion to id order, EvaluateStanding's merged `fetched` list
// to the old concatenate-and-sort of the same parts over 1, 2 and 4
// shards, a cached count part to pseudonym order, and the library count
// (QueryProcessor::PublicCount) to the one-shard service answer, bit for
// bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include "server/query_processor.h"
#include "service/cloak_db_service.h"
#include "service_test_peer.h"
#include "sim/poi.h"
#include "util/random.h"

namespace cloakdb {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr Category kGas = poi_category::kGasStation;
constexpr UserId kUsers = 120;
const Rect kSpace(0, 0, 100, 100);

TimeOfDay Noon() { return TimeOfDay::FromHms(12, 0).value(); }

std::unique_ptr<CloakDbService> MakeService(uint32_t shards, bool cache) {
  CloakDbServiceOptions options;
  options.space = kSpace;
  options.num_shards = shards;
  options.enable_shared_execution = cache;
  options.anonymizer.algorithm = CloakingKind::kMbr;
  auto service = CloakDbService::Create(options);
  EXPECT_TRUE(service.ok());
  return std::move(service).value();
}

/// 1,500 gas stations. The index returns them in spatial order; with
/// `random_ids` their ids are random 64-bit values (the comparison sort's
/// path), else the generator's dense ids (the radix path).
std::vector<PublicObject> Pois(bool random_ids) {
  Rng rng(31);
  PoiOptions options;
  options.count = 1500;
  options.category = kGas;
  options.name_prefix = "gas";
  auto pois = GeneratePois(kSpace, options, &rng);
  EXPECT_TRUE(pois.ok());
  std::vector<PublicObject> out = std::move(pois).value();
  if (random_ids) {
    for (PublicObject& o : out) o.id = rng.Next() | 1;
  }
  return out;
}

/// Registers every user (k from 1 to 5) at a seeded location and returns
/// each user's cloaked update, indexed by user id.
std::vector<CloakedUpdate> Report(CloakDbService* db, uint64_t seed) {
  Rng rng(seed);
  std::vector<CloakedUpdate> updates(kUsers + 1);
  for (UserId user = 1; user <= kUsers; ++user) {
    auto profile = PrivacyProfile::Uniform(
        {static_cast<uint32_t>(1 + user % 5), 0.0, kInf});
    EXPECT_TRUE(db->RegisterUser(user, profile.value()).ok());
  }
  for (UserId user = 1; user <= kUsers; ++user) {
    auto update = db->UpdateLocation(
        user, {rng.Uniform(0, 100), rng.Uniform(0, 100)}, Noon());
    EXPECT_TRUE(update.ok());
    if (update.ok()) updates[user] = update.value();
  }
  return updates;
}

bool IdSorted(const std::vector<PublicObject>& objects) {
  return std::is_sorted(
      objects.begin(), objects.end(),
      [](const PublicObject& a, const PublicObject& b) { return a.id <= b.id; });
}

bool PseudonymSorted(const std::vector<CountContribution>& contributions) {
  return std::is_sorted(contributions.begin(), contributions.end(),
                        [](const CountContribution& a,
                           const CountContribution& b) {
                          return a.pseudonym <= b.pseudonym;
                        });
}

void ExpectSameObjects(const std::vector<PublicObject>& got,
                       const std::vector<PublicObject>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id);
    EXPECT_EQ(got[i].location, want[i].location);
    EXPECT_EQ(got[i].category, want[i].category);
    EXPECT_EQ(got[i].name, want[i].name);
  }
}

TEST(SortedPartsTest, ProbeRegionReturnsAnIdSortedPart) {
  for (bool random_ids : {false, true}) {
    const std::vector<PublicObject> pois = Pois(random_ids);
    for (uint32_t shards : {1u, 2u, 4u}) {
      SCOPED_TRACE(testing::Message() << shards << " shards, random ids "
                                      << random_ids);
      auto db = MakeService(shards, /*cache=*/false);
      ASSERT_TRUE(db->BulkLoadCategory(kGas, pois).ok());
      for (const Rect& probe :
           {kSpace, Rect(10, 10, 60, 35), Rect(40, 0, 55, 100),
            Rect(70, 70, 72, 72)}) {
        size_t total = 0;
        for (uint32_t s = 0; s < shards; ++s) {
          auto part = db->shard(s).ProbeRegion(probe, kGas);
          ASSERT_TRUE(part.ok());
          EXPECT_TRUE(IdSorted(part.value()));
          for (const PublicObject& o : part.value()) {
            EXPECT_TRUE(probe.Contains(o.location));
            EXPECT_EQ(db->ShardOfX(o.location.x), s);
          }
          total += part.value().size();
        }
        EXPECT_EQ(total, static_cast<size_t>(std::count_if(
                             pois.begin(), pois.end(),
                             [&](const PublicObject& o) {
                               return probe.Contains(o.location);
                             })));
      }
    }
  }
}

TEST(SortedPartsTest, StandingFetchEqualsTheSortedConcatenationOfParts) {
  for (bool random_ids : {false, true}) {
    const std::vector<PublicObject> pois = Pois(random_ids);
    for (uint32_t shards : {1u, 2u, 4u}) {
      SCOPED_TRACE(testing::Message() << shards << " shards, random ids "
                                      << random_ids);
      auto db = MakeService(shards, /*cache=*/false);
      ASSERT_TRUE(db->BulkLoadCategory(kGas, pois).ok());
      const std::vector<CloakedUpdate> updates = Report(db.get(), 7);
      size_t evaluations = 0;
      for (UserId user = 1; user <= kUsers; user += 17) {
        for (QueryKind kind : {QueryKind::kPrivateRange, QueryKind::kPrivateNn,
                               QueryKind::kPrivateKnn}) {
          ContinuousSpec spec;
          spec.kind = kind;
          spec.issuer = user;
          spec.radius = 12.0;
          spec.k = kind == QueryKind::kPrivateKnn ? 8 : 1;
          spec.category = kGas;
          auto snap = CloakDbServiceTestPeer::EvaluateStanding(
              *db, spec, updates[user].cloaked.region);
          ASSERT_TRUE(snap.ok());
          ASSERT_FALSE(snap.value().degraded);
          // The old merge: every stripe's part concatenated, then sorted.
          std::vector<PublicObject> want;
          for (uint32_t s = 0; s < shards; ++s) {
            auto part = db->shard(s).ProbeRegion(snap.value().coverage, kGas);
            ASSERT_TRUE(part.ok());
            want.insert(want.end(), part.value().begin(), part.value().end());
          }
          std::sort(want.begin(), want.end(),
                    [](const PublicObject& a, const PublicObject& b) {
                      return a.id < b.id;
                    });
          ExpectSameObjects(snap.value().fetched, want);
          // And both hold exactly the objects inside the coverage.
          std::vector<PublicObject> inside;
          for (const PublicObject& o : pois) {
            if (snap.value().coverage.Contains(o.location))
              inside.push_back(o);
          }
          std::sort(inside.begin(), inside.end(),
                    [](const PublicObject& a, const PublicObject& b) {
                      return a.id < b.id;
                    });
          ExpectSameObjects(want, inside);
          EXPECT_TRUE(IdSorted(snap.value().current));
          evaluations += !want.empty();
        }
      }
      EXPECT_GT(evaluations, 0u);
    }
  }
}

TEST(SortedPartsTest, CachedCountPartReachesTheMergeSorted) {
  for (uint32_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE(testing::Message() << shards << " shards");
    auto db = MakeService(shards, /*cache=*/true);
    (void)Report(db.get(), 11);
    const Rect window(5, 20, 70, 90);
    std::vector<std::vector<CountContribution>> scanned(shards);
    for (uint32_t s = 0; s < shards; ++s) {
      auto part = db->shard(s).PublicCount(window);
      ASSERT_TRUE(part.ok());
      EXPECT_TRUE(PseudonymSorted(part.value().contributions));
      scanned[s] = part.value().contributions;
    }
    const uint64_t hits_before =
        db->metrics().CounterValue("cache.hits_total");
    for (uint32_t s = 0; s < shards; ++s) {
      auto part = db->shard(s).PublicCount(window);
      ASSERT_TRUE(part.ok());
      const std::vector<CountContribution>& cached = part.value().contributions;
      EXPECT_TRUE(PseudonymSorted(cached));
      ASSERT_EQ(cached.size(), scanned[s].size());
      for (size_t i = 0; i < cached.size(); ++i) {
        EXPECT_EQ(cached[i].pseudonym, scanned[s][i].pseudonym);
        EXPECT_EQ(cached[i].probability, scanned[s][i].probability);
      }
    }
    EXPECT_EQ(db->metrics().CounterValue("cache.hits_total"),
              hits_before + shards);
  }
}

TEST(SortedPartsTest, LibraryCountEqualsTheOneShardServiceBitForBit) {
  auto db = MakeService(1, /*cache=*/false);
  const std::vector<CloakedUpdate> updates = Report(db.get(), 5);
  // The same cloaked regions, applied to a bare query processor.
  QueryProcessor library(kSpace);
  for (UserId user = 1; user <= kUsers; ++user) {
    ASSERT_TRUE(
        library
            .ApplyCloakedUpdate(updates[user].pseudonym, updates[user].cloaked.region)
            .ok());
  }
  Rng rng(3);
  std::vector<Rect> windows = {kSpace, Rect(-10, -10, 50, 110)};
  for (int i = 0; i < 30; ++i) {
    const double x = rng.Uniform(-5, 90);
    const double y = rng.Uniform(-5, 90);
    windows.push_back(
        Rect(x, y, x + rng.Uniform(1, 50), y + rng.Uniform(1, 50)));
  }
  for (const Rect& window : windows) {
    SCOPED_TRACE(window.ToString());
    auto lib = library.PublicCount(window);
    auto svc = db->PublicCount(window);
    ASSERT_TRUE(lib.ok());
    ASSERT_TRUE(svc.ok());
    const PublicCountResult& a = lib.value();
    const PublicCountResult& b = svc.value();
    EXPECT_EQ(a.naive_count, b.naive_count);
    EXPECT_EQ(a.answer.expected, b.answer.expected);
    EXPECT_EQ(a.answer.variance, b.answer.variance);
    EXPECT_EQ(a.answer.min_count, b.answer.min_count);
    EXPECT_EQ(a.answer.max_count, b.answer.max_count);
    EXPECT_EQ(a.answer.pmf, b.answer.pmf);
    ASSERT_EQ(a.contributions.size(), b.contributions.size());
    for (size_t i = 0; i < a.contributions.size(); ++i) {
      EXPECT_EQ(a.contributions[i].pseudonym, b.contributions[i].pseudonym);
      EXPECT_EQ(a.contributions[i].probability,
                b.contributions[i].probability);
    }
  }
}

}  // namespace
}  // namespace cloakdb
