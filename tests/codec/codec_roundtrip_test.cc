// Generated-value round trips for the durable file codecs: the shard
// snapshot and the checkpoint file. Each case draws a
// random value from a seeded generator, encodes it, decodes the bytes and
// requires the decoded value to equal the original field by field. Doubles
// are compared by bit pattern, so signed zeros, infinities, subnormals and
// NaN payloads must survive too. (WalFuzzTest.RecordCodecRoundTrips covers
// WAL records the same way; the golden and mutation suites cover the
// fixed fixtures.)

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "storage/shard_durability.h"
#include "storage/shard_snapshot.h"
#include "util/random.h"

namespace cloakdb {
namespace storage {
namespace {

constexpr int kCases = 250;

// --- Generators ------------------------------------------------------------

double RandomDouble(Rng* rng) {
  switch (rng->NextBelow(4)) {
    case 0:
      return std::bit_cast<double>(rng->Next());
    case 1: {
      constexpr double kSpecial[] = {
          0.0,
          -0.0,
          std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::denorm_min(),
          std::numeric_limits<double>::max(),
          std::numeric_limits<double>::quiet_NaN()};
      return kSpecial[rng->NextBelow(std::size(kSpecial))];
    }
    default:
      return rng->Uniform(-1000.0, 1000.0);
  }
}

uint32_t RandomU32(Rng* rng) { return static_cast<uint32_t>(rng->Next()); }

Rect RandomRect(Rng* rng) {
  Rect r;
  r.min_x = RandomDouble(rng);
  r.min_y = RandomDouble(rng);
  r.max_x = RandomDouble(rng);
  r.max_y = RandomDouble(rng);
  return r;
}

std::string RandomBytes(Rng* rng, size_t max_len) {
  std::string out(rng->NextBelow(max_len + 1), '\0');
  for (char& c : out) c = static_cast<char>(rng->NextBelow(256));
  return out;
}

PrivacyRequirement RandomRequirement(Rng* rng) {
  PrivacyRequirement req;
  req.k = RandomU32(rng);
  req.min_area = RandomDouble(rng);
  req.max_area = RandomDouble(rng);
  return req;
}

ExportedUserState RandomUser(Rng* rng) {
  ExportedUserState u;
  u.user = rng->Next();
  u.profile.resize(rng->NextBelow(4));
  for (ProfileEntry& e : u.profile) {
    e.interval = DailyInterval(
        TimeOfDay::FromSeconds(static_cast<int64_t>(rng->NextBelow(86400))),
        TimeOfDay::FromSeconds(static_cast<int64_t>(rng->NextBelow(86400))));
    e.requirement = RandomRequirement(rng);
  }
  u.pseudonym = rng->Next();
  u.has_location = rng->NextBelow(2) == 0;
  u.location = Point{RandomDouble(rng), RandomDouble(rng)};
  u.has_cached_region = rng->NextBelow(2) == 0;
  u.cached.region = RandomRect(rng);
  u.cached.achieved_k = RandomU32(rng);
  u.cached.requirement = RandomRequirement(rng);
  u.cached.k_satisfied = rng->NextBelow(2) == 0;
  u.cached.min_area_satisfied = rng->NextBelow(2) == 0;
  u.cached.max_area_satisfied = rng->NextBelow(2) == 0;
  u.updates_since_rotation = RandomU32(rng);
  return u;
}

ShardSnapshot RandomSnapshot(Rng* rng) {
  ShardSnapshot snap;
  AnonymizerState& a = snap.anonymizer;
  a.users.resize(rng->NextBelow(6));
  for (ExportedUserState& u : a.users) u = RandomUser(rng);
  a.used_pseudonyms.resize(rng->NextBelow(8));
  for (ObjectId& p : a.used_pseudonyms) p = rng->Next();
  for (uint64_t& s : a.pseudonym_rng.s) s = rng->Next();
  a.pseudonym_rng.have_cached_gaussian = rng->NextBelow(2) == 0;
  a.pseudonym_rng.cached_gaussian = RandomDouble(rng);
  a.stats.updates = rng->Next();
  a.stats.cloaks_computed = rng->Next();
  a.stats.incremental_reuses = rng->Next();
  a.stats.shared_reuses = rng->Next();
  a.stats.unsatisfied = rng->Next();
  snap.public_objects.resize(rng->NextBelow(6));
  for (PublicObject& o : snap.public_objects) {
    o.id = rng->Next();
    o.location = Point{RandomDouble(rng), RandomDouble(rng)};
    o.category = RandomU32(rng);
    o.name = RandomBytes(rng, 40);
  }
  snap.private_regions.resize(rng->NextBelow(6));
  for (auto& [pseudonym, region] : snap.private_regions) {
    pseudonym = rng->Next();
    region = RandomRect(rng);
  }
  snap.cqs.resize(rng->NextBelow(5));
  for (SnapshotCq& cq : snap.cqs) {
    cq.id = rng->Next();
    cq.kind = static_cast<uint8_t>(rng->NextBelow(256));
    cq.issuer = rng->Next();
    cq.radius = RandomDouble(rng);
    cq.k = rng->Next();
    cq.category = RandomU32(rng);
    cq.window = RandomRect(rng);
  }
  return snap;
}

// --- Field-by-field equality ------------------------------------------------

void ExpectSameDouble(double got, double want) {
  EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
      << got << " vs " << want;
}

void ExpectSamePoint(const Point& got, const Point& want) {
  ExpectSameDouble(got.x, want.x);
  ExpectSameDouble(got.y, want.y);
}

void ExpectSameRect(const Rect& got, const Rect& want) {
  ExpectSameDouble(got.min_x, want.min_x);
  ExpectSameDouble(got.min_y, want.min_y);
  ExpectSameDouble(got.max_x, want.max_x);
  ExpectSameDouble(got.max_y, want.max_y);
}

void ExpectSameRequirement(const PrivacyRequirement& got,
                           const PrivacyRequirement& want) {
  EXPECT_EQ(got.k, want.k);
  ExpectSameDouble(got.min_area, want.min_area);
  ExpectSameDouble(got.max_area, want.max_area);
}

void ExpectSameUser(const ExportedUserState& got,
                    const ExportedUserState& want) {
  EXPECT_EQ(got.user, want.user);
  ASSERT_EQ(got.profile.size(), want.profile.size());
  for (size_t i = 0; i < got.profile.size(); ++i) {
    EXPECT_EQ(got.profile[i].interval.start(), want.profile[i].interval.start());
    EXPECT_EQ(got.profile[i].interval.end(), want.profile[i].interval.end());
    ExpectSameRequirement(got.profile[i].requirement,
                          want.profile[i].requirement);
  }
  EXPECT_EQ(got.pseudonym, want.pseudonym);
  EXPECT_EQ(got.has_location, want.has_location);
  ExpectSamePoint(got.location, want.location);
  EXPECT_EQ(got.has_cached_region, want.has_cached_region);
  ExpectSameRect(got.cached.region, want.cached.region);
  EXPECT_EQ(got.cached.achieved_k, want.cached.achieved_k);
  ExpectSameRequirement(got.cached.requirement, want.cached.requirement);
  EXPECT_EQ(got.cached.k_satisfied, want.cached.k_satisfied);
  EXPECT_EQ(got.cached.min_area_satisfied, want.cached.min_area_satisfied);
  EXPECT_EQ(got.cached.max_area_satisfied, want.cached.max_area_satisfied);
  EXPECT_EQ(got.updates_since_rotation, want.updates_since_rotation);
}

void ExpectSameSnapshot(const ShardSnapshot& got, const ShardSnapshot& want) {
  const AnonymizerState& ga = got.anonymizer;
  const AnonymizerState& wa = want.anonymizer;
  ASSERT_EQ(ga.users.size(), wa.users.size());
  for (size_t i = 0; i < ga.users.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "user " << i);
    ExpectSameUser(ga.users[i], wa.users[i]);
  }
  EXPECT_EQ(ga.used_pseudonyms, wa.used_pseudonyms);
  for (size_t i = 0; i < 4; ++i)
    EXPECT_EQ(ga.pseudonym_rng.s[i], wa.pseudonym_rng.s[i]);
  EXPECT_EQ(ga.pseudonym_rng.have_cached_gaussian,
            wa.pseudonym_rng.have_cached_gaussian);
  ExpectSameDouble(ga.pseudonym_rng.cached_gaussian,
                   wa.pseudonym_rng.cached_gaussian);
  EXPECT_EQ(ga.stats.updates, wa.stats.updates);
  EXPECT_EQ(ga.stats.cloaks_computed, wa.stats.cloaks_computed);
  EXPECT_EQ(ga.stats.incremental_reuses, wa.stats.incremental_reuses);
  EXPECT_EQ(ga.stats.shared_reuses, wa.stats.shared_reuses);
  EXPECT_EQ(ga.stats.unsatisfied, wa.stats.unsatisfied);

  ASSERT_EQ(got.public_objects.size(), want.public_objects.size());
  for (size_t i = 0; i < got.public_objects.size(); ++i) {
    const PublicObject& g = got.public_objects[i];
    const PublicObject& w = want.public_objects[i];
    EXPECT_EQ(g.id, w.id);
    ExpectSamePoint(g.location, w.location);
    EXPECT_EQ(g.category, w.category);
    EXPECT_EQ(g.name, w.name);
  }
  ASSERT_EQ(got.private_regions.size(), want.private_regions.size());
  for (size_t i = 0; i < got.private_regions.size(); ++i) {
    EXPECT_EQ(got.private_regions[i].first, want.private_regions[i].first);
    ExpectSameRect(got.private_regions[i].second,
                   want.private_regions[i].second);
  }
  ASSERT_EQ(got.cqs.size(), want.cqs.size());
  for (size_t i = 0; i < got.cqs.size(); ++i) {
    const SnapshotCq& g = got.cqs[i];
    const SnapshotCq& w = want.cqs[i];
    EXPECT_EQ(g.id, w.id);
    EXPECT_EQ(g.kind, w.kind);
    EXPECT_EQ(g.issuer, w.issuer);
    ExpectSameDouble(g.radius, w.radius);
    EXPECT_EQ(g.k, w.k);
    EXPECT_EQ(g.category, w.category);
    ExpectSameRect(g.window, w.window);
  }
}

// --- Round trips -------------------------------------------------------------

TEST(CodecRoundTripTest, ShardSnapshotRoundTrips) {
  Rng rng(2101);
  for (int i = 0; i < kCases; ++i) {
    SCOPED_TRACE(testing::Message() << "case " << i);
    const ShardSnapshot snap = RandomSnapshot(&rng);
    auto decoded = DecodeShardSnapshot(EncodeShardSnapshot(snap));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ExpectSameSnapshot(decoded.value(), snap);
  }
}

TEST(CodecRoundTripTest, CheckpointFileRoundTrips) {
  Rng rng(2102);
  for (int i = 0; i < kCases; ++i) {
    SCOPED_TRACE(testing::Message() << "case " << i);
    const uint64_t lsn = rng.Next();
    // Half the cases carry a real snapshot blob, half arbitrary bytes: the
    // file frame does not interpret its payload.
    const std::string blob = rng.NextBelow(2) == 0
                                 ? EncodeShardSnapshot(RandomSnapshot(&rng))
                                 : RandomBytes(&rng, 2048);
    auto decoded = DecodeCheckpointFile(EncodeCheckpointFile(lsn, blob));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value().lsn, lsn);
    EXPECT_EQ(decoded.value().blob, blob);
  }
}

}  // namespace
}  // namespace storage
}  // namespace cloakdb
