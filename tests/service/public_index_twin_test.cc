// Twin-service oracle for the public index: a CloakDbService whose bulk
// loads seal each stripe's category into a packed StaticRTree (+ overlay)
// must answer every query bit-identically to a reference twin that never
// seals — compaction off, POIs fed one AddPublicObject at a time, so every
// category is served by its overlay alone, i.e. the (x, id)-sorted spill
// vector. This holds through bulk loads, post-seal writes, and the whole
// private-query surface. The sealed tree is an execution detail — never
// an answer change.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <vector>

#include "service/cloak_db_service.h"
#include "sim/poi.h"
#include "util/random.h"

namespace cloakdb {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr Category kCat = poi_category::kGasStation;

TimeOfDay Noon() { return TimeOfDay::FromHms(12, 0).value(); }

std::unique_ptr<CloakDbService> MakeService(size_t compact_limit = 1024) {
  CloakDbServiceOptions options;
  options.space = Rect(0, 0, 100, 100);
  options.num_shards = 4;
  // One worker keeps update-processing order (and thus cloaked regions)
  // identical across the twins — cloaking is neighbor-dependent.
  options.worker_threads = 1;
  options.static_index_compact_limit = compact_limit;
  auto service = CloakDbService::Create(options);
  EXPECT_TRUE(service.ok());
  return std::move(service).value();
}

/// The reference twin: inline compaction can never trigger, and it is only
/// ever fed through LoadReference, so nothing seals.
std::unique_ptr<CloakDbService> MakeReference() {
  return MakeService(SIZE_MAX);
}

/// Adds `pois` to the reference one at a time (never a bulk load).
void LoadReference(CloakDbService* reference,
                   const std::vector<PublicObject>& pois) {
  for (const PublicObject& o : pois)
    ASSERT_TRUE(reference->AddPublicObject(o).ok());
}

/// The reference must still be a pure overlay — no seal, no compaction —
/// or the twin comparison would silently be static against static.
void ExpectNeverSealed(CloakDbService* reference) {
  EXPECT_EQ(reference->metrics().counter("index.static.seals_total")->Value(),
            0u);
  EXPECT_EQ(
      reference->metrics().counter("index.static.compactions_total")->Value(),
      0u);
}

std::vector<PublicObject> MakePois(size_t count, uint64_t seed) {
  Rng rng(seed);
  PoiOptions options;
  options.count = count;
  options.category = kCat;
  options.name_prefix = "poi";
  auto pois = GeneratePois(Rect(0, 0, 100, 100), options, &rng);
  EXPECT_TRUE(pois.ok());
  return std::move(pois).value();
}

std::vector<ObjectId> Ids(const std::vector<PublicObject>& objects) {
  std::vector<ObjectId> ids;
  ids.reserve(objects.size());
  for (const auto& o : objects) ids.push_back(o.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// The full query battery, bit-identical across the twins: candidate id
/// sets, fetch radii (computed from index distances), and counts. `st` is
/// the sealed service, `dy` the overlay-only reference.
void ExpectTwinAnswers(CloakDbService* st, CloakDbService* dy, Rng* rng) {
  EXPECT_GT(st->metrics().counter("index.static.seals_total")->Value(), 0u);
  ExpectNeverSealed(dy);
  ASSERT_TRUE(st->Flush().ok());
  ASSERT_TRUE(dy->Flush().ok());
  for (int trial = 0; trial < 25; ++trial) {
    Point c{rng->Uniform(5, 95), rng->Uniform(5, 95)};
    const Rect cloaked = Rect::CenteredSquare(c, rng->Uniform(0.5, 8.0));

    auto range_s = st->PrivateRange(cloaked, 10.0, kCat);
    auto range_d = dy->PrivateRange(cloaked, 10.0, kCat);
    ASSERT_EQ(range_s.ok(), range_d.ok());
    if (range_s.ok()) {
      EXPECT_EQ(Ids(range_s.value().candidates),
                Ids(range_d.value().candidates));
      EXPECT_EQ(range_s.value().extended_region,
                range_d.value().extended_region);
    }

    auto nn_s = st->PrivateNn(cloaked, kCat);
    auto nn_d = dy->PrivateNn(cloaked, kCat);
    ASSERT_EQ(nn_s.ok(), nn_d.ok());
    if (nn_s.ok()) {
      EXPECT_EQ(Ids(nn_s.value().candidates), Ids(nn_d.value().candidates));
      // The fetch radius comes straight from NearestDistance probes — a
      // quantization leak would show up here first.
      EXPECT_EQ(nn_s.value().fetch_radius, nn_d.value().fetch_radius);
    }

    auto knn_s = st->PrivateKnn(cloaked, 5, kCat);
    auto knn_d = dy->PrivateKnn(cloaked, 5, kCat);
    ASSERT_EQ(knn_s.ok(), knn_d.ok());
    if (knn_s.ok()) {
      EXPECT_EQ(Ids(knn_s.value().candidates), Ids(knn_d.value().candidates));
      EXPECT_EQ(knn_s.value().fetch_radius, knn_d.value().fetch_radius);
    }

    auto count_s = st->PublicCount(Rect::CenteredSquare(c, 20.0));
    auto count_d = dy->PublicCount(Rect::CenteredSquare(c, 20.0));
    ASSERT_EQ(count_s.ok(), count_d.ok());
    if (count_s.ok()) {
      EXPECT_EQ(count_s.value().answer.expected,
                count_d.value().answer.expected);
      EXPECT_EQ(count_s.value().answer.min_count,
                count_d.value().answer.min_count);
      EXPECT_EQ(count_s.value().answer.max_count,
                count_d.value().answer.max_count);
    }
  }
}

class PublicIndexTwinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    static_db_ = MakeService();
    reference_db_ = MakeReference();
    PrivacyProfile profile =
        PrivacyProfile::Uniform({4, 0.0, kInf}).value();
    Rng rng(5);
    // One update per Flush: batch composition is racy against the drain
    // worker (see determinism_test.cc), and cloaking depends on it. The
    // twins need width-one batches to land identical regions.
    for (UserId u = 1; u <= 40; ++u) {
      ASSERT_TRUE(static_db_->RegisterUser(u, profile).ok());
      ASSERT_TRUE(reference_db_->RegisterUser(u, profile).ok());
      Point p{rng.Uniform(5, 95), rng.Uniform(5, 95)};
      ASSERT_TRUE(static_db_->EnqueueUpdate(u, p, Noon()).ok());
      ASSERT_TRUE(static_db_->Flush().ok());
      ASSERT_TRUE(reference_db_->EnqueueUpdate(u, p, Noon()).ok());
      ASSERT_TRUE(reference_db_->Flush().ok());
    }
  }

  std::unique_ptr<CloakDbService> static_db_;
  std::unique_ptr<CloakDbService> reference_db_;
};

TEST_F(PublicIndexTwinTest, BulkLoadedWorldAnswersIdentically) {
  auto pois = MakePois(3000, 11);
  ASSERT_TRUE(static_db_->BulkLoadCategory(kCat, pois).ok());
  LoadReference(reference_db_.get(), pois);
  Rng rng(12);
  ExpectTwinAnswers(static_db_.get(), reference_db_.get(), &rng);
}

TEST_F(PublicIndexTwinTest, PostSealWritesStayInvisible) {
  auto pois = MakePois(1500, 21);
  ASSERT_TRUE(static_db_->BulkLoadCategory(kCat, pois).ok());
  LoadReference(reference_db_.get(), pois);

  // Post-seal adds land in the static service's spill overlay; the twins
  // must stay identical while it fills.
  Rng rng(22);
  for (ObjectId id = 100000; id < 100300; ++id) {
    PublicObject o;
    o.id = id;
    o.category = kCat;
    o.location = Point{rng.Uniform(0, 100), rng.Uniform(0, 100)};
    o.name = "late";
    ASSERT_TRUE(static_db_->AddPublicObject(o).ok());
    ASSERT_TRUE(reference_db_->AddPublicObject(o).ok());
  }
  ExpectTwinAnswers(static_db_.get(), reference_db_.get(), &rng);
}

TEST_F(PublicIndexTwinTest, AggressiveCompactionChangesNothing) {
  // A tiny compact limit forces many STR rebuilds mid-stream. The twin
  // must share the user population, so both services are seeded from the
  // same stream here.
  auto aggressive = MakeService(4);
  auto reference = MakeReference();
  PrivacyProfile profile = PrivacyProfile::Uniform({4, 0.0, kInf}).value();
  Rng rng(31);
  for (UserId u = 1; u <= 40; ++u) {
    ASSERT_TRUE(aggressive->RegisterUser(u, profile).ok());
    ASSERT_TRUE(reference->RegisterUser(u, profile).ok());
    Point p{rng.Uniform(5, 95), rng.Uniform(5, 95)};
    ASSERT_TRUE(aggressive->EnqueueUpdate(u, p, Noon()).ok());
    ASSERT_TRUE(aggressive->Flush().ok());
    ASSERT_TRUE(reference->EnqueueUpdate(u, p, Noon()).ok());
    ASSERT_TRUE(reference->Flush().ok());
  }

  auto pois = MakePois(800, 32);
  ASSERT_TRUE(aggressive->BulkLoadCategory(kCat, pois).ok());
  LoadReference(reference.get(), pois);
  Rng rng2(33);
  for (ObjectId id = 200000; id < 200100; ++id) {
    PublicObject o;
    o.id = id;
    o.category = kCat;
    o.location = Point{rng2.Uniform(0, 100), rng2.Uniform(0, 100)};
    o.name = "late";
    ASSERT_TRUE(aggressive->AddPublicObject(o).ok());
    ASSERT_TRUE(reference->AddPublicObject(o).ok());
  }
  ExpectTwinAnswers(aggressive.get(), reference.get(), &rng2);
}

TEST_F(PublicIndexTwinTest, SharedExecutionBatchesMatchAcrossModes) {
  auto pois = MakePois(1200, 41);
  ASSERT_TRUE(static_db_->BulkLoadCategory(kCat, pois).ok());
  LoadReference(reference_db_.get(), pois);

  Rng rng(42);
  for (int i = 0; i < 30; ++i) {
    QueryRequest q;
    Point c{rng.Uniform(10, 90), rng.Uniform(10, 90)};
    q.kind = static_cast<QueryKind>(i % 3);
    q.region = Rect::CenteredSquare(c, 3.0);
    q.radius = 12.0;
    q.k = 4;
    q.category = kCat;
    const QueryResponse res_s = static_db_->ExecuteQuery(q);
    const QueryResponse res_d = reference_db_->ExecuteQuery(q);
    ASSERT_EQ(res_s.ok(), res_d.ok()) << "query " << i;
    if (!res_s.ok()) continue;
    EXPECT_EQ(Ids(res_s.candidates), Ids(res_d.candidates)) << "query " << i;
  }
  ExpectNeverSealed(reference_db_.get());
}

}  // namespace
}  // namespace cloakdb
