// Service determinism across durability modes. The WAL must be a pure
// observer: the same workload with durability off, async, or fsync gives
// bit-identical regions and pseudonyms, and closing the service mid-workload
// and recovering from disk continues to the same final state. Seeded Fig. 1
// sessions agreeing bit for bit are DeterminismTest, in end_to_end_test.cc.

#include <unistd.h>

#include <gtest/gtest.h>

#include <filesystem>

#include "service/cloak_db_service.h"

namespace cloakdb {
namespace {

struct ServiceRun {
  std::vector<ObjectId> pseudonyms;
  std::vector<Rect> regions;
};

CloakDbServiceOptions ServiceOptions(storage::DurabilityMode mode,
                                     const std::string& data_dir) {
  CloakDbServiceOptions options;
  options.space = Rect(0, 0, 100, 100);
  options.num_shards = 2;
  options.worker_threads = 1;
  options.anonymizer.algorithm = CloakingKind::kGrid;
  options.durability_mode = mode;
  options.data_dir = data_dir;
  options.checkpoint_interval = 0;
  return options;
}

void DriveWorkload(CloakDbService* db, int phase) {
  if (phase == 0) {
    for (UserId u = 1; u <= 20; ++u) {
      ASSERT_TRUE(
          db->RegisterUser(
                u, PrivacyProfile::Uniform(
                       {3, 0.0, std::numeric_limits<double>::infinity()})
                       .value())
              .ok());
    }
  }
  // One update per Flush: batch composition — which equal-time updates
  // the anonymizer saw together — is part of the answer, and composition
  // is a race between the enqueuing thread and the drain worker. The
  // cross-mode comparison needs width-one batches, which are identical no
  // matter which thread drains first. (Replay of wide racy batches is the
  // recovery oracle's job; the WAL records the composition that ran.)
  Rng rng(2006 + phase);
  for (int round = 0; round < 3; ++round) {
    for (UserId u = 1; u <= 20; ++u) {
      ASSERT_TRUE(db->EnqueueUpdate(u,
                                    Point(rng.Uniform(1.0, 99.0),
                                          rng.Uniform(1.0, 99.0)),
                                    TimeOfDay::FromHms(12, 0).value())
                      .ok());
      ASSERT_TRUE(db->Flush().ok());
    }
  }
}

ServiceRun Observe(CloakDbService* db) {
  ServiceRun run;
  for (UserId u = 1; u <= 20; ++u) {
    run.pseudonyms.push_back(db->PseudonymOf(u).value());
    run.regions.push_back(db->shard(db->ShardOfUser(u))
                              .CurrentRegionOfUser(u)
                              .value());
  }
  return run;
}

void ExpectSameRun(const ServiceRun& a, const ServiceRun& b) {
  ASSERT_EQ(a.regions.size(), b.regions.size());
  for (size_t i = 0; i < a.regions.size(); ++i) {
    EXPECT_EQ(a.pseudonyms[i], b.pseudonyms[i]) << "user index " << i;
    EXPECT_EQ(a.regions[i], b.regions[i]) << "user index " << i;
  }
}

class DurabilityDeterminismTest
    : public ::testing::TestWithParam<storage::DurabilityMode> {};

TEST_P(DurabilityDeterminismTest, ModeDoesNotChangeAnswers) {
  // Baseline: the historical in-memory service.
  auto baseline =
      CloakDbService::Create(
          ServiceOptions(storage::DurabilityMode::kOff, ""))
          .value();
  DriveWorkload(baseline.get(), 0);
  DriveWorkload(baseline.get(), 1);
  const ServiceRun expected = Observe(baseline.get());

  std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("cloakdb_determinism_" +
       std::string(storage::DurabilityModeName(GetParam())) + "_" +
       std::to_string(::getpid()));
  std::filesystem::remove_all(dir);

  // Same workload, with a close + recover boundary between the phases.
  {
    auto db = CloakDbService::Create(ServiceOptions(GetParam(), dir))
                  .value();
    DriveWorkload(db.get(), 0);
  }
  {
    auto db = CloakDbService::Create(ServiceOptions(GetParam(), dir))
                  .value();
    EXPECT_TRUE(db->recovery_info().performed);
    DriveWorkload(db.get(), 1);
    ExpectSameRun(Observe(db.get()), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(AllDurableModes, DurabilityDeterminismTest,
                         ::testing::Values(storage::DurabilityMode::kAsync,
                                           storage::DurabilityMode::kFsync),
                         [](const ::testing::TestParamInfo<
                             storage::DurabilityMode>& info) {
                           return storage::DurabilityModeName(info.param);
                         });

}  // namespace
}  // namespace cloakdb
