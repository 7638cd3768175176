// Twin oracle for the public count: the envelope path (ExecuteQuery), whose
// merge summarizes only the O(n) formats, must report exactly the expected
// value and interval of the library call (CloakDbService::PublicCount),
// whose PDF must be MakeCountAnswer over its merged, pseudonym-sorted
// contributions. A shard caches its count part, never an answer, so the
// cache must not change a single bit either. Users cloak by MBR on integer
// coordinates, which yields zero-area regions (k = 1), segments, and
// region edges that integer-edged windows touch; some windows reach past
// the space.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "obs/trace.h"
#include "server/public_queries.h"
#include "service/cloak_db_service.h"
#include "util/poisson_binomial.h"
#include "util/random.h"

namespace cloakdb {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr UserId kUsers = 150;
const Rect kSpace(0, 0, 100, 100);

TimeOfDay Noon() { return TimeOfDay::FromHms(12, 0).value(); }

std::unique_ptr<CloakDbService> MakeService(uint32_t shards, bool cache,
                                            bool traced = false) {
  CloakDbServiceOptions options;
  options.space = kSpace;
  options.num_shards = shards;
  options.enable_shared_execution = cache;
  options.anonymizer.algorithm = CloakingKind::kMbr;
  if (traced) {
    options.trace.enabled = true;
    options.trace.sample_probability = 1.0;
    options.trace.slow_trace_us = 0.0;
  }
  auto service = CloakDbService::Create(options);
  EXPECT_TRUE(service.ok());
  return std::move(service).value();
}

/// Registers every user (k from 1 to 4) and reports one location each. A
/// third of the users stand on integer coordinates; all users move on
/// each later round.
void Report(CloakDbService* db, uint64_t seed, int round) {
  Rng rng(seed * 101 + static_cast<uint64_t>(round));
  for (UserId user = 1; user <= kUsers; ++user) {
    if (round == 0) {
      auto profile =
          PrivacyProfile::Uniform({static_cast<uint32_t>(1 + user % 4), 0.0,
                                   kInf});
      ASSERT_TRUE(db->RegisterUser(user, profile.value()).ok());
    }
    Point location{rng.Uniform(0, 100), rng.Uniform(0, 100)};
    if (user % 3 == 0) {
      location = {std::floor(location.x), std::floor(location.y)};
    }
    ASSERT_TRUE(db->UpdateLocation(user, location, Noon()).ok());
  }
}

/// Fixed edge cases plus seeded random windows, every edge an integer.
std::vector<Rect> Windows(uint64_t seed) {
  std::vector<Rect> windows = {kSpace,
                               Rect(-20, -20, 120, 120),
                               Rect(-10, 40, 30, 110),
                               Rect(90, -5, 150, 20),
                               Rect(10, 10, 40, 60),
                               Rect(0, 0, 1, 1),
                               Rect(50, 50, 51, 51),
                               Rect(99, 99, 100, 100)};
  Rng rng(seed);
  for (int i = 0; i < 20; ++i) {
    double x = std::floor(rng.Uniform(-10, 100));
    double y = std::floor(rng.Uniform(-10, 100));
    double w = std::floor(rng.Uniform(1, 40));
    double h = std::floor(rng.Uniform(1, 40));
    windows.push_back(Rect(x, y, x + w, y + h));
  }
  return windows;
}

void ExpectSameCount(const PublicCountResult& a, const PublicCountResult& b) {
  EXPECT_EQ(a.answer.expected, b.answer.expected);
  EXPECT_EQ(a.answer.variance, b.answer.variance);
  EXPECT_EQ(a.answer.min_count, b.answer.min_count);
  EXPECT_EQ(a.answer.max_count, b.answer.max_count);
  EXPECT_EQ(a.answer.pmf, b.answer.pmf);
  EXPECT_EQ(a.naive_count, b.naive_count);
  ASSERT_EQ(a.contributions.size(), b.contributions.size());
  for (size_t i = 0; i < a.contributions.size(); ++i) {
    EXPECT_EQ(a.contributions[i].pseudonym, b.contributions[i].pseudonym);
    EXPECT_EQ(a.contributions[i].probability, b.contributions[i].probability);
  }
}

/// Checks one window on `db` and returns its library answer.
PublicCountResult CheckWindow(const CloakDbService& db, const Rect& window) {
  const QueryResponse envelope = db.ExecuteQuery(QueryRequest::Count(window));
  auto library = db.PublicCount(window);
  EXPECT_TRUE(envelope.ok()) << envelope.message;
  EXPECT_TRUE(library.ok());
  if (!envelope.ok() || !library.ok()) return {};
  const PublicCountResult& count = library.value();
  EXPECT_EQ(envelope.expected_count, count.answer.expected);
  EXPECT_EQ(envelope.count_min, static_cast<uint64_t>(count.answer.min_count));
  EXPECT_EQ(envelope.count_max, static_cast<uint64_t>(count.answer.max_count));

  EXPECT_TRUE(std::is_sorted(
      count.contributions.begin(), count.contributions.end(),
      [](const CountContribution& a, const CountContribution& b) {
        return a.pseudonym < b.pseudonym;
      }));
  auto direct = MakeCountAnswer(CountProbabilities(count.contributions));
  EXPECT_TRUE(direct.ok());
  if (!direct.ok()) return count;
  EXPECT_EQ(count.answer.pmf, direct.value().pmf);
  EXPECT_EQ(count.answer.expected, direct.value().expected);
  EXPECT_EQ(count.answer.variance, direct.value().variance);
  EXPECT_EQ(count.answer.pmf.size(), count.contributions.size() + 1);
  return count;
}

TEST(CountTwinTest, EnvelopeMatchesLibraryAndCacheChangesNothing) {
  size_t measure_zero_touches = 0;
  for (uint64_t seed : {1u, 2u, 3u}) {
    for (uint32_t shards : {1u, 2u, 4u}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << ", " << shards
                                      << " shards");
      auto cached = MakeService(shards, /*cache=*/true);
      auto uncached = MakeService(shards, /*cache=*/false);
      const std::vector<Rect> windows = Windows(seed);
      for (int round = 0; round < 2; ++round) {
        Report(cached.get(), seed, round);
        Report(uncached.get(), seed, round);
        // Twice per round: the second pass is served from the cache, the
        // first of round 1 after the moves invalidated it.
        for (int pass = 0; pass < 2; ++pass) {
          for (const Rect& window : windows) {
            SCOPED_TRACE(window.ToString());
            const PublicCountResult a = CheckWindow(*cached, window);
            const PublicCountResult b = CheckWindow(*uncached, window);
            ExpectSameCount(a, b);
            for (const CountContribution& c : a.contributions)
              measure_zero_touches += c.probability == 0.0;
          }
        }
      }
      EXPECT_GT(cached->metrics().CounterValue("cache.hits_total"), 0u);
    }
  }
  // The edge cases were reached: regions that touch a window and count 0.
  EXPECT_GT(measure_zero_touches, 0u);
}

TEST(CountTwinTest, ShardPartBooksStatsProbeTimeAndSpan) {
  constexpr uint32_t kShards = 4;
  for (bool cache : {false, true}) {
    SCOPED_TRACE(testing::Message() << "cache " << cache);
    auto db = MakeService(kShards, cache, /*traced=*/true);
    Report(db.get(), 5, 0);
    (void)db->tracer()->TakeCompletedSpans();
    const Rect window(10, 10, 60, 60);
    for (int i = 0; i < 2; ++i) {
      const QueryResponse response =
          db->ExecuteQuery(QueryRequest::Count(window));
      ASSERT_TRUE(response.ok());
    }
    // Each count is booked once, served from the shards' caches or not;
    // only a shard scan is timed and traced as a probe.
    const size_t scans = cache ? kShards : 2 * kShards;
    EXPECT_EQ(db->Stats().queries[static_cast<size_t>(QueryKind::kPublicCount)],
              2u);
    EXPECT_EQ(
        db->metrics().SnapshotHistogram("query.public_count.probe_us").count,
        scans);
    size_t probe_spans = 0;
    for (const obs::SpanRecord& span : db->tracer()->TakeCompletedSpans()) {
      if (std::strcmp(span.name, "index.probe") == 0) ++probe_spans;
    }
    EXPECT_EQ(probe_spans, scans);
  }
}

}  // namespace
}  // namespace cloakdb
