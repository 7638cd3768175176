// End-to-end trace propagation through the service: every private query
// produces a rooted span tree covering admission -> fan-out -> per-shard
// probe -> merge, and cloaks carry privacy-audit events.

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <map>
#include <vector>

#include "obs/trace.h"
#include "service/cloak_db_service.h"
#include "sim/poi.h"
#include "util/random.h"

namespace cloakdb {
namespace {

constexpr Category kCat = poi_category::kGasStation;

CloakDbServiceOptions TracedOptions(uint32_t shards) {
  CloakDbServiceOptions options;
  options.space = Rect(0, 0, 100, 100);
  options.num_shards = shards;
  options.trace.enabled = true;
  options.trace.sample_probability = 1.0;
  options.trace.slow_trace_us = 0.0;
  return options;
}

std::unique_ptr<CloakDbService> MakeService(
    const CloakDbServiceOptions& options, size_t pois) {
  auto service = CloakDbService::Create(options);
  EXPECT_TRUE(service.ok());
  Rng rng(7);
  PoiOptions poi_options;
  poi_options.count = pois;
  poi_options.category = kCat;
  poi_options.name_prefix = "poi";
  auto generated = GeneratePois(options.space, poi_options, &rng);
  EXPECT_TRUE(generated.ok());
  EXPECT_TRUE(
      service.value()->BulkLoadCategory(kCat, generated.value()).ok());
  return std::move(service).value();
}

using SpansByTrace = std::map<uint64_t, std::vector<obs::SpanRecord>>;

SpansByTrace GroupByTrace(const std::vector<obs::SpanRecord>& spans) {
  SpansByTrace by_trace;
  for (const auto& span : spans) by_trace[span.trace_id].push_back(span);
  return by_trace;
}

const obs::SpanRecord* FindByName(const std::vector<obs::SpanRecord>& spans,
                                  const char* name) {
  for (const auto& span : spans) {
    if (std::strcmp(span.name, name) == 0) return &span;
  }
  return nullptr;
}

TEST(TracePropagationTest, PrivateRangeProducesRootedTree) {
  auto db = MakeService(TracedOptions(4), 100);
  ASSERT_TRUE(db->PrivateRange(Rect(10, 10, 40, 40), 5.0, kCat).ok());

  auto by_trace = GroupByTrace(db->tracer()->TakeCompletedSpans());
  ASSERT_EQ(by_trace.size(), 1u);
  const auto& spans = by_trace.begin()->second;

  const obs::SpanRecord* root = FindByName(spans, "query.private_range");
  const obs::SpanRecord* fanout = FindByName(spans, "fanout");
  const obs::SpanRecord* probe = FindByName(spans, "shard.probe");
  const obs::SpanRecord* merge = FindByName(spans, "merge");
  ASSERT_NE(root, nullptr);
  ASSERT_NE(fanout, nullptr);
  ASSERT_NE(probe, nullptr);
  ASSERT_NE(merge, nullptr);
  EXPECT_EQ(root->parent_id, 0u);
  EXPECT_EQ(fanout->parent_id, root->span_id);
  EXPECT_EQ(probe->parent_id, fanout->span_id);
  EXPECT_EQ(merge->parent_id, root->span_id);
  // Every span resolves to the root through recorded parents.
  std::map<uint64_t, const obs::SpanRecord*> by_id;
  for (const auto& span : spans) by_id[span.span_id] = &span;
  for (const auto& span : spans) {
    if (span.parent_id == 0) continue;
    EXPECT_TRUE(by_id.count(span.parent_id))
        << span.name << " has an unrecorded parent";
  }
}

TEST(TracePropagationTest, CloakSpansCarryAuditEvents) {
  CloakDbServiceOptions options = TracedOptions(2);
  auto db = MakeService(options, 20);
  PrivacyProfile profile =
      PrivacyProfile::Uniform(
          {3, 0.0, std::numeric_limits<double>::infinity()})
          .value();
  const TimeOfDay now = TimeOfDay::FromHms(12, 0).value();
  Rng rng(11);
  for (UserId user = 1; user <= 8; ++user) {
    ASSERT_TRUE(db->RegisterUser(user, profile).ok());
    ASSERT_TRUE(db
                    ->UpdateLocation(user,
                                     Point(rng.Uniform(0, 100),
                                           rng.Uniform(0, 100)),
                                     now)
                    .ok());
  }
  ASSERT_TRUE(db->CloakForQuery(1, now).ok());

  auto spans = db->tracer()->TakeCompletedSpans();
  size_t cloak_spans = 0, audits = 0;
  for (const auto& span : spans) {
    if (std::strcmp(span.name, "cloak") != 0) continue;
    ++cloak_spans;
    if (span.has_audit) {
      ++audits;
      EXPECT_EQ(span.audit.requested_k, 3u);
      EXPECT_GT(span.audit.area, 0.0);
    }
  }
  // 8 updates + 1 query-time cloak, every one audited.
  EXPECT_EQ(cloak_spans, 9u);
  EXPECT_EQ(audits, cloak_spans);
}

TEST(TracePropagationTest, SlowQueryLogLinksTraceIds) {
  CloakDbServiceOptions options = TracedOptions(2);
  options.slow_query_log_capacity = 8;
  auto db = MakeService(options, 50);
  ASSERT_TRUE(db->PrivateRange(Rect(5, 5, 30, 30), 5.0, kCat).ok());
  ASSERT_TRUE(db->PrivateNn(Rect(40, 40, 60, 60), kCat).ok());

  auto spans = db->tracer()->TakeCompletedSpans();
  auto stats = db->Stats();
  ASSERT_FALSE(stats.slow_queries.empty());
  for (const auto& slow : stats.slow_queries) {
    EXPECT_NE(slow.trace_id, 0u);
    // The logged trace id resolves to an exported root span of the same
    // query kind.
    const obs::SpanRecord* root = nullptr;
    for (const auto& span : spans) {
      if (span.trace_id == slow.trace_id && span.parent_id == 0)
        root = &span;
    }
    ASSERT_NE(root, nullptr);
    EXPECT_EQ(std::string(root->name), "query." + slow.kind);
  }
  EXPECT_GT(db->Stats().uptime_us, 0u);
  EXPECT_GT(db->Stats().snapshot_unix_us, 0);
}

}  // namespace
}  // namespace cloakdb
