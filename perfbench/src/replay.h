// Single-threaded replays of recorded inputs, the traced run's way of
// attributing time to layers without instrumenting src/: each replay times
// calls into one module's public functions on the same data the live run
// used.
//
//   query:  CloakDbService::ExecuteQuery (service)
//           -> Shard::Private*/PublicCount per touched stripe (service)
//           -> QueryProcessor::Private*/PublicCount on per-stripe copies
//              of the public and private data (server)
//           -> StaticRTree::RangeSearchInto / NearestDistance / KNearest
//              on per-stripe trees (index)
//           + AppendQueryFrame/DecodeQueryPayload/AppendResponseFrame/
//             DecodeResponsePayload on the pair (net)
//   wave:   Anonymizer::UpdateLocationsBatch on per-shard standalone
//           anonymizers fed the same waves (core)
//           -> QueryProcessor::ApplyCloakedUpdate of the results (server)
//
// Single-threaded replays count work deterministically, so their counters
// are exact: they repeat bit for bit at the same seed.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <memory>
#include <vector>

#include "core/anonymizer.h"
#include "server/query_processor.h"
#include "spans.h"
#include "world.h"

namespace perfbench {

/// One replayed query.
struct QueryReplay {
  bool private_kind = false;
  cloakdb::QueryKind kind = cloakdb::QueryKind::kPrivateRange;
  double exec_us = 0.0;   ///< ExecuteQuery.
  double shard_us = 0.0;  ///< Sum of Shard probes.
  double qp_us = 0.0;     ///< Sum of QueryProcessor probes.
  double index_us = 0.0;  ///< Sum of StaticRTree calls.
  double index_range_us = 0.0;   ///< RangeSearchInto calls.
  double index_corner_us = 0.0;  ///< NearestDistance/KNearest calls.
  double codec_us = 0.0;
  uint32_t shards_touched = 0;
  uint32_t range_probes = 0;
  uint32_t corner_probes = 0;
  uint64_t index_results = 0;  ///< Entries returned by RangeSearchInto.
  uint64_t candidates = 0;
  uint64_t pruned = 0;
  double fetch_radius = 0.0;
  size_t response_bytes = 0;  ///< Encoded response frame.
};

class QueryReplayer {
 public:
  /// Copies the service's public data and current private regions into
  /// per-stripe QueryProcessors and StaticRTrees.
  QueryReplayer(const Inputs& inputs, const cloakdb::CloakDbService& service);

  QueryReplay Replay(const cloakdb::QueryRequest& request, uint64_t request_id,
                     SpanRecorder* spans);

 private:
  /// Stripes the service fans a query out to (the same rule as
  /// CloakDbService: extended-region overlap for ranges, home stripes plus
  /// the dominance-bound check for NN/kNN, every shard for counts).
  std::vector<uint32_t> Touched(const cloakdb::QueryRequest& request,
                                SpanRecorder* spans, int64_t parent,
                                uint64_t request_id, QueryReplay* out);
  double StripeMinDist(uint32_t stripe, const cloakdb::Rect& region) const;

  const cloakdb::CloakDbService& service_;
  std::vector<std::unique_ptr<cloakdb::QueryProcessor>> processors_;
  std::vector<cloakdb::StaticRTree> trees_;
  std::vector<double> lo_, hi_;
};

/// One replayed wave: per-shard cloak and apply times.
struct WaveReplay {
  double core_us = 0.0;        ///< Slowest shard's cloaking (the shards drain in parallel).
  double server_us = 0.0;      ///< Slowest shard's ApplyCloakedUpdate loop.
  double core_total_us = 0.0;  ///< All shards' cloaking.
  uint64_t updates = 0;
};

class WaveReplayer {
 public:
  /// Per-shard anonymizers with the service's options, holding the same
  /// users with the same set-up reports.
  WaveReplayer(const Inputs& inputs, const cloakdb::CloakDbService& service);

  /// Replays one wave; waves must be replayed in the order they ran.
  WaveReplay Replay(const Wave& wave, uint64_t request_id, SpanRecorder* spans);

 private:
  struct ShardReplica {
    std::unique_ptr<cloakdb::Anonymizer> anonymizer;
    std::unique_ptr<cloakdb::QueryProcessor> processor;
  };
  void Apply(ShardReplica* replica,
             const std::vector<std::pair<cloakdb::UserId, cloakdb::Point>>& batch,
             uint64_t request_id, SpanRecorder* spans, double* cloak_us,
             double* apply_us);

  const cloakdb::CloakDbService& service_;
  std::vector<ShardReplica> replicas_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
