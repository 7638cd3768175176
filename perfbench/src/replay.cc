#include "replay.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "geom/distance.h"
#include "net/protocol.h"

namespace perfbench {

using namespace cloakdb;

namespace {

double HalfDiagonal(const Rect& r) {
  return 0.5 * std::sqrt(r.Width() * r.Width() + r.Height() * r.Height());
}

PublicCategoryIndex::Config StaticConfig() {
  PublicCategoryIndex::Config config;
  config.mode = PublicIndexMode::kStatic;
  return config;
}

/// Times `fn` and records it as a span.
template <typename Fn>
double Timed(SpanRecorder* spans, const char* name, int64_t parent,
             uint64_t request, Fn&& fn, int64_t* index = nullptr) {
  const Clock::time_point t0 = Clock::now();
  fn();
  const Clock::time_point t1 = Clock::now();
  const int64_t id = spans->Record(name, t0, t1, parent, request);
  if (index != nullptr) *index = id;
  return UsBetween(t0, t1);
}

}  // namespace

QueryReplayer::QueryReplayer(const Inputs& inputs,
                             const CloakDbService& service)
    : service_(service) {
  const uint32_t n = service.num_shards();
  const Rect space = service.options().space;
  std::vector<std::vector<PublicObject>> objects(n);
  std::vector<std::vector<PointEntry>> entries(n);
  for (const PublicObject& p : inputs.pois) {
    const uint32_t s = service.ShardOfX(p.location.x);
    objects[s].push_back(p);
    entries[s].push_back({p.id, p.location});
  }
  const double width = space.Width() / n;
  for (uint32_t s = 0; s < n; ++s) {
    auto qp = std::make_unique<QueryProcessor>(
        space, service.options().rect_grid_cells, service.options().wire_cost,
        StaticConfig());
    (void)qp->store().BulkLoadCategory(kCategory, std::move(objects[s]));
    processors_.push_back(std::move(qp));
    trees_.push_back(StaticRTree::Build(std::move(entries[s])).value());
    lo_.push_back(s == 0 ? space.min_x : space.min_x + width * s);
    hi_.push_back(s + 1 == n ? space.max_x : space.min_x + width * (s + 1));
  }
  for (UserId user = 1; user <= inputs.start.size(); ++user) {
    const uint32_t s = service.ShardOfUser(user);
    auto pseudonym = service.PseudonymOf(user);
    auto region = service.shard(s).CurrentRegionOfUser(user);
    if (pseudonym.ok() && region.ok())
      (void)processors_[s]->ApplyCloakedUpdate(pseudonym.value(),
                                               region.value());
  }
}

double QueryReplayer::StripeMinDist(uint32_t stripe, const Rect& region) const {
  return std::max({0.0, lo_[stripe] - region.max_x,
                   region.min_x - hi_[stripe]});
}

std::vector<uint32_t> QueryReplayer::Touched(const QueryRequest& request,
                                             SpanRecorder* spans,
                                             int64_t parent,
                                             uint64_t request_id,
                                             QueryReplay* out) {
  const uint32_t n = service_.num_shards();
  std::vector<uint32_t> touched;
  const Rect& cloaked = request.region;
  auto probe = [&](uint32_t s, std::vector<PublicObject>* candidates) {
    const Shard& shard = service_.shard(s);
    out->shard_us += Timed(spans, "service.shard_probe", parent, request_id,
                           [&] {
      switch (request.kind) {
        case QueryKind::kPrivateRange: {
          auto r = shard.PrivateRange(cloaked, request.radius,
                                      request.category,
                                      request.range_options());
          if (r.ok() && candidates) *candidates = std::move(r.value().candidates);
          break;
        }
        case QueryKind::kPrivateNn: {
          auto r = shard.PrivateNn(cloaked, request.category);
          if (r.ok() && candidates) *candidates = std::move(r.value().candidates);
          break;
        }
        case QueryKind::kPrivateKnn: {
          auto r = shard.PrivateKnn(cloaked, request.k, request.category);
          if (r.ok() && candidates) *candidates = std::move(r.value().candidates);
          break;
        }
        default:
          (void)shard.PublicCount(request.region);
          break;
      }
    });
    touched.push_back(s);
  };
  switch (request.kind) {
    case QueryKind::kPrivateRange: {
      const Rect ext = cloaked.Expanded(request.radius);
      for (uint32_t s = service_.ShardOfX(ext.min_x);
           s <= service_.ShardOfX(ext.max_x); ++s)
        probe(s, nullptr);
      break;
    }
    case QueryKind::kPrivateNn:
    case QueryKind::kPrivateKnn: {
      const uint32_t first = service_.ShardOfX(cloaked.min_x);
      const uint32_t last = service_.ShardOfX(cloaked.max_x);
      std::vector<double> max_dists;
      for (uint32_t s = first; s <= last; ++s) {
        std::vector<PublicObject> part;
        probe(s, &part);
        for (const PublicObject& c : part)
          max_dists.push_back(MaxDist(c.location, cloaked));
      }
      const size_t k = request.kind == QueryKind::kPrivateNn ? 1 : request.k;
      double bound = std::numeric_limits<double>::infinity();
      if (max_dists.size() >= k) {
        std::nth_element(max_dists.begin(), max_dists.begin() + (k - 1),
                         max_dists.end());
        bound = max_dists[k - 1];
      }
      for (uint32_t s = 0; s < n; ++s) {
        if (s >= first && s <= last) continue;
        if (StripeMinDist(s, cloaked) > bound) continue;
        probe(s, nullptr);
      }
      break;
    }
    default:
      for (uint32_t s = 0; s < n; ++s) probe(s, nullptr);
      break;
  }
  return touched;
}

QueryReplay QueryReplayer::Replay(const QueryRequest& request,
                                  uint64_t request_id, SpanRecorder* spans) {
  QueryReplay out;
  out.kind = request.kind;
  out.private_kind = request.kind != QueryKind::kPublicCount;
  QueryResponse response;
  int64_t exec_span = -1;
  out.exec_us = Timed(spans, "service.exec", -1, request_id,
                      [&] { response = service_.ExecuteQuery(request); },
                      &exec_span);
  out.candidates = response.candidates.size();
  out.pruned = response.pruned;
  out.fetch_radius = response.fetch_radius;

  const std::vector<uint32_t> touched =
      Touched(request, spans, exec_span, request_id, &out);
  out.shards_touched = static_cast<uint32_t>(touched.size());

  const Rect& cloaked = request.region;
  std::vector<PointEntry> hits;
  for (uint32_t s : touched) {
    const QueryProcessor& qp = *processors_[s];
    int64_t qp_span = -1;
    out.qp_us += Timed(spans, "server.probe", exec_span, request_id, [&] {
      switch (request.kind) {
        case QueryKind::kPrivateRange:
          (void)qp.PrivateRange(cloaked, request.radius, request.category,
                                request.range_options());
          break;
        case QueryKind::kPrivateNn:
          (void)qp.PrivateNn(cloaked, request.category);
          break;
        case QueryKind::kPrivateKnn:
          (void)qp.PrivateKnn(cloaked, request.k, request.category);
          break;
        default:
          (void)qp.PublicCount(request.region);
          break;
      }
    }, &qp_span);
    if (!out.private_kind) continue;

    // The index calls that probe makes: corner probes bound the fetch
    // radius of NN/kNN, then one window search fetches the candidates.
    const StaticRTree& tree = trees_[s];
    if (tree.size() == 0) continue;
    Rect window = cloaked.Expanded(request.radius);
    if (request.kind != QueryKind::kPrivateRange) {
      double reach = 0.0;
      const size_t k = request.kind == QueryKind::kPrivateNn ? 1 : request.k;
      if (tree.size() <= k) continue;
      const double us = Timed(spans, "index.corner_knn", qp_span, request_id,
                              [&] {
        for (const Point& corner : cloaked.Corners()) {
          const double d =
              k == 1 ? tree.NearestDistance(corner, nullptr)
                     : Distance(corner,
                                tree.KNearest(corner, k, nullptr).back().location);
          reach = std::max(reach, d);
        }
      });
      out.index_corner_us += us;
      out.index_us += us;
      ++out.corner_probes;
      window = cloaked.Expanded(reach + HalfDiagonal(cloaked));
    }
    hits.clear();
    const double us = Timed(spans, "index.range", qp_span, request_id,
                            [&] { tree.RangeSearchInto(window, nullptr, &hits); });
    out.index_range_us += us;
    out.index_us += us;
    ++out.range_probes;
    out.index_results += hits.size();
  }

  std::string query_frame, response_frame;
  out.codec_us = Timed(spans, "net.codec", exec_span, request_id, [&] {
    net::AppendQueryFrame(1, request, &query_frame);
    QueryRequest decoded_request;
    (void)net::DecodeQueryPayload(
        reinterpret_cast<const uint8_t*>(query_frame.data()) +
            net::kFrameHeaderSize,
        query_frame.size() - net::kFrameHeaderSize, &decoded_request);
    net::AppendResponseFrame(1, response, &response_frame);
    QueryResponse decoded_response;
    (void)net::DecodeResponsePayload(
        reinterpret_cast<const uint8_t*>(response_frame.data()) +
            net::kFrameHeaderSize,
        response_frame.size() - net::kFrameHeaderSize, &decoded_response);
  });
  out.response_bytes = response_frame.size();
  return out;
}

WaveReplayer::WaveReplayer(const Inputs& inputs, const CloakDbService& service)
    : service_(service) {
  const uint32_t n = service.num_shards();
  AnonymizerOptions options = service.options().anonymizer;
  options.space = service.options().space;
  std::vector<std::vector<std::pair<UserId, Point>>> first(n);
  for (uint32_t s = 0; s < n; ++s) {
    ShardReplica replica;
    replica.anonymizer = Anonymizer::Create(options).value();
    replica.processor = std::make_unique<QueryProcessor>(
        options.space, service.options().rect_grid_cells);
    replicas_.push_back(std::move(replica));
  }
  for (UserId user = 1; user <= inputs.start.size(); ++user) {
    const uint32_t s = service.ShardOfUser(user);
    const PrivacyProfile profile =
        PrivacyProfile::Uniform(
            {inputs.k[user - 1], 0.0, std::numeric_limits<double>::infinity()})
            .value();
    (void)replicas_[s].anonymizer->RegisterUser(user, profile);
    first[s].emplace_back(user, inputs.start[user - 1]);
  }
  SpanRecorder untraced(false);
  double ignored_cloak = 0.0, ignored_apply = 0.0;
  for (uint32_t s = 0; s < n; ++s)
    Apply(&replicas_[s], first[s], 0, &untraced, &ignored_cloak,
          &ignored_apply);
}

void WaveReplayer::Apply(ShardReplica* replica,
                         const std::vector<std::pair<UserId, Point>>& batch,
                         uint64_t request_id, SpanRecorder* spans,
                         double* cloak_us, double* apply_us) {
  // The service drains a shard in batches of at most max_batch updates.
  const size_t max_batch = service_.options().max_batch;
  std::vector<std::pair<UserId, Point>> chunk;
  for (size_t off = 0; off < batch.size(); off += max_batch) {
    chunk.assign(batch.begin() + off,
                 batch.begin() + std::min(batch.size(), off + max_batch));
    std::optional<Result<std::vector<CloakedUpdate>>> cloaked;
    *cloak_us += Timed(spans, "core.update_batch", -1, request_id, [&] {
      cloaked.emplace(replica->anonymizer->UpdateLocationsBatch(chunk, Noon()));
    });
    if (!cloaked->ok()) continue;
    *apply_us += Timed(spans, "server.apply_batch", -1, request_id, [&] {
      for (const CloakedUpdate& u : cloaked->value()) {
        if (u.retired_pseudonym != 0)
          (void)replica->processor->DropPseudonym(u.retired_pseudonym);
        (void)replica->processor->ApplyCloakedUpdate(u.pseudonym,
                                                     u.cloaked.region);
      }
    });
  }
}

WaveReplay WaveReplayer::Replay(const Wave& wave, uint64_t request_id,
                                SpanRecorder* spans) {
  const uint32_t n = service_.num_shards();
  std::vector<std::vector<std::pair<UserId, Point>>> parts(n);
  for (const auto& update : wave)
    parts[service_.ShardOfUser(update.first)].push_back(update);
  WaveReplay out;
  out.updates = wave.size();
  for (uint32_t s = 0; s < n; ++s) {
    double cloak = 0.0, apply = 0.0;
    Apply(&replicas_[s], parts[s], request_id, spans, &cloak, &apply);
    out.core_us = std::max(out.core_us, cloak);
    out.server_us = std::max(out.server_us, apply);
    out.core_total_us += cloak;
  }
  return out;
}

}  // namespace perfbench
