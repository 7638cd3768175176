// cloaksim — command-line day simulator for CloakDB.
//
// Drives the sharded CloakDbService through the full privacy pipeline
// (movement -> bounded ingest queues -> anonymizer shards -> fan-out
// queries with client-side refinement) and prints per-tick CSV metrics
// plus a per-stage latency summary sourced from the service's
// MetricsRegistry, so experiments can be scripted without writing C++.
//
// Usage:
//   cloaksim [--users=N] [--k=K] [--algorithm=naive|mbr|quadtree|grid|
//            multilevel-grid] [--shards=S] [--workers=W] [--ticks=T]
//            [--queries-per-tick=Q] [--pois=P] [--seed=S]
//            [--profile="08:00-17:00 k=1; ..."] [--metrics-json=PATH]
//            [--shared-exec] [--cache-capacity=N] [--batch-window-us=U]
//            [--trace-out=PATH] [--trace-jsonl=PATH] [--trace-sample=P]
//            [--monitor-json=PATH]
//            [--chaos] [--chaos-seed=S] [--fail-prob=P] [--delay-prob=P]
//            [--delay-us=U] [--stall-prob=P] [--stall-us=U]
//            [--deadline-us=U] [--max-qps=Q] [--shed-fraction=F]
//            [--overload-policy=reject|degrade]
//            [--continuous] [--standing=N] [--verify-sample=N]
//            [--durability=off|async|fsync] [--data-dir=DIR]
//            [--checkpoint-interval=N] [--chaos-kill] [--kill-cycles=N]
//            [--help]
//
// --shared-exec turns on the service's shared-execution engine (clustered
// probes + candidate cache); cloaked regions snap to grid cells, so nearby
// users naturally repeat cache keys. Accuracy columns must stay 1.0 either
// way — sharing is answer-invisible.
//
// --trace-out / --trace-jsonl enable end-to-end tracing and export the kept
// span trees at exit (Chrome trace-event JSON for chrome://tracing /
// ui.perfetto.dev, or one JSON object per line). --trace-sample sets the
// head-sampling probability; slow and audit-violating traces are tail-kept
// regardless. --monitor-json rewrites a status snapshot (atomically, via
// rename) once per tick — point `cloakmon` at it for a live view.
//
// --chaos turns on deterministic fault injection (probe failures, probe
// latency spikes, drain stalls — tune with --fail-prob / --delay-prob /
// --stall-prob and the matching *-us flags; --chaos-seed fixes the fault
// stream). --deadline-us / --max-qps / --shed-fraction arm the admission
// controller; --overload-policy picks rejection or degraded fan-out for
// queries caught by it. In chaos mode every degraded answer is verified to
// be a correct candidate superset restricted to its covered shards, and the
// run exits non-zero on any wrong answer or on a fault-count reconciliation
// mismatch — the chaos run is a checker, not just a load generator.
//
// --continuous switches to the standing-query workload: --standing queries
// (range / NN / k-NN round-robined over users, every 16th a count window)
// are registered up front and kept current by the update drains alone;
// each tick verifies --verify-sample of them against fresh one-shot
// queries and the run exits non-zero on any drift. The closing summary
// reports cq.affected_per_update against the registry size — the
// incremental-evaluation scaling claim in one number.
//
// --durability=async|fsync turns on the per-shard WAL + checkpoint engine
// under --data-dir for the normal simulation. --chaos-kill replaces the
// simulation with randomized kill/restart cycles: each cycle recovers from
// the previous cycle's mid-write crash, self-checks the recovered state
// (population, pseudonyms, cloaked regions, standing queries, query
// service), then arms the next storage crash point and dies on it. Exits
// non-zero on any recovered-state invariant violation.
//
// Output columns:
//   tick,users,updates_per_s,nn_acc,range_acc,knn_acc,
//   queue_wait_p95_us,range_p95_us
//
// Accuracy columns compare the refined candidate lists against brute-force
// ground truth over the full POI set; they must be 1.0 (the candidate-list
// guarantee) — anything less is a bug, not a tuning problem.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "server/private_queries.h"
#include "service/admin.h"
#include "service/cloak_db_service.h"
#include "sim/movement.h"
#include "sim/poi.h"
#include "sim/population.h"
#include "util/random.h"

namespace cloakdb {
namespace {

struct Args {
  size_t users = 2000;
  uint32_t k = 10;
  CloakingKind algorithm = CloakingKind::kGrid;
  uint32_t shards = 4;
  uint32_t workers = 0;  // 0 = one per shard
  size_t ticks = 10;
  size_t queries_per_tick = 50;
  size_t pois = 300;
  uint64_t seed = 42;
  bool shared_exec = false;
  size_t cache_capacity = 4096;
  uint64_t batch_window_us = 0;
  uint32_t signature_cells = 0;  // 0 = service default
  std::string profile;       // optional Parse()-format profile
  std::string metrics_json;  // optional JSON dump path
  std::string trace_out;     // Chrome trace-event JSON export path
  std::string trace_jsonl;   // JSONL span export path
  double trace_sample = 1.0;  // head-sampling probability
  std::string monitor_json;  // per-tick status snapshot for cloakmon
  // Continuous mode: register a standing-query population and verify
  // sampled standing answers against one-shot queries every tick.
  bool continuous = false;
  size_t standing = 1000;
  size_t verify_sample = 16;
  // Durability (see the header comment). chaos_kill switches to the
  // kill/restart self-check loop instead of the normal simulation.
  storage::DurabilityMode durability = storage::DurabilityMode::kOff;
  std::string data_dir;
  uint64_t checkpoint_interval = 4096;
  bool chaos_kill = false;
  size_t kill_cycles = 6;
  bool help = false;
  // Chaos / overload (see the header comment).
  bool chaos = false;
  uint64_t chaos_seed = 42;
  double fail_prob = 0.15;
  double delay_prob = 0.10;
  int64_t delay_us = 200;
  double stall_prob = 0.10;
  int64_t stall_us = 100;
  int64_t deadline_us = 0;
  double max_qps = 0.0;
  double shed_fraction = 0.0;
  OverloadPolicy overload_policy = OverloadPolicy::kDegrade;
};

bool ParseArg(const char* arg, const char* name, std::string* out) {
  std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) != 0) return false;
  *out = arg + prefix.size();
  return true;
}

Result<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseArg(argv[i], "users", &value)) {
      args.users = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseArg(argv[i], "k", &value)) {
      args.k = static_cast<uint32_t>(std::strtoul(value.c_str(), nullptr,
                                                  10));
    } else if (ParseArg(argv[i], "shards", &value)) {
      args.shards = static_cast<uint32_t>(std::strtoul(value.c_str(),
                                                       nullptr, 10));
    } else if (ParseArg(argv[i], "workers", &value)) {
      args.workers = static_cast<uint32_t>(std::strtoul(value.c_str(),
                                                        nullptr, 10));
    } else if (ParseArg(argv[i], "ticks", &value)) {
      args.ticks = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseArg(argv[i], "queries-per-tick", &value)) {
      args.queries_per_tick = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseArg(argv[i], "pois", &value)) {
      args.pois = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseArg(argv[i], "seed", &value)) {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--shared-exec") == 0) {
      args.shared_exec = true;
    } else if (ParseArg(argv[i], "cache-capacity", &value)) {
      args.cache_capacity = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseArg(argv[i], "batch-window-us", &value)) {
      args.batch_window_us = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseArg(argv[i], "signature-cells", &value)) {
      args.signature_cells =
          static_cast<uint32_t>(std::strtoul(value.c_str(), nullptr, 10));
    } else if (ParseArg(argv[i], "profile", &value)) {
      args.profile = value;
    } else if (ParseArg(argv[i], "metrics-json", &value)) {
      args.metrics_json = value;
    } else if (ParseArg(argv[i], "trace-out", &value)) {
      args.trace_out = value;
    } else if (ParseArg(argv[i], "trace-jsonl", &value)) {
      args.trace_jsonl = value;
    } else if (ParseArg(argv[i], "trace-sample", &value)) {
      args.trace_sample = std::strtod(value.c_str(), nullptr);
    } else if (ParseArg(argv[i], "monitor-json", &value)) {
      args.monitor_json = value;
    } else if (std::strcmp(argv[i], "--continuous") == 0) {
      args.continuous = true;
    } else if (ParseArg(argv[i], "standing", &value)) {
      args.standing = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseArg(argv[i], "verify-sample", &value)) {
      args.verify_sample = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseArg(argv[i], "durability", &value)) {
      auto mode = storage::DurabilityModeFromName(value);
      if (!mode.ok()) return mode.status();
      args.durability = mode.value();
    } else if (ParseArg(argv[i], "data-dir", &value)) {
      args.data_dir = value;
    } else if (ParseArg(argv[i], "checkpoint-interval", &value)) {
      args.checkpoint_interval = std::strtoull(value.c_str(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--chaos-kill") == 0) {
      args.chaos_kill = true;
    } else if (ParseArg(argv[i], "kill-cycles", &value)) {
      args.kill_cycles = std::strtoull(value.c_str(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--chaos") == 0) {
      args.chaos = true;
    } else if (ParseArg(argv[i], "chaos-seed", &value)) {
      args.chaos_seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseArg(argv[i], "fail-prob", &value)) {
      args.fail_prob = std::strtod(value.c_str(), nullptr);
    } else if (ParseArg(argv[i], "delay-prob", &value)) {
      args.delay_prob = std::strtod(value.c_str(), nullptr);
    } else if (ParseArg(argv[i], "delay-us", &value)) {
      args.delay_us = std::strtoll(value.c_str(), nullptr, 10);
    } else if (ParseArg(argv[i], "stall-prob", &value)) {
      args.stall_prob = std::strtod(value.c_str(), nullptr);
    } else if (ParseArg(argv[i], "stall-us", &value)) {
      args.stall_us = std::strtoll(value.c_str(), nullptr, 10);
    } else if (ParseArg(argv[i], "deadline-us", &value)) {
      args.deadline_us = std::strtoll(value.c_str(), nullptr, 10);
    } else if (ParseArg(argv[i], "max-qps", &value)) {
      args.max_qps = std::strtod(value.c_str(), nullptr);
    } else if (ParseArg(argv[i], "shed-fraction", &value)) {
      args.shed_fraction = std::strtod(value.c_str(), nullptr);
    } else if (ParseArg(argv[i], "overload-policy", &value)) {
      if (value == "reject") {
        args.overload_policy = OverloadPolicy::kReject;
      } else if (value == "degrade") {
        args.overload_policy = OverloadPolicy::kDegrade;
      } else {
        return Status::InvalidArgument(
            "overload-policy must be reject or degrade");
      }
    } else if (ParseArg(argv[i], "algorithm", &value)) {
      auto kind = CloakingKindFromName(value);
      if (!kind.ok()) return kind.status();
      args.algorithm = kind.value();
    } else if (std::strcmp(argv[i], "--help") == 0) {
      args.help = true;
      return args;
    } else {
      return Status::InvalidArgument(std::string("unknown flag: ") +
                                     argv[i]);
    }
  }
  if (args.users == 0) return Status::InvalidArgument("users must be >= 1");
  if (args.shards == 0) return Status::InvalidArgument("shards must be >= 1");
  if (args.trace_sample < 0.0 || args.trace_sample > 1.0)
    return Status::InvalidArgument("trace-sample must be in [0, 1]");
  if (args.continuous && args.standing == 0)
    return Status::InvalidArgument("standing must be >= 1");
  if (args.chaos_kill) {
    if (args.durability == storage::DurabilityMode::kOff)
      args.durability = storage::DurabilityMode::kFsync;
    if (args.data_dir.empty())
      return Status::InvalidArgument("--chaos-kill requires --data-dir");
    if (args.kill_cycles == 0)
      return Status::InvalidArgument("kill-cycles must be >= 1");
  }
  if (args.durability != storage::DurabilityMode::kOff &&
      args.data_dir.empty())
    return Status::InvalidArgument("--durability requires --data-dir");
  return args;
}

// Writes `contents` to `path` atomically: readers (cloakmon) either see the
// previous snapshot or this one, never a torn write.
bool WriteFileAtomic(const std::string& path, const std::string& contents) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok =
      std::fwrite(contents.data(), 1, contents.size(), f) == contents.size();
  std::fclose(f);
  if (!ok) {
    std::remove(tmp.c_str());
    return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

// The per-tick status snapshot cloakmon polls is the shared admin-plane
// document (service/admin.h) — the same shape cloakd serves over the wire.

// Brute-force ground truth over the retained POI copies: ids of all objects
// within `radius` of `from`.
std::set<ObjectId> ExactRangeIds(const std::vector<PublicObject>& pois,
                                 const Point& from, double radius) {
  std::set<ObjectId> ids;
  for (const auto& poi : pois) {
    if (Distance(poi.location, from) <= radius) ids.insert(poi.id);
  }
  return ids;
}

// Ids of the k nearest POIs (distance, then id — same tie-break the
// refinement helpers use).
std::set<ObjectId> ExactKnnIds(const std::vector<PublicObject>& pois,
                               const Point& from, size_t k) {
  std::vector<const PublicObject*> sorted;
  sorted.reserve(pois.size());
  for (const auto& poi : pois) sorted.push_back(&poi);
  std::sort(sorted.begin(), sorted.end(),
            [&](const PublicObject* a, const PublicObject* b) {
              double da = Distance(a->location, from);
              double db = Distance(b->location, from);
              if (da != db) return da < db;
              return a->id < b->id;
            });
  std::set<ObjectId> ids;
  for (size_t i = 0; i < std::min(k, sorted.size()); ++i)
    ids.insert(sorted[i]->id);
  return ids;
}

// Objects of `oracle` living on stripes marked covered in `covered_shards`
// (bitmap bit i = shard i; stripes past bit 63 count as uncovered).
std::vector<PublicObject> OnCoveredStripes(
    const CloakDbService& db, const std::vector<PublicObject>& oracle,
    uint64_t covered_shards) {
  std::vector<PublicObject> out;
  for (const auto& poi : oracle) {
    uint32_t stripe = db.ShardOfX(poi.location.x);
    if (stripe < 64 && (covered_shards & (uint64_t{1} << stripe)) != 0)
      out.push_back(poi);
  }
  return out;
}

// True iff every id of `required` appears in `candidates` — the degraded
// candidate-superset contract, with `required` already restricted to the
// covered stripes.
bool ContainsAll(const std::vector<PublicObject>& candidates,
                 const std::set<ObjectId>& required) {
  std::set<ObjectId> ids;
  for (const auto& o : candidates) ids.insert(o.id);
  for (ObjectId id : required) {
    if (ids.count(id) == 0) return false;
  }
  return true;
}

void PrintHistogramRow(const obs::MetricsRegistry& metrics,
                       const char* name) {
  auto snap = metrics.SnapshotHistogram(name);
  std::printf("# %-32s count=%-8llu p50=%-10.1f p95=%-10.1f p99=%.1f\n",
              name, static_cast<unsigned long long>(snap.count), snap.p50(),
              snap.p95(), snap.p99());
}

// Continuous-query mode: registers a standing population (range / NN /
// k-NN on round-robin users plus count windows), streams movement through
// the queued ingest path, and every tick verifies a sample of standing
// answers against fresh one-shot queries over the same applied state —
// range and count answers must match exactly, NN/k-NN candidates must
// contain the brute-force nearest objects of the issuer's true location.
// Exits non-zero on any mismatch; the closing summary shows that per-update
// work (cq.affected_per_update) stays far below the registry size.
int RunContinuous(const Args& args, CloakDbService& db,
                  RandomWaypointModel& movement,
                  const std::vector<UserId>& user_ids,
                  const std::vector<std::vector<PublicObject>>&
                      pois_by_category,
                  const std::vector<Category>& categories, Rng& rng,
                  TimeOfDay now) {
  const auto& metrics = db.metrics();
  // Everyone reports once so registrations have a cloaked region to
  // stand on.
  for (UserId user : user_ids) {
    auto st = db.EnqueueUpdate(user, movement.LocationOf(user).value(), now);
    if (!st.ok()) {
      std::fprintf(stderr, "seed update failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
  }
  if (auto st = db.Flush(); !st.ok()) {
    std::fprintf(stderr, "flush failed: %s\n", st.ToString().c_str());
    return 1;
  }

  struct StandingRef {
    ContinuousQueryId id = 0;
    QueryKind kind = QueryKind::kPrivateRange;
    UserId user = 0;
    double radius = 0.0;
    size_t k = 0;
    size_t cat_index = 0;
    Rect window;
  };
  constexpr double kStandingRadius = 8.0;
  constexpr size_t kStandingK = 3;
  std::vector<StandingRef> standing;
  standing.reserve(args.standing);
  const auto reg_begin = std::chrono::steady_clock::now();
  for (size_t i = 0; i < args.standing; ++i) {
    StandingRef ref;
    Result<ContinuousQueryId> id = Status::OK();
    if (i % 16 == 15) {
      ref.kind = QueryKind::kPublicCount;
      Point c{rng.Uniform(10, 90), rng.Uniform(10, 90)};
      ref.window = Rect::CenteredSquare(c, rng.Uniform(5, 25));
      id = db.RegisterContinuousCount(ref.window);
    } else {
      ref.user = user_ids[i % user_ids.size()];
      ref.cat_index = i % categories.size();
      const Category category = categories[ref.cat_index];
      switch (i % 3) {
        case 0:
          ref.kind = QueryKind::kPrivateRange;
          ref.radius = kStandingRadius;
          id = db.RegisterContinuousRange(ref.user, ref.radius, category);
          break;
        case 1:
          ref.kind = QueryKind::kPrivateNn;
          ref.k = 1;
          id = db.RegisterContinuousNn(ref.user, category);
          break;
        default:
          ref.kind = QueryKind::kPrivateKnn;
          ref.k = kStandingK;
          id = db.RegisterContinuousKnn(ref.user, kStandingK, category);
          break;
      }
    }
    if (!id.ok()) {
      std::fprintf(stderr, "standing registration %zu failed: %s\n", i,
                   id.status().ToString().c_str());
      return 1;
    }
    ref.id = id.value();
    standing.push_back(ref);
  }
  const double reg_s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - reg_begin)
                           .count();
  std::printf("# continuous: %zu standing queries registered in %.2fs "
              "(%.0f/s)\n",
              standing.size(), reg_s,
              reg_s > 0.0 ? static_cast<double>(standing.size()) / reg_s
                          : 0.0);

  std::printf(
      "tick,standing,updates_per_s,verified,mismatches,"
      "affected_p95,affected_max,refilters,full_reevals\n");
  uint64_t mismatches = 0;
  for (size_t tick = 1; tick <= args.ticks; ++tick) {
    movement.Step(1.0);
    const auto begin = std::chrono::steady_clock::now();
    for (UserId user : user_ids) {
      auto st =
          db.EnqueueUpdate(user, movement.LocationOf(user).value(), now);
      if (!st.ok()) {
        std::fprintf(stderr, "update failed: %s\n", st.ToString().c_str());
        return 1;
      }
    }
    if (auto st = db.Flush(); !st.ok()) {
      std::fprintf(stderr, "flush failed: %s\n", st.ToString().c_str());
      return 1;
    }
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - begin)
                               .count();

    size_t verified = 0;
    for (size_t v = 0; v < args.verify_sample; ++v) {
      const StandingRef& ref = standing[rng.NextBelow(standing.size())];
      auto answer = db.AnswerContinuous(ref.id);
      if (!answer.ok() || answer.value().stale) {
        ++mismatches;
        continue;
      }
      ++verified;
      if (ref.kind == QueryKind::kPublicCount) {
        auto oneshot = db.PublicCount(ref.window);
        if (!oneshot.ok() ||
            std::abs(answer.value().count.expected -
                     oneshot.value().answer.expected) > 1e-6 ||
            answer.value().count.min_count !=
                oneshot.value().answer.min_count ||
            answer.value().count.max_count !=
                oneshot.value().answer.max_count) {
          std::fprintf(stderr, "standing count %llu drifted from one-shot\n",
                       static_cast<unsigned long long>(ref.id));
          ++mismatches;
        }
        continue;
      }
      auto info = db.ContinuousInfo(ref.id);
      if (!info.ok()) {
        ++mismatches;
        continue;
      }
      std::set<ObjectId> ids;
      for (const auto& o : answer.value().candidates) ids.insert(o.id);
      const auto& oracle = pois_by_category[ref.cat_index];
      if (ref.kind == QueryKind::kPrivateRange) {
        auto oneshot = db.PrivateRange(info.value().region, ref.radius,
                                       categories[ref.cat_index]);
        std::set<ObjectId> oneshot_ids;
        if (oneshot.ok()) {
          for (const auto& o : oneshot.value().candidates)
            oneshot_ids.insert(o.id);
        }
        if (!oneshot.ok() || ids != oneshot_ids) {
          std::fprintf(stderr, "standing range %llu drifted from one-shot\n",
                       static_cast<unsigned long long>(ref.id));
          ++mismatches;
        }
      } else {
        // The candidate-list guarantee: the issuer's true nearest objects
        // must be present (the true location lies inside the region).
        const Point true_loc = movement.LocationOf(ref.user).value();
        for (ObjectId want : ExactKnnIds(oracle, true_loc, ref.k)) {
          if (ids.count(want) == 0) {
            std::fprintf(stderr,
                         "standing knn %llu lost a true neighbour\n",
                         static_cast<unsigned long long>(ref.id));
            ++mismatches;
            break;
          }
        }
      }
    }

    const auto affected = metrics.SnapshotHistogram("cq.affected_per_update");
    std::printf("%zu,%zu,%.0f,%zu,%llu,%.1f,%.1f,%llu,%llu\n", tick,
                standing.size(),
                elapsed > 0.0
                    ? static_cast<double>(user_ids.size()) / elapsed
                    : 0.0,
                verified, static_cast<unsigned long long>(mismatches),
                affected.p95(), affected.max,
                static_cast<unsigned long long>(
                    metrics.CounterValue("cq.incremental_refilters_total")),
                static_cast<unsigned long long>(
                    metrics.CounterValue("cq.full_reevals_total")));
    now = now.Plus(60);
  }

  const auto affected = metrics.SnapshotHistogram("cq.affected_per_update");
  std::printf("# --- continuous summary ---\n");
  std::printf("# cq.registered=%zu updates_seen=%llu\n",
              db.NumContinuousQueries(),
              static_cast<unsigned long long>(
                  metrics.CounterValue("cq.updates_seen_total")));
  std::printf(
      "# cq.affected_per_update: p50=%.1f p95=%.1f max=%.1f (registry "
      "size %zu)\n",
      affected.p50(), affected.p95(), affected.max, standing.size());
  std::printf(
      "# cq.incremental_refilters=%llu cq.full_reevals=%llu "
      "cq.stale_marked=%llu cq.count_delta_updates=%llu\n",
      static_cast<unsigned long long>(
          metrics.CounterValue("cq.incremental_refilters_total")),
      static_cast<unsigned long long>(
          metrics.CounterValue("cq.full_reevals_total")),
      static_cast<unsigned long long>(
          metrics.CounterValue("cq.stale_marked_total")),
      static_cast<unsigned long long>(
          metrics.CounterValue("cq.count_delta_updates_total")));
  if (!args.metrics_json.empty()) {
    std::FILE* f = std::fopen(args.metrics_json.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", args.metrics_json.c_str());
      return 1;
    }
    std::string json = metrics.ExportJson();
    std::fwrite(json.data(), 1, json.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
  }
  if (mismatches > 0) {
    std::fprintf(stderr,
                 "FAIL: %llu standing answers drifted from one-shot "
                 "ground truth\n",
                 static_cast<unsigned long long>(mismatches));
    return 1;
  }
  return 0;
}

// --- Chaos-kill: randomized crash/restart cycles --------------------------
//
// Each cycle opens the service over --data-dir, validates whatever the
// previous cycle's crash left behind, then arms a storage crash point and
// hammers updates until it fires. The fired crash freezes the durability
// engine exactly where a kill -9 would leave the file (torn frame, missing
// fsync, half-committed checkpoint); the service object is then discarded
// mid-flight and the next cycle must recover. Invariants checked at every
// recovery, against state the driver knows was durable before the first
// crash was armed (registrations + one applied update per user + the
// standing-query population, sealed with SyncWal()):
//   1. recovery is performed and error-free — corruption never panics;
//   2. the user population is exactly the seeded one;
//   3. pseudonyms are bit-stable across every kill/restart;
//   4. every user has a non-empty cloaked region inside the space;
//   5. the standing-query population survives with answerable queries;
//   6. the recovered service still answers one-shot queries and absorbs
//      new updates.
// Returns non-zero on any violation — like --chaos and --continuous, the
// kill loop is a checker, not just a load generator.
int RunChaosKill(const Args& args) {
  const Rect space(0.0, 0.0, 100.0, 100.0);
  const TimeOfDay noon = TimeOfDay::FromHms(12, 0).value();
  const Category category = poi_category::kGasStation;

  CloakDbServiceOptions options;
  options.space = space;
  options.num_shards = args.shards;
  options.worker_threads = args.workers;
  options.anonymizer.algorithm = args.algorithm;
  options.anonymizer.pseudonym_seed = args.seed;
  options.durability_mode = args.durability;
  options.data_dir = args.data_dir;
  options.checkpoint_interval = args.checkpoint_interval;
  // Crash points only — the probe/stall probabilities stay zero.
  options.fault_injection.enabled = true;
  options.fault_injection.seed = args.chaos_seed;

  const size_t users = std::max<size_t>(args.users, 4);
  const size_t standing = std::max<size_t>(std::min(args.standing, users), 1);
  const PrivacyProfile profile =
      PrivacyProfile::Uniform(
          {args.k, 0.0, std::numeric_limits<double>::infinity()})
          .value();
  Rng rng(args.seed ^ 0x6b696c6cULL);  // "kill"

  std::vector<ObjectId> stable_pseudonyms;
  uint64_t violations = 0;
  uint64_t crashes_fired = 0;
  uint64_t replayed_total = 0;
  auto violate = [&](size_t cycle, const std::string& what) {
    ++violations;
    std::fprintf(stderr, "chaos-kill violation (cycle %zu): %s\n", cycle,
                 what.c_str());
  };

  for (size_t cycle = 0; cycle < args.kill_cycles; ++cycle) {
    auto service = CloakDbService::Create(options);
    if (!service.ok()) {
      // A data directory no restart can open is the worst possible
      // outcome — report and stop, there is nothing left to cycle.
      violate(cycle, "service open failed: " + service.status().ToString());
      break;
    }
    CloakDbService& db = *service.value();

    if (cycle == 0) {
      // Seed the durable baseline the whole run is checked against.
      for (size_t i = 0; i < 16; ++i) {
        PublicObject object;
        object.id = 1000 + i;
        object.location = Point(rng.Uniform(5.0, 95.0), rng.Uniform(5.0, 95.0));
        object.category = category;
        object.name = "poi-" + std::to_string(i);
        if (!db.AddPublicObject(object).ok())
          violate(cycle, "seed AddPublicObject failed");
      }
      for (UserId u = 1; u <= users; ++u) {
        if (!db.RegisterUser(u, profile).ok())
          violate(cycle, "seed RegisterUser failed");
        (void)db.EnqueueUpdate(
            u, Point(rng.Uniform(1.0, 99.0), rng.Uniform(1.0, 99.0)), noon);
      }
      if (!db.Flush().ok()) violate(cycle, "seed Flush failed");
      for (size_t q = 0; q < standing; ++q) {
        auto id =
            (q % 4 == 3)
                ? db.RegisterContinuousCount(Rect(20.0, 20.0, 80.0, 80.0))
                : db.RegisterContinuousRange(
                      static_cast<UserId>(1 + q % users), 10.0, category);
        if (!id.ok()) violate(cycle, "seed standing registration failed");
      }
      // Seal the stable point: everything above must survive every kill.
      if (!db.SyncWal().ok()) violate(cycle, "SyncWal failed");
      for (UserId u = 1; u <= users; ++u)
        stable_pseudonyms.push_back(db.PseudonymOf(u).value());
    } else {
      const RecoveryInfo& info = db.recovery_info();
      replayed_total += info.replayed_records;
      if (!info.performed) violate(cycle, "recovery not performed");
      if (db.Stats().num_users != users)
        violate(cycle, "recovered " + std::to_string(db.Stats().num_users) +
                           " users, expected " + std::to_string(users));
      Rect probe_region;
      for (UserId u = 1; u <= users; ++u) {
        auto pseudonym = db.PseudonymOf(u);
        if (!pseudonym.ok() ||
            pseudonym.value() != stable_pseudonyms[u - 1]) {
          violate(cycle,
                  "pseudonym of user " + std::to_string(u) + " drifted");
          continue;
        }
        auto region = db.shard(db.ShardOfUser(u)).CurrentRegionOfUser(u);
        if (!region.ok() || region.value().IsEmpty() ||
            !space.Contains(region.value())) {
          violate(cycle, "user " + std::to_string(u) +
                             " has no valid cloaked region after recovery");
        } else if (u == 1) {
          probe_region = region.value();
        }
      }
      if (db.NumContinuousQueries() != standing)
        violate(cycle,
                "recovered " + std::to_string(db.NumContinuousQueries()) +
                    " standing queries, expected " + std::to_string(standing));
      for (ContinuousQueryId id = 1; id <= standing; ++id) {
        if (!db.AnswerContinuous(id).ok())
          violate(cycle, "standing query " + std::to_string(id) +
                             " unanswerable after recovery");
      }
      if (!probe_region.IsEmpty() &&
          !db.PrivateRange(probe_region, 10.0, category).ok())
        violate(cycle, "one-shot range query failed after recovery");
    }

    // Arm a crash and push updates until it fires. Rotating through the
    // five points covers the whole append -> fsync -> checkpoint window.
    storage::CrashPoint point = storage::CrashPoint::kNone;
    switch (cycle % 5) {
      case 0: point = storage::CrashPoint::kWalPreAppend; break;
      case 1: point = storage::CrashPoint::kWalTornTail; break;
      case 2: point = storage::CrashPoint::kWalPreFsync; break;
      case 3: point = storage::CrashPoint::kCheckpointMid; break;
      case 4: point = storage::CrashPoint::kCheckpointPreTruncate; break;
    }
    const bool checkpoint_crash =
        point == storage::CrashPoint::kCheckpointMid ||
        point == storage::CrashPoint::kCheckpointPreTruncate;
    // A drained update batch is one WAL record, so each Flush hits a WAL
    // point roughly once per shard — keep the countdown inside the hits
    // four bursts are guaranteed to produce.
    const uint64_t countdown =
        checkpoint_crash
            ? 1
            : 1 + static_cast<uint64_t>(
                      rng.UniformInt(0, 2 * static_cast<int>(args.shards)));
    db.fault_injector()->ArmCrash(point, countdown);
    for (size_t burst = 0; burst < 4 && !db.fault_injector()->crash_fired();
         ++burst) {
      for (UserId u = 1; u <= users; ++u) {
        (void)db.EnqueueUpdate(
            u, Point(rng.Uniform(1.0, 99.0), rng.Uniform(1.0, 99.0)), noon);
      }
      (void)db.Flush();
      if (checkpoint_crash) (void)db.Checkpoint();
    }
    if (db.fault_injector()->crash_fired()) {
      ++crashes_fired;
    } else {
      // Possible for fsync-site points under --durability=async; the
      // cycle degenerates to a clean restart, which is still a valid
      // (if weaker) recovery exercise.
      std::fprintf(stderr, "# chaos-kill: cycle %zu crash did not fire\n",
                   cycle);
    }
    // The service object goes away with writes in flight — the kill.
  }

  std::printf(
      "# chaos-kill: %zu cycles, %llu crashes fired, %llu wal records "
      "replayed, %llu violations\n",
      args.kill_cycles, static_cast<unsigned long long>(crashes_fired),
      static_cast<unsigned long long>(replayed_total),
      static_cast<unsigned long long>(violations));
  if (violations > 0) {
    std::fprintf(stderr,
                 "FAIL: %llu recovered-state invariant violations\n",
                 static_cast<unsigned long long>(violations));
    return 1;
  }
  return 0;
}

int Run(const Args& args) {
  if (args.chaos_kill) return RunChaosKill(args);
  const Rect space(0.0, 0.0, 100.0, 100.0);

  CloakDbServiceOptions options;
  options.space = space;
  options.num_shards = args.shards;
  options.worker_threads = args.workers;
  options.anonymizer.algorithm = args.algorithm;
  options.anonymizer.pseudonym_seed = args.seed;
  options.enable_shared_execution = args.shared_exec;
  options.cache_capacity = args.cache_capacity;
  options.batch_window_us = args.batch_window_us;
  options.durability_mode = args.durability;
  options.data_dir = args.data_dir;
  options.checkpoint_interval = args.checkpoint_interval;
  if (args.signature_cells > 0)
    options.signature_grid_cells = args.signature_cells;
  const bool tracing = !args.trace_out.empty() || !args.trace_jsonl.empty() ||
                       !args.monitor_json.empty();
  if (tracing) {
    options.trace.enabled = true;
    options.trace.sample_probability = args.trace_sample;
  }
  if (args.chaos) {
    options.fault_injection.enabled = true;
    options.fault_injection.seed = args.chaos_seed;
    options.fault_injection.probe_failure_probability = args.fail_prob;
    options.fault_injection.probe_delay_probability = args.delay_prob;
    options.fault_injection.probe_delay_us = args.delay_us;
    options.fault_injection.queue_stall_probability = args.stall_prob;
    options.fault_injection.queue_stall_us = args.stall_us;
  }
  options.overload.query_deadline_us = args.deadline_us;
  options.overload.max_queries_per_s = args.max_qps;
  options.overload.shed_queue_fraction = args.shed_fraction;
  options.overload.policy = args.overload_policy;
  const bool robustness_active = args.chaos || args.deadline_us > 0 ||
                                 args.max_qps > 0.0 ||
                                 args.shed_fraction > 0.0;
  auto service = CloakDbService::Create(options);
  if (!service.ok()) {
    std::fprintf(stderr, "service setup failed: %s\n",
                 service.status().ToString().c_str());
    return 1;
  }
  CloakDbService& db = *service.value();

  PrivacyProfile profile =
      PrivacyProfile::Uniform(
          {args.k, 0.0, std::numeric_limits<double>::infinity()})
          .value();
  if (!args.profile.empty()) {
    auto parsed = PrivacyProfile::Parse(args.profile);
    if (!parsed.ok()) {
      std::fprintf(stderr, "bad --profile: %s\n",
                   parsed.status().ToString().c_str());
      return 1;
    }
    profile = parsed.value();
  }

  Rng rng(args.seed);
  PopulationOptions pop;
  pop.num_users = args.users;
  pop.model = PopulationModel::kGaussianClusters;
  auto population = GeneratePopulation(space, pop, &rng);
  if (!population.ok()) {
    std::fprintf(stderr, "population setup failed: %s\n",
                 population.status().ToString().c_str());
    return 1;
  }
  RandomWaypointModel::Options move_options;
  move_options.seed = args.seed ^ 0x5eedULL;
  RandomWaypointModel movement(space, move_options);
  std::vector<UserId> user_ids;
  user_ids.reserve(population.value().size());
  for (const auto& entry : population.value()) {
    if (!db.RegisterUser(entry.id, profile).ok() ||
        !movement.AddUser(entry.id, entry.location).ok()) {
      std::fprintf(stderr, "user setup failed for id %llu\n",
                   static_cast<unsigned long long>(entry.id));
      return 1;
    }
    user_ids.push_back(entry.id);
  }

  // Public data: two categories, with copies retained as the brute-force
  // oracle the accuracy columns compare against.
  std::vector<std::vector<PublicObject>> pois_by_category;
  for (Category cat :
       {poi_category::kGasStation, poi_category::kRestaurant}) {
    PoiOptions poi_options;
    poi_options.count = args.pois;
    poi_options.category = cat;
    poi_options.name_prefix = "poi" + std::to_string(cat);
    poi_options.first_id = 1'000'000ULL + 1'000'000ULL * cat;
    auto pois = GeneratePois(space, poi_options, &rng);
    if (!pois.ok() ||
        !db.BulkLoadCategory(cat, pois.value()).ok()) {
      std::fprintf(stderr, "poi setup failed\n");
      return 1;
    }
    pois_by_category.push_back(std::move(pois).value());
  }
  const std::vector<Category> categories = {poi_category::kGasStation,
                                            poi_category::kRestaurant};

  TimeOfDay now = TimeOfDay::FromHms(12, 0).value();

  if (args.continuous)
    return RunContinuous(args, db, movement, user_ids, pois_by_category,
                         categories, rng, now);

  const auto& metrics = db.metrics();

  // Robustness accounting: every degraded answer is verified against
  // brute-force ground truth restricted to its covered stripes, so a chaos
  // run doubles as a correctness checker.
  uint64_t degraded_queries = 0, shed_queries = 0, failed_queries = 0,
           wrong_answers = 0;
  auto note_query_error = [&](const Status& status) {
    if (status.code() == StatusCode::kShed) {
      ++shed_queries;
    } else {
      // Injected failures, expired deadlines, zero-coverage degradation.
      ++failed_queries;
    }
  };

  std::printf(
      "tick,users,updates_per_s,nn_acc,range_acc,knn_acc,"
      "queue_wait_p95_us,range_p95_us\n");
  for (size_t tick = 1; tick <= args.ticks; ++tick) {
    movement.Step(1.0);
    auto begin = std::chrono::steady_clock::now();
    for (UserId user : user_ids) {
      auto st = db.EnqueueUpdate(user, movement.LocationOf(user).value(),
                                 now);
      if (!st.ok()) {
        // With load shedding armed, a typed shed status is the service
        // working as designed, not a failure.
        if (robustness_active && st.code() == StatusCode::kShed) {
          continue;
        }
        std::fprintf(stderr, "update failed: %s\n", st.ToString().c_str());
        return 1;
      }
    }
    if (auto st = db.Flush(); !st.ok()) {
      std::fprintf(stderr, "flush failed: %s\n", st.ToString().c_str());
      return 1;
    }
    double elapsed = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - begin)
                         .count();

    size_t nn_total = 0, nn_exact = 0;
    size_t range_total = 0, range_exact = 0;
    size_t knn_total = 0, knn_exact = 0;
    for (size_t q = 0; q < args.queries_per_tick; ++q) {
      UserId user = user_ids[rng.NextBelow(user_ids.size())];
      auto cloak = db.CloakForQuery(user, now);
      if (!cloak.ok()) {
        std::fprintf(stderr, "cloak failed: %s\n",
                     cloak.status().ToString().c_str());
        return 1;
      }
      const Rect region = cloak.value().cloaked.region;
      const Point true_loc = movement.LocationOf(user).value();
      const size_t cat_index = q % categories.size();
      const Category category = categories[cat_index];
      const auto& oracle = pois_by_category[cat_index];
      switch (q % 3) {
        case 0: {
          constexpr double kRadius = 10.0;
          auto result = db.PrivateRange(region, kRadius, category);
          if (!result.ok()) {
            note_query_error(result.status());
            break;
          }
          if (result.value().degraded) {
            ++degraded_queries;
            // The covered-stripe part of the true answer must survive.
            auto covered = OnCoveredStripes(db, oracle,
                                            result.value().covered_shards);
            if (!ContainsAll(result.value().candidates,
                             ExactRangeIds(covered, true_loc, kRadius)))
              ++wrong_answers;
            break;  // degraded answers stay out of the accuracy columns
          }
          auto refined = RefineRangeCandidates(result.value().candidates,
                                               true_loc, kRadius);
          std::set<ObjectId> ids;
          for (const auto& o : refined) ids.insert(o.id);
          ++range_total;
          if (ids == ExactRangeIds(oracle, true_loc, kRadius)) ++range_exact;
          break;
        }
        case 1: {
          auto result = db.PrivateNn(region, category);
          if (!result.ok()) {
            note_query_error(result.status());
            break;
          }
          if (result.value().degraded) {
            ++degraded_queries;
            auto covered = OnCoveredStripes(db, oracle,
                                            result.value().covered_shards);
            if (!ContainsAll(result.value().candidates,
                             ExactKnnIds(covered, true_loc, 1)))
              ++wrong_answers;
            break;
          }
          auto refined =
              RefineNnCandidates(result.value().candidates, true_loc);
          ++nn_total;
          if (refined.ok() &&
              ExactKnnIds(oracle, true_loc, 1).count(refined.value().id))
            ++nn_exact;
          break;
        }
        default: {
          constexpr size_t kKnn = 3;
          auto result = db.PrivateKnn(region, kKnn, category);
          if (!result.ok()) {
            note_query_error(result.status());
            break;
          }
          if (result.value().degraded) {
            ++degraded_queries;
            auto covered = OnCoveredStripes(db, oracle,
                                            result.value().covered_shards);
            if (!ContainsAll(result.value().candidates,
                             ExactKnnIds(covered, true_loc, kKnn)))
              ++wrong_answers;
            break;
          }
          auto refined = RefineKnnCandidates(result.value().candidates,
                                             true_loc, kKnn);
          std::set<ObjectId> ids;
          for (const auto& o : refined) ids.insert(o.id);
          ++knn_total;
          if (ids == ExactKnnIds(oracle, true_loc, kKnn)) ++knn_exact;
          break;
        }
      }
    }

    auto frac = [](size_t exact, size_t total) {
      return total == 0 ? 1.0
                        : static_cast<double>(exact) /
                              static_cast<double>(total);
    };
    std::printf("%zu,%zu,%.0f,%.4f,%.4f,%.4f,%.1f,%.1f\n", tick, args.users,
                elapsed > 0.0 ? static_cast<double>(args.users) / elapsed
                              : 0.0,
                frac(nn_exact, nn_total), frac(range_exact, range_total),
                frac(knn_exact, knn_total),
                metrics.SnapshotHistogram("ingest.queue_wait_us").p95(),
                metrics.SnapshotHistogram("query.private_range.latency_us")
                    .p95());
    if (!args.monitor_json.empty() &&
        !WriteFileAtomic(args.monitor_json,
                         BuildStatusJson(db, tick, args.ticks))) {
      std::fprintf(stderr, "cannot write %s\n", args.monitor_json.c_str());
      return 1;
    }
    now = now.Plus(60);
  }

  // Per-stage latency summary, straight from the MetricsRegistry.
  std::printf("# --- per-stage latency (us, cumulative) ---\n");
  for (const char* name :
       {"query.private_range.latency_us", "query.private_range.probe_us",
        "query.private_range.merge_us", "query.private_nn.latency_us",
        "query.private_nn.probe_us", "query.private_nn.merge_us",
        "query.private_knn.latency_us", "query.private_knn.probe_us",
        "query.private_knn.merge_us", "ingest.queue_wait_us",
        "ingest.cloak_us", "queue.blocked_push_us"}) {
    PrintHistogramRow(metrics, name);
  }
  if (args.shared_exec) {
    std::printf("# --- candidate cache ---\n");
    for (const char* name :
         {"cache.hits_total", "cache.misses_total", "cache.insertions_total",
          "cache.lru_evictions_total", "cache.invalidations_total"}) {
      std::printf("# %-32s %llu\n", name,
                  static_cast<unsigned long long>(
                      metrics.CounterValue(name)));
    }
    PrintHistogramRow(metrics, "query.shared.probe_us");
  }
  auto stats = db.Stats();
  for (const auto& q : stats.slow_queries) {
    std::printf("# slow: %-14s %10.1fus area=%-10.4g shards=%u "
                "candidates=%llu trace=%llu status=%s\n",
                q.kind.c_str(), q.latency_us, q.region_area,
                q.shards_touched,
                static_cast<unsigned long long>(q.candidates),
                static_cast<unsigned long long>(q.trace_id),
                to_string(q.error));
  }

  int exit_code = 0;
  if (robustness_active) {
    std::printf("# --- robustness ---\n");
    std::printf(
        "# robustness: degraded=%llu shed=%llu failed=%llu "
        "wrong_answers=%llu\n",
        static_cast<unsigned long long>(degraded_queries),
        static_cast<unsigned long long>(shed_queries),
        static_cast<unsigned long long>(failed_queries),
        static_cast<unsigned long long>(wrong_answers));
    std::printf(
        "# admission: queries_shed=%llu admitted_degraded=%llu "
        "updates_shed=%llu deadline_hits=%llu\n",
        static_cast<unsigned long long>(stats.robustness.queries_shed),
        static_cast<unsigned long long>(
            stats.robustness.queries_admitted_degraded),
        static_cast<unsigned long long>(stats.robustness.updates_shed),
        static_cast<unsigned long long>(stats.robustness.deadline_hits));
    if (wrong_answers > 0) {
      std::fprintf(stderr,
                   "FAIL: %llu degraded answers were not correct covered-"
                   "stripe supersets\n",
                   static_cast<unsigned long long>(wrong_answers));
      exit_code = 1;
    }
    if (const FaultInjector* injector = db.fault_injector();
        injector != nullptr) {
      // Three independent ledgers of the same events — the injector's own
      // counts, the fault.* metrics, and ServiceStats — must agree exactly.
      const bool reconciled =
          injector->probe_failures() ==
              metrics.CounterValue("fault.probe_failures_total") &&
          injector->probe_delays() ==
              metrics.CounterValue("fault.probe_delays_total") &&
          injector->queue_stalls() ==
              metrics.CounterValue("fault.queue_stalls_total") &&
          injector->probe_failures() ==
              stats.robustness.injected_probe_failures &&
          injector->probe_delays() ==
              stats.robustness.injected_probe_delays &&
          injector->queue_stalls() ==
              stats.robustness.injected_queue_stalls;
      std::printf("# faults: fail=%llu delay=%llu stall=%llu %s\n",
                  static_cast<unsigned long long>(injector->probe_failures()),
                  static_cast<unsigned long long>(injector->probe_delays()),
                  static_cast<unsigned long long>(injector->queue_stalls()),
                  reconciled ? "(reconciled)" : "(MISMATCH)");
      if (!reconciled) {
        std::fprintf(stderr,
                     "FAIL: injected fault counts do not reconcile with "
                     "metrics/stats\n");
        exit_code = 1;
      }
    }
  }

  if (!args.metrics_json.empty()) {
    std::FILE* f = std::fopen(args.metrics_json.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", args.metrics_json.c_str());
      return 1;
    }
    std::string json = metrics.ExportJson();
    std::fwrite(json.data(), 1, json.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
  }

  if (tracing && db.tracer() != nullptr) {
    const std::vector<obs::SpanRecord> spans =
        db.tracer()->TakeCompletedSpans();
    if (!args.trace_out.empty() &&
        !WriteFileAtomic(args.trace_out, obs::ExportChromeTrace(spans))) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
      return 1;
    }
    if (!args.trace_jsonl.empty() &&
        !WriteFileAtomic(args.trace_jsonl, obs::ExportJsonl(spans))) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_jsonl.c_str());
      return 1;
    }
    std::printf(
        "# trace: %zu spans exported, %llu traces kept, %llu dropped, "
        "%llu audit violations\n",
        spans.size(),
        static_cast<unsigned long long>(db.tracer()->kept_traces()),
        static_cast<unsigned long long>(db.tracer()->dropped_traces()),
        static_cast<unsigned long long>(
            db.tracer()->audit_violations_total()));
  }
  return exit_code;
}

}  // namespace
}  // namespace cloakdb

namespace {

void PrintUsage(std::FILE* out, const char* prog) {
  std::fprintf(
      out,
      "usage: %s [--users=N] [--k=K] [--algorithm=KIND] [--shards=S] "
      "[--workers=W] [--ticks=T] [--queries-per-tick=Q] [--pois=P] "
      "[--seed=S] [--profile=SPEC] [--metrics-json=PATH] "
      "[--shared-exec] [--cache-capacity=N] [--batch-window-us=U] "
      "[--trace-out=PATH] [--trace-jsonl=PATH] [--trace-sample=P] "
      "[--monitor-json=PATH] [--chaos] [--chaos-seed=S] [--fail-prob=P] "
      "[--delay-prob=P] [--delay-us=U] [--stall-prob=P] [--stall-us=U] "
      "[--deadline-us=U] [--max-qps=Q] [--shed-fraction=F] "
      "[--overload-policy=reject|degrade] "
      "[--continuous] [--standing=N] [--verify-sample=N] "
      "[--durability=off|async|fsync] [--data-dir=DIR] "
      "[--checkpoint-interval=N] [--chaos-kill] [--kill-cycles=N] [--help]\n"
      "  KIND: naive | mbr | quadtree | grid | multilevel-grid\n"
      "  SPEC: e.g. \"08:00-17:00 k=1; 17:00-22:00 k=100 amin=1\"\n",
      prog);
}

}  // namespace

int main(int argc, char** argv) {
  auto args = cloakdb::ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "%s\n", args.status().ToString().c_str());
    PrintUsage(stderr, argv[0]);
    return 2;
  }
  if (args.value().help) {
    PrintUsage(stdout, argv[0]);
    return 0;
  }
  return cloakdb::Run(args.value());
}
