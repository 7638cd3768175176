// cloakd — the CloakDB network daemon.
//
// Boots a sharded CloakDbService over a seeded world (POIs + registered
// users with cloaked positions), puts it on the wire with net::CloakServer,
// and runs until SIGINT/SIGTERM. Everything a query needs — admission
// control, deadlines, degradation, tracing — runs behind the same
// ExecuteQuery entry point in-process callers use, so cloakd adds only
// the wire.
//
// Usage:
//   cloakd [--host=ADDR] [--port=P] [--port-file=PATH]
//          [--query-threads=N] [--max-pipeline=N]
//          [--write-buffer-limit=BYTES] [--force-poll]
//          [--shards=S] [--workers=W] [--pois=P] [--users=N] [--k=K]
//          [--seed=S] [--metrics-json=PATH] [--trace-sample=P]
//          [--deadline-us=U] [--max-qps=Q] [--burst=B]
//          [--shed-fraction=F] [--overload-policy=reject|degrade]
//          [--durability=off|async|fsync] [--data-dir=DIR]
//          [--checkpoint-interval=N] [--recover]
//          [--admin-dump-interval=S] [--recorder-dump=PATH]
//          [--window-interval-ms=MS] [--help]
//
// --port=0 (the default) binds an ephemeral port; --port-file writes the
// chosen port to PATH (atomically, via rename) so scripts and cloakload
// can find the server without racing the log. --metrics-json dumps the
// full MetricsRegistry (service + net.*) on shutdown. The overload flags
// arm the admission controller exactly as cloaksim's do; past saturation
// cloakd answers with typed in-band shed/degraded verdicts instead of
// queueing without bound.
//
// --durability=async|fsync turns on the per-shard WAL + checkpoint engine
// under --data-dir (required then). --recover skips the seeded world and
// serves whatever the data directory holds — the restart half of a
// kill -9 / restart cycle; a recovery summary line is printed before the
// server binds. On clean shutdown cloakd checkpoints every shard so the
// next start replays an empty WAL.
//
// Live telemetry: every connection can send kAdminRequest frames (poll
// them remotely with `cloakmon --connect`). --admin-dump-interval=S
// additionally prints a status summary to stderr every S seconds.
// --recorder-dump=PATH installs fatal-signal handlers that write the
// flight-recorder ring to PATH before the process dies, so a crash leaves
// a parseable last-moments record. --window-interval-ms tunes the
// windowed-metrics snapshot cadence (0 disables the ticker).

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "net/server.h"
#include "obs/flight_recorder.h"
#include "service/cloak_db_service.h"
#include "service/service_stats.h"
#include "sim/poi.h"
#include "util/atomic_file.h"
#include "util/random.h"

namespace cloakdb {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Args {
  net::CloakServerOptions server;
  std::string port_file;
  uint32_t shards = 4;
  uint32_t workers = 0;
  size_t pois = 1000;
  size_t users = 500;
  uint32_t k = 10;
  uint64_t seed = 42;
  std::string metrics_json;
  double trace_sample = 0.0;  // 0 disables tracing
  int64_t deadline_us = 0;
  double max_qps = 0.0;
  double burst = 0.0;
  double shed_fraction = 0.0;
  OverloadPolicy overload_policy = OverloadPolicy::kDegrade;
  storage::DurabilityMode durability = storage::DurabilityMode::kOff;
  std::string data_dir;
  uint64_t checkpoint_interval = 4096;
  bool recover = false;
  bool help = false;
  uint64_t admin_dump_interval_s = 0;  // 0 disables periodic status dumps
  std::string recorder_dump;           // fatal-signal flight-recorder path
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
    if (ParseArg(argv[i], "host", &value)) {
      args.server.host = value;
    } else if (ParseArg(argv[i], "port", &value)) {
      args.server.port = static_cast<uint16_t>(std::stoul(value));
    } else if (ParseArg(argv[i], "port-file", &value)) {
      args.port_file = value;
    } else if (ParseArg(argv[i], "query-threads", &value)) {
      args.server.query_threads = static_cast<uint32_t>(std::stoul(value));
    } else if (ParseArg(argv[i], "max-pipeline", &value)) {
      args.server.max_pipeline = std::stoull(value);
    } else if (ParseArg(argv[i], "write-buffer-limit", &value)) {
      args.server.write_buffer_limit = std::stoull(value);
    } else if (std::strcmp(argv[i], "--force-poll") == 0) {
      args.server.force_poll = true;
    } else if (ParseArg(argv[i], "shards", &value)) {
      args.shards = static_cast<uint32_t>(std::stoul(value));
    } else if (ParseArg(argv[i], "workers", &value)) {
      args.workers = static_cast<uint32_t>(std::stoul(value));
    } else if (ParseArg(argv[i], "pois", &value)) {
      args.pois = std::stoull(value);
    } else if (ParseArg(argv[i], "users", &value)) {
      args.users = std::stoull(value);
    } else if (ParseArg(argv[i], "k", &value)) {
      args.k = static_cast<uint32_t>(std::stoul(value));
    } else if (ParseArg(argv[i], "seed", &value)) {
      args.seed = std::stoull(value);
    } else if (ParseArg(argv[i], "metrics-json", &value)) {
      args.metrics_json = value;
    } else if (ParseArg(argv[i], "trace-sample", &value)) {
      args.trace_sample = std::stod(value);
    } else if (ParseArg(argv[i], "deadline-us", &value)) {
      args.deadline_us = std::stoll(value);
    } else if (ParseArg(argv[i], "max-qps", &value)) {
      args.max_qps = std::stod(value);
    } else if (ParseArg(argv[i], "burst", &value)) {
      args.burst = std::stod(value);
    } else if (ParseArg(argv[i], "shed-fraction", &value)) {
      args.shed_fraction = std::stod(value);
    } else if (ParseArg(argv[i], "overload-policy", &value)) {
      if (value == "reject") {
        args.overload_policy = OverloadPolicy::kReject;
      } else if (value == "degrade") {
        args.overload_policy = OverloadPolicy::kDegrade;
      } else {
        return Status::InvalidArgument("unknown --overload-policy: " + value);
      }
    } else if (ParseArg(argv[i], "durability", &value)) {
      auto mode = storage::DurabilityModeFromName(value);
      if (!mode.ok()) return mode.status();
      args.durability = mode.value();
    } else if (ParseArg(argv[i], "data-dir", &value)) {
      args.data_dir = value;
    } else if (ParseArg(argv[i], "checkpoint-interval", &value)) {
      args.checkpoint_interval = std::stoull(value);
    } else if (std::strcmp(argv[i], "--recover") == 0) {
      args.recover = true;
    } else if (ParseArg(argv[i], "admin-dump-interval", &value)) {
      args.admin_dump_interval_s = std::stoull(value);
    } else if (ParseArg(argv[i], "recorder-dump", &value)) {
      args.recorder_dump = value;
    } else if (ParseArg(argv[i], "window-interval-ms", &value)) {
      args.server.metrics_window_interval_ms =
          static_cast<uint32_t>(std::stoul(value));
    } else if (std::strcmp(argv[i], "--help") == 0) {
      args.help = true;
      return args;
    } else {
      return Status::InvalidArgument(std::string("unknown flag: ") + argv[i]);
    }
  }
  if (args.recover && args.durability == storage::DurabilityMode::kOff)
    return Status::InvalidArgument("--recover requires --durability");
  return args;
}

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

Status Run(const Args& args) {
  CloakDbServiceOptions options;
  options.space = Rect(0, 0, 100, 100);
  options.num_shards = args.shards;
  options.worker_threads = args.workers;
  options.overload.query_deadline_us = args.deadline_us;
  options.overload.max_queries_per_s = args.max_qps;
  if (args.burst > 0) options.overload.burst = args.burst;
  options.overload.shed_queue_fraction = args.shed_fraction;
  options.overload.policy = args.overload_policy;
  if (args.trace_sample > 0) {
    options.trace.enabled = true;
    options.trace.sample_probability = args.trace_sample;
  }
  options.durability_mode = args.durability;
  options.data_dir = args.data_dir;
  options.checkpoint_interval = args.checkpoint_interval;
  auto db = CloakDbService::Create(options);
  if (!db.ok()) return db.status();

  if (args.recover) {
    // The world comes from the data directory, not the seeder.
    const RecoveryInfo& info = db.value()->recovery_info();
    std::fprintf(stderr,
                 "cloakd: recovered %zu users, %zu standing queries "
                 "(%llu checkpoints, %llu wal records replayed, "
                 "%llu skipped, %llu truncated)\n",
                 db.value()->Stats().num_users,
                 db.value()->NumContinuousQueries(),
                 static_cast<unsigned long long>(info.checkpoints_loaded),
                 static_cast<unsigned long long>(info.replayed_records),
                 static_cast<unsigned long long>(info.skipped_records),
                 static_cast<unsigned long long>(info.truncated_records));
  } else {
    // Seed the world: POIs for the private kinds, cloaked users for the
    // public aggregates.
    Rng rng(args.seed);
    PoiOptions poi_options;
    poi_options.count = args.pois;
    poi_options.category = poi_category::kGasStation;
    poi_options.name_prefix = "gas";
    auto pois = GeneratePois(options.space, poi_options, &rng);
    if (!pois.ok()) return pois.status();
    CLOAKDB_RETURN_IF_ERROR(db.value()->BulkLoadCategory(
        poi_category::kGasStation, std::move(pois).value()));

    const PrivacyProfile profile =
        PrivacyProfile::Uniform({args.k, 0.0, kInf}).value();
    const TimeOfDay noon = TimeOfDay::FromHms(12, 0).value();
    for (UserId user = 1; user <= args.users; ++user) {
      CLOAKDB_RETURN_IF_ERROR(db.value()->RegisterUser(user, profile));
      const Point location(rng.Uniform(0, 100), rng.Uniform(0, 100));
      CLOAKDB_RETURN_IF_ERROR(
          db.value()->EnqueueUpdate(user, location, noon));
    }
    CLOAKDB_RETURN_IF_ERROR(db.value()->Flush());
  }

  if (!args.recorder_dump.empty()) {
    // A fatal signal now leaves the last notable events on disk.
    obs::InstallFatalSignalDump(db.value()->flight_recorder(),
                                args.recorder_dump.c_str());
    std::fprintf(stderr, "cloakd: flight-recorder crash dump -> %s\n",
                 args.recorder_dump.c_str());
  }

  auto server = net::CloakServer::Create(db.value().get(), args.server);
  if (!server.ok()) return server.status();
  std::fprintf(stderr,
               "cloakd: listening on %s:%u (%zu users, %u shards)\n",
               args.server.host.c_str(), server.value()->port(),
               db.value()->Stats().num_users, args.shards);
  if (!args.port_file.empty()) {
    CLOAKDB_RETURN_IF_ERROR(util::WriteFileAtomic(
        args.port_file, std::to_string(server.value()->port()) + "\n"));
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  // The wait loop doubles as the --admin-dump-interval clock: every
  // interval_ticks sleeps (50ms each) it prints the same status text an
  // admin kStatus poll renders from.
  const uint64_t interval_ticks = args.admin_dump_interval_s * 20;
  uint64_t slept = 0;
  while (g_stop == 0) {
    struct timespec ts = {0, 50 * 1000 * 1000};
    nanosleep(&ts, nullptr);
    if (interval_ticks == 0 || ++slept < interval_ticks) continue;
    slept = 0;
    const ServiceStats stats = db.value()->Stats();
    std::fprintf(stderr, "cloakd: --- status ---\n%s",
                 stats.ToString().c_str());
  }
  std::fprintf(stderr, "cloakd: shutting down\n");
  server.value()->Stop();
  if (!args.recorder_dump.empty())
    obs::InstallFatalSignalDump(nullptr, nullptr);
  if (args.durability != storage::DurabilityMode::kOff) {
    // Checkpoint on the way out so the next start replays an empty WAL.
    CLOAKDB_RETURN_IF_ERROR(db.value()->Flush());
    CLOAKDB_RETURN_IF_ERROR(db.value()->Checkpoint());
  }

  if (!args.metrics_json.empty()) {
    CLOAKDB_RETURN_IF_ERROR(util::WriteFileAtomic(
        args.metrics_json, db.value()->metrics().ExportJson()));
    std::fprintf(stderr, "cloakd: metrics written to %s\n",
                 args.metrics_json.c_str());
  }
  return Status::OK();
}

}  // namespace
}  // namespace cloakdb

namespace {

void PrintUsage(std::FILE* out, const char* prog) {
  std::fprintf(
      out,
      "usage: %s [--host=ADDR] [--port=P] [--port-file=PATH] "
      "[--query-threads=N] [--max-pipeline=N] [--write-buffer-limit=BYTES] "
      "[--force-poll] [--shards=S] [--workers=W] [--pois=P] [--users=N] "
      "[--k=K] [--seed=S] [--metrics-json=PATH] [--trace-sample=P] "
      "[--deadline-us=U] [--max-qps=Q] [--burst=B] [--shed-fraction=F] "
      "[--overload-policy=reject|degrade] [--durability=off|async|fsync] "
      "[--data-dir=DIR] [--checkpoint-interval=N] [--recover] "
      "[--admin-dump-interval=S] [--recorder-dump=PATH] "
      "[--window-interval-ms=MS] [--help]\n",
      prog);
}

}  // namespace

int main(int argc, char** argv) {
  auto args = cloakdb::ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "cloakd: %s\n", args.status().ToString().c_str());
    PrintUsage(stderr, argv[0]);
    return 2;
  }
  if (args.value().help) {
    PrintUsage(stdout, argv[0]);
    return 0;
  }
  const cloakdb::Status status = cloakdb::Run(args.value());
  if (!status.ok()) {
    std::fprintf(stderr, "cloakd: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
