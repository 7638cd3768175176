// cloakmon — terminal live monitor for a running cloaksim / CloakDB
// service.
//
// Two sources, one dashboard:
//
//   --status=PATH        poll the status-JSON snapshot the service
//                        rewrites atomically (cloaksim --monitor-json);
//                        reading never touches the service — the file is
//                        the only interface, so the monitor can run on
//                        another terminal, another user, or after the
//                        producer exited.
//   --connect=HOST:PORT  poll a live cloakd over the wire: one admin
//                        kStatus frame per refresh on a dedicated
//                        connection, served off the server's worker pool
//                        so the poll never stalls query traffic.
//
// Either way the screen shows uptime and ingest state, per-stage latency
// digests (p50/p95/p99), count-cache hit rate, robustness counters,
// tracer accounting, and the most recent privacy-audit violations.
//
// Usage:
//   cloakmon --status=PATH [--interval-ms=500] [--once]
//   cloakmon --connect=HOST:PORT [--interval-ms=500] [--once]
//
// --once reads and renders a single snapshot without clearing the screen
// (scriptable; used by the CI smoke job). Exit: 0 on a rendered snapshot,
// 1 when the source never appeared/parsed in --once mode.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <chrono>

#include "net/client.h"
#include "net/protocol.h"
#include "util/atomic_file.h"
#include "util/minijson.h"

namespace cloakdb {
namespace {

struct Args {
  std::string status_path;
  std::string connect_host;
  uint16_t connect_port = 0;
  long interval_ms = 500;
  bool once = false;
};

bool ParseArg(const char* arg, const char* name, std::string* out) {
  std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) != 0) return false;
  *out = arg + prefix.size();
  return true;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseArg(argv[i], "status", &value)) {
      args->status_path = value;
    } else if (ParseArg(argv[i], "connect", &value)) {
      const size_t colon = value.rfind(':');
      if (colon == std::string::npos || colon == 0 ||
          colon + 1 == value.size()) {
        std::fprintf(stderr, "--connect wants HOST:PORT, got: %s\n",
                     value.c_str());
        return false;
      }
      args->connect_host = value.substr(0, colon);
      const long port = std::strtol(value.c_str() + colon + 1, nullptr, 10);
      if (port <= 0 || port > 65535) {
        std::fprintf(stderr, "--connect port out of range: %s\n",
                     value.c_str());
        return false;
      }
      args->connect_port = static_cast<uint16_t>(port);
    } else if (ParseArg(argv[i], "interval-ms", &value)) {
      args->interval_ms = std::strtol(value.c_str(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--once") == 0) {
      args->once = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return false;
    }
  }
  const bool file_mode = !args->status_path.empty();
  const bool wire_mode = !args->connect_host.empty();
  if (file_mode == wire_mode) {
    std::fprintf(stderr,
                 "exactly one of --status=PATH or --connect=HOST:PORT "
                 "is required\n");
    return false;
  }
  if (args->interval_ms < 50) args->interval_ms = 50;
  return true;
}

void RenderStage(const util::JsonValue& stages, const char* name) {
  const util::JsonValue* stage = stages.FindObject(name);
  if (stage == nullptr) return;
  std::printf("  %-34s count=%-9.0f p50=%-9.1f p95=%-9.1f p99=%.1f\n", name,
              stage->NumberAt("count"), stage->NumberAt("p50"),
              stage->NumberAt("p95"), stage->NumberAt("p99"));
}

void Render(const util::JsonValue& status) {
  std::printf("cloakmon — tick %.0f/%.0f  uptime %.1fs  shards=%.0f  "
              "users=%.0f\n",
              status.NumberAt("tick"), status.NumberAt("ticks_total"),
              status.NumberAt("uptime_us") / 1e6,
              status.NumberAt("num_shards"), status.NumberAt("users"));
  const std::string version = status.StringAt("version");
  if (!version.empty()) {
    const std::string data_dir = status.StringAt("data_dir");
    std::printf("build: %s  durability=%s%s%s\n", version.c_str(),
                status.StringAt("durability").c_str(),
                data_dir.empty() ? "" : "  data_dir=",
                data_dir.c_str());
  }
  std::printf("ingest: applied=%.0f rejected=%.0f queue_depth=%.0f\n",
              status.NumberAt("updates_applied"),
              status.NumberAt("updates_rejected"),
              status.NumberAt("queue_depth"));

  if (const util::JsonValue* stages = status.FindObject("stages")) {
    std::printf("stages (us):\n");
    for (const auto& [name, unused] : stages->members())
      RenderStage(*stages, name.c_str());
  }

  if (const util::JsonValue* cache = status.FindObject("cache")) {
    std::printf("cache: hits=%.0f misses=%.0f hit_rate=%.1f%%\n",
                cache->NumberAt("hits"), cache->NumberAt("misses"),
                cache->NumberAt("hit_rate") * 100.0);
  }

  if (const util::JsonValue* robust = status.FindObject("robustness")) {
    std::printf("robustness: shed=%.0f degraded=%.0f deadline_hits=%.0f "
                "updates_shed=%.0f\n",
                robust->NumberAt("shed"), robust->NumberAt("degraded"),
                robust->NumberAt("deadline_hits"),
                robust->NumberAt("updates_shed"));
  }

  if (const util::JsonValue* recorder = status.FindObject("recorder")) {
    std::printf("flight recorder: events_total=%.0f\n",
                recorder->NumberAt("events_total"));
  }

  if (const util::JsonValue* trace = status.FindObject("trace")) {
    std::printf("trace: kept=%.0f dropped=%.0f dropped_spans=%.0f "
                "violations=%.0f\n",
                trace->NumberAt("kept"), trace->NumberAt("dropped"),
                trace->NumberAt("dropped_spans"),
                trace->NumberAt("violations_total"));
  }

  const util::JsonValue* violations = status.FindArray("recent_violations");
  if (violations != nullptr && !violations->items().empty()) {
    std::printf("recent audit violations (newest last):\n");
    for (const util::JsonValue& v : violations->items()) {
      std::printf("  trace=%s pseudonym=%s k=%.0f/%.0f area=%.4g%s%s%s\n",
                  v.StringAt("trace_id").c_str(),
                  v.StringAt("pseudonym").c_str(),
                  v.NumberAt("achieved_k"), v.NumberAt("requested_k"),
                  v.NumberAt("area"),
                  v.BoolAt("k_satisfied") ? "" : " K-MISS",
                  v.BoolAt("center_risk") ? " CENTER-RISK" : "",
                  v.BoolAt("boundary_risk") ? " BOUNDARY-RISK" : "");
    }
  } else {
    std::printf("recent audit violations: none\n");
  }
}

/// Fetches one status document, from the file or over the wire. The
/// client connection is lazily (re)established so a restarting server
/// only costs a blank refresh, not a monitor exit.
bool FetchStatus(const Args& args,
                 std::unique_ptr<net::CloakClient>* client,
                 std::string* text, std::string* error) {
  if (!args.status_path.empty()) {
    auto file = util::ReadFile(args.status_path);
    if (!file.ok()) {
      *error = file.status().ToString();
      return false;
    }
    *text = std::move(file).value();
    return true;
  }
  if (*client == nullptr) {
    auto connected =
        net::CloakClient::Connect(args.connect_host, args.connect_port);
    if (!connected.ok()) {
      *error = connected.status().ToString();
      return false;
    }
    *client = std::move(connected).value();
  }
  auto body = (*client)->Admin(net::AdminCommand::kStatus);
  if (!body.ok()) {
    // Drop the connection; the next refresh reconnects.
    client->reset();
    *error = body.status().ToString();
    return false;
  }
  *text = std::move(body).value();
  return true;
}

int Run(const Args& args) {
  bool rendered = false;
  std::unique_ptr<net::CloakClient> client;
  for (;;) {
    std::string text;
    std::string fetch_error;
    if (FetchStatus(args, &client, &text, &fetch_error)) {
      std::string error;
      auto status = util::JsonValue::Parse(text, &error);
      if (status != nullptr && status->is_object()) {
        if (!args.once) std::printf("\x1b[2J\x1b[H");  // clear + home
        Render(*status);
        std::fflush(stdout);
        rendered = true;
      } else if (args.once) {
        std::fprintf(stderr, "bad status JSON: %s\n", error.c_str());
        return 1;
      }
      // A transiently unparsable file outside --once is expected only if
      // the producer is not writing atomically; keep the last screen.
    } else if (args.once) {
      std::fprintf(stderr, "%s\n", fetch_error.c_str());
      return 1;
    }
    if (args.once) return rendered ? 0 : 1;
    std::this_thread::sleep_for(std::chrono::milliseconds(args.interval_ms));
  }
}

}  // namespace
}  // namespace cloakdb

int main(int argc, char** argv) {
  cloakdb::Args args;
  if (!cloakdb::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s (--status=PATH | --connect=HOST:PORT) "
                 "[--interval-ms=MS] [--once]\n",
                 argv[0]);
    return 2;
  }
  return cloakdb::Run(args);
}
