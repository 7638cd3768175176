// cloakbench — the CloakDB benchmark program.
//
// Hosts a CloakDbService (2 shards, 2 drain workers) and a loopback
// net::CloakServer (2 query threads) in this process, generates the load
// from this process (an update producer, a query sender and a query
// receiver on one connection), checks every answer, and prints the report
// with a one-line JSON result last.
//
// Usage:
//   cloakbench --workload=wire_read|ingest_durable|standing_mixed
//              [--seed=N] [--seconds=S] [--trace=0|1]
//              [--p90-limit-us=U] [--out-dir=DIR]
//
// --trace=1 adds traced repeats of the open-loop phases and the
// single-threaded replays, prints the per-layer budget tables, reports the
// per-layer metrics instead of the end-to-end ones, and writes the spans to
// DIR/spans-<workload>-<seed>.jsonl.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

bool Flag(const char* arg, const char* name, std::string* value) {
  const std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) != 0) return false;
  *value = arg + prefix.size();
  return true;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "cloakbench: %s\nusage: cloakbench "
               "--workload=wire_read|ingest_durable|standing_mixed "
               "[--seed=N] [--seconds=S] [--trace=0|1] [--p90-limit-us=U] "
               "[--out-dir=DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    char* end = nullptr;
    if (Flag(argv[i], "workload", &v)) {
      config.workload = v;
    } else if (Flag(argv[i], "seed", &v)) {
      config.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return Usage("bad --seed");
    } else if (Flag(argv[i], "seconds", &v)) {
      config.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(config.seconds > 0)) return Usage("bad --seconds");
    } else if (Flag(argv[i], "trace", &v)) {
      if (v != "0" && v != "1") return Usage("bad --trace");
      config.trace = v == "1";
    } else if (Flag(argv[i], "p90-limit-us", &v)) {
      config.p90_limit_us = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(config.p90_limit_us > 0))
        return Usage("bad --p90-limit-us");
    } else if (Flag(argv[i], "out-dir", &v)) {
      config.out_dir = v;
    } else {
      return Usage((std::string("unknown flag ") + argv[i]).c_str());
    }
  }
  if (!perfbench::IsWorkload(config.workload))
    return Usage("unknown or missing --workload");
  return perfbench::RunWorkload(config);
}
