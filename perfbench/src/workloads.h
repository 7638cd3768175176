// The three workloads and the report every run prints.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// True for "wire_read", "ingest_durable" and "standing_mixed".
bool IsWorkload(const std::string& name);

/// Runs one workload end to end, prints the human-readable report and, as
/// the last line of stdout, the JSON result. Returns the process exit code:
/// 0 when every answer check passed, 1 otherwise.
int RunWorkload(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
