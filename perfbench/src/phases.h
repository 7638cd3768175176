// The measured phases every workload is built from: wire queries in an
// open loop (fixed rate, latency from each request's scheduled send) or a
// closed loop (fixed requests in flight), and location-report waves in an
// open loop (one wave per period, latency from its scheduled start to
// Flush returning) or back to back. Every answer is checked as it arrives.

#ifndef PERFBENCH_PHASES_H_
#define PERFBENCH_PHASES_H_

#include <atomic>
#include <thread>
#include <vector>

#include "common.h"
#include "spans.h"
#include "wire.h"
#include "world.h"

namespace perfbench {

/// What the query checks compare against.
struct QueryStream {
  const std::vector<cloakdb::QueryRequest>* requests = nullptr;
  const Inputs* inputs = nullptr;
  /// Exact user positions (index user id - 1) the count intervals must
  /// bracket; null while users move under the queries.
  const std::vector<cloakdb::Point>* positions = nullptr;
};

/// One answered query of a traced phase.
struct QueryRecord {
  size_t query = 0;          ///< Index into the stream.
  double lateness_us = 0.0;  ///< Actual send - scheduled send.
  double rtt_us = 0.0;       ///< Receive - actual send.
  double server_us = 0.0;    ///< QueryResponse::server_latency_us.
};

struct QueryPhaseOptions {
  double rate = 0.0;     ///< Open loop: requests per second.
  size_t depth = 0;      ///< Closed loop: requests in flight.
  double seconds = 0.0;
  size_t first_query = 0;    ///< Stream offset of the first request.
  SpanRecorder* spans = nullptr;
  bool keep_records = false;
  size_t sample_every = 0;   ///< Keep every N-th response (0 = none).
};

struct QueryPhaseResult {
  /// Open loop: requests the schedule offered; closed loop: answers that
  /// arrived inside the window.
  uint64_t planned = 0;
  uint64_t sent = 0;
  uint64_t answered = 0;  ///< Frames received, ok or not.
  uint64_t errors = 0;    ///< Typed error answers (shed, malformed, ...).
  uint64_t transport_errors = 0;
  std::vector<double> latency_us;
  std::vector<double> lateness_us;
  double elapsed_s = 0.0;
  /// Last answer minus last scheduled send (open loop backlog drain).
  double drain_us = 0.0;
  uint64_t private_answers = 0;
  uint64_t candidates = 0;
  Checks checks;
  std::vector<QueryRecord> records;
  std::vector<std::pair<size_t, cloakdb::QueryResponse>> samples;
  size_t next_query = 0;  ///< Stream offset after the phase.
  /// Closed loop: process CPU microseconds per operation (CpuPerOpSlices).
  double cpu_us_per_op = 0.0;
  /// The same unscaled, and the median reference kernel time behind the
  /// scaling, for the report.
  double cpu_raw_us_per_op = 0.0;
  double cpu_reference_us = 0.0;
};

/// Open-loop query phase on a sender and a receiver thread, so the
/// calling thread stays free (standing_mixed runs waves on it meanwhile).
class OpenLoopQueries {
 public:
  OpenLoopQueries(WireConn* conn, const QueryStream& stream,
                  const QueryPhaseOptions& options);
  ~OpenLoopQueries();
  OpenLoopQueries(const OpenLoopQueries&) = delete;
  OpenLoopQueries& operator=(const OpenLoopQueries&) = delete;

  void Start();
  QueryPhaseResult Join();

 private:
  void SendLoop();
  void ReceiveLoop();

  WireConn* conn_;
  QueryStream stream_;
  QueryPhaseOptions options_;
  std::vector<Clock::time_point> scheduled_;
  std::vector<Clock::time_point> sent_at_;
  std::atomic<uint64_t> sent_{0};
  std::atomic<bool> send_failed_{false};
  QueryPhaseResult result_;
  std::thread sender_;
  std::thread receiver_;
};

/// Closed-loop query phase on the calling thread: `depth` requests stay in
/// flight on the connection until `seconds` have passed.
QueryPhaseResult RunClosedLoopQueries(WireConn* conn,
                                      const QueryStream& stream,
                                      const QueryPhaseOptions& options);

/// Counter readings around one traced wave.
struct WaveRecord {
  double lateness_us = 0.0;
  double enqueue_us = 0.0;  ///< The EnqueueUpdate loop.
  double flush_us = 0.0;
  double commit_us = 0.0;   ///< wal.commit_us sum added during the wave.
  double fsyncs = 0.0;
  double batches = 0.0;
  double refilters = 0.0;
};

struct WavePhaseOptions {
  bool open_loop = true;
  double period_s = 0.05;
  double seconds = 0.0;
  SpanRecorder* spans = nullptr;
  bool keep_records = false;
};

struct WavePhaseResult {
  uint64_t planned = 0;
  std::vector<double> wave_ms;
  std::vector<double> lateness_us;
  std::vector<double> enqueue_call_us;  ///< Traced: per EnqueueUpdate call.
  uint64_t updates = 0;
  uint64_t rejected = 0;
  double elapsed_s = 0.0;  ///< Start of the first wave to end of the last.
  std::vector<WaveRecord> records;
  /// Closed loop: process CPU microseconds per operation (CpuPerOpSlices).
  double cpu_us_per_op = 0.0;
  /// The same unscaled, and the median reference kernel time behind the
  /// scaling, for the report.
  double cpu_raw_us_per_op = 0.0;
  double cpu_reference_us = 0.0;
};

/// Runs waves from `*cursor` (advanced; cycles through inputs.waves) on the
/// calling thread. `last_ack` (index user id - 1) gets every location whose
/// wave's Flush returned.
WavePhaseResult RunWaves(cloakdb::CloakDbService* service,
                         const std::vector<Wave>& waves, size_t* cursor,
                         std::vector<cloakdb::Point>* last_ack,
                         const WavePhaseOptions& options);

/// Checks one answer against the truth; returns the candidate count for
/// private kinds. `count_memo` caches true counts per query index.
void CheckAnswer(const QueryStream& stream, size_t query,
                 const cloakdb::QueryResponse& response,
                 std::vector<std::pair<int64_t, int64_t>>* count_memo,
                 Checks* checks);

}  // namespace perfbench

#endif  // PERFBENCH_PHASES_H_
