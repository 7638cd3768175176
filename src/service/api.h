// The unified, versioned query envelope of CloakDB.
//
// One tagged QueryRequest/QueryResponse pair subsumes the per-kind service
// entry points (PrivateRange / PrivateNn / PrivateKnn and the public
// count/heatmap aggregates) and their Options/Result structs. The service
// executes the envelope (CloakDbService::ExecuteQuery), the per-kind
// methods are thin wrappers over it, batches are vectors of it, and the
// wire protocol (src/net/protocol.h) serializes it 1:1 — so the in-process
// API and the network API cannot drift.
//
// Versioning: the envelope itself carries no version field; the wire frame
// header does (net::kProtocolVersion). Members are only ever appended and
// the frame payloads encode every field, so a version bump is a protocol
// change, reviewed in one place.

#ifndef CLOAKDB_SERVICE_API_H_
#define CLOAKDB_SERVICE_API_H_

#include <cstdint>
#include <string>
#include <vector>

#include "server/private_queries.h"
#include "server/public_queries.h"
#include "util/status.h"

namespace cloakdb {

/// The query kinds the envelope can carry. Values are wire-stable.
enum class QueryKind : uint8_t {
  kPrivateRange = 0,  ///< Candidates within `radius` of the cloaked region.
  kPrivateNn = 1,     ///< Nearest-neighbor candidate list.
  kPrivateKnn = 2,    ///< k-nearest-neighbor candidate list.
  kPublicCount = 3,   ///< Probabilistic count of users in a window.
  kHeatmap = 4,       ///< Expected-density grid over the whole space.
};

/// Number of QueryKind values (they run 0 .. kNumQueryKinds - 1).
inline constexpr size_t kNumQueryKinds =
    static_cast<size_t>(QueryKind::kHeatmap) + 1;

/// "private_range", "private_nn", ... (metric/trace/log segment).
const char* QueryKindName(QueryKind kind);

/// True for the values listed in QueryKind (wire validation).
bool IsValidQueryKind(uint8_t raw);

/// One query, any kind. Exactly the fields relevant to `kind` are read;
/// the rest ride along zero-valued (and serialize as such).
struct QueryRequest {
  QueryKind kind = QueryKind::kPrivateRange;

  /// Cloaked region (private kinds) or count window (kPublicCount).
  Rect region{0.0, 0.0, 0.0, 0.0};
  double radius = 0.0;    ///< kPrivateRange.
  uint64_t k = 1;         ///< kPrivateKnn.
  Category category = 0;  ///< Private kinds.
  uint32_t resolution = 0;  ///< kHeatmap grid resolution per side.
  /// kPrivateRange: exact rounded-rect refinement (PrivateRangeOptions).
  bool exact_rounded_rect = true;
  /// Client budget in microseconds (0 = none). Combined with the
  /// admission controller's deadline via Deadline::Earliest, so a client
  /// can only tighten, never extend, the server's own limit.
  int64_t deadline_us = 0;

  /// Named constructors, one per kind.
  static QueryRequest Range(const Rect& cloaked, double radius,
                            Category category,
                            const PrivateRangeOptions& opts = {});
  static QueryRequest Nn(const Rect& cloaked, Category category);
  static QueryRequest Knn(const Rect& cloaked, uint64_t k, Category category);
  static QueryRequest Count(const Rect& window);
  static QueryRequest HeatmapAt(uint32_t resolution);

  /// The PrivateRangeOptions view of this request (kPrivateRange).
  PrivateRangeOptions range_options() const;
};

/// The answer to one QueryRequest. Errors travel in-band (`error` +
/// `message`) because that is exactly how they travel on the wire: a shed
/// or deadline-exceeded query is a typed response, never a silent drop.
struct QueryResponse {
  QueryKind kind = QueryKind::kPrivateRange;
  ErrorCode error = ErrorCode::kOk;
  std::string message;  ///< Error detail; empty when ok().

  // --- Private-kind payload ---------------------------------------------
  /// The candidate list (superset guarantee; client-side refinement keys
  /// on the exact user location, which never reaches the server).
  std::vector<PublicObject> candidates;
  Rect extended_region{0.0, 0.0, 0.0, 0.0};  ///< kPrivateRange probe region.
  double fetch_radius = 0.0;  ///< kPrivateNn / kPrivateKnn.
  uint64_t pruned = 0;  ///< Rounded-rect or dominance prune count.

  // --- kPublicCount payload ---------------------------------------------
  double expected_count = 0.0;  ///< Sum of per-user containment p_i.
  uint64_t count_min = 0;       ///< #{p_i == 1}.
  uint64_t count_max = 0;       ///< #{p_i > 0}.

  // --- kHeatmap payload --------------------------------------------------
  uint32_t resolution = 0;
  Rect space{0.0, 0.0, 0.0, 0.0};
  std::vector<double> heat;  ///< resolution^2 expected densities, row-major.

  // --- Degradation + admission verdicts (PRs 4-5, carried on the wire) ---
  bool degraded = false;        ///< Some shards were not covered.
  uint64_t covered_shards = 0;  ///< Bitmap of covered shards (<= 64).
  bool degraded_admission = false;  ///< Admitted with a capped fan-out.
  uint64_t trace_id = 0;            ///< 0 when tracing is off/unsampled.
  uint64_t server_latency_us = 0;   ///< Service-side wall time.

  bool ok() const { return error == ErrorCode::kOk; }
  /// Reconstructs the Status the per-kind wrappers return.
  Status status() const {
    return ok() ? Status::OK() : Status(error, message);
  }
};

/// An error response of the given kind (used by service + server alike).
QueryResponse MakeErrorResponse(QueryKind kind, const Status& status);

// --- Conversions between the envelope and the per-kind result structs ----
// The service's merge machinery still speaks the rich structs; the
// envelope is the boundary format. Conversions move the candidate lists.

QueryResponse ResponseFromRange(PrivateRangeResult result);
QueryResponse ResponseFromNn(PrivateNnResult result);
QueryResponse ResponseFromKnn(PrivateKnnResult result);
/// Summarizes the count (the PMF and per-object contributions are
/// library-side diagnostics; expected/interval formats travel).
QueryResponse ResponseFromCount(const PublicCountResult& result);
QueryResponse ResponseFromHeatmap(HeatmapResult result);

PrivateRangeResult RangeFromResponse(QueryResponse response);
PrivateNnResult NnFromResponse(QueryResponse response);
PrivateKnnResult KnnFromResponse(QueryResponse response);
HeatmapResult HeatmapFromResponse(QueryResponse response);

}  // namespace cloakdb

#endif  // CLOAKDB_SERVICE_API_H_
