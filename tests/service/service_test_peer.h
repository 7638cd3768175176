// CloakDbServiceTestPeer: the one friend of CloakDbService, shared by the
// suites that reach past its public API. One definition keeps the class
// the same in every test file of the binary.

#ifndef CLOAKDB_TESTS_SERVICE_SERVICE_TEST_PEER_H_
#define CLOAKDB_TESTS_SERVICE_SERVICE_TEST_PEER_H_

#include "service/cloak_db_service.h"
#include "util/deadline.h"

namespace cloakdb {

class CloakDbServiceTestPeer {
 public:
  /// Runs `request` with a deadline that has already passed, which
  /// admission (stamping a fresh deadline) cannot produce on cue.
  static QueryResponse ExecuteExpired(const CloakDbService& db,
                                      const QueryRequest& request) {
    CloakDbService::BatchQuery query;
    query.request = request;
    query.deadline = Deadline::After(0);
    return db.ExecuteOne(query);
  }

  /// One standing full evaluation, as registration and the stale sweep run
  /// it: no deadline, no shard budget.
  static Result<StandingSnapshot> EvaluateStanding(const CloakDbService& db,
                                                   const ContinuousSpec& spec,
                                                   const Rect& region) {
    return db.EvaluateStanding(spec, region, Deadline(), 0);
  }
};

}  // namespace cloakdb

#endif  // CLOAKDB_TESTS_SERVICE_SERVICE_TEST_PEER_H_
