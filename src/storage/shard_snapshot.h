// Checkpoint snapshot of one shard's durable state.
//
// A ShardSnapshot is everything a shard needs to resume exactly where the
// checkpoint was taken: the anonymizer's full state (users, used-pseudonym
// set, pseudonym-generator state, stats), the server-side object store
// (public objects per category + private pseudonym regions), and the
// standing-query registrations. Deliberately NOT serialized: derived
// structures that are rebuilt deterministically from this state on
// restore — the user snapshot grids/pyramid, the per-category R-trees,
// the private-region RectGrid, the count cache (starts cold; caching is
// answer-invisible), and standing-query snapshots
// (PR 7's oracle proved full re-evaluation ≡ incremental maintenance).
//
// All vectors are sorted by id so the encoding of a given logical state is
// unique — byte-identical state produces byte-identical checkpoints.

#ifndef CLOAKDB_STORAGE_SHARD_SNAPSHOT_H_
#define CLOAKDB_STORAGE_SHARD_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/anonymizer.h"
#include "server/object_store.h"
#include "util/status.h"

namespace cloakdb {
namespace storage {

/// One standing-query registration, in the WAL record's neutral spelling
/// (see WalRecord's cq_* fields).
struct SnapshotCq {
  uint64_t id = 0;
  uint8_t kind = 0;
  uint64_t issuer = 0;
  double radius = 0.0;
  uint64_t k = 0;
  uint32_t category = 0;
  Rect window;
};

struct ShardSnapshot {
  AnonymizerState anonymizer;
  std::vector<PublicObject> public_objects;  ///< Sorted by id.
  std::vector<std::pair<ObjectId, Rect>> private_regions;  ///< Sorted.
  std::vector<SnapshotCq> cqs;  ///< Sorted by id.
};

/// Serializes a snapshot into a checkpoint blob.
std::string EncodeShardSnapshot(const ShardSnapshot& snapshot);

/// Bounds-checked inverse. Fails with kMalformedRequest on truncation,
/// version/magic mismatch, over-cap counts, or trailing garbage.
Result<ShardSnapshot> DecodeShardSnapshot(const std::string& blob);

}  // namespace storage
}  // namespace cloakdb

#endif  // CLOAKDB_STORAGE_SHARD_SNAPSHOT_H_
