// Typed WAL record schema for the CloakDB service.
//
// One WAL record per durable mutation of a shard, in apply order:
// registrations, profile changes, unregistrations, drained update batches
// (the group-commit unit — one record carries the exact batch composition
// the drain applied, because batch composition determines shared-execution
// grouping), public-object changes, and standing-query registration
// events. Replaying the records through the shard's normal apply paths,
// starting from the checkpointed state, reproduces the shard bit-exactly.
//
// Fields are deliberately plain (no service-layer types) so the storage
// layer stays below the service in the dependency order; the service
// converts to/from its own structs (ContinuousSpec etc.) at the boundary.

#ifndef CLOAKDB_STORAGE_WAL_RECORD_H_
#define CLOAKDB_STORAGE_WAL_RECORD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/privacy_profile.h"
#include "geom/point.h"
#include "geom/rect.h"
#include "server/object_store.h"
#include "storage/wal.h"
#include "util/byte_codec.h"
#include "util/status.h"

namespace cloakdb {
namespace storage {

enum class WalRecordType : uint8_t {
  kRegisterUser = 1,
  kUpdateProfile = 2,
  kUnregisterUser = 3,
  kUpdateBatch = 4,  ///< One drained batch, exact composition preserved.
  kAddPublicObject = 5,
  kBulkLoadCategory = 6,
  kCqRegister = 7,
  kCqUnregister = 8,
};

/// One entry of a drained update batch.
struct WalUpdate {
  uint64_t user = 0;
  Point location;
  int32_t time_seconds = 0;  ///< TimeOfDay seconds-since-midnight.
};

/// A tagged union of every durable mutation. Only the fields of the active
/// `type` are meaningful; the rest stay at their defaults (and encode to
/// nothing).
struct WalRecord {
  WalRecordType type = WalRecordType::kUpdateBatch;
  uint64_t lsn = 0;  ///< Assigned by the durability engine at append time.

  // kRegisterUser / kUpdateProfile / kUnregisterUser
  uint64_t user = 0;
  std::vector<ProfileEntry> profile;  ///< Register/profile records.

  // kUpdateBatch
  std::vector<WalUpdate> updates;

  // kAddPublicObject
  PublicObject object;

  // kBulkLoadCategory
  uint32_t category = 0;
  std::vector<PublicObject> objects;

  // kCqRegister / kCqUnregister — neutral spelling of ContinuousSpec.
  uint64_t cq_id = 0;
  uint8_t cq_kind = 0;  ///< QueryKind as its wire byte.
  uint64_t cq_issuer = 0;
  double cq_radius = 0.0;
  uint64_t cq_k = 0;
  uint32_t cq_category = 0;
  Rect cq_window;
};

/// Most updates one kUpdateBatch record holds inside kMaxWalRecordBytes
/// (13 bytes of LSN, type and count, then 28 per update). The service
/// refuses a larger max_batch, and the decoder caps the count here.
inline constexpr uint32_t kMaxBatchUpdates = (kMaxWalRecordBytes - 13) / 28;

/// Room a kBulkLoadCategory record leaves for its objects inside
/// kMaxWalRecordBytes: the record spends 17 bytes on LSN, type, category
/// and object count. The service refuses bulk loads past it, so every
/// acknowledged batch fits one record the scanner accepts.
inline constexpr size_t kMaxBulkLoadObjectBytes = kMaxWalRecordBytes - 17;

/// Encodes a record into a WAL payload (u64 LSN, u8 type, body).
std::string EncodeWalRecord(const WalRecord& record);

/// Bounds-checked inverse of EncodeWalRecord. Fails with kMalformedRequest
/// on any truncation, unknown type, over-cap count, or trailing garbage.
Result<WalRecord> DecodeWalRecord(const std::string& payload);

// Profile codec shared with the checkpoint snapshot (the public-object and
// rect codecs live beside PublicObject in server/object_store.h).
void WriteProfileEntries(util::ByteWriter* w,
                         const std::vector<ProfileEntry>& profile);
std::vector<ProfileEntry> ReadProfileEntries(util::ByteReader* r);

}  // namespace storage
}  // namespace cloakdb

#endif  // CLOAKDB_STORAGE_WAL_RECORD_H_
