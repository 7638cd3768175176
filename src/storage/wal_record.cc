#include "storage/wal_record.h"

#include "util/time_of_day.h"

namespace cloakdb {
namespace storage {

namespace {

// Encoded sizes of one counted element. ByteReader::Count rejects a count
// the remaining bytes cannot hold, so a corrupted count field never
// commits the decoder to a giant allocation.
constexpr size_t kProfileEntryBytes = 28;
constexpr size_t kWalUpdateBytes = 28;

}  // namespace

void WriteProfileEntries(util::ByteWriter* w,
                         const std::vector<ProfileEntry>& profile) {
  w->U32(static_cast<uint32_t>(profile.size()));
  for (const ProfileEntry& e : profile) {
    w->U32(static_cast<uint32_t>(e.interval.start().seconds()));
    w->U32(static_cast<uint32_t>(e.interval.end().seconds()));
    w->U32(e.requirement.k);
    w->F64(e.requirement.min_area);
    w->F64(e.requirement.max_area);
  }
}

std::vector<ProfileEntry> ReadProfileEntries(util::ByteReader* r) {
  std::vector<ProfileEntry> profile(
      r->Count(kProfileEntryBytes, kMaxProfileEntries));
  for (ProfileEntry& e : profile) {
    const uint32_t start = r->U32();
    const uint32_t end = r->U32();
    e.interval = DailyInterval(TimeOfDay::FromSeconds(start),
                               TimeOfDay::FromSeconds(end));
    e.requirement.k = r->U32();
    e.requirement.min_area = r->F64();
    e.requirement.max_area = r->F64();
  }
  return profile;
}

std::string EncodeWalRecord(const WalRecord& record) {
  std::string out;
  util::ByteWriter w(&out);
  w.U64(record.lsn);
  w.U8(static_cast<uint8_t>(record.type));
  switch (record.type) {
    case WalRecordType::kRegisterUser:
    case WalRecordType::kUpdateProfile:
      w.U64(record.user);
      WriteProfileEntries(&w, record.profile);
      break;
    case WalRecordType::kUnregisterUser:
      w.U64(record.user);
      break;
    case WalRecordType::kUpdateBatch:
      w.U32(static_cast<uint32_t>(record.updates.size()));
      for (const WalUpdate& u : record.updates) {
        w.U64(u.user);
        w.F64(u.location.x);
        w.F64(u.location.y);
        w.U32(static_cast<uint32_t>(u.time_seconds));
      }
      break;
    case WalRecordType::kAddPublicObject:
      WritePublicObject(&w, record.object);
      break;
    case WalRecordType::kBulkLoadCategory:
      w.U32(record.category);
      w.U32(static_cast<uint32_t>(record.objects.size()));
      for (const PublicObject& o : record.objects) WritePublicObject(&w, o);
      break;
    case WalRecordType::kCqRegister:
      w.U64(record.cq_id);
      w.U8(record.cq_kind);
      w.U64(record.cq_issuer);
      w.F64(record.cq_radius);
      w.U64(record.cq_k);
      w.U32(record.cq_category);
      WriteRect(&w, record.cq_window);
      break;
    case WalRecordType::kCqUnregister:
      w.U64(record.cq_id);
      break;
  }
  return out;
}

Result<WalRecord> DecodeWalRecord(const std::string& payload) {
  util::ByteReader r(payload);
  WalRecord rec;
  rec.lsn = r.U64();
  const uint8_t type = r.U8();
  rec.type = static_cast<WalRecordType>(type);
  switch (rec.type) {
    case WalRecordType::kRegisterUser:
    case WalRecordType::kUpdateProfile:
      rec.user = r.U64();
      rec.profile = ReadProfileEntries(&r);
      break;
    case WalRecordType::kUnregisterUser:
      rec.user = r.U64();
      break;
    case WalRecordType::kUpdateBatch:
      rec.updates.resize(r.Count(kWalUpdateBytes, kMaxBatchUpdates));
      for (WalUpdate& u : rec.updates) {
        u.user = r.U64();
        u.location.x = r.F64();
        u.location.y = r.F64();
        u.time_seconds = static_cast<int32_t>(r.U32());
      }
      break;
    case WalRecordType::kAddPublicObject:
      rec.object = ReadPublicObject(&r);
      break;
    case WalRecordType::kBulkLoadCategory:
      rec.category = r.U32();
      rec.objects.resize(r.Count(kMinPublicObjectBytes));
      for (PublicObject& o : rec.objects) o = ReadPublicObject(&r);
      break;
    case WalRecordType::kCqRegister:
      rec.cq_id = r.U64();
      rec.cq_kind = r.U8();
      rec.cq_issuer = r.U64();
      rec.cq_radius = r.F64();
      rec.cq_k = r.U64();
      rec.cq_category = r.U32();
      rec.cq_window = ReadRect(&r);
      break;
    case WalRecordType::kCqUnregister:
      rec.cq_id = r.U64();
      break;
    default:
      return Status::MalformedRequest("unknown WAL record type");
  }
  if (!r.Done()) return Status::MalformedRequest("malformed WAL record");
  return rec;
}

}  // namespace storage
}  // namespace cloakdb
