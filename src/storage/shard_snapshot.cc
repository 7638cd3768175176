#include "storage/shard_snapshot.h"

#include "storage/wal_record.h"
#include "util/byte_codec.h"

namespace cloakdb {
namespace storage {

namespace {

// "CDBS"
constexpr uint32_t kSnapshotMagic = 0x53424443u;
constexpr uint32_t kSnapshotVersion = 1;
// Caps sized far above any realistic shard, small enough that a corrupted
// count cannot force a giant allocation.
constexpr uint32_t kMaxEntities = 64u << 20;
// Smallest encodings of one element of each counted section.
constexpr size_t kMinUserBytes = 101;
constexpr size_t kPseudonymBytes = 8;
constexpr size_t kPrivateRegionBytes = 40;
constexpr size_t kCqBytes = 69;

void WriteCloakedRegion(util::ByteWriter* w, const CloakedRegion& c) {
  WriteRect(w, c.region);
  w->U32(c.achieved_k);
  w->U32(c.requirement.k);
  w->F64(c.requirement.min_area);
  w->F64(c.requirement.max_area);
  w->Bool(c.k_satisfied);
  w->Bool(c.min_area_satisfied);
  w->Bool(c.max_area_satisfied);
}

CloakedRegion ReadCloakedRegion(util::ByteReader* r) {
  CloakedRegion c;
  c.region = ReadRect(r);
  c.achieved_k = r->U32();
  c.requirement.k = r->U32();
  c.requirement.min_area = r->F64();
  c.requirement.max_area = r->F64();
  c.k_satisfied = r->Bool();
  c.min_area_satisfied = r->Bool();
  c.max_area_satisfied = r->Bool();
  return c;
}

}  // namespace

std::string EncodeShardSnapshot(const ShardSnapshot& snapshot) {
  std::string out;
  util::ByteWriter w(&out);
  w.U32(kSnapshotMagic);
  w.U32(kSnapshotVersion);

  const AnonymizerState& a = snapshot.anonymizer;
  w.U32(static_cast<uint32_t>(a.users.size()));
  for (const ExportedUserState& u : a.users) {
    w.U64(u.user);
    WriteProfileEntries(&w, u.profile);
    w.U64(u.pseudonym);
    w.Bool(u.has_location);
    w.F64(u.location.x);
    w.F64(u.location.y);
    w.Bool(u.has_cached_region);
    WriteCloakedRegion(&w, u.cached);
    w.U32(u.updates_since_rotation);
  }
  w.U32(static_cast<uint32_t>(a.used_pseudonyms.size()));
  for (ObjectId p : a.used_pseudonyms) w.U64(p);
  for (uint64_t s : a.pseudonym_rng.s) w.U64(s);
  w.Bool(a.pseudonym_rng.have_cached_gaussian);
  w.F64(a.pseudonym_rng.cached_gaussian);
  w.U64(a.stats.updates);
  w.U64(a.stats.cloaks_computed);
  w.U64(a.stats.incremental_reuses);
  w.U64(a.stats.shared_reuses);
  w.U64(a.stats.unsatisfied);

  w.U32(static_cast<uint32_t>(snapshot.public_objects.size()));
  for (const PublicObject& o : snapshot.public_objects) {
    WritePublicObject(&w, o);
  }

  w.U32(static_cast<uint32_t>(snapshot.private_regions.size()));
  for (const auto& [pseudonym, region] : snapshot.private_regions) {
    w.U64(pseudonym);
    WriteRect(&w, region);
  }

  w.U32(static_cast<uint32_t>(snapshot.cqs.size()));
  for (const SnapshotCq& cq : snapshot.cqs) {
    w.U64(cq.id);
    w.U8(cq.kind);
    w.U64(cq.issuer);
    w.F64(cq.radius);
    w.U64(cq.k);
    w.U32(cq.category);
    WriteRect(&w, cq.window);
  }
  return out;
}

Result<ShardSnapshot> DecodeShardSnapshot(const std::string& blob) {
  util::ByteReader r(blob);
  if (r.U32() != kSnapshotMagic) {
    return Status::MalformedRequest("not a shard snapshot blob");
  }
  if (r.U32() != kSnapshotVersion) {
    return Status::MalformedRequest("unsupported shard snapshot version");
  }

  ShardSnapshot snap;
  AnonymizerState& a = snap.anonymizer;
  a.users.resize(r.Count(kMinUserBytes, kMaxEntities));
  for (ExportedUserState& u : a.users) {
    u.user = r.U64();
    u.profile = ReadProfileEntries(&r);
    u.pseudonym = r.U64();
    u.has_location = r.Bool();
    u.location.x = r.F64();
    u.location.y = r.F64();
    u.has_cached_region = r.Bool();
    u.cached = ReadCloakedRegion(&r);
    u.updates_since_rotation = r.U32();
  }
  a.used_pseudonyms.resize(r.Count(kPseudonymBytes, kMaxEntities));
  for (ObjectId& p : a.used_pseudonyms) p = r.U64();
  for (uint64_t& s : a.pseudonym_rng.s) s = r.U64();
  a.pseudonym_rng.have_cached_gaussian = r.Bool();
  a.pseudonym_rng.cached_gaussian = r.F64();
  a.stats.updates = r.U64();
  a.stats.cloaks_computed = r.U64();
  a.stats.incremental_reuses = r.U64();
  a.stats.shared_reuses = r.U64();
  a.stats.unsatisfied = r.U64();

  snap.public_objects.resize(r.Count(kMinPublicObjectBytes, kMaxEntities));
  for (PublicObject& o : snap.public_objects) o = ReadPublicObject(&r);

  snap.private_regions.resize(r.Count(kPrivateRegionBytes, kMaxEntities));
  for (auto& [pseudonym, region] : snap.private_regions) {
    pseudonym = r.U64();
    region = ReadRect(&r);
  }

  snap.cqs.resize(r.Count(kCqBytes, kMaxEntities));
  for (SnapshotCq& cq : snap.cqs) {
    cq.id = r.U64();
    cq.kind = r.U8();
    cq.issuer = r.U64();
    cq.radius = r.F64();
    cq.k = r.U64();
    cq.category = r.U32();
    cq.window = ReadRect(&r);
  }

  if (!r.Done()) return Status::MalformedRequest("malformed shard snapshot");
  return snap;
}

}  // namespace storage
}  // namespace cloakdb
