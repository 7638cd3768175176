#include "storage/index_blob.h"

// File layout:
//   block 0 (4096 bytes):
//     0   char[8]  magic "CDBSIDX1"
//     8   u32      version (1)
//     12  u32      num_entries
//     16  u32      crc32 of the directory bytes [24, 24 + 24*num_entries)
//     20  u32      reserved (0)
//     24  {u32 category, u32 reserved, u64 offset, u64 length}[num_entries]
//   then each blob at the next 4096-byte boundary, in directory order.

#include <cstring>

#include "storage/codec.h"
#include "util/atomic_file.h"

namespace cloakdb {
namespace storage {

namespace {

constexpr char kMagic[8] = {'C', 'D', 'B', 'S', 'I', 'D', 'X', '1'};
constexpr size_t kBlock = 4096;
constexpr size_t kEntryBytes = 24;

void StoreU32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, sizeof(v)); }
void StoreU64(uint8_t* p, uint64_t v) { std::memcpy(p, &v, sizeof(v)); }
uint32_t LoadU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
uint64_t LoadU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

Status WriteIndexBlobFile(
    const std::string& path,
    const std::vector<std::pair<uint32_t, std::string>>& blobs) {
  std::vector<const std::pair<uint32_t, std::string>*> kept;
  for (const auto& b : blobs) {
    if (!b.second.empty()) kept.push_back(&b);
  }
  if (kept.size() > kMaxIndexBlobEntries) {
    return Status::ResourceExhausted(
        "too many categories for the index sidecar directory (" +
        std::to_string(kept.size()) + " > " +
        std::to_string(kMaxIndexBlobEntries) + ")");
  }

  std::string image(kBlock, '\0');
  uint64_t cursor = kBlock;
  for (size_t i = 0; i < kept.size(); ++i) {
    uint8_t* e = reinterpret_cast<uint8_t*>(&image[24 + i * kEntryBytes]);
    StoreU32(e, kept[i]->first);
    StoreU32(e + 4, 0);
    StoreU64(e + 8, cursor);
    StoreU64(e + 16, kept[i]->second.size());
    cursor += (kept[i]->second.size() + kBlock - 1) / kBlock * kBlock;
  }
  uint8_t* head = reinterpret_cast<uint8_t*>(&image[0]);
  std::memcpy(head, kMagic, 8);
  StoreU32(head + 8, 1);
  StoreU32(head + 12, static_cast<uint32_t>(kept.size()));
  StoreU32(head + 16, Crc32(head + 24, kept.size() * kEntryBytes));
  StoreU32(head + 20, 0);

  image.reserve(cursor);
  for (const auto* b : kept) {
    image.append(b->second);
    image.resize((image.size() + kBlock - 1) / kBlock * kBlock, '\0');
  }

  return util::WriteFileAtomic(path, image);
}

Result<IndexBlobFile> OpenIndexBlobFile(const std::string& path,
                                        bool force_read_fallback) {
  auto file_or = util::MmapFile::Open(path, force_read_fallback);
  if (!file_or.ok()) return file_or.status();
  std::shared_ptr<util::MmapFile> file = std::move(file_or).value();

  if (file->size() < kBlock) {
    return Status::Internal("index sidecar too short: " + path);
  }
  const uint8_t* head = file->data();
  if (std::memcmp(head, kMagic, 8) != 0) {
    return Status::Internal("index sidecar bad magic: " + path);
  }
  if (LoadU32(head + 8) != 1) {
    return Status::Internal("index sidecar unsupported version: " + path);
  }
  const uint32_t num = LoadU32(head + 12);
  if (num > kMaxIndexBlobEntries) {
    return Status::Internal("index sidecar directory overflow: " + path);
  }
  if (LoadU32(head + 16) != Crc32(head + 24, num * kEntryBytes)) {
    return Status::Internal("index sidecar directory checksum mismatch: " +
                            path);
  }

  IndexBlobFile out;
  out.entries.reserve(num);
  for (uint32_t i = 0; i < num; ++i) {
    const uint8_t* e = head + 24 + i * kEntryBytes;
    IndexBlobEntry entry;
    entry.category = LoadU32(e);
    entry.offset = LoadU64(e + 8);
    entry.length = LoadU64(e + 16);
    if (entry.offset % kBlock != 0 || entry.offset > file->size() ||
        entry.length > file->size() - entry.offset) {
      return Status::Internal("index sidecar entry out of bounds: " + path);
    }
    out.entries.push_back(entry);
  }
  out.file = std::move(file);
  return out;
}

}  // namespace storage
}  // namespace cloakdb
