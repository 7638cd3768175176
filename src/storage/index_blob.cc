#include "storage/index_blob.h"

// File layout:
//   block 0 (4096 bytes):
//     0   char[8]  magic "CDBSIDX1"
//     8   u32      version (1)
//     12  u32      num_entries
//     16  u32      crc32 of the directory bytes [24, 24 + 24*num_entries)
//     20  u32      reserved (0)
//     24  {u32 category, u32 reserved, u64 offset, u64 length}[num_entries]
//   then each blob at the next 4096-byte boundary, in directory order;
//   the file ends at the last blob's padded end.

#include <algorithm>
#include <cstring>

#include "util/atomic_file.h"
#include "util/byte_codec.h"

namespace cloakdb {
namespace storage {

namespace {

constexpr char kMagic[8] = {'C', 'D', 'B', 'S', 'I', 'D', 'X', '1'};
constexpr size_t kBlock = 4096;
constexpr size_t kEntryBytes = 24;

uint64_t RoundUpToBlock(uint64_t n) {
  return (n + kBlock - 1) / kBlock * kBlock;
}

std::vector<const std::pair<uint32_t, std::string>*> NonEmpty(
    const std::vector<std::pair<uint32_t, std::string>>& blobs) {
  std::vector<const std::pair<uint32_t, std::string>*> kept;
  for (const auto& b : blobs) {
    if (!b.second.empty()) kept.push_back(&b);
  }
  return kept;
}

}  // namespace

std::string EncodeIndexBlobFile(
    const std::vector<std::pair<uint32_t, std::string>>& blobs) {
  const auto kept = NonEmpty(blobs);
  std::string image(kBlock, '\0');
  uint64_t cursor = kBlock;
  for (size_t i = 0; i < kept.size(); ++i) {
    char* e = &image[24 + i * kEntryBytes];
    util::Store<uint32_t>(e, kept[i]->first);
    util::Store<uint64_t>(e + 8, cursor);
    util::Store<uint64_t>(e + 16, kept[i]->second.size());
    cursor += RoundUpToBlock(kept[i]->second.size());
  }
  char* head = image.data();
  std::memcpy(head, kMagic, 8);
  util::Store<uint32_t>(head + 8, 1);
  util::Store<uint32_t>(head + 12, static_cast<uint32_t>(kept.size()));
  util::Store<uint32_t>(head + 16,
                        util::Crc32(head + 24, kept.size() * kEntryBytes));

  image.reserve(cursor);
  for (const auto* b : kept) {
    image.append(b->second);
    image.resize(RoundUpToBlock(image.size()), '\0');
  }
  return image;
}

Status WriteIndexBlobFile(
    const std::string& path,
    const std::vector<std::pair<uint32_t, std::string>>& blobs) {
  const size_t kept = NonEmpty(blobs).size();
  if (kept > kMaxIndexBlobEntries) {
    return Status::ResourceExhausted(
        "too many categories for the index sidecar directory (" +
        std::to_string(kept) + " > " +
        std::to_string(kMaxIndexBlobEntries) + ")");
  }
  return util::WriteFileAtomic(path, EncodeIndexBlobFile(blobs));
}

Result<std::vector<IndexBlobEntry>> DecodeIndexBlobDirectory(
    std::string_view file) {
  if (file.size() < kBlock) {
    return Status::Internal("index sidecar too short");
  }
  const char* head = file.data();
  if (std::memcmp(head, kMagic, 8) != 0) {
    return Status::Internal("index sidecar bad magic");
  }
  if (util::Load<uint32_t>(head + 8) != 1) {
    return Status::Internal("index sidecar unsupported version");
  }
  const uint32_t num = util::Load<uint32_t>(head + 12);
  if (num > kMaxIndexBlobEntries) {
    return Status::Internal("index sidecar directory overflow");
  }
  if (util::Load<uint32_t>(head + 16) !=
      util::Crc32(head + 24, num * kEntryBytes)) {
    return Status::Internal("index sidecar directory checksum mismatch");
  }

  std::vector<IndexBlobEntry> entries(num);
  uint64_t end = kBlock;
  for (uint32_t i = 0; i < num; ++i) {
    const char* e = head + 24 + i * kEntryBytes;
    IndexBlobEntry& entry = entries[i];
    entry.category = util::Load<uint32_t>(e);
    entry.offset = util::Load<uint64_t>(e + 8);
    entry.length = util::Load<uint64_t>(e + 16);
    if (entry.offset % kBlock != 0 || entry.offset > file.size() ||
        entry.length > file.size() - entry.offset) {
      return Status::Internal("index sidecar entry out of bounds");
    }
    end = std::max(end, entry.offset + RoundUpToBlock(entry.length));
  }
  // Any other size is a truncated or extended file.
  if (file.size() != end) {
    return Status::Internal("index sidecar size mismatch");
  }
  return entries;
}

Result<IndexBlobFile> OpenIndexBlobFile(const std::string& path,
                                        bool force_read_fallback) {
  auto file_or = util::MmapFile::Open(path, force_read_fallback);
  if (!file_or.ok()) return file_or.status();
  IndexBlobFile out;
  out.file = std::move(file_or).value();
  auto entries = DecodeIndexBlobDirectory(
      {reinterpret_cast<const char*>(out.file->data()), out.file->size()});
  if (!entries.ok()) {
    return Status::Internal(entries.status().message() + ": " + path);
  }
  out.entries = std::move(entries).value();
  return out;
}

}  // namespace storage
}  // namespace cloakdb
