// Sidecar file holding the sealed StaticRTree blobs of one shard.
//
// The checkpoint blob (shard_durability.h) stays the source of truth for
// *what* objects exist; this file is a pure accelerator holding the packed
// per-category index bytes so a restarting shard can mmap them instead of
// re-running STR builds. It lives next to the WAL and checkpoint
// (`<data_dir>/shard-<i>/static_index.blob`) and is written with
// util::WriteFileAtomic right after each checkpoint.
//
// Why a separate file rather than more bytes in checkpoint.db: the
// checkpoint is the CRC-checked source of truth and is copied into memory
// on recovery, while this file is meant to be mapped in place. Here every
// embedded blob starts on a 4096-byte boundary, which keeps the tree's
// 1024-aligned leaf section page-aligned inside the mapping.
//
// Recovery treats this file as untrusted: a missing, truncated, or
// corrupt sidecar (or one that disagrees with the checkpoint) must never
// fail recovery — the caller verifies each adopted tree against the
// decoded snapshot and falls back to an in-memory rebuild (see
// Shard::RestoreSnapshot).

#ifndef CLOAKDB_STORAGE_INDEX_BLOB_H_
#define CLOAKDB_STORAGE_INDEX_BLOB_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/mmap_file.h"
#include "util/status.h"

namespace cloakdb {
namespace storage {

/// Directory entry: one category's sealed-tree blob within the file.
struct IndexBlobEntry {
  uint32_t category = 0;
  uint64_t offset = 0;  ///< 4096-aligned file offset of the tree blob.
  uint64_t length = 0;
};

/// At most this many categories fit the one-block directory; shards with
/// more simply skip the sidecar (recovery rebuilds, correctness unharmed).
inline constexpr size_t kMaxIndexBlobEntries = 169;

/// The sidecar file image of `blobs` (category -> serialized StaticRTree;
/// empty blobs are skipped). At most kMaxIndexBlobEntries non-empty blobs.
std::string EncodeIndexBlobFile(
    const std::vector<std::pair<uint32_t, std::string>>& blobs);

/// Validates a sidecar image's header and directory (magic, version,
/// directory CRC, entry bounds) and returns the directory.
Result<std::vector<IndexBlobEntry>> DecodeIndexBlobDirectory(
    std::string_view file);

/// Writes EncodeIndexBlobFile(blobs) to `path` atomically. An empty list
/// still writes a valid (header-only) file so stale sidecars from older
/// checkpoints cannot be adopted.
Status WriteIndexBlobFile(
    const std::string& path,
    const std::vector<std::pair<uint32_t, std::string>>& blobs);

/// An opened sidecar: the mapping plus its decoded directory.
struct IndexBlobFile {
  std::shared_ptr<util::MmapFile> file;
  std::vector<IndexBlobEntry> entries;
};

/// Opens and validates `path` (header magic + directory CRC; per-blob
/// integrity is the StaticRTree's own CRC frame, checked on FromMapped).
Result<IndexBlobFile> OpenIndexBlobFile(const std::string& path,
                                        bool force_read_fallback = false);

}  // namespace storage
}  // namespace cloakdb

#endif  // CLOAKDB_STORAGE_INDEX_BLOB_H_
