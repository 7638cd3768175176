// Read-only memory-mapped file with a graceful read() fallback.
//
// The packed StaticRTree (index/static_rtree.h) serializes into one
// contiguous blob; on restart the shard maps the sidecar blob file and
// points the tree's node/leaf/coordinate spans straight into the mapping —
// no allocation, no STR rebuild, pages fault in on first touch. When mmap
// is unavailable (exotic filesystems, sandboxes, or a forced fallback in
// tests) the whole file is read into an owned heap buffer instead; callers
// observe the same `data()/size()` either way and can report which path was
// taken through `mapped()`.

#ifndef CLOAKDB_UTIL_MMAP_FILE_H_
#define CLOAKDB_UTIL_MMAP_FILE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/status.h"

namespace cloakdb {
namespace util {

/// An immutable byte view of one file, mmap-backed when possible.
class MmapFile {
 public:
  /// Opens `path` read-only; NotFound only when it does not exist.
  /// `force_read_fallback` skips mmap and always loads through read() —
  /// exercised by tests to cover the fallback path deterministically.
  static Result<std::shared_ptr<MmapFile>> Open(
      const std::string& path, bool force_read_fallback = false);

  ~MmapFile();

  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  /// True when the bytes come from an mmap mapping (false = heap fallback).
  bool mapped() const { return mapped_; }
  const std::string& path() const { return path_; }

 private:
  MmapFile() = default;

  std::string path_;
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  bool mapped_ = false;
  void* map_base_ = nullptr;     ///< munmap target when mapped_.
  std::vector<uint8_t> owned_;   ///< Backing store on the read() fallback.
};

}  // namespace util
}  // namespace cloakdb

#endif  // CLOAKDB_UTIL_MMAP_FILE_H_
