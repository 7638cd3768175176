// Durable whole-file replacement: the one way CloakDB commits a file.
//
// `WriteFileAtomic` writes the bytes to `<path>.tmp`, fsyncs it, renames it
// over `path` and fsyncs the parent directory, so a reader (or a restart
// after a crash at any instant) sees either the previous file or the new
// one, never a torn mix. Shard checkpoints, the static-index sidecar and
// the tools' status/trace dumps all go through it.

#ifndef CLOAKDB_UTIL_ATOMIC_FILE_H_
#define CLOAKDB_UTIL_ATOMIC_FILE_H_

#include <string>
#include <string_view>

#include "util/status.h"

namespace cloakdb {
namespace util {

/// Creates or truncates `path`, writes every byte (retrying short and
/// EINTR-interrupted writes) and fsyncs it. The first half of
/// WriteFileAtomic; on its own it models a crash just before the rename.
Status WriteFileSynced(const std::string& path, std::string_view bytes);

/// Replaces `path` with `bytes` atomically and durably (see the file
/// comment). On failure the temp file is removed and `path` is untouched.
Status WriteFileAtomic(const std::string& path, std::string_view bytes);

}  // namespace util
}  // namespace cloakdb

#endif  // CLOAKDB_UTIL_ATOMIC_FILE_H_
