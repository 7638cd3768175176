#include "util/atomic_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace cloakdb {
namespace util {

namespace {

Status Errno(const std::string& what, const std::string& path) {
  const int err = errno;
  return Status::Internal(what + " " + path + ": " + std::strerror(err));
}

}  // namespace

Status WriteFileSynced(const std::string& path, std::string_view bytes) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return Errno("cannot create", path);
  Status st;
  size_t off = 0;
  while (st.ok() && off < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) st = Errno("write failed on", path);
    else off += static_cast<size_t>(n);
  }
  if (st.ok() && ::fsync(fd) != 0) st = Errno("fsync failed on", path);
  if (::close(fd) != 0 && st.ok()) st = Errno("close failed on", path);
  return st;
}

Status WriteFileAtomic(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  Status st = WriteFileSynced(tmp, bytes);
  if (st.ok() && ::rename(tmp.c_str(), path.c_str()) != 0)
    st = Errno("cannot rename " + tmp + " to", path);
  if (!st.ok()) {
    ::unlink(tmp.c_str());
    return st;
  }
  // The rename is only durable once the directory entry is.
  const size_t slash = path.rfind('/');
  const std::string dir = slash == std::string::npos ? "."
                          : slash == 0               ? "/"
                                                     : path.substr(0, slash);
  int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd < 0) return Errno("cannot open directory", dir);
  if (::fsync(dfd) != 0) st = Errno("fsync failed on directory", dir);
  ::close(dfd);
  return st;
}

}  // namespace util
}  // namespace cloakdb
