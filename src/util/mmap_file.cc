#include "util/mmap_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace cloakdb {
namespace util {

Result<std::shared_ptr<MmapFile>> MmapFile::Open(const std::string& path,
                                                 bool force_read_fallback) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    const int err = errno;
    std::string msg = "cannot open " + path + ": " + std::strerror(err);
    // Only a missing file is NotFound; callers treat that as "never
    // written", which must not swallow a permission or I/O error.
    return err == ENOENT ? Status::NotFound(std::move(msg))
                         : Status::Internal(std::move(msg));
  }

  struct stat st;
  if (::fstat(fd, &st) != 0) {
    int err = errno;
    ::close(fd);
    return Status::Internal("fstat failed on " + path + ": " +
                            std::strerror(err));
  }
  auto size = static_cast<size_t>(st.st_size);

  auto file = std::shared_ptr<MmapFile>(new MmapFile());
  file->path_ = path;
  file->size_ = size;

  if (size == 0) {
    // Zero-length mappings are invalid; an empty file is just empty bytes.
    ::close(fd);
    file->data_ = reinterpret_cast<const uint8_t*>("");
    return file;
  }

  if (!force_read_fallback) {
    void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (base != MAP_FAILED) {
      ::close(fd);
      file->map_base_ = base;
      file->data_ = static_cast<const uint8_t*>(base);
      file->mapped_ = true;
      return file;
    }
  }

  // Fallback: pull the whole file through read() into an owned buffer.
  file->owned_.resize(size);
  size_t off = 0;
  while (off < size) {
    ssize_t n = ::pread(fd, file->owned_.data() + off, size - off,
                        static_cast<off_t>(off));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      int err = errno;
      ::close(fd);
      return Status::Internal("short read on " + path + ": " +
                              (n < 0 ? std::strerror(err) : "EOF"));
    }
    off += static_cast<size_t>(n);
  }
  ::close(fd);
  file->data_ = file->owned_.data();
  return file;
}

MmapFile::~MmapFile() {
  if (map_base_ != nullptr) ::munmap(map_base_, size_);
}

}  // namespace util
}  // namespace cloakdb
