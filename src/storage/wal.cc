#include "storage/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "util/byte_codec.h"

namespace cloakdb {
namespace storage {

namespace {

// "CWAL"
constexpr uint32_t kWalMagic = 0x4C415743u;
constexpr uint32_t kWalVersion = 1;

std::string ErrnoMessage(const char* op, const std::string& path) {
  return std::string(op) + " failed for " + path + ": " +
         std::strerror(errno);
}

std::string EncodeWalHeader() {
  std::string out;
  util::ByteWriter w(&out);
  w.U32(kWalMagic);
  w.U32(kWalVersion);
  return out;
}

}  // namespace

std::string EncodeWalFrame(const std::string& payload) {
  std::string out;
  out.reserve(8 + payload.size());
  util::ByteWriter w(&out);
  w.U32(static_cast<uint32_t>(payload.size()));
  w.U32(util::Crc32(payload.data(), payload.size()));
  w.Bytes(payload);
  return out;
}

Result<uint64_t> WalPayloadLsn(const std::string& payload) {
  util::ByteReader r(payload);
  const uint64_t lsn = r.U64();
  if (!r.ok()) return Status::MalformedRequest("WAL payload shorter than LSN");
  return lsn;
}

Result<WalScan> ScanWal(const std::string& path) {
  WalScan scan;
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return scan;  // no log yet: empty scan
    return Status::Internal(ErrnoMessage("open", path));
  }
  scan.exists = true;

  // Read the whole file; shard WALs are bounded by the checkpoint interval,
  // and recovery wants every record in memory anyway.
  std::string contents;
  {
    char buf[1 << 16];
    ssize_t n;
    while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
      contents.append(buf, static_cast<size_t>(n));
    }
    ::close(fd);
    if (n < 0) return Status::Internal(ErrnoMessage("read", path));
  }

  if (contents.size() < kWalHeaderBytes) {
    // Header itself torn (crash during file creation): treat as an empty
    // log that needs re-creation.
    scan.valid_bytes = 0;
    if (!contents.empty()) scan.truncated_records = 1;
    return scan;
  }
  if (util::Load<uint32_t>(contents.data()) != kWalMagic) {
    return Status::FailedPrecondition(path + " is not a CloakDB WAL");
  }
  if (util::Load<uint32_t>(contents.data() + 4) != kWalVersion) {
    return Status::FailedPrecondition("unsupported WAL version in " + path);
  }

  size_t pos = kWalHeaderBytes;
  uint64_t expect_lsn = 0;  // 0 = accept any first LSN
  while (pos < contents.size()) {
    // Frame checks, strictly in tear order: header, length cap, body
    // completeness, CRC, LSN sequence. Any failure ends the valid prefix.
    if (contents.size() - pos < 8) break;
    const uint32_t len = util::Load<uint32_t>(contents.data() + pos);
    const uint32_t crc = util::Load<uint32_t>(contents.data() + pos + 4);
    if (len == 0 || len > kMaxWalRecordBytes) break;
    if (contents.size() - pos - 8 < len) break;
    const char* body = contents.data() + pos + 8;
    if (util::Crc32(body, len) != crc) break;
    std::string payload(body, len);
    auto lsn = WalPayloadLsn(payload);
    if (!lsn.ok() || lsn.value() == 0) break;
    if (expect_lsn != 0 && lsn.value() != expect_lsn) break;
    expect_lsn = lsn.value() + 1;
    if (scan.payloads.empty()) scan.first_lsn = lsn.value();
    scan.last_lsn = lsn.value();
    scan.payloads.push_back(std::move(payload));
    pos += 8 + len;
    scan.record_ends.push_back(pos);
  }
  scan.valid_bytes = pos;
  if (pos < contents.size()) scan.truncated_records = 1;
  return scan;
}

WalAppender::WalAppender(int fd, std::string path, uint64_t size)
    : fd_(fd), path_(std::move(path)), size_(size) {}

WalAppender::~WalAppender() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<WalAppender>> WalAppender::Open(const std::string& path,
                                                       uint64_t valid_bytes) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) return Status::Internal(ErrnoMessage("open", path));
  auto appender =
      std::unique_ptr<WalAppender>(new WalAppender(fd, path, valid_bytes));
  if (valid_bytes < kWalHeaderBytes) {
    // Fresh (or header-torn) log: write the header from scratch.
    if (::ftruncate(fd, 0) != 0) {
      return Status::Internal(ErrnoMessage("ftruncate", path));
    }
    std::string header = EncodeWalHeader();
    ssize_t n = ::pwrite(fd, header.data(), header.size(), 0);
    if (n < 0 || static_cast<size_t>(n) != header.size()) {
      return Status::Internal(ErrnoMessage("pwrite", path));
    }
    if (::fsync(fd) != 0) {
      return Status::Internal(ErrnoMessage("fsync", path));
    }
    appender->size_ = kWalHeaderBytes;
    return appender;
  }
  // Drop any torn tail beyond the scanner's valid prefix before appending.
  if (::ftruncate(fd, static_cast<off_t>(valid_bytes)) != 0) {
    return Status::Internal(ErrnoMessage("ftruncate", path));
  }
  return appender;
}

void WalAppender::Append(const std::string& payload) {
  buffer_ += EncodeWalFrame(payload);
}

void WalAppender::AppendTorn(const std::string& payload, size_t keep_bytes) {
  std::string frame = EncodeWalFrame(payload);
  buffer_ += frame.substr(0, std::min(keep_bytes, frame.size()));
}

Status WalAppender::Commit(bool sync) {
  if (!buffer_.empty()) {
    ssize_t n = ::pwrite(fd_, buffer_.data(), buffer_.size(),
                         static_cast<off_t>(size_));
    if (n < 0 || static_cast<size_t>(n) != buffer_.size()) {
      return Status::Internal(ErrnoMessage("pwrite", path_));
    }
    size_ += buffer_.size();
    buffer_.clear();
  }
  if (sync && ::fsync(fd_) != 0) {
    return Status::Internal(ErrnoMessage("fsync", path_));
  }
  return Status::OK();
}

Status WalAppender::SyncDisk() {
  if (::fsync(fd_) != 0) {
    return Status::Internal(ErrnoMessage("fsync", path_));
  }
  return Status::OK();
}

Status WalAppender::Reset() {
  buffer_.clear();
  if (::ftruncate(fd_, static_cast<off_t>(kWalHeaderBytes)) != 0) {
    return Status::Internal(ErrnoMessage("ftruncate", path_));
  }
  size_ = kWalHeaderBytes;
  if (::fsync(fd_) != 0) {
    return Status::Internal(ErrnoMessage("fsync", path_));
  }
  return Status::OK();
}

}  // namespace storage
}  // namespace cloakdb
