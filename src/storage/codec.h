// Byte-level codec helpers for the durable storage layer.
//
// Everything the storage engine writes to disk — WAL records, checkpoint
// blobs, file headers — goes through these helpers so the on-disk
// encoding follows one discipline, mirrored from the wire
// protocol (src/net/protocol.*): fixed-width little-endian integers,
// doubles as IEEE-754 bit patterns (bit-exact round trips, no printf
// lossiness), strings as u32 length + raw bytes, and bounds-checked
// decoding that fails with a Status instead of reading past the buffer.
//
// The CRC32 here (polynomial 0xEDB88320, the zlib/IEEE one) is the only
// checksum implementation in the repo; the WAL frames, the checkpoint
// file and the index sidecar all check with it.

#ifndef CLOAKDB_STORAGE_CODEC_H_
#define CLOAKDB_STORAGE_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

#include "util/status.h"

namespace cloakdb {
namespace storage {

/// CRC-32 (IEEE 802.3, reflected, init/final 0xFFFFFFFF) of `len` bytes.
uint32_t Crc32(const void* data, size_t len);

/// Incremental form: feed `crc` from a previous call (start with 0).
uint32_t Crc32Update(uint32_t crc, const void* data, size_t len);

/// Append-only little-endian encoder over a std::string buffer.
class BufWriter {
 public:
  explicit BufWriter(std::string* out) : out_(out) {}

  void PutU8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v) {
    char b[4];
    for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    out_->append(b, 4);
  }
  void PutU64(uint64_t v) {
    char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    out_->append(b, 8);
  }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }
  /// IEEE-754 bit pattern; round-trips bit-exactly (NaN payloads included).
  void PutDouble(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    PutU64(bits);
  }
  /// u32 length + raw bytes.
  void PutString(const std::string& s) {
    PutU32(static_cast<uint32_t>(s.size()));
    out_->append(s);
  }
  void PutBytes(const void* data, size_t len) {
    out_->append(static_cast<const char*>(data), len);
  }

 private:
  std::string* out_;
};

/// Bounds-checked little-endian decoder over a byte span. Every getter
/// fails with kMalformedRequest instead of reading past `len` — corrupted
/// or truncated on-disk data must surface as a recoverable error, never as
/// undefined behaviour.
class BufReader {
 public:
  BufReader(const void* data, size_t len)
      : p_(static_cast<const uint8_t*>(data)), len_(len) {}
  explicit BufReader(const std::string& s) : BufReader(s.data(), s.size()) {}

  size_t remaining() const { return len_ - pos_; }
  size_t position() const { return pos_; }

  Status GetU8(uint8_t* v) {
    CLOAKDB_RETURN_IF_ERROR(Need(1));
    *v = p_[pos_++];
    return Status::OK();
  }
  Status GetU32(uint32_t* v) {
    CLOAKDB_RETURN_IF_ERROR(Need(4));
    uint32_t r = 0;
    for (int i = 0; i < 4; ++i) r |= static_cast<uint32_t>(p_[pos_ + i]) << (8 * i);
    pos_ += 4;
    *v = r;
    return Status::OK();
  }
  Status GetU64(uint64_t* v) {
    CLOAKDB_RETURN_IF_ERROR(Need(8));
    uint64_t r = 0;
    for (int i = 0; i < 8; ++i) r |= static_cast<uint64_t>(p_[pos_ + i]) << (8 * i);
    pos_ += 8;
    *v = r;
    return Status::OK();
  }
  Status GetI64(int64_t* v) {
    uint64_t u = 0;
    CLOAKDB_RETURN_IF_ERROR(GetU64(&u));
    *v = static_cast<int64_t>(u);
    return Status::OK();
  }
  Status GetBool(bool* v) {
    uint8_t u = 0;
    CLOAKDB_RETURN_IF_ERROR(GetU8(&u));
    if (u > 1) return Status::MalformedRequest("bool byte out of range");
    *v = (u != 0);
    return Status::OK();
  }
  Status GetDouble(double* v) {
    uint64_t bits = 0;
    CLOAKDB_RETURN_IF_ERROR(GetU64(&bits));
    std::memcpy(v, &bits, sizeof(*v));
    return Status::OK();
  }
  /// Length-capped string read; `max_len` guards against a corrupted
  /// length field committing the reader to a giant allocation.
  Status GetString(std::string* s, uint32_t max_len = 1u << 20) {
    uint32_t n = 0;
    CLOAKDB_RETURN_IF_ERROR(GetU32(&n));
    if (n > max_len) return Status::MalformedRequest("string length over cap");
    CLOAKDB_RETURN_IF_ERROR(Need(n));
    s->assign(reinterpret_cast<const char*>(p_ + pos_), n);
    pos_ += n;
    return Status::OK();
  }

 private:
  Status Need(size_t n) {
    if (len_ - pos_ < n) {
      return Status::MalformedRequest("truncated storage buffer");
    }
    return Status::OK();
  }

  const uint8_t* p_;
  size_t len_;
  size_t pos_ = 0;
};

}  // namespace storage
}  // namespace cloakdb

#endif  // CLOAKDB_STORAGE_CODEC_H_
