// The one byte codec: every wire frame, WAL record and checkpoint in
// CloakDB is written and read through this header.
//
// Encoding: fixed-width little-endian integers, doubles as IEEE-754 bit
// patterns (bit-exact round trips, NaN payloads included), strings as a
// u32 length plus raw bytes. Multi-byte values are copied whole with
// memcpy, so the host must be little-endian (checked at compile time).
//
// ByteReader is latching: a read past the end, a bool byte above 1, a
// string over its cap or a count over its cap makes ok() false, and every
// later read returns zero. Decoders read a whole record and check Done()
// once at the end; counts are still vetted as they are read (Count), so a
// hostile count fails before the caller reserves anything.
//
// Caps are shared by writer and reader: String clips to the same max_len
// the reader enforces, so no writer emits a string its reader rejects.
// Callers whose data must not be clipped (object names) reject over-cap
// values before encoding (CheckPublicObject).
//
// Load/Store are the fixed-offset accessors of the file headers and WAL
// frames, and Crc32 is the one checksum: WAL frames and checkpoint.db both
// check with it.

#ifndef CLOAKDB_UTIL_BYTE_CODEC_H_
#define CLOAKDB_UTIL_BYTE_CODEC_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace cloakdb {
namespace util {

static_assert(std::endian::native == std::endian::little,
              "the byte codec copies little-endian words as-is");

/// Upper bound on one length-prefixed string (object names, messages) in
/// every format: the wire, the WAL and the checkpoint snapshot.
inline constexpr uint32_t kMaxStringBytes = 64u << 10;

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320, init/final 0xFFFFFFFF).
uint32_t Crc32(const void* data, size_t len);

/// Incremental form: feed `crc` from a previous call (start with 0).
uint32_t Crc32Update(uint32_t crc, const void* data, size_t len);

/// Reads a fixed-width value at `p` (no alignment required).
template <typename T>
T Load(const void* p) {
  T v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// Writes a fixed-width value at `p` (no alignment required).
template <typename T>
void Store(void* p, T v) {
  std::memcpy(p, &v, sizeof(v));
}

/// Append-only encoder over a std::string.
class ByteWriter {
 public:
  explicit ByteWriter(std::string* out) : out_(out) {}

  void U8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void U16(uint16_t v) { Put(v); }
  void U32(uint32_t v) { Put(v); }
  void U64(uint64_t v) { Put(v); }
  void F64(double v) { Put(v); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  /// u32 length + bytes, clipped to `max_len` (the reader's cap).
  void String(std::string_view s, uint32_t max_len = kMaxStringBytes) {
    if (s.size() > max_len) s = s.substr(0, max_len);
    U32(static_cast<uint32_t>(s.size()));
    out_->append(s);
  }
  void Bytes(std::string_view bytes) { out_->append(bytes); }

  /// Buffer size so far: the offset the next write lands at.
  size_t size() const { return out_->size(); }
  /// Overwrites the u32 written earlier at buffer offset `at`.
  void PatchU32(size_t at, uint32_t v) { Store(out_->data() + at, v); }

 private:
  template <typename T>
  void Put(T v) {
    char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    out_->append(bytes, sizeof(T));
  }

  std::string* out_;
};

/// Bounds-checked, latching decoder over a byte span (see the file
/// comment).
class ByteReader {
 public:
  ByteReader(const void* data, size_t len)
      : p_(static_cast<const uint8_t*>(data)), len_(len) {}
  explicit ByteReader(std::string_view bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  uint8_t U8() { return Get<uint8_t>(); }
  uint16_t U16() { return Get<uint16_t>(); }
  uint32_t U32() { return Get<uint32_t>(); }
  uint64_t U64() { return Get<uint64_t>(); }
  double F64() { return Get<double>(); }
  /// A byte above 1 latches failure.
  bool Bool() {
    const uint8_t v = U8();
    if (v > 1) ok_ = false;
    return v == 1;
  }
  /// u32 length + bytes; a length over `max_len` latches failure.
  std::string String(uint32_t max_len = kMaxStringBytes) {
    const uint32_t n = U32();
    if (n > max_len || !Need(n)) {
      ok_ = false;
      return {};
    }
    std::string s(reinterpret_cast<const char*>(p_ + pos_), n);
    pos_ += n;
    return s;
  }
  /// A u32 element count. Latches failure (and returns 0) when it exceeds
  /// `max_count` or when the bytes left cannot hold `min_element_bytes`
  /// per element, so the caller may reserve() the result.
  uint32_t Count(size_t min_element_bytes, uint32_t max_count = UINT32_MAX) {
    const uint32_t n = U32();
    if (n > max_count || n > remaining() / min_element_bytes) {
      ok_ = false;
      return 0;
    }
    return n;
  }

  size_t remaining() const { return len_ - pos_; }
  /// True while every read so far succeeded.
  bool ok() const { return ok_; }
  /// True iff every read succeeded and the input was consumed exactly
  /// (trailing bytes mean a framing bug or version skew).
  bool Done() const { return ok_ && pos_ == len_; }

 private:
  bool Need(size_t n) {
    if (!ok_ || len_ - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }
  template <typename T>
  T Get() {
    if (!Need(sizeof(T))) return T{};
    const T v = Load<T>(p_ + pos_);
    pos_ += sizeof(T);
    return v;
  }

  const uint8_t* p_;
  size_t len_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace util
}  // namespace cloakdb

#endif  // CLOAKDB_UTIL_BYTE_CODEC_H_
