#include "util/byte_codec.h"

namespace cloakdb {
namespace util {

namespace {

// Table-driven CRC-32 (reflected 0xEDB88320). The table is built once at
// first use; 1 KiB, cache-friendly, and fast enough for WAL and file
// framing (the storage layer is I/O-bound long before it is CRC-bound).
struct Crc32Table {
  uint32_t t[256];
  Crc32Table() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
  }
};

const Crc32Table& Table() {
  static const Crc32Table table;
  return table;
}

}  // namespace

uint32_t Crc32Update(uint32_t crc, const void* data, size_t len) {
  const auto& t = Table().t;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    c = t[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

uint32_t Crc32(const void* data, size_t len) {
  return Crc32Update(0, data, len);
}

}  // namespace util
}  // namespace cloakdb
