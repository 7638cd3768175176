// Hex fixture files under tests/corpus/: one byte format per file, written
// as lowercase hex, 32 bytes per line, with '#' comment lines. The golden
// suite pins encoder output to them; the mutation suite seeds from them.

#ifndef CLOAKDB_TESTS_CODEC_CORPUS_H_
#define CLOAKDB_TESTS_CODEC_CORPUS_H_

#include <cctype>
#include <fstream>
#include <sstream>
#include <string>

namespace cloakdb::testing {

inline std::string CorpusPath(const std::string& name) {
  return std::string(CLOAKDB_SOURCE_DIR) + "/tests/corpus/" + name + ".hex";
}

/// Lowercase hex, 64 digits per line.
inline std::string ToHex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (size_t i = 0; i < bytes.size(); ++i) {
    const auto b = static_cast<unsigned char>(bytes[i]);
    out += kDigits[b >> 4];
    out += kDigits[b & 15];
    if (i % 32 == 31 || i + 1 == bytes.size()) out += '\n';
  }
  return out;
}

/// The bytes of fixture `name`; empty when the file is missing.
inline std::string ReadHexFixture(const std::string& name) {
  std::ifstream in(CorpusPath(name));
  std::string line, digits;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] == '#') continue;
    for (char c : line) {
      if (std::isxdigit(static_cast<unsigned char>(c))) digits += c;
    }
  }
  std::string bytes;
  for (size_t i = 0; i + 1 < digits.size(); i += 2) {
    bytes += static_cast<char>(std::stoi(digits.substr(i, 2), nullptr, 16));
  }
  return bytes;
}

}  // namespace cloakdb::testing

#endif  // CLOAKDB_TESTS_CODEC_CORPUS_H_
