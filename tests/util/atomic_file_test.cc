#include "util/atomic_file.h"

#include <unistd.h>

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

namespace cloakdb {
namespace util {
namespace {

std::string TempDir(const std::string& tag) {
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("cloakdb_atomic_" + tag + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::string ReadFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f),
                     std::istreambuf_iterator<char>());
}

TEST(AtomicFileTest, RoundTripsBytes) {
  const std::string path = TempDir("roundtrip") + "/file.bin";
  std::string bytes(70000, '\0');
  for (size_t i = 0; i < bytes.size(); ++i)
    bytes[i] = static_cast<char>(i * 31);
  ASSERT_TRUE(WriteFileAtomic(path, bytes).ok());
  EXPECT_EQ(ReadFile(path), bytes);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(AtomicFileTest, OverwriteReplacesTheWholeFile) {
  const std::string path = TempDir("overwrite") + "/file.txt";
  ASSERT_TRUE(WriteFileAtomic(path, "a much longer first version").ok());
  ASSERT_TRUE(WriteFileAtomic(path, "short").ok());
  EXPECT_EQ(ReadFile(path), "short");
  ASSERT_TRUE(WriteFileAtomic(path, "").ok());
  EXPECT_EQ(std::filesystem::file_size(path), 0u);
}

TEST(AtomicFileTest, MissingDirectoryFailsWithoutStrayTempFile) {
  const std::string dir = TempDir("missing");
  const std::string path = dir + "/no/such/dir/file.txt";
  Status st = WriteFileAtomic(path, "bytes");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_TRUE(std::filesystem::is_empty(dir));
}

TEST(AtomicFileTest, FailedRenameKeepsTargetAndRemovesTempFile) {
  const std::string dir = TempDir("rename");
  const std::string path = dir + "/target";
  std::filesystem::create_directory(path);  // a file cannot replace it
  EXPECT_FALSE(WriteFileAtomic(path, "bytes").ok());
  EXPECT_TRUE(std::filesystem::is_directory(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

}  // namespace
}  // namespace util
}  // namespace cloakdb
