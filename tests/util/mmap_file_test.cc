#include "util/mmap_file.h"

#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

namespace cloakdb {
namespace util {
namespace {

std::string TempPath(const std::string& tag) {
  std::filesystem::path p =
      std::filesystem::temp_directory_path() /
      ("cloakdb_mmap_" + tag + "_" + std::to_string(::getpid()) + ".bin");
  std::filesystem::remove(p);
  return p.string();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  ASSERT_EQ(std::fclose(f), 0);
}

std::string AsString(const MmapFile& file) {
  return std::string(reinterpret_cast<const char*>(file.data()), file.size());
}

TEST(MmapFileTest, MissingFileFails) {
  auto file = MmapFile::Open(TempPath("missing"));
  EXPECT_FALSE(file.ok());
  EXPECT_EQ(file.status().code(), StatusCode::kNotFound);
}

TEST(MmapFileTest, OtherOpenErrorsAreNotNotFound) {
  // A path through a regular file fails with ENOTDIR: the file is not
  // "missing", so callers must not mistake it for one never written.
  const std::string file = TempPath("notdir");
  WriteFile(file, "x");
  auto opened = MmapFile::Open(file + "/child");
  EXPECT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInternal);
}

TEST(MmapFileTest, MapsContentReadOnly) {
  const std::string path = TempPath("basic");
  const std::string payload = "cloakdb mmap payload \0 with a nul";
  WriteFile(path, payload);

  auto file = MmapFile::Open(path);
  ASSERT_TRUE(file.ok()) << file.status().message();
  EXPECT_TRUE(file.value()->mapped());
  EXPECT_EQ(file.value()->size(), payload.size());
  EXPECT_EQ(AsString(*file.value()), payload);
  EXPECT_EQ(file.value()->path(), path);
  std::filesystem::remove(path);
}

TEST(MmapFileTest, ReadFallbackSeesIdenticalBytes) {
  const std::string path = TempPath("fallback");
  std::string payload;
  for (int i = 0; i < 10000; ++i) payload.push_back(static_cast<char>(i * 7));
  WriteFile(path, payload);

  auto mapped = MmapFile::Open(path, /*force_read_fallback=*/false);
  auto fallback = MmapFile::Open(path, /*force_read_fallback=*/true);
  ASSERT_TRUE(mapped.ok());
  ASSERT_TRUE(fallback.ok());
  EXPECT_TRUE(mapped.value()->mapped());
  EXPECT_FALSE(fallback.value()->mapped());
  EXPECT_EQ(AsString(*mapped.value()), AsString(*fallback.value()));
  std::filesystem::remove(path);
}

TEST(MmapFileTest, EmptyFileOpensWithZeroSize) {
  const std::string path = TempPath("empty");
  WriteFile(path, "");

  for (const bool force_read : {false, true}) {
    auto file = MmapFile::Open(path, force_read);
    ASSERT_TRUE(file.ok()) << file.status().message();
    EXPECT_EQ(file.value()->size(), 0u);
  }
  std::filesystem::remove(path);
}

TEST(MmapFileTest, OutlivesFileDeletion) {
  // POSIX keeps mapped pages valid after unlink; the fallback owns a copy.
  const std::string path = TempPath("unlink");
  const std::string payload(4096, 'z');
  WriteFile(path, payload);

  for (const bool force_read : {false, true}) {
    WriteFile(path, payload);
    auto file = MmapFile::Open(path, force_read);
    ASSERT_TRUE(file.ok());
    std::filesystem::remove(path);
    EXPECT_EQ(AsString(*file.value()), payload);
  }
}

}  // namespace
}  // namespace util
}  // namespace cloakdb
