// Mutation suite over every decoder of the byte codec: wire frames (with
// admin payloads), WAL records, the WAL file, the shard snapshot, the
// checkpoint file, the StaticRTree blob and the index sidecar. Seeds are
// the golden fixtures under tests/corpus/; each decoder is driven through
// truncations, byte flips, boundary values written over every 4-byte
// window, random multi-byte corruption, trailing garbage and random
// buffers. Properties:
//   - nothing crashes (the suite also runs under ASan/UBSan);
//   - every seed decodes and re-encodes to itself;
//   - every truncation is rejected (the WAL file instead recovers a
//     strict prefix: a torn tail is never accepted);
//   - an accepted mutant re-encodes to bytes that decode and re-encode to
//     the same bytes (the WAL file: to an exact prefix of the seed log).

#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include "corpus.h"
#include "index/static_rtree.h"
#include "net/protocol.h"
#include "storage/index_blob.h"
#include "storage/shard_durability.h"
#include "storage/shard_snapshot.h"
#include "storage/wal.h"
#include "storage/wal_record.h"
#include "util/byte_codec.h"

namespace cloakdb {
namespace {

using testing::ReadHexFixture;

/// Decodes `bytes` and re-encodes the decoded value with the matching
/// encoder; an error means the decoder rejected the input.
using Reencoder = Result<std::string> (*)(const std::string& bytes);

Result<std::string> ReencodeFrame(const std::string& bytes) {
  const auto* data = reinterpret_cast<const uint8_t*>(bytes.data());
  net::FrameHeader header;
  CLOAKDB_RETURN_IF_ERROR(net::DecodeFrameHeader(data, bytes.size(), &header));
  // The payload decoders see every byte after the header, so truncated
  // and padded payloads reach them before the length check below.
  const uint8_t* payload = data + net::kFrameHeaderSize;
  const size_t len = bytes.size() - net::kFrameHeaderSize;
  const uint64_t id = header.request_id;
  std::string out;
  switch (header.type) {
    case net::FrameType::kQuery: {
      QueryRequest request;
      CLOAKDB_RETURN_IF_ERROR(net::DecodeQueryPayload(payload, len, &request));
      net::AppendQueryFrame(id, request, &out);
      break;
    }
    case net::FrameType::kResponse: {
      QueryResponse response;
      CLOAKDB_RETURN_IF_ERROR(
          net::DecodeResponsePayload(payload, len, &response));
      net::AppendResponseFrame(id, response, &out);
      break;
    }
    case net::FrameType::kError: {
      ErrorCode code;
      std::string message;
      CLOAKDB_RETURN_IF_ERROR(
          net::DecodeErrorPayload(payload, len, &code, &message));
      net::AppendErrorFrame(id, code, message, &out);
      break;
    }
    case net::FrameType::kPing:
      net::AppendPingFrame(id, &out);
      break;
    case net::FrameType::kPong:
      net::AppendPongFrame(id, &out);
      break;
    case net::FrameType::kAdminRequest: {
      net::AdminCommand command;
      uint32_t limit = 0;
      CLOAKDB_RETURN_IF_ERROR(
          net::DecodeAdminRequestPayload(payload, len, &command, &limit));
      net::AppendAdminRequestFrame(id, command, limit, &out);
      break;
    }
    case net::FrameType::kAdminResponse: {
      net::AdminCommand command;
      std::string body;
      CLOAKDB_RETURN_IF_ERROR(
          net::DecodeAdminResponsePayload(payload, len, &command, &body));
      net::AppendAdminResponseFrame(id, command, body, &out);
      break;
    }
  }
  if (header.payload_len != len) {
    return Status::MalformedRequest("payload_len does not match the frame");
  }
  return out;
}

Result<std::string> ReencodeWalRecord(const std::string& bytes) {
  auto record = storage::DecodeWalRecord(bytes);
  if (!record.ok()) return record.status();
  return storage::EncodeWalRecord(record.value());
}

/// The WAL file: scans it from disk and rewrites the recovered records
/// with WalAppender — the bytes of the prefix the scanner accepted.
Result<std::string> ReencodeWalFile(const std::string& bytes) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("cloakdb_mutation_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string in = (dir / "in.log").string();
  const std::string out = (dir / "out.log").string();
  std::ofstream(in, std::ios::binary | std::ios::trunc) << bytes;
  auto scan = storage::ScanWal(in);
  if (!scan.ok()) return scan.status();
  std::filesystem::remove(out);
  {
    auto wal = storage::WalAppender::Open(out, 0);
    if (!wal.ok()) return wal.status();
    for (const std::string& payload : scan.value().payloads) {
      wal.value()->Append(payload);
    }
    CLOAKDB_RETURN_IF_ERROR(wal.value()->Commit(/*sync=*/false));
  }
  std::ifstream f(out, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f),
                     std::istreambuf_iterator<char>());
}

Result<std::string> ReencodeSnapshot(const std::string& bytes) {
  auto snapshot = storage::DecodeShardSnapshot(bytes);
  if (!snapshot.ok()) return snapshot.status();
  return storage::EncodeShardSnapshot(snapshot.value());
}

Result<std::string> ReencodeCheckpoint(const std::string& bytes) {
  auto file = storage::DecodeCheckpointFile(bytes);
  if (!file.ok()) return file.status();
  return storage::EncodeCheckpointFile(file.value().lsn, file.value().blob);
}

/// A StaticRTree blob's value is its entry set; rebuilding from it must
/// reproduce the blob.
Result<std::string> RebuildTree(std::string blob) {
  auto tree = StaticRTree::FromBlob(std::move(blob));
  if (!tree.ok()) return tree.status();
  std::vector<PointEntry> entries;
  tree.value().ForEachEntry([&](ObjectId id, const Point& p) {
    entries.push_back({id, p});
  });
  auto rebuilt = StaticRTree::Build(std::move(entries));
  if (!rebuilt.ok()) return rebuilt.status();
  return rebuilt.value().SerializeBlob();
}

Result<std::string> ReencodeTree(const std::string& bytes) {
  return RebuildTree(bytes);
}

Result<std::string> ReencodeSidecar(const std::string& bytes) {
  auto entries = storage::DecodeIndexBlobDirectory(bytes);
  if (!entries.ok()) return entries.status();
  std::vector<std::pair<uint32_t, std::string>> blobs;
  for (const storage::IndexBlobEntry& e : entries.value()) {
    auto blob = RebuildTree(bytes.substr(e.offset, e.length));
    if (!blob.ok()) return blob.status();
    blobs.emplace_back(e.category, std::move(blob).value());
  }
  return storage::EncodeIndexBlobFile(blobs);
}

std::vector<std::string> Fixtures(std::vector<std::string> names) {
  std::vector<std::string> out;
  for (const std::string& name : names) out.push_back(ReadHexFixture(name));
  return out;
}

/// The sidecar fixture pins the header and directory; the seed adds the
/// padding and the StaticRTree fixture as its one blob.
std::vector<std::string> SidecarSeeds() {
  std::string file = ReadHexFixture("index_sidecar_header");
  file.resize(4096, '\0');
  file += ReadHexFixture("static_rtree");
  file.resize(8192, '\0');
  return {file};
}

struct DecoderCase {
  const char* name;
  Reencoder reencode;
  std::vector<std::string> (*seeds)();
  /// The WAL file keeps the valid prefix of a damaged log instead of
  /// rejecting it.
  bool keeps_prefix = false;
  /// Wire frames: trailing bytes are also tried inside the frame, with
  /// payload_len grown over them, so the payload decoder must refuse them.
  bool framed = false;
};

// Lets gtest name the parameter instead of dumping its bytes.
void PrintTo(const DecoderCase& c, std::ostream* os) { *os << c.name; }

const DecoderCase kCases[] = {
    {"wire_frames", ReencodeFrame,
     [] {
       return Fixtures({"frame_query", "frame_response", "frame_error",
                        "frame_ping", "frame_pong", "frame_admin_request",
                        "frame_admin_response"});
     },
     /*keeps_prefix=*/false, /*framed=*/true},
    {"wal_records", ReencodeWalRecord,
     [] {
       return Fixtures(
           {"wal_record_register_user", "wal_record_update_profile",
            "wal_record_unregister_user", "wal_record_update_batch",
            "wal_record_add_public_object", "wal_record_bulk_load_category",
            "wal_record_cq_register", "wal_record_cq_unregister"});
     }},
    {"wal_file", ReencodeWalFile, [] { return Fixtures({"wal_file"}); },
     /*keeps_prefix=*/true},
    {"shard_snapshot", ReencodeSnapshot,
     [] { return Fixtures({"shard_snapshot"}); }},
    {"checkpoint_file", ReencodeCheckpoint,
     [] { return Fixtures({"checkpoint_file"}); }},
    {"static_rtree", ReencodeTree, [] { return Fixtures({"static_rtree"}); }},
    {"index_sidecar", ReencodeSidecar, SidecarSeeds},
};

class DecoderMutationTest : public ::testing::TestWithParam<DecoderCase> {
 protected:
  std::vector<std::string> Seeds() const {
    std::vector<std::string> seeds = GetParam().seeds();
    for (const std::string& seed : seeds) EXPECT_FALSE(seed.empty());
    return seeds;
  }

  /// Checks the accepted-mutant property on `mutant` (rejection is fine).
  void CheckMutant(const std::string& seed, const std::string& mutant) {
    auto once = GetParam().reencode(mutant);
    if (!once.ok()) return;
    if (GetParam().keeps_prefix) {
      EXPECT_EQ(seed.compare(0, once.value().size(), once.value()), 0)
          << "recovered log is not a prefix of the seed";
      return;
    }
    auto twice = GetParam().reencode(once.value());
    ASSERT_TRUE(twice.ok()) << "re-encoded mutant rejected: "
                            << twice.status().message();
    EXPECT_EQ(twice.value(), once.value());
  }
};

TEST_P(DecoderMutationTest, SeedsRoundTrip) {
  for (const std::string& seed : Seeds()) {
    auto out = GetParam().reencode(seed);
    ASSERT_TRUE(out.ok()) << out.status().message();
    EXPECT_EQ(out.value(), seed);
  }
}

TEST_P(DecoderMutationTest, EveryTruncationIsRejected) {
  for (const std::string& seed : Seeds()) {
    for (size_t len = 0; len < seed.size(); ++len) {
      auto out = GetParam().reencode(seed.substr(0, len));
      if (GetParam().keeps_prefix) {
        ASSERT_TRUE(out.ok()) << "truncated to " << len;
        EXPECT_LT(out.value().size(), seed.size()) << "truncated to " << len;
        EXPECT_EQ(seed.compare(0, out.value().size(), out.value()), 0);
      } else {
        EXPECT_FALSE(out.ok()) << "accepted a truncation to " << len;
      }
    }
  }
}

TEST_P(DecoderMutationTest, TrailingBytesAreRejected) {
  for (const std::string& seed : Seeds()) {
    for (const std::string& tail : {std::string(1, '\0'), std::string("xyz"),
                                    std::string(4096, '\0')}) {
      auto out = GetParam().reencode(seed + tail);
      if (GetParam().keeps_prefix) {
        // A torn tail is dropped; every record before it is kept.
        ASSERT_TRUE(out.ok()) << out.status().message();
        EXPECT_EQ(out.value(), seed);
      } else {
        EXPECT_FALSE(out.ok()) << tail.size() << " trailing bytes accepted";
      }
      if (!GetParam().framed) continue;
      // Ping and pong payloads are ignored, not decoded.
      const auto type = static_cast<net::FrameType>(seed[6]);
      if (type == net::FrameType::kPing || type == net::FrameType::kPong) {
        continue;
      }
      std::string grown = seed + tail;
      util::Store<uint32_t>(&grown[16],
                            util::Load<uint32_t>(&grown[16]) + tail.size());
      EXPECT_FALSE(GetParam().reencode(grown).ok())
          << tail.size() << " trailing payload bytes accepted";
    }
  }
}

TEST_P(DecoderMutationTest, ByteFlipsAndBoundaryValues) {
  const uint32_t kBoundary[] = {0u, 1u, 0x7fffffffu, 0xffffffffu, 4096u};
  for (const std::string& seed : Seeds()) {
    // Big seeds are sampled so the suite stays fast under sanitizers.
    const size_t stride = seed.size() / 1024 + 1;
    for (size_t at = 0; at < seed.size(); at += stride) {
      std::string mutant = seed;
      mutant[at] = static_cast<char>(mutant[at] ^ 0xff);
      CheckMutant(seed, mutant);
      for (uint32_t value : kBoundary) {
        mutant = seed;
        const size_t n = std::min<size_t>(4, seed.size() - at);
        std::memcpy(&mutant[at], &value, n);
        CheckMutant(seed, mutant);
      }
    }
  }
}

TEST_P(DecoderMutationTest, RandomCorruptionAndRandomBuffers) {
  std::mt19937_64 rng(4242);
  for (const std::string& seed : Seeds()) {
    for (int round = 0; round < 200; ++round) {
      std::string mutant = seed;
      const int flips = 1 + static_cast<int>(rng() % 6);
      for (int f = 0; f < flips; ++f) {
        mutant[rng() % mutant.size()] ^= static_cast<char>(1 + rng() % 255);
      }
      if (rng() % 10 < 3) mutant.resize(rng() % (mutant.size() + 1));
      CheckMutant(seed, mutant);
    }
  }
  for (int trial = 0; trial < 300; ++trial) {
    std::string buffer(rng() % 256, '\0');
    for (char& b : buffer) b = static_cast<char>(rng());
    auto out = GetParam().reencode(buffer);
    if (out.ok() && !GetParam().keeps_prefix) {
      auto twice = GetParam().reencode(out.value());
      ASSERT_TRUE(twice.ok());
      EXPECT_EQ(twice.value(), out.value());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllDecoders, DecoderMutationTest, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<DecoderCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace cloakdb
