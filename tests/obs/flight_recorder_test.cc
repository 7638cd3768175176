// FlightRecorder tests: ordering and payload fidelity, ring wraparound,
// detail truncation, lock-free concurrent record/snapshot, the plain-text
// fd dump, and the fatal-signal dump path (a death test whose parent
// parses the file the dying child left behind).

#include "obs/flight_recorder.h"

#include <fcntl.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace cloakdb::obs {
namespace {

TEST(FlightRecorderTest, RecordsInOrderWithPayloads) {
  FlightRecorder recorder(16);
  recorder.Record(FlightEventKind::kQueryShed, 111);
  recorder.Record(FlightEventKind::kQueryDegraded, 222, 3);
  recorder.Record(FlightEventKind::kWalSyncStall, 1, 25000, "fsync");

  const auto events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[0].kind, FlightEventKind::kQueryShed);
  EXPECT_EQ(events[0].a, 111u);
  EXPECT_EQ(events[1].seq, 1u);
  EXPECT_EQ(events[1].kind, FlightEventKind::kQueryDegraded);
  EXPECT_EQ(events[1].b, 3u);
  EXPECT_EQ(events[2].kind, FlightEventKind::kWalSyncStall);
  EXPECT_EQ(events[2].a, 1u);
  EXPECT_EQ(events[2].b, 25000u);
  EXPECT_STREQ(events[2].detail, "fsync");
  EXPECT_GT(events[2].unix_us, 0);
  EXPECT_EQ(recorder.events_total(), 3u);
}

TEST(FlightRecorderTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(FlightRecorder(0).capacity(), 8u);
  EXPECT_EQ(FlightRecorder(8).capacity(), 8u);
  EXPECT_EQ(FlightRecorder(9).capacity(), 16u);
  EXPECT_EQ(FlightRecorder(250).capacity(), 256u);
}

TEST(FlightRecorderTest, RingKeepsOnlyTheNewestEvents) {
  FlightRecorder recorder(8);
  for (uint64_t i = 0; i < 20; ++i)
    recorder.Record(FlightEventKind::kPipelineShed, i);

  const auto events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 8u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 12 + i);
    EXPECT_EQ(events[i].a, 12 + i);
  }
  EXPECT_EQ(recorder.events_total(), 20u);

  // max_events trims to the newest N.
  const auto newest = recorder.Snapshot(3);
  ASSERT_EQ(newest.size(), 3u);
  EXPECT_EQ(newest.front().seq, 17u);
  EXPECT_EQ(newest.back().seq, 19u);
}

TEST(FlightRecorderTest, DetailIsTruncatedNotOverrun) {
  FlightRecorder recorder(8);
  const std::string long_detail(200, 'x');
  recorder.Record(FlightEventKind::kAuditViolation, 1, 2,
                  long_detail.c_str());
  const auto events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  const size_t len = std::strlen(events[0].detail);
  EXPECT_LT(len, sizeof(events[0].detail));
  EXPECT_EQ(std::string(events[0].detail), std::string(len, 'x'));
}

TEST(FlightRecorderTest, BumpsTheRegistryCounter) {
  MetricsRegistry metrics;
  FlightRecorder recorder(8);
  recorder.set_counter(metrics.counter("recorder.events_total"));
  recorder.Record(FlightEventKind::kQueryShed, 1);
  recorder.Record(FlightEventKind::kQueryShed, 2);
  EXPECT_EQ(metrics.CounterValue("recorder.events_total"), 2u);
}

TEST(FlightRecorderTest, ConcurrentRecordAndSnapshotNeverTear) {
  FlightRecorder recorder(32);
  constexpr int kWriters = 4;
  constexpr uint64_t kPerWriter = 5000;
  std::atomic<bool> stop{false};

  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      // Every returned event must be internally consistent: the payload
      // always equals the kind-tag the writer stored alongside it.
      for (const FlightEvent& event : recorder.Snapshot()) {
        ASSERT_EQ(event.a % 10, static_cast<uint64_t>(event.kind) % 10);
        ASSERT_EQ(event.b, event.a * 2);
      }
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      const FlightEventKind kind = w % 2 == 0
                                       ? FlightEventKind::kQueryShed
                                       : FlightEventKind::kQueryDegraded;
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        const uint64_t a =
            i * 10 + static_cast<uint64_t>(kind) % 10;
        recorder.Record(kind, a, a * 2);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(recorder.events_total(), kWriters * kPerWriter);
  // A claim that finds its slot held drops only its own event: with the
  // writers done every slot claims again, so one more lap fills the ring.
  for (size_t i = 0; i < recorder.capacity(); ++i)
    recorder.Record(FlightEventKind::kQueryShed, 10, 20);
  EXPECT_EQ(recorder.Snapshot().size(), recorder.capacity());
}

}  // namespace

// Splits Record into its claim and its publish, so a test can hold a
// claimed slot while other writers lap the ring.
class FlightRecorderTestPeer {
 public:
  using Slot = FlightRecorder::Slot;
  static Slot* Claim(FlightRecorder* recorder, uint64_t* seq) {
    return recorder->Claim(seq);
  }
  /// The first payload store of a writer caught mid-publish.
  static void StoreA(Slot* slot, uint64_t a) {
    slot->a.store(a, std::memory_order_relaxed);
  }
  static void Publish(Slot* slot, uint64_t seq, uint64_t a, uint64_t b) {
    FlightRecorder::Publish(slot, seq, FlightEventKind::kQueryShed, a, b,
                            nullptr);
  }
  static std::vector<uint64_t> Stamps(const FlightRecorder& recorder) {
    std::vector<uint64_t> stamps;
    for (const Slot& slot : recorder.slots_)
      stamps.push_back(slot.stamp.load(std::memory_order_relaxed));
    return stamps;
  }
};

namespace {

// Every snapshot event pairs its own a and b (each writer stores b = a + 1)
// and every slot's stamp is at least what it was.
void ExpectConsistent(const FlightRecorder& recorder,
                      std::vector<uint64_t>* stamps) {
  for (const FlightEvent& event : recorder.Snapshot())
    EXPECT_EQ(event.b, event.a + 1) << "seq " << event.seq;
  const std::vector<uint64_t> now = FlightRecorderTestPeer::Stamps(recorder);
  for (size_t i = 0; i < now.size(); ++i)
    EXPECT_GE(now[i], (*stamps)[i]) << "slot " << i;
  *stamps = now;
}

// A writer stalls between claim and publish while the others lap the ring
// twice over its slot, then stores its payload. The laps' events for that
// slot are dropped, never interleaved with the stalled payload, and no
// stamp ever moves back. With an unconditional claim, seqs 8 and 16 took
// slot 0 over, the stalled writer's `a` landed under seq 16's published
// stamp, and its publish rewound the stamp.
TEST(FlightRecorderTest, LappedWriterNeverTearsAHeldSlot) {
  FlightRecorder recorder(8);
  std::vector<uint64_t> stamps = FlightRecorderTestPeer::Stamps(recorder);
  uint64_t held_seq = 0;
  auto* held = FlightRecorderTestPeer::Claim(&recorder, &held_seq);
  ASSERT_NE(held, nullptr);
  ASSERT_EQ(held_seq, 0u);
  for (uint64_t a = 100; a < 123; ++a) {  // seqs 1..23: slot 0 at 8 and 16.
    recorder.Record(FlightEventKind::kQueryShed, a, a + 1);
    ExpectConsistent(recorder, &stamps);
  }
  EXPECT_EQ(recorder.Snapshot().size(), recorder.capacity() - 1);
  FlightRecorderTestPeer::StoreA(held, 7);
  ExpectConsistent(recorder, &stamps);
  FlightRecorderTestPeer::Publish(held, held_seq, 7, 8);
  ExpectConsistent(recorder, &stamps);
  // The stalled event is older than the ring's window now.
  for (const FlightEvent& event : recorder.Snapshot())
    EXPECT_NE(event.seq, held_seq);

  // The slot is free again: the next lap claims and publishes it.
  recorder.Record(FlightEventKind::kQueryShed, 500, 501);
  ExpectConsistent(recorder, &stamps);
  const std::vector<FlightEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), recorder.capacity());
  EXPECT_EQ(events.back().seq, 24u);
  EXPECT_EQ(events.back().a, 500u);
}

std::string ReadWholeFile(const std::string& path) {
  std::string out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

TEST(FlightRecorderTest, DumpToFdIsParseableText) {
  FlightRecorder recorder(8);
  recorder.Record(FlightEventKind::kQueryShed, 7);
  recorder.Record(FlightEventKind::kWalSyncStall, 2, 30000, "slow disk");

  const std::string path =
      ::testing::TempDir() + "flight_recorder_dump_test.txt";
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  recorder.DumpToFd(fd);
  ::close(fd);

  const std::string dump = ReadWholeFile(path);
  EXPECT_NE(dump.find("seq=0"), std::string::npos);
  EXPECT_NE(dump.find("kind=shed"), std::string::npos);
  EXPECT_NE(dump.find("a=7"), std::string::npos);
  EXPECT_NE(dump.find("kind=wal-sync-stall"), std::string::npos);
  EXPECT_NE(dump.find("b=30000"), std::string::npos);
  // Spaces in detail are dot-replaced so every line stays key=value.
  EXPECT_NE(dump.find("detail=slow.disk"), std::string::npos);
  std::remove(path.c_str());
}

TEST(FlightRecorderDeathTest, FatalSignalLeavesAParseableDump) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path =
      ::testing::TempDir() + "flight_recorder_fatal_dump.txt";
  std::remove(path.c_str());

  EXPECT_DEATH(
      {
        FlightRecorder recorder(16);
        InstallFatalSignalDump(&recorder, path.c_str());
        recorder.Record(FlightEventKind::kQueryShed, 41);
        recorder.Record(FlightEventKind::kCrashPoint, 3, 0, "pre-abort");
        std::abort();
      },
      "");

  const std::string dump = ReadWholeFile(path);
  ASSERT_FALSE(dump.empty()) << "handler wrote no dump to " << path;
  EXPECT_NE(dump.find("kind=shed"), std::string::npos);
  EXPECT_NE(dump.find("a=41"), std::string::npos);
  EXPECT_NE(dump.find("kind=crash-point"), std::string::npos);
  EXPECT_NE(dump.find("detail=pre-abort"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cloakdb::obs
