#include <gtest/gtest.h>
#include <pthread.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/time.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/file.h"
#include "src/common/rng.h"
#include "src/hybridlog/hybrid_log.h"

namespace loom {
namespace {

std::vector<uint8_t> Bytes(std::initializer_list<uint8_t> b) { return std::vector<uint8_t>(b); }

std::vector<uint8_t> Pattern(size_t len, uint8_t seed) {
  std::vector<uint8_t> v(len);
  for (size_t i = 0; i < len; ++i) {
    v[i] = static_cast<uint8_t>(seed + i);
  }
  return v;
}

TEST(HybridLogTest, RejectsBadOptions) {
  TempDir dir;
  HybridLogOptions opts;
  opts.block_size = 0;
  EXPECT_FALSE(HybridLog::Create(dir.FilePath("log"), opts).ok());
  opts.block_size = 1024;
  opts.num_blocks = 1;
  EXPECT_FALSE(HybridLog::Create(dir.FilePath("log"), opts).ok());
}

TEST(HybridLogTest, AppendReturnsSequentialAddresses) {
  TempDir dir;
  HybridLogOptions opts;
  opts.block_size = 1024;
  auto log = HybridLog::Create(dir.FilePath("log"), opts);
  ASSERT_TRUE(log.ok());
  auto a0 = (*log)->Append(Bytes({1, 2, 3}));
  auto a1 = (*log)->Append(Bytes({4, 5}));
  ASSERT_TRUE(a0.ok());
  ASSERT_TRUE(a1.ok());
  EXPECT_EQ(a0.value(), 0u);
  EXPECT_EQ(a1.value(), 3u);
  EXPECT_EQ((*log)->tail(), 5u);
}

TEST(HybridLogTest, UnpublishedDataNotReadable) {
  TempDir dir;
  HybridLogOptions opts;
  opts.block_size = 1024;
  auto log = HybridLog::Create(dir.FilePath("log"), opts);
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE((*log)->Append(Bytes({1, 2, 3})).ok());
  std::vector<uint8_t> out(3);
  EXPECT_EQ((*log)->Read(0, out).code(), StatusCode::kOutOfRange);
  (*log)->Publish();
  EXPECT_TRUE((*log)->Read(0, out).ok());
  EXPECT_EQ(out, Bytes({1, 2, 3}));
}

TEST(HybridLogTest, InMemoryReadRoundTrip) {
  TempDir dir;
  HybridLogOptions opts;
  opts.block_size = 4096;
  auto log = HybridLog::Create(dir.FilePath("log"), opts);
  ASSERT_TRUE(log.ok());
  auto data = Pattern(100, 7);
  auto addr = (*log)->Append(data);
  ASSERT_TRUE(addr.ok());
  (*log)->Publish();
  std::vector<uint8_t> out(100);
  ASSERT_TRUE((*log)->Read(addr.value(), out).ok());
  EXPECT_EQ(out, data);
  EXPECT_GE((*log)->stats().memory_reads, 1u);
}

TEST(HybridLogTest, AppendSpillsToNextBlockWithPadding) {
  TempDir dir;
  HybridLogOptions opts;
  opts.block_size = 64;
  auto log = HybridLog::Create(dir.FilePath("log"), opts);
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE((*log)->Append(Pattern(50, 1)).ok());
  // 14 bytes left; a 20-byte append must land at the next block.
  auto addr = (*log)->Append(Pattern(20, 2));
  ASSERT_TRUE(addr.ok());
  EXPECT_EQ(addr.value(), 64u);
  (*log)->Publish();
  // Padding bytes are 0xFF.
  std::vector<uint8_t> pad(14);
  ASSERT_TRUE((*log)->Read(50, pad).ok());
  for (uint8_t b : pad) {
    EXPECT_EQ(b, HybridLog::kPadByte);
  }
  EXPECT_EQ((*log)->stats().pad_bytes, 14u);
}

TEST(HybridLogTest, RejectsOversizeAppend) {
  TempDir dir;
  HybridLogOptions opts;
  opts.block_size = 64;
  auto log = HybridLog::Create(dir.FilePath("log"), opts);
  ASSERT_TRUE(log.ok());
  EXPECT_FALSE((*log)->Append(Pattern(65, 0)).ok());
  EXPECT_FALSE((*log)->Append({}).ok());
}

TEST(HybridLogTest, DataSurvivesBlockRecycling) {
  TempDir dir;
  HybridLogOptions opts;
  opts.block_size = 256;
  auto log = HybridLog::Create(dir.FilePath("log"), opts);
  ASSERT_TRUE(log.ok());
  // Write 32 blocks' worth of data; the two in-memory blocks recycle 16x.
  std::vector<uint64_t> addrs;
  for (int i = 0; i < 64; ++i) {
    auto addr = (*log)->Append(Pattern(128, static_cast<uint8_t>(i)));
    ASSERT_TRUE(addr.ok());
    addrs.push_back(addr.value());
  }
  (*log)->Publish();
  for (int i = 0; i < 64; ++i) {
    std::vector<uint8_t> out(128);
    ASSERT_TRUE((*log)->Read(addrs[i], out).ok()) << i;
    EXPECT_EQ(out, Pattern(128, static_cast<uint8_t>(i))) << i;
  }
  EXPECT_GE((*log)->stats().blocks_flushed, 30u);
}

TEST(HybridLogTest, ReadSpanningBlocks) {
  TempDir dir;
  HybridLogOptions opts;
  opts.block_size = 128;
  auto log = HybridLog::Create(dir.FilePath("log"), opts);
  ASSERT_TRUE(log.ok());
  // Fill several blocks with single-byte appends so data is contiguous.
  std::vector<uint8_t> all;
  Rng rng(3);
  for (int i = 0; i < 512; ++i) {
    uint8_t b = static_cast<uint8_t>(rng.Next64());
    ASSERT_TRUE((*log)->Append({&b, 1}).ok());
    all.push_back(b);
  }
  (*log)->Publish();
  // A read crossing three block boundaries.
  std::vector<uint8_t> out(300);
  ASSERT_TRUE((*log)->Read(100, out).ok());
  EXPECT_TRUE(std::equal(out.begin(), out.end(), all.begin() + 100));
}

TEST(HybridLogTest, CloseFlushesEverything) {
  TempDir dir;
  std::string path = dir.FilePath("log");
  std::vector<uint8_t> data = Pattern(100, 9);
  {
    HybridLogOptions opts;
    opts.block_size = 64;
    auto log = HybridLog::Create(path, opts);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->Append(std::span<const uint8_t>(data.data(), 60)).ok());
    ASSERT_TRUE((*log)->Append(std::span<const uint8_t>(data.data() + 60, 40)).ok());
    ASSERT_TRUE((*log)->Close().ok());
    // After close, reads come from disk.
    std::vector<uint8_t> out(60);
    ASSERT_TRUE((*log)->Read(0, out).ok());
    EXPECT_TRUE(std::equal(out.begin(), out.end(), data.begin()));
  }
  // The raw file holds the data (block 0: 60 bytes data + 4 pad; block 1: 40).
  auto file = File::OpenReadOnly(path);
  ASSERT_TRUE(file.ok());
  std::vector<uint8_t> head(60);
  ASSERT_TRUE(file->PReadAll(0, head).ok());
  EXPECT_TRUE(std::equal(head.begin(), head.end(), data.begin()));
  std::vector<uint8_t> second(40);
  ASSERT_TRUE(file->PReadAll(64, second).ok());
  EXPECT_TRUE(std::equal(second.begin(), second.end(), data.begin() + 60));
}

TEST(HybridLogTest, AppendAfterCloseFails) {
  TempDir dir;
  HybridLogOptions opts;
  opts.block_size = 64;
  auto log = HybridLog::Create(dir.FilePath("log"), opts);
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE((*log)->Close().ok());
  EXPECT_EQ((*log)->Append(Bytes({1})).status().code(), StatusCode::kFailedPrecondition);
}

TEST(HybridLogTest, StatsTrackAppends) {
  TempDir dir;
  HybridLogOptions opts;
  opts.block_size = 1024;
  auto log = HybridLog::Create(dir.FilePath("log"), opts);
  ASSERT_TRUE(log.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE((*log)->Append(Pattern(10, 0)).ok());
  }
  auto stats = (*log)->stats();
  EXPECT_EQ(stats.appends, 10u);
  EXPECT_EQ(stats.bytes_appended, 100u);
}

TEST(HybridLogTest, MemoryResidentFractionShrinks) {
  TempDir dir;
  HybridLogOptions opts;
  opts.block_size = 256;
  auto log = HybridLog::Create(dir.FilePath("log"), opts);
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE((*log)->Append(Pattern(200, 0)).ok());
  (*log)->Publish();
  EXPECT_EQ((*log)->MemoryResidentFraction(), 1.0);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE((*log)->Append(Pattern(200, 0)).ok());
  }
  (*log)->Publish();
  EXPECT_LT((*log)->MemoryResidentFraction(), 0.1);
}

// Concurrent reader hammering random published addresses while the writer
// appends and recycles blocks. Verifies the seqlock protocol: every read
// must return the correct bytes whether served from memory or disk.
TEST(HybridLogTest, ConcurrentReaderSeesConsistentData) {
  TempDir dir;
  HybridLogOptions opts;
  opts.block_size = 4096;
  auto log_or = HybridLog::Create(dir.FilePath("log"), opts);
  ASSERT_TRUE(log_or.ok());
  HybridLog* log = log_or->get();

  // Each 64-byte cell is filled with its own index, so readers can validate.
  constexpr size_t kCell = 64;
  constexpr uint64_t kCells = 4096;  // 64 blocks worth
  std::atomic<bool> done{false};
  std::atomic<uint64_t> errors{0};

  std::thread reader([&] {
    Rng rng(99);
    while (!done.load(std::memory_order_acquire)) {
      uint64_t tail = log->queryable_tail();
      if (tail < kCell) {
        continue;
      }
      uint64_t cell = rng.NextBounded(tail / kCell);
      std::vector<uint8_t> out(kCell);
      Status st = log->Read(cell * kCell, out);
      if (!st.ok()) {
        errors.fetch_add(1);
        continue;
      }
      uint8_t expect = static_cast<uint8_t>(cell & 0xFF);
      for (uint8_t b : out) {
        if (b != expect) {
          errors.fetch_add(1);
          break;
        }
      }
    }
  });

  for (uint64_t i = 0; i < kCells; ++i) {
    std::vector<uint8_t> cell(kCell, static_cast<uint8_t>(i & 0xFF));
    ASSERT_TRUE(log->Append(cell).ok());
    log->Publish();
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(errors.load(), 0u);
}

class HybridLogSizeTest : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

// Property: for any (block_size, record_size) combination, all appended data
// reads back intact after arbitrary block rotations.
TEST_P(HybridLogSizeTest, RoundTripAcrossConfigurations) {
  const auto [block_size, record_size] = GetParam();
  TempDir dir;
  HybridLogOptions opts;
  opts.block_size = block_size;
  auto log = HybridLog::Create(dir.FilePath("log"), opts);
  ASSERT_TRUE(log.ok());
  const size_t count = 4 * block_size / record_size + 3;
  std::vector<uint64_t> addrs;
  for (size_t i = 0; i < count; ++i) {
    auto addr = (*log)->Append(Pattern(record_size, static_cast<uint8_t>(i * 31)));
    ASSERT_TRUE(addr.ok());
    addrs.push_back(addr.value());
  }
  (*log)->Publish();
  for (size_t i = 0; i < count; ++i) {
    std::vector<uint8_t> out(record_size);
    ASSERT_TRUE((*log)->Read(addrs[i], out).ok());
    EXPECT_EQ(out, Pattern(record_size, static_cast<uint8_t>(i * 31)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, HybridLogSizeTest,
    ::testing::Combine(::testing::Values<size_t>(128, 256, 1024, 4096),
                       ::testing::Values<size_t>(8, 24, 48, 100, 127)));

class HybridLogBlockCountTest : public ::testing::TestWithParam<size_t> {};

TEST_P(HybridLogBlockCountTest, MoreBlocksStillCorrect) {
  TempDir dir;
  HybridLogOptions opts;
  opts.block_size = 128;
  opts.num_blocks = GetParam();
  auto log = HybridLog::Create(dir.FilePath("log"), opts);
  ASSERT_TRUE(log.ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE((*log)->Append(Pattern(64, static_cast<uint8_t>(i))).ok());
  }
  (*log)->Publish();
  for (int i = 0; i < 100; ++i) {
    std::vector<uint8_t> out(64);
    ASSERT_TRUE((*log)->Read(static_cast<uint64_t>(i) * 64, out).ok());
    EXPECT_EQ(out, Pattern(64, static_cast<uint8_t>(i)));
  }
}

INSTANTIATE_TEST_SUITE_P(BlockCounts, HybridLogBlockCountTest, ::testing::Values(2, 3, 4, 8));

TEST(HybridLogCoalesceTest, CloseSyncsPublishedPrefixToDisk) {
  // Durability audit: after Close() the backing file holds every published
  // byte (Close ends with an fdatasync; reopen the raw file and verify).
  TempDir dir;
  const std::string path = dir.FilePath("log");
  constexpr int kCells = 21;  // odd count: tail block is partially filled
  HybridLogOptions opts;
  opts.block_size = 256;
  opts.num_blocks = 4;
  {
    auto log = HybridLog::Create(path, opts);
    ASSERT_TRUE(log.ok());
    for (int i = 0; i < kCells; ++i) {
      ASSERT_TRUE((*log)->Append(Pattern(128, static_cast<uint8_t>(i * 11))).ok());
    }
    (*log)->Publish();
    ASSERT_TRUE((*log)->Close().ok());
  }
  auto file = File::OpenReadOnly(path);
  ASSERT_TRUE(file.ok());
  // A read-only log over the file serves the same bytes and fails appends.
  auto reopened = HybridLog::OpenReadOnly(path, opts);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->queryable_tail(), kCells * 128u);
  EXPECT_EQ((*reopened)->Append(Pattern(8, 1)).status().code(), StatusCode::kFailedPrecondition);
  for (int i = 0; i < kCells; ++i) {
    std::vector<uint8_t> out(128);
    ASSERT_TRUE(file->PReadAll(static_cast<uint64_t>(i) * 128, out).ok());
    EXPECT_EQ(out, Pattern(128, static_cast<uint8_t>(i * 11))) << i;
    ASSERT_TRUE((*reopened)->Read(static_cast<uint64_t>(i) * 128, out).ok());
    EXPECT_EQ(out, Pattern(128, static_cast<uint8_t>(i * 11))) << i;
  }
}

TEST(HybridLogSyncPolicyTest, ParseAndNameRoundTrip) {
  EXPECT_EQ(ParseSyncPolicy("none"), SyncPolicy::kNone);
  EXPECT_EQ(ParseSyncPolicy("group"), SyncPolicy::kGroup);
  EXPECT_EQ(ParseSyncPolicy("every_block"), SyncPolicy::kEveryBlock);
  EXPECT_FALSE(ParseSyncPolicy("fsync").has_value());
  EXPECT_FALSE(ParseSyncPolicy("Group").has_value());
  for (SyncPolicy p : {SyncPolicy::kNone, SyncPolicy::kGroup, SyncPolicy::kEveryBlock}) {
    EXPECT_EQ(ParseSyncPolicy(SyncPolicyName(p)), p);
  }
}

TEST(HybridLogSyncPolicyTest, NonePolicyDefersDurabilityToClose) {
  TempDir dir;
  HybridLogOptions opts;
  opts.block_size = 256;
  opts.num_blocks = 4;
  auto log = HybridLog::Create(dir.FilePath("log"), opts);
  ASSERT_TRUE(log.ok());
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE((*log)->Append(Pattern(256, static_cast<uint8_t>(i))).ok());
  }
  (*log)->Publish();
  EXPECT_EQ((*log)->durable_tail(), 0u);
  EXPECT_EQ((*log)->group_commits(), 0u);
  ASSERT_TRUE((*log)->Close().ok());
  EXPECT_EQ((*log)->durable_tail(), (*log)->tail());
}

TEST(HybridLogSyncPolicyTest, GroupCommitAdvancesDurableTail) {
  TempDir dir;
  MetricsRegistry registry;
  Counter* commits = registry.AddCounter("loom_ingest_group_commits_total");
  Counter* commit_bytes = registry.AddCounter("loom_ingest_group_commit_bytes");
  HybridLogOptions opts;
  opts.block_size = 256;
  opts.num_blocks = 8;
  opts.sync_policy = SyncPolicy::kGroup;
  opts.group_commit_bytes = 512;       // commit every two flushed blocks...
  opts.group_commit_interval_ms = 5;   // ...or after a short idle window
  opts.group_commits_metric = commits;
  opts.group_commit_bytes_metric = commit_bytes;
  auto log = HybridLog::Create(dir.FilePath("log"), opts);
  ASSERT_TRUE(log.ok());
  constexpr uint64_t kBlocks = 16;
  for (uint64_t i = 0; i < kBlocks; ++i) {
    ASSERT_TRUE((*log)->Append(Pattern(256, static_cast<uint8_t>(i))).ok());
  }
  (*log)->Publish();
  // The interval threshold guarantees the flusher's idle ticks drain the
  // last unsynced bytes without any further appends. The final block may
  // stay with the writer until Close, so wait for all flusher-owned bytes.
  const uint64_t flusher_owned = (kBlocks - 1) * opts.block_size;
  for (int spins = 0; (*log)->durable_tail() < flusher_owned && spins < 2000; ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Let any trailing interval-expired commit land so the counters below are
  // read at quiescence, not mid-commit.
  uint64_t settled = (*log)->durable_tail();
  for (int spins = 0; spins < 100; ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const uint64_t now = (*log)->durable_tail();
    if (now == settled) {
      break;
    }
    settled = now;
  }
  EXPECT_GE((*log)->durable_tail(), flusher_owned);
  EXPECT_GT((*log)->group_commits(), 0u);
  // Batched: strictly fewer syncs than flushed blocks, not one per block.
  EXPECT_LT((*log)->group_commits(), kBlocks);
  EXPECT_EQ(commits->Value(), (*log)->group_commits());
  // Every group commit covers exactly the bytes flushed since the previous
  // one, so after quiescence the counter equals the durable coverage.
  EXPECT_EQ(commit_bytes->Value(), (*log)->durable_tail());
  // Durability never outruns what was handed to the file.
  EXPECT_LE((*log)->durable_tail(), (*log)->flushed_tail());
  ASSERT_TRUE((*log)->Close().ok());
  EXPECT_EQ((*log)->durable_tail(), (*log)->tail());
}

TEST(HybridLogSyncPolicyTest, EveryBlockKeepsDurableTailAtFlushedTail) {
  TempDir dir;
  HybridLogOptions opts;
  opts.block_size = 256;
  opts.num_blocks = 4;
  opts.sync_policy = SyncPolicy::kEveryBlock;
  auto log = HybridLog::Create(dir.FilePath("log"), opts);
  ASSERT_TRUE(log.ok());
  constexpr uint64_t kBlocks = 8;
  for (uint64_t i = 0; i < kBlocks; ++i) {
    ASSERT_TRUE((*log)->Append(Pattern(256, static_cast<uint8_t>(i))).ok());
  }
  (*log)->Publish();
  // The final block may stay with the writer until Close; every block the
  // flusher wrote must be synced the moment its flush retires.
  const uint64_t flusher_owned = (kBlocks - 1) * opts.block_size;
  for (int spins = 0; (*log)->durable_tail() < flusher_owned && spins < 2000; ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE((*log)->durable_tail(), flusher_owned);
  // Once the flusher quiesces every written block has been synced; a block can
  // be flushed-but-not-yet-synced only inside the flush loop itself, so wait
  // for the two tails to meet rather than sampling them mid-stride.
  for (int spins = 0;
       (*log)->durable_tail() < (*log)->flushed_tail() && spins < 2000;
       ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ((*log)->durable_tail(), (*log)->flushed_tail());
  ASSERT_TRUE((*log)->Close().ok());
  EXPECT_EQ((*log)->durable_tail(), (*log)->tail());
}

TEST(HybridLogRegisteredBuffersTest, RoundTripThroughDisk) {
  // Every byte must land in the backing file verbatim. Recycle the slot ring
  // many times so each slot is rewritten and reflushed.
  TempDir dir;
  const std::string path = dir.FilePath("log");
  constexpr int kCells = 96;
  {
    HybridLogOptions opts;
    opts.block_size = 256;
    opts.num_blocks = 4;
    auto log = HybridLog::Create(path, opts);
    ASSERT_TRUE(log.ok());
    for (int i = 0; i < kCells; ++i) {
      ASSERT_TRUE((*log)->Append(Pattern(256, static_cast<uint8_t>(i * 13))).ok());
    }
    (*log)->Publish();
    // Readable through the log while hot (memory or disk path)...
    for (int i = 0; i < kCells; ++i) {
      std::vector<uint8_t> out(256);
      ASSERT_TRUE((*log)->Read(static_cast<uint64_t>(i) * 256, out).ok());
      EXPECT_EQ(out, Pattern(256, static_cast<uint8_t>(i * 13))) << i;
    }
    ASSERT_TRUE((*log)->Close().ok());
  }
  // ...and byte-exact in the raw file after Close.
  auto file = File::OpenReadOnly(path);
  ASSERT_TRUE(file.ok());
  for (int i = 0; i < kCells; ++i) {
    std::vector<uint8_t> out(256);
    ASSERT_TRUE(file->PReadAll(static_cast<uint64_t>(i) * 256, out).ok());
    EXPECT_EQ(out, Pattern(256, static_cast<uint8_t>(i * 13))) << i;
  }
}

// Captures 64 MiB through the engine's 4 MiB record blocks while a 1 kHz
// interval timer interrupts the flusher, then checks every 4 KiB cell of the
// file after Close. The flusher is the only thread that leaves SIGALRM
// unblocked: the calling thread blocks it after Create, and the appender
// inherits that mask. A writer that hangs fails the deadline instead of
// wedging the suite.
testing::AssertionResult CaptureUnderAlarms(const std::string& path) {
  constexpr size_t kCell = 4096;
  constexpr uint64_t kCells = (64 << 20) / kCell;
  const auto cell = [](uint64_t i, uint8_t* out) {
    for (size_t w = 0; w < kCell / 8; ++w) {
      const uint64_t word = (i * 0x9E3779B97F4A7C15ULL) ^ w;
      std::memcpy(out + w * 8, &word, 8);
    }
  };
  HybridLogOptions opts;
  opts.block_size = 4 << 20;  // LoomOptions::record_block_size's default
  auto created = HybridLog::Create(path, opts);
  if (!created.ok()) {
    return testing::AssertionFailure() << created.status().ToString();
  }
  struct Run {
    std::unique_ptr<HybridLog> log;
    std::atomic<bool> done{false};
    Status append_status;
    Status close_status;
  };
  // Shared with the appender, so a hung appender can be abandoned safely.
  auto run = std::make_shared<Run>();
  run->log = std::move(created.value());

  struct sigaction action {};
  action.sa_handler = [](int) {};
  action.sa_flags = SA_RESTART;
  sigemptyset(&action.sa_mask);
  struct sigaction old_action {};
  sigaction(SIGALRM, &action, &old_action);
  sigset_t alarm_set;
  sigemptyset(&alarm_set);
  sigaddset(&alarm_set, SIGALRM);
  sigset_t old_mask;
  pthread_sigmask(SIG_BLOCK, &alarm_set, &old_mask);

  std::thread appender([run, cell] {
    std::vector<uint8_t> buf(kCell);
    for (uint64_t i = 0; i < kCells && run->append_status.ok(); ++i) {
      cell(i, buf.data());
      run->append_status = run->log->Append(buf).status();
    }
    run->log->Publish();
    run->close_status = run->log->Close();
    run->done.store(true, std::memory_order_release);
  });
  struct itimerval every_ms {};
  every_ms.it_interval.tv_usec = 1000;
  every_ms.it_value.tv_usec = 1000;
  struct itimerval old_timer {};
  setitimer(ITIMER_REAL, &every_ms, &old_timer);

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!run->done.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const bool finished = run->done.load(std::memory_order_acquire);

  setitimer(ITIMER_REAL, &old_timer, nullptr);
  // Ignoring the signal discards one still pending before the old
  // disposition (possibly the default, which terminates) comes back.
  struct sigaction ignore {};
  ignore.sa_handler = SIG_IGN;
  sigaction(SIGALRM, &ignore, nullptr);
  sigaction(SIGALRM, &old_action, nullptr);
  pthread_sigmask(SIG_SETMASK, &old_mask, nullptr);

  if (!finished) {
    appender.detach();
    return testing::AssertionFailure() << "writer hung: flushed_tail "
                                       << run->log->flushed_tail() << " of " << kCells * kCell;
  }
  appender.join();
  if (!run->append_status.ok() || !run->close_status.ok()) {
    return testing::AssertionFailure() << "append: " << run->append_status.ToString()
                                       << ", close: " << run->close_status.ToString();
  }
  auto file = File::OpenReadOnly(path);
  if (!file.ok()) {
    return testing::AssertionFailure() << file.status().ToString();
  }
  std::vector<uint8_t> want(kCell);
  std::vector<uint8_t> got(kCell);
  uint64_t wrong = 0;
  for (uint64_t i = 0; i < kCells; ++i) {
    cell(i, want.data());
    if (!file->PReadAll(i * kCell, got).ok() || got != want) {
      ++wrong;
    }
  }
  if (wrong > 0) {
    return testing::AssertionFailure() << wrong << " of " << kCells << " cells wrong on disk";
  }
  return testing::AssertionSuccess();
}

// A signal that reaches the flusher mid-write must not cost a block: the
// write is retried or finished, never dropped or confused with a later one.
// Several captures, because an interrupt lands inside a write only on some.
TEST(HybridLogSignalTest, SignalsAtTheFlusherLoseNoBytes) {
  TempDir dir;
  for (int round = 0; round < 4; ++round) {
    ASSERT_TRUE(CaptureUnderAlarms(dir.FilePath("log" + std::to_string(round))))
        << "round " << round;
  }
}

// A block whose write fails counts as flushed no more than any later block:
// the flushed watermark stays below it, reads keep coming from the ring, and
// Close() rewrites the unflushed blocks. A file-size limit fails the third
// block's write halfway (EFBIG); it is lifted once the flusher has taken the
// fourth block off the queue, so the blocks after that could be written.
TEST(HybridLogWriteErrorTest, FailedBlockWriteHoldsTheFlushedTail) {
  constexpr size_t kCell = 4096;
  constexpr size_t kBlock = 64 << 10;
  constexpr uint64_t kCellsPerBlock = kBlock / kCell;
  const auto cell = [](uint64_t i, uint8_t* out) {
    for (size_t k = 0; k < kCell; k += sizeof(i)) {
      std::memcpy(out + k, &i, sizeof(i));
    }
  };
  TempDir dir;
  const std::string path = dir.FilePath("log");
  HybridLogOptions opts;
  opts.block_size = kBlock;
  opts.num_blocks = 8;
  auto log = HybridLog::Create(path, opts);
  ASSERT_TRUE(log.ok());
  std::vector<uint8_t> buf(kCell);
  uint64_t cells = 0;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  // Fills blocks up to `block`, starts the next one (queueing `block` for the
  // flusher) and waits until the flusher has taken it off the queue.
  const auto fill_through = [&](uint64_t block) {
    for (; cells <= (block + 1) * kCellsPerBlock; ++cells) {
      cell(cells, buf.data());
      ASSERT_TRUE((*log)->Append(buf).ok());
    }
    (*log)->Publish();
    while ((*log)->FlushQueueDepthApprox() > 0 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };

  struct sigaction ignore {};
  ignore.sa_handler = SIG_IGN;
  struct sigaction old_action {};
  sigaction(SIGXFSZ, &ignore, &old_action);
  struct rlimit old_limit {};
  getrlimit(RLIMIT_FSIZE, &old_limit);
  struct rlimit capped = old_limit;
  capped.rlim_cur = 2 * kBlock + kBlock / 2;
  setrlimit(RLIMIT_FSIZE, &capped);
  fill_through(3);  // block 2's write has returned by the time block 3 is popped
  setrlimit(RLIMIT_FSIZE, &old_limit);
  sigaction(SIGXFSZ, &old_action, nullptr);
  auto reader = File::OpenReadOnly(path);
  ASSERT_TRUE(reader.ok());
  ASSERT_EQ(reader->Size().value_or(0), capped.rlim_cur);

  fill_through(5);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // let block 5 finish
  EXPECT_EQ((*log)->flushed_tail(), 2 * kBlock);
  std::vector<uint8_t> want(kCell);
  for (uint64_t i = 0; i < cells; ++i) {
    cell(i, want.data());
    ASSERT_TRUE((*log)->Read(i * kCell, buf).ok());
    ASSERT_TRUE(buf == want) << "cell " << i;
  }

  ASSERT_TRUE((*log)->Close().ok());
  for (uint64_t i = 0; i < cells; ++i) {
    cell(i, want.data());
    ASSERT_TRUE(reader->PReadAll(i * kCell, buf).ok());
    ASSERT_TRUE(buf == want) << "cell " << i << " on disk";
  }
}

}  // namespace
}  // namespace loom
