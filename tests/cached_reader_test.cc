#include "src/hybridlog/cached_reader.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/common/file.h"
#include "src/hybridlog/hybrid_log.h"

namespace loom {
namespace {

// Appends `len` bytes of a deterministic pattern (byte i of the log is
// i & 0xFF) and publishes, so every fetch result is checkable by address.
std::unique_ptr<HybridLog> MakePatternLog(const TempDir& dir, size_t len) {
  HybridLogOptions opts;
  opts.block_size = 4096;
  auto log = HybridLog::Create(dir.FilePath("cached_reader.log"), opts);
  EXPECT_TRUE(log.ok());
  std::vector<uint8_t> data(len);
  for (size_t i = 0; i < len; ++i) {
    data[i] = static_cast<uint8_t>(i);
  }
  EXPECT_TRUE((*log)->Append(data).ok());
  (*log)->Publish();
  return std::move(log.value());
}

void ExpectPattern(std::span<const uint8_t> got, uint64_t addr) {
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], static_cast<uint8_t>(addr + i)) << "at address " << addr + i;
  }
}

TEST(CachedReaderTest, ServesRepeatedNearbyReadsFromOneWindow) {
  TempDir dir;
  auto log = MakePatternLog(dir, 2048);
  CachedLogReader reader(log.get(), log->queryable_tail(), 512);

  for (uint64_t addr = 0; addr + 32 <= 512; addr += 32) {
    auto got = reader.Fetch(addr, 32);
    ASSERT_TRUE(got.ok());
    ExpectPattern(got.value(), addr);
  }
  EXPECT_EQ(reader.fetches(), 16u);
  EXPECT_EQ(reader.window_loads(), 1u);
}

TEST(CachedReaderTest, WindowBoundaryCrossingLoadsExtendedWindow) {
  TempDir dir;
  auto log = MakePatternLog(dir, 2048);
  CachedLogReader reader(log.get(), log->queryable_tail(), 512);

  // Fetch straddling the first window boundary: [480, 544) spans the
  // [0, 512) and [512, 1024) windows and must come back contiguous.
  auto got = reader.Fetch(480, 64);
  ASSERT_TRUE(got.ok());
  ExpectPattern(got.value(), 480);
  EXPECT_EQ(reader.window_loads(), 1u);

  // The extended window covers the straddled range, so re-reads on either
  // side of the boundary stay resident.
  got = reader.Fetch(500, 40);
  ASSERT_TRUE(got.ok());
  ExpectPattern(got.value(), 500);
  EXPECT_EQ(reader.window_loads(), 1u);

  // A fetch in the next window reloads.
  got = reader.Fetch(1024, 16);
  ASSERT_TRUE(got.ok());
  ExpectPattern(got.value(), 1024);
  EXPECT_EQ(reader.window_loads(), 2u);
}

TEST(CachedReaderTest, NonPowerOfTwoWindowAligns) {
  TempDir dir;
  auto log = MakePatternLog(dir, 2048);
  // Any positive window size is legal; loads start at multiples of it.
  CachedLogReader reader(log.get(), log->queryable_tail(), 300);

  auto got = reader.Fetch(350, 20);  // window [300, 600)
  ASSERT_TRUE(got.ok());
  ExpectPattern(got.value(), 350);
  got = reader.Fetch(301, 64);
  ASSERT_TRUE(got.ok());
  ExpectPattern(got.value(), 301);
  EXPECT_EQ(reader.window_loads(), 1u);
}

TEST(CachedReaderTest, WindowClampedToLimit) {
  TempDir dir;
  auto log = MakePatternLog(dir, 1000);
  // Limit the reader to a snapshot tail mid-log; the last window load must
  // clamp to it rather than read past the snapshot.
  CachedLogReader reader(log.get(), /*limit=*/900, /*window=*/512);

  auto got = reader.Fetch(512, 388);  // window [512, 900): clamped below 1024
  ASSERT_TRUE(got.ok());
  ExpectPattern(got.value(), 512);
  EXPECT_EQ(reader.window_loads(), 1u);

  // The clamped tail byte is resident and correct.
  got = reader.Fetch(899, 1);
  ASSERT_TRUE(got.ok());
  ExpectPattern(got.value(), 899);
  EXPECT_EQ(reader.window_loads(), 1u);

  // Reads at or past the limit fail without touching the log.
  EXPECT_EQ(reader.Fetch(899, 2).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(reader.Fetch(900, 1).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(reader.window_loads(), 1u);
}

TEST(CachedReaderTest, FetchSpanningPastWindowEndExtends) {
  TempDir dir;
  auto log = MakePatternLog(dir, 4096);
  CachedLogReader reader(log.get(), log->queryable_tail(), 256);

  // Request longer than a whole window: the load extends to cover it.
  auto got = reader.Fetch(100, 700);
  ASSERT_TRUE(got.ok());
  ExpectPattern(got.value(), 100);
  EXPECT_EQ(reader.window_loads(), 1u);
}

TEST(CachedReaderTest, TwoWindowsEvictLeastRecentlyUsed) {
  // A walk alternating between two regions keeps both resident; a third
  // region evicts whichever was used least recently.
  TempDir dir;
  auto log = MakePatternLog(dir, 4096);
  CachedLogReader reader(log.get(), log->queryable_tail(), 512, /*max_windows=*/2);

  ASSERT_TRUE(reader.Fetch(0, 64).ok());     // A = [0, 512)
  ASSERT_TRUE(reader.Fetch(2048, 64).ok());  // B = [2048, 2560)
  ASSERT_TRUE(reader.Fetch(64, 64).ok());    // A again: resident
  EXPECT_EQ(reader.window_loads(), 2u);
  auto got = reader.Fetch(1024, 64);  // C evicts B, the least recently used
  ASSERT_TRUE(got.ok());
  ExpectPattern(got.value(), 1024);
  EXPECT_EQ(reader.window_loads(), 3u);
  ASSERT_TRUE(reader.Fetch(128, 64).ok());  // A survived
  EXPECT_EQ(reader.window_loads(), 3u);
  ASSERT_TRUE(reader.Fetch(2100, 64).ok());  // B must reload
  EXPECT_EQ(reader.window_loads(), 4u);
}

TEST(CachedReaderTest, FetchMissMayReplaceCurrentWindow) {
  // A Fetch miss may evict the current window — the single-buffer
  // semantics, which keep memory bounded when a scan jumps around.
  TempDir dir;
  auto log = MakePatternLog(dir, 4096);
  CachedLogReader reader(log.get(), log->queryable_tail(), 512);

  ASSERT_TRUE(reader.Fetch(0, 64).ok());
  ASSERT_TRUE(reader.Fetch(2048, 64).ok());
  EXPECT_EQ(reader.window_loads(), 2u);
  auto got = reader.Fetch(2100, 32);
  ASSERT_TRUE(got.ok());
  ExpectPattern(got.value(), 2100);
  EXPECT_EQ(reader.window_loads(), 2u);
}

}  // namespace
}  // namespace loom
