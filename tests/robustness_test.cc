// Corruption robustness: every decoder that consumes persisted bytes must
// reject malformed input with a clean status — random bytes, truncations,
// and bit flips must never crash or hang.

#include <gtest/gtest.h>

#include <cstring>

#include "src/common/file.h"
#include "src/common/rng.h"
#include "src/core/loom.h"
#include "src/export/exporter.h"
#include "src/index/chunk_summary.h"
#include "src/tier/codec.h"

namespace loom {
namespace {

class RandomBytesTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomBytesTest, ChunkSummaryDecodeNeverCrashes) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> bytes(rng.NextBounded(200));
    for (auto& b : bytes) {
      b = static_cast<uint8_t>(rng.Next64());
    }
    // Must either decode (if it happens to be well-formed) or fail cleanly.
    auto result = ChunkSummary::Decode(bytes);
    if (result.ok()) {
      EXPECT_LE(result->entries.size(), bytes.size());
    }
  }
}

TEST_P(RandomBytesTest, RleDecompressNeverCrashes) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> bytes(rng.NextBounded(500));
    for (auto& b : bytes) {
      b = static_cast<uint8_t>(rng.Next64());
    }
    std::vector<uint8_t> out;
    // Bounded output, clean error or success.
    (void)RleDecompress(bytes, out);
  }
}

TEST_P(RandomBytesTest, VarintNeverCrashes) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<uint8_t> bytes(rng.NextBounded(12));
    for (auto& b : bytes) {
      b = static_cast<uint8_t>(rng.Next64());
    }
    size_t offset = 0;
    (void)GetVarint(bytes, &offset);
    EXPECT_LE(offset, bytes.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomBytesTest, ::testing::Values(1u, 7u, 13u));

class ArchiveCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Build a valid archive to corrupt.
    ManualClock clock(1);
    LoomOptions opts;
    opts.dir = dir_.FilePath("loom");
    opts.clock = &clock;
    auto loom = Loom::Open(opts);
    ASSERT_TRUE(loom.ok());
    ASSERT_TRUE((*loom)->DefineSource(1).ok());
    for (int i = 0; i < 2000; ++i) {
      clock.AdvanceNanos(10);
      std::vector<uint8_t> payload(32, static_cast<uint8_t>(i));
      ASSERT_TRUE((*loom)->Push(1, payload).ok());
    }
    path_ = dir_.FilePath("good.loomexp");
    auto stats = ExportTimeRange(**loom, {1}, {0, ~0ULL}, path_);
    ASSERT_TRUE(stats.ok());
    auto file = File::OpenReadOnly(path_);
    ASSERT_TRUE(file.ok());
    auto size = file->Size();
    ASSERT_TRUE(size.ok());
    bytes_.resize(size.value());
    ASSERT_TRUE(file->PReadAll(0, bytes_).ok());
  }

  // Writes `bytes` to a fresh file and scans it; must not crash.
  void TryScan(const std::vector<uint8_t>& bytes, const std::string& name) {
    const std::string path = dir_.FilePath(name);
    auto file = File::CreateTruncate(path);
    ASSERT_TRUE(file.ok());
    if (!bytes.empty()) {
      ASSERT_TRUE(file->PWriteAll(0, bytes).ok());
    }
    auto reader = ArchiveReader::Open(path);
    if (!reader.ok()) {
      return;  // rejected at open: fine
    }
    uint64_t scanned = 0;
    Status st = reader->Scan([&](uint32_t, TimestampNanos, std::span<const uint8_t>) {
      ++scanned;
      return true;
    });
    (void)st;  // either a clean error or a (possibly partial) scan
  }

  TempDir dir_;
  std::string path_;
  std::vector<uint8_t> bytes_;
};

TEST_F(ArchiveCorruptionTest, TruncationsFailCleanly) {
  Rng rng(3);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t cut = rng.NextBounded(bytes_.size());
    TryScan(std::vector<uint8_t>(bytes_.begin(), bytes_.begin() + static_cast<long>(cut)),
            "trunc" + std::to_string(trial));
  }
}

TEST_F(ArchiveCorruptionTest, BitFlipsFailCleanly) {
  Rng rng(4);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<uint8_t> mutated = bytes_;
    for (int flips = 0; flips < 8; ++flips) {
      const size_t pos = rng.NextBounded(mutated.size());
      mutated[pos] ^= static_cast<uint8_t>(1u << rng.NextBounded(8));
    }
    TryScan(mutated, "flip" + std::to_string(trial));
  }
}

TEST_F(ArchiveCorruptionTest, IntactArchiveStillScans) {
  auto reader = ArchiveReader::Open(path_);
  ASSERT_TRUE(reader.ok());
  uint64_t scanned = 0;
  ASSERT_TRUE(reader->Scan([&](uint32_t, TimestampNanos, std::span<const uint8_t>) {
                ++scanned;
                return true;
              }).ok());
  EXPECT_EQ(scanned, 2000u);
}

}  // namespace
}  // namespace loom
