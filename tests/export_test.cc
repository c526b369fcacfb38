#include <gtest/gtest.h>

#include <cstring>

#include "src/common/file.h"
#include "src/common/rng.h"
#include "src/core/loom.h"
#include "src/export/exporter.h"
#include "src/tier/codec.h"

namespace loom {
namespace {

// --- Varint -----------------------------------------------------------------

TEST(VarintTest, RoundTripBoundaries) {
  for (uint64_t v : {0ULL, 1ULL, 127ULL, 128ULL, 16383ULL, 16384ULL, 0xFFFFFFFFULL,
                     0xFFFFFFFFFFFFFFFFULL}) {
    std::vector<uint8_t> buf;
    PutVarint(buf, v);
    size_t offset = 0;
    auto got = GetVarint(buf, &offset);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), v);
    EXPECT_EQ(offset, buf.size());
  }
}

TEST(VarintTest, TruncationDetected) {
  std::vector<uint8_t> buf;
  PutVarint(buf, 1ULL << 40);
  buf.pop_back();
  size_t offset = 0;
  EXPECT_FALSE(GetVarint(buf, &offset).ok());
}

TEST(VarintTest, ZigZagRoundTrip) {
  for (int64_t v : std::vector<int64_t>{0, 1, -1, 1000, -1000, INT64_MAX, INT64_MIN}) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
  }
}

// --- RLE ---------------------------------------------------------------------

TEST(RleTest, RoundTripMixedContent) {
  std::vector<uint8_t> input;
  for (int i = 0; i < 100; ++i) {
    input.push_back(static_cast<uint8_t>(i));
  }
  input.insert(input.end(), 500, 0x00);  // long zero run
  for (int i = 0; i < 50; ++i) {
    input.push_back(static_cast<uint8_t>(i * 7));
  }
  input.insert(input.end(), 3, 0xAA);  // short run stays literal
  std::vector<uint8_t> compressed;
  RleCompress(input, compressed);
  EXPECT_LT(compressed.size(), input.size());
  std::vector<uint8_t> out;
  ASSERT_TRUE(RleDecompress(compressed, out).ok());
  EXPECT_EQ(out, input);
}

TEST(RleTest, EmptyInput) {
  std::vector<uint8_t> compressed;
  RleCompress({}, compressed);
  EXPECT_TRUE(compressed.empty());
  std::vector<uint8_t> out;
  ASSERT_TRUE(RleDecompress(compressed, out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(RleTest, AllSameByte) {
  std::vector<uint8_t> input(10000, 0x42);
  std::vector<uint8_t> compressed;
  RleCompress(input, compressed);
  EXPECT_LT(compressed.size(), 10u);
  std::vector<uint8_t> out;
  ASSERT_TRUE(RleDecompress(compressed, out).ok());
  EXPECT_EQ(out, input);
}

TEST(RleTest, CorruptInputRejected) {
  std::vector<uint8_t> out;
  EXPECT_FALSE(RleDecompress(std::vector<uint8_t>{0x07, 0x01}, out).ok());  // bad op
  EXPECT_FALSE(RleDecompress(std::vector<uint8_t>{0x00, 0x10, 0x01}, out).ok());  // short lit
  EXPECT_FALSE(RleDecompress(std::vector<uint8_t>{0x01, 0x05}, out).ok());  // missing byte
}

class RleProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RleProperty, RandomRoundTrip) {
  Rng rng(GetParam());
  std::vector<uint8_t> input;
  // Mix of runs and noise.
  for (int chunk = 0; chunk < 50; ++chunk) {
    if (rng.NextBernoulli(0.5)) {
      input.insert(input.end(), rng.NextBounded(200), static_cast<uint8_t>(rng.Next64()));
    } else {
      for (uint64_t i = 0; i < rng.NextBounded(100); ++i) {
        input.push_back(static_cast<uint8_t>(rng.Next64()));
      }
    }
  }
  std::vector<uint8_t> compressed;
  RleCompress(input, compressed);
  std::vector<uint8_t> out;
  ASSERT_TRUE(RleDecompress(compressed, out).ok());
  EXPECT_EQ(out, input);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RleProperty, ::testing::Values(1u, 2u, 3u, 4u, 5u));

// --- Export / import ------------------------------------------------------------

class ExportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    LoomOptions opts;
    opts.dir = dir_.FilePath("loom");
    opts.clock = &clock_;
    auto loom = Loom::Open(opts);
    ASSERT_TRUE(loom.ok());
    loom_ = std::move(loom.value());
  }

  struct Pushed {
    uint32_t source;
    TimestampNanos ts;
    std::vector<uint8_t> payload;
  };

  void PushRecord(uint32_t source, TimestampNanos ts, std::vector<uint8_t> payload) {
    clock_.SetNanos(ts);
    ASSERT_TRUE(loom_->Push(source, payload).ok());
    pushed_.push_back({source, ts, std::move(payload)});
  }

  TempDir dir_;
  ManualClock clock_{1};
  std::unique_ptr<Loom> loom_;
  std::vector<Pushed> pushed_;
};

TEST_F(ExportTest, RoundTripPreservesEverything) {
  ASSERT_TRUE(loom_->DefineSource(1).ok());
  ASSERT_TRUE(loom_->DefineSource(2).ok());
  Rng rng(3);
  TimestampNanos ts = 0;
  for (int i = 0; i < 10000; ++i) {
    ts += 1 + rng.NextBounded(50);
    std::vector<uint8_t> payload(24 + rng.NextBounded(40), static_cast<uint8_t>(i));
    PushRecord(1 + static_cast<uint32_t>(i % 2), ts, std::move(payload));
  }

  const std::string path = dir_.FilePath("capture.loomexp");
  auto stats = ExportTimeRange(*loom_, {1, 2}, {0, ts}, path);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->records, pushed_.size());
  EXPECT_GT(stats->archived_bytes, 0u);

  auto reader = ArchiveReader::Open(path);
  ASSERT_TRUE(reader.ok());
  size_t i = 0;
  ASSERT_TRUE(reader->Scan([&](uint32_t source, TimestampNanos rts,
                               std::span<const uint8_t> payload) {
    EXPECT_EQ(source, pushed_[i].source);
    EXPECT_EQ(rts, pushed_[i].ts);
    EXPECT_EQ(std::vector<uint8_t>(payload.begin(), payload.end()), pushed_[i].payload);
    ++i;
    return true;
  }).ok());
  EXPECT_EQ(i, pushed_.size());
}

TEST_F(ExportTest, TimeRangeFiltersRecords) {
  ASSERT_TRUE(loom_->DefineSource(1).ok());
  for (TimestampNanos ts = 10; ts <= 1000; ts += 10) {
    PushRecord(1, ts, std::vector<uint8_t>(16, 7));
  }
  const std::string path = dir_.FilePath("mid.loomexp");
  auto stats = ExportTimeRange(*loom_, {1}, {300, 700}, path);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->records, 41u);  // 300,310,...,700
  auto reader = ArchiveReader::Open(path);
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(reader
                  ->Scan([&](uint32_t, TimestampNanos ts, std::span<const uint8_t>) {
                    EXPECT_GE(ts, 300u);
                    EXPECT_LE(ts, 700u);
                    return true;
                  })
                  .ok());
}

TEST_F(ExportTest, SourceSelection) {
  ASSERT_TRUE(loom_->DefineSource(1).ok());
  ASSERT_TRUE(loom_->DefineSource(2).ok());
  for (TimestampNanos ts = 10; ts <= 200; ts += 10) {
    PushRecord(ts % 20 == 0 ? 1 : 2, ts, std::vector<uint8_t>(8, 1));
  }
  const std::string path = dir_.FilePath("one.loomexp");
  auto stats = ExportTimeRange(*loom_, {1}, {0, ~0ULL}, path);
  ASSERT_TRUE(stats.ok());
  auto reader = ArchiveReader::Open(path);
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(reader
                  ->Scan([&](uint32_t source, TimestampNanos, std::span<const uint8_t>) {
                    EXPECT_EQ(source, 1u);
                    return true;
                  })
                  .ok());
}

TEST_F(ExportTest, PaddedPayloadsCompress) {
  ASSERT_TRUE(loom_->DefineSource(1).ok());
  // 48-byte records that are mostly zero padding (like real telemetry).
  for (TimestampNanos ts = 1; ts <= 20000; ++ts) {
    std::vector<uint8_t> payload(48, 0);
    payload[0] = static_cast<uint8_t>(ts);
    PushRecord(1, ts, std::move(payload));
  }
  const std::string path = dir_.FilePath("zeros.loomexp");
  auto stats = ExportTimeRange(*loom_, {1}, {0, ~0ULL}, path);
  ASSERT_TRUE(stats.ok());
  EXPECT_LT(stats->archived_bytes, stats->raw_bytes / 2);
}

TEST_F(ExportTest, EmptyExportIsValidArchive) {
  ASSERT_TRUE(loom_->DefineSource(1).ok());
  const std::string path = dir_.FilePath("empty.loomexp");
  auto stats = ExportTimeRange(*loom_, {1}, {0, ~0ULL}, path);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->records, 0u);
  auto reader = ArchiveReader::Open(path);
  ASSERT_TRUE(reader.ok());
  int count = 0;
  ASSERT_TRUE(reader
                  ->Scan([&](uint32_t, TimestampNanos, std::span<const uint8_t>) {
                    ++count;
                    return true;
                  })
                  .ok());
  EXPECT_EQ(count, 0);
}

TEST_F(ExportTest, EqualTimestampsKeepArrivalOrder) {
  ASSERT_TRUE(loom_->DefineSource(1).ok());
  ASSERT_TRUE(loom_->DefineSource(2).ok());
  // Four records share one arrival timestamp, alternating sources, with
  // source 2 arriving first. The export gathers per source (1 before 2), so
  // only the ingest-sequence tiebreak can restore true arrival order.
  clock_.SetNanos(100);
  std::vector<uint8_t> a{10}, b{11}, c{12}, d{13};
  ASSERT_TRUE(loom_->Push(2, a).ok());
  ASSERT_TRUE(loom_->Push(1, b).ok());
  ASSERT_TRUE(loom_->Push(2, c).ok());
  ASSERT_TRUE(loom_->Push(1, d).ok());

  const std::string path = dir_.FilePath("ties.loomexp");
  auto stats = ExportTimeRange(*loom_, {1, 2}, {0, ~0ULL}, path);
  ASSERT_TRUE(stats.ok());
  std::vector<uint8_t> order;
  auto reader = ArchiveReader::Open(path);
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(reader
                  ->Scan([&](uint32_t, TimestampNanos ts, std::span<const uint8_t> p) {
                    EXPECT_EQ(ts, 100u);
                    order.push_back(p[0]);
                    return true;
                  })
                  .ok());
  EXPECT_EQ(order, (std::vector<uint8_t>{10, 11, 12, 13}));
}

TEST_F(ExportTest, ExportLeavesNoTempFileBehind) {
  ASSERT_TRUE(loom_->DefineSource(1).ok());
  PushRecord(1, 10, std::vector<uint8_t>(16, 7));
  const std::string path = dir_.FilePath("clean.loomexp");
  ASSERT_TRUE(ExportTimeRange(*loom_, {1}, {0, ~0ULL}, path).ok());
  EXPECT_TRUE(File::OpenReadOnly(path).ok());
  EXPECT_FALSE(File::OpenReadOnly(path + ".tmp").ok());
}

TEST_F(ExportTest, NotAnArchiveRejected) {
  const std::string path = dir_.FilePath("junk");
  auto file = File::CreateTruncate(path);
  ASSERT_TRUE(file.ok());
  std::vector<uint8_t> junk = {1, 2, 3};
  ASSERT_TRUE(file->PWriteAll(0, junk).ok());
  EXPECT_FALSE(ArchiveReader::Open(path).ok());
}

}  // namespace
}  // namespace loom
