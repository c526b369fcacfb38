#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "src/common/codec.h"
#include "src/common/file.h"
#include "src/common/rng.h"
#include "src/index/chunk_summary.h"
#include "src/index/histogram.h"
#include "src/index/timestamp_index.h"

namespace loom {
namespace {

// --- HistogramSpec ------------------------------------------------------------

TEST(HistogramTest, RejectsBadEdges) {
  EXPECT_FALSE(HistogramSpec::Create({}).ok());
  EXPECT_FALSE(HistogramSpec::Create({1.0}).ok());
  EXPECT_FALSE(HistogramSpec::Create({2.0, 1.0}).ok());
  EXPECT_FALSE(HistogramSpec::Create({1.0, 1.0}).ok());
  EXPECT_FALSE(
      HistogramSpec::Create({1.0, std::numeric_limits<double>::infinity()}).ok());
}

TEST(HistogramTest, AddsOutlierBins) {
  auto spec = HistogramSpec::Create({0.0, 10.0, 20.0});
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->num_user_bins(), 2u);
  EXPECT_EQ(spec->num_bins(), 4u);  // underflow + 2 user + overflow
}

TEST(HistogramTest, BinOfClassifiesCorrectly) {
  auto spec = HistogramSpec::Create({0.0, 10.0, 20.0}).value();
  EXPECT_EQ(spec.BinOf(-5.0), 0u);    // underflow
  EXPECT_EQ(spec.BinOf(0.0), 1u);     // first user bin [0, 10)
  EXPECT_EQ(spec.BinOf(9.999), 1u);
  EXPECT_EQ(spec.BinOf(10.0), 2u);    // second user bin [10, 20)
  EXPECT_EQ(spec.BinOf(19.999), 2u);
  EXPECT_EQ(spec.BinOf(20.0), 3u);    // overflow
  EXPECT_EQ(spec.BinOf(1e12), 3u);
}

TEST(HistogramTest, BinBoundsAreConsistent) {
  auto spec = HistogramSpec::Create({0.0, 10.0, 20.0}).value();
  EXPECT_EQ(spec.BinLo(0), -std::numeric_limits<double>::infinity());
  EXPECT_EQ(spec.BinHi(0), 0.0);
  EXPECT_EQ(spec.BinLo(1), 0.0);
  EXPECT_EQ(spec.BinHi(1), 10.0);
  EXPECT_EQ(spec.BinLo(3), 20.0);
  EXPECT_EQ(spec.BinHi(3), std::numeric_limits<double>::infinity());
}

TEST(HistogramTest, UniformFactory) {
  auto spec = HistogramSpec::Uniform(0.0, 100.0, 10);
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->num_user_bins(), 10u);
  EXPECT_EQ(spec->BinOf(55.0), 6u);  // user bin [50,60) is bin index 6
}

TEST(HistogramTest, ExponentialFactory) {
  auto spec = HistogramSpec::Exponential(1.0, 2.0, 10);
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->num_user_bins(), 10u);
  EXPECT_EQ(spec->BinOf(0.5), 0u);
  EXPECT_EQ(spec->BinOf(1.0), 1u);
  EXPECT_EQ(spec->BinOf(3.0), 2u);  // [2,4)
  EXPECT_EQ(spec->BinOf(2000.0), 11u);
}

TEST(HistogramTest, ExactMatchSingleBin) {
  HistogramSpec spec = HistogramSpec::ExactMatch(42.0);
  EXPECT_EQ(spec.BinOf(42.0), 1u);
  EXPECT_EQ(spec.BinOf(41.999), 0u);
  EXPECT_EQ(spec.BinOf(42.001), 2u);
}

TEST(HistogramTest, BinsOverlappingRange) {
  auto spec = HistogramSpec::Uniform(0.0, 100.0, 10).value();
  auto [first, last] = spec.BinsOverlapping(25.0, 74.0);
  EXPECT_EQ(first, 3u);  // [20,30)
  EXPECT_EQ(last, 8u);   // [70,80)
  auto [f2, l2] = spec.BinsOverlapping(-10.0, 1000.0);
  EXPECT_EQ(f2, 0u);
  EXPECT_EQ(l2, 11u);
}

class HistogramPropertyTest : public ::testing::TestWithParam<size_t> {};

// Property: BinOf(v) always returns a bin whose [lo, hi) interval contains v.
TEST_P(HistogramPropertyTest, BinOfIsConsistentWithBounds) {
  auto spec = HistogramSpec::Uniform(-50.0, 50.0, GetParam()).value();
  Rng rng(GetParam());
  for (int i = 0; i < 10000; ++i) {
    double v = rng.NextUniform(-200.0, 200.0);
    uint32_t bin = spec.BinOf(v);
    ASSERT_LT(bin, spec.num_bins());
    EXPECT_GE(v, spec.BinLo(bin));
    EXPECT_LT(v, spec.BinHi(bin));
  }
}

INSTANTIATE_TEST_SUITE_P(BinCounts, HistogramPropertyTest,
                         ::testing::Values<size_t>(1, 2, 7, 16, 100));

// --- BinStats / ChunkSummary ---------------------------------------------------

TEST(BinStatsTest, UpdateTracksExtremes) {
  BinStats s;
  s.Update(5.0, 100);
  s.Update(2.0, 50);
  s.Update(9.0, 200);
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.sum, 16.0);
  EXPECT_EQ(s.min, 2.0);
  EXPECT_EQ(s.max, 9.0);
  EXPECT_EQ(s.min_ts, 50u);
  EXPECT_EQ(s.max_ts, 200u);
}

TEST(BinStatsTest, MergeCombines) {
  BinStats a;
  a.Update(1.0, 10);
  BinStats b;
  b.Update(7.0, 5);
  b.Update(3.0, 20);
  a.Merge(b);
  EXPECT_EQ(a.count, 3u);
  EXPECT_EQ(a.sum, 11.0);
  EXPECT_EQ(a.min, 1.0);
  EXPECT_EQ(a.max, 7.0);
  EXPECT_EQ(a.min_ts, 5u);
  EXPECT_EQ(a.max_ts, 20u);
}

// The listed section starts where a summary without it ends.
size_t ListedSectionOffset(const ChunkSummary& s) {
  ChunkSummary bare = s;
  bare.listed.clear();
  return bare.EncodedSize();
}

// A sealed summary of index 3 on source 7 holding values[b] in bin b.
ChunkSummary SummaryOf(const std::vector<std::vector<double>>& values) {
  ChunkSummaryBuilder builder;
  const size_t presence = builder.RegisterSlot(7, kPresenceIndexId, 1);
  const size_t slot = builder.RegisterSlot(7, 3, static_cast<uint32_t>(values.size()));
  TimestampNanos ts = 100;
  for (uint32_t b = 0; b < values.size(); ++b) {
    for (double v : values[b]) {
      builder.UpdatePresence(presence, ts);
      builder.NoteEvaluated(slot);
      builder.Update(slot, b, v, ts++);
    }
  }
  return builder.Finalize(0x1000, 0x2000);
}

// The values the (source, index, bin) entry of `s` lists.
std::vector<double> Listed(const ChunkSummary& s, uint32_t source, uint32_t index, uint32_t bin) {
  std::vector<double> values;
  EXPECT_NE(s.FindEntry(source, index, bin, &values), nullptr) << bin;
  return values;
}

TEST(ChunkSummaryTest, EncodeDecodeRoundTrip) {
  // Bin 1 lists its values but min and max: 8.0 and 7.5.
  const ChunkSummary s = SummaryOf({{5.5, -1.5}, {9.0, 7.0, 8.0, 7.5}});
  std::vector<uint8_t> buf;
  s.EncodeTo(buf);
  EXPECT_EQ(buf.size(), s.EncodedSize());
  auto decoded = ChunkSummary::Decode(buf);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->chunk_addr, 0x1000u);
  EXPECT_EQ(decoded->chunk_len, 0x2000u);
  EXPECT_EQ(decoded->min_ts, 100u);
  EXPECT_EQ(decoded->max_ts, 105u);
  ASSERT_EQ(decoded->entries.size(), s.entries.size());
  for (size_t i = 0; i < s.entries.size(); ++i) {
    const ChunkSummary::Entry& a = s.entries[i];
    const ChunkSummary::Entry& b = decoded->entries[i];
    EXPECT_EQ(b.source_id, a.source_id);
    EXPECT_EQ(b.index_id, a.index_id);
    EXPECT_EQ(b.bin, a.bin);
    EXPECT_EQ(b.stats.count, a.stats.count);
    EXPECT_EQ(b.stats.sum, a.stats.sum);
    EXPECT_EQ(b.stats.min, a.stats.min);
    EXPECT_EQ(b.stats.max, a.stats.max);
    EXPECT_EQ(b.stats.min_ts, a.stats.min_ts);
    EXPECT_EQ(b.stats.max_ts, a.stats.max_ts);
  }
  const ChunkSummary::Entry* two = decoded->FindEntry(7, 3, 0);
  ASSERT_NE(two, nullptr);
  EXPECT_EQ(two->stats.count, 2u);
  EXPECT_EQ(two->stats.min, -1.5);
  EXPECT_EQ(two->stats.max, 5.5);
  EXPECT_EQ(decoded->listed, s.listed);
  EXPECT_TRUE(Listed(*decoded, 7, 3, 0).empty());
  EXPECT_EQ(Listed(*decoded, 7, 3, 1), (std::vector<double>{8.0, 7.5}));
  EXPECT_EQ(decoded->FindEntry(7, 3, 2), nullptr);
  // Two listed values of one power-of-two bin share their top byte with min.
  EXPECT_EQ(buf.size(), ListedSectionOffset(s) + 4 + 1 + 2 * 7);

  // Decoded without the section, the summary reads the values from the frame.
  auto bare = ChunkSummary::Decode(buf, /*keep_listed=*/false);
  ASSERT_TRUE(bare.ok());
  EXPECT_TRUE(bare->listed.empty());
  EXPECT_TRUE(Listed(*bare, 7, 3, 1).empty());
  std::vector<double> values;
  ASSERT_TRUE(bare->AppendListed(buf, *bare->FindEntry(7, 3, 1), &values));
  EXPECT_EQ(values, (std::vector<double>{8.0, 7.5}));
  EXPECT_FALSE(bare->AppendListed(buf, *bare->FindEntry(7, 3, 0), &values));
  EXPECT_FALSE(bare->AppendListed(std::span<const uint8_t>(buf.data(), ListedSectionOffset(s)),
                                  *bare->FindEntry(7, 3, 1), &values));
  EXPECT_EQ(values.size(), 2u);
}

// Packing keeps listed values bit-exact: NaN and signed zeros, values that
// differ from min in every byte, and values that equal min (no bytes at all).
TEST(ChunkSummaryTest, ListedValuesRoundTripBitExact) {
  const ChunkSummary s =
      SummaryOf({{-2.0, std::nan(""), -1.5, -1.0, 0.0, -0.0}, {3.0, 3.0, 5.0, 3.0}});
  std::vector<uint8_t> buf;
  s.EncodeTo(buf);
  EXPECT_EQ(buf.size(), s.EncodedSize());
  auto decoded = ChunkSummary::Decode(buf);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const std::vector<double> want = {std::nan(""), -1.5, -1.0, -0.0};
  const std::vector<double> got = Listed(*decoded, 7, 3, 0);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(double)), 0);
  EXPECT_EQ(Listed(*decoded, 7, 3, 1), (std::vector<double>{3.0, 3.0}));
}

// A summary with one two-value entry and one listing entry of three values
// (min and max in the entry, the third listed).
ChunkSummary ListingSummary() { return SummaryOf({{1.0, 2.0}, {3.0, 4.0, 5.0}}); }

// A frame that does not fit in its block's remainder starts the next block
// behind 0xFF padding. A remainder shorter than the length word is padding
// too, never the start of a frame.
TEST(ChunkFrameIteratorTest, ShortBlockRemainderIsPadding) {
  const ChunkSummary s = ListingSummary();
  std::vector<uint8_t> frame;
  PutU32(frame, static_cast<uint32_t>(s.EncodedSize()));
  s.EncodeTo(frame);
  for (size_t pad = 1; pad <= 5; ++pad) {
    const size_t block = frame.size() + pad;
    std::vector<uint8_t> log = frame;
    log.resize(block, 0xFF);
    log.insert(log.end(), frame.begin(), frame.end());
    ChunkFrameIterator frames(
        [&log](uint64_t addr, size_t len) -> Result<std::span<const uint8_t>> {
          return std::span<const uint8_t>(log.data() + addr, len);
        },
        0, log.size(), block);
    ChunkSummary out;
    size_t n = 0;
    for (auto more = frames.Next(&out); more.ok() && more.value(); more = frames.Next(&out)) {
      EXPECT_EQ(out.entries.size(), s.entries.size());
      ++n;
    }
    EXPECT_EQ(n, 2u) << pad;
    EXPECT_EQ(frames.addr(), log.size()) << pad;
  }
}

TEST(ChunkSummaryTest, DecodeRejectsTruncation) {
  ChunkSummary s;
  s.entries.push_back(ChunkSummary::Entry{});
  std::vector<uint8_t> buf;
  s.EncodeTo(buf);
  for (size_t cut : {size_t{0}, size_t{10}, buf.size() - 1}) {
    auto r = ChunkSummary::Decode(std::span<const uint8_t>(buf.data(), cut));
    EXPECT_FALSE(r.ok());
  }
}

// A frame written before the listed section existed ends after its entries:
// it decodes, and no entry lists its values.
TEST(ChunkSummaryTest, DecodesFrameWithoutListedSection) {
  ChunkSummary s = ListingSummary();
  s.listed.clear();
  std::vector<uint8_t> buf;
  s.EncodeTo(buf);
  auto decoded = ChunkSummary::Decode(buf);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->entries.size(), s.entries.size());
  EXPECT_TRUE(decoded->listed.empty());
  EXPECT_TRUE(Listed(*decoded, 7, 3, 1).empty());
}

TEST(ChunkSummaryTest, DecodeRejectsTruncatedListedSection) {
  const ChunkSummary s = ListingSummary();
  std::vector<uint8_t> buf;
  s.EncodeTo(buf);
  ASSERT_GT(buf.size(), ListedSectionOffset(s));
  for (size_t cut = ListedSectionOffset(s) + 1; cut < buf.size(); ++cut) {
    auto r = ChunkSummary::Decode(std::span<const uint8_t>(buf.data(), cut));
    ASSERT_FALSE(r.ok()) << cut;
    EXPECT_EQ(r.status().code(), StatusCode::kDataLoss) << cut;
  }
}

TEST(ChunkSummaryTest, DecodeRejectsListedSectionDisagreeingWithCounts) {
  const ChunkSummary s = ListingSummary();
  std::vector<uint8_t> good;
  s.EncodeTo(good);
  ASSERT_TRUE(ChunkSummary::Decode(good).ok());
  const auto put = [](std::vector<uint8_t>& buf, size_t at, uint64_t v, size_t bytes) {
    for (size_t b = 0; b < bytes; ++b) {
      buf[at + b] = static_cast<uint8_t>(v >> (8 * b));
    }
  };
  // The section's value count, one fewer and one more than the entries list.
  const size_t section = ListedSectionOffset(s);
  for (uint32_t count : {0u, 2u}) {
    std::vector<uint8_t> buf = good;
    put(buf, section, count, 4);
    auto r = ChunkSummary::Decode(buf);
    ASSERT_FALSE(r.ok()) << count;
    EXPECT_EQ(r.status().code(), StatusCode::kDataLoss) << count;
  }
  // The listing entry's count moved within the listing range, and past it.
  const size_t header = ChunkSummary{}.EncodedSize();
  const size_t entry = (section - header) / s.entries.size();
  const auto listing = std::find_if(s.entries.begin(), s.entries.end(), ChunkSummary::ListsValues);
  ASSERT_NE(listing, s.entries.end());
  const size_t count_at =
      header + static_cast<size_t>(listing - s.entries.begin()) * entry + 12;  // key, then count
  for (uint64_t count : {uint64_t{4}, kMaxListedValues + 1}) {
    std::vector<uint8_t> buf = good;
    put(buf, count_at, count, 8);
    auto r = ChunkSummary::Decode(buf);
    ASSERT_FALSE(r.ok()) << count;
    EXPECT_EQ(r.status().code(), StatusCode::kDataLoss) << count;
  }
  // A value width past eight bytes.
  std::vector<uint8_t> buf = good;
  put(buf, section + 4, 9, 1);
  auto r = ChunkSummary::Decode(buf);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
}

TEST(ChunkSummaryBuilderTest, AccumulatesAndFinalizes) {
  ChunkSummaryBuilder builder;
  size_t presence = builder.RegisterSlot(1, kPresenceIndexId, 1);
  size_t idx = builder.RegisterSlot(1, 5, 4);
  EXPECT_TRUE(builder.empty());

  builder.UpdatePresence(presence, 100);
  builder.Update(idx, 2, 7.5, 100);
  builder.UpdatePresence(presence, 110);
  builder.Update(idx, 1, 2.5, 110);
  builder.UpdatePresence(presence, 120);  // record skipped by index func
  EXPECT_EQ(builder.total_records(), 3u);

  ChunkSummary s = builder.Finalize(4096, 1024);
  EXPECT_EQ(s.chunk_addr, 4096u);
  EXPECT_EQ(s.chunk_len, 1024u);
  EXPECT_EQ(s.min_ts, 100u);
  EXPECT_EQ(s.max_ts, 120u);
  // Entries: presence bin 0 (count 3) + index bins 1 and 2.
  ASSERT_EQ(s.entries.size(), 3u);
  uint64_t presence_count = 0;
  uint64_t indexed = 0;
  for (const auto& e : s.entries) {
    if (e.index_id == kPresenceIndexId) {
      presence_count = e.stats.count;
    } else {
      indexed += e.stats.count;
    }
  }
  EXPECT_EQ(presence_count, 3u);
  EXPECT_EQ(indexed, 2u);

  // Builder resets fully.
  EXPECT_TRUE(builder.empty());
  ChunkSummary s2 = builder.Finalize(8192, 1024);
  EXPECT_TRUE(s2.entries.empty());
}

// Entries holding 3 to 16 values, min < max, list all but one min and one
// max, in log order, entry by entry. Fewer values, more, all-equal values,
// and the presence and evaluated entries list nothing.
TEST(ChunkSummaryBuilderTest, ListsValuesOfEntriesHoldingThreeToSixteen) {
  ChunkSummaryBuilder builder;
  size_t presence = builder.RegisterSlot(1, kPresenceIndexId, 1);
  size_t idx = builder.RegisterSlot(1, 5, 6);
  // Bin 0 holds signed zeros; bin 1 a repeated min; bin 4 three equal values.
  const uint32_t bins[] = {2, 1, 0, 1, 2, 0, 1, 2, 1, 0, 1, 4, 4, 4, 5};
  const double values[] = {9.0, 4.0, 0.0, 3.0, 8.0,  -0.0, 6.0, 7.0,
                           5.0, 0.5, 3.0, 2.0, 2.0, 2.0, 11.0};
  const size_t n = std::size(values);
  std::vector<TimestampNanos> ts(n);
  for (size_t i = 0; i < n; ++i) {
    ts[i] = i + 1;
    builder.UpdatePresence(presence, ts[i]);
    builder.NoteEvaluated(idx);
  }
  builder.UpdateBatch(idx, bins, values, ts.data(), 5);
  for (size_t i = 5; i < n; ++i) {
    builder.Update(idx, bins[i], values[i], ts[i]);
  }
  for (int i = 0; i < 17; ++i) {
    builder.Update(idx, 3, 100.0 + i, 20);
  }
  ChunkSummary s = builder.Finalize(0, 1024);
  const std::vector<double> zero = Listed(s, 1, 5, 0);
  ASSERT_EQ(zero.size(), 1u);
  EXPECT_TRUE(std::signbit(zero[0]));
  EXPECT_EQ(zero[0], 0.0);
  EXPECT_EQ(Listed(s, 1, 5, 1), (std::vector<double>{4.0, 5.0, 3.0}));
  EXPECT_EQ(Listed(s, 1, 5, 2), (std::vector<double>{8.0}));
  for (uint32_t bin : {3u, 4u, 5u, kEvaluatedBin}) {
    EXPECT_TRUE(Listed(s, 1, 5, bin).empty()) << bin;
  }
  EXPECT_TRUE(Listed(s, 1, kPresenceIndexId, 0).empty());

  // The encoding round-trips, and the next chunk starts with nothing listed.
  std::vector<uint8_t> buf;
  s.EncodeTo(buf);
  auto decoded = ChunkSummary::Decode(buf);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->listed, s.listed);
  EXPECT_EQ(Listed(*decoded, 1, 5, 1), (std::vector<double>{4.0, 5.0, 3.0}));
  builder.UpdatePresence(presence, 30);
  builder.Update(idx, 2, 1.5, 30);
  builder.Update(idx, 2, 3.5, 30);
  builder.Update(idx, 2, 2.5, 30);
  const ChunkSummary next = builder.Finalize(1024, 1024);
  EXPECT_EQ(Listed(next, 1, 5, 2), (std::vector<double>{2.5}));
}

TEST(ChunkSummaryBuilderTest, SlotReuseAfterUnregister) {
  ChunkSummaryBuilder builder;
  size_t a = builder.RegisterSlot(1, 1, 4);
  builder.UnregisterSlot(a);
  size_t b = builder.RegisterSlot(2, 2, 8);
  EXPECT_EQ(a, b);  // clean slot reused
}

TEST(ChunkSummaryBuilderTest, DirtyUnregisteredSlotFlushedOnce) {
  ChunkSummaryBuilder builder;
  size_t a = builder.RegisterSlot(1, 1, 4);
  builder.Update(a, 0, 1.0, 10);
  builder.UnregisterSlot(a);
  // Dirty slot is not reused until finalized.
  size_t b = builder.RegisterSlot(2, 2, 8);
  EXPECT_NE(a, b);
  ChunkSummary s = builder.Finalize(0, 64);
  ASSERT_EQ(s.entries.size(), 1u);
  EXPECT_EQ(s.entries[0].source_id, 1u);
}

// --- Timestamp index -------------------------------------------------------------

TEST(TimestampIndexEntryTest, EncodeDecodeRoundTrip) {
  TimestampIndexEntry e;
  e.kind = TimestampIndexEntry::Kind::kChunk;
  e.source_id = 12;
  e.ts = 0xABCDEF;
  e.target_addr = 0x1234;
  e.prev_addr = 0x5678;
  uint8_t buf[TimestampIndexEntry::kEncodedSize];
  e.EncodeTo(buf);
  TimestampIndexEntry d = TimestampIndexEntry::Decode(buf);
  EXPECT_EQ(d.kind, e.kind);
  EXPECT_EQ(d.source_id, e.source_id);
  EXPECT_EQ(d.ts, e.ts);
  EXPECT_EQ(d.target_addr, e.target_addr);
  EXPECT_EQ(d.prev_addr, e.prev_addr);
}

class TimestampIndexFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    HybridLogOptions opts;
    opts.block_size = 1 << 16;
    auto log = HybridLog::Create(dir_.FilePath("ts.idx"), opts);
    ASSERT_TRUE(log.ok());
    log_ = std::move(log.value());
    writer_ = std::make_unique<TimestampIndexWriter>(log_.get());
  }

  TempDir dir_;
  std::unique_ptr<HybridLog> log_;
  std::unique_ptr<TimestampIndexWriter> writer_;
};

TEST_F(TimestampIndexFixture, BinarySearchFindsEntries) {
  // Markers at ts = 10, 20, ..., 1000.
  uint64_t prev = kNullAddr;
  for (int i = 1; i <= 100; ++i) {
    auto addr = writer_->AppendRecordMarker(1, static_cast<TimestampNanos>(i * 10), i, prev);
    ASSERT_TRUE(addr.ok());
    prev = addr.value();
  }
  log_->Publish();
  TimestampIndexReader reader(log_.get(), log_->queryable_tail());
  EXPECT_EQ(reader.num_entries(), 100u);

  auto at = reader.LastEntryAtOrBefore(55);
  ASSERT_TRUE(at.ok());
  ASSERT_TRUE(at.value().has_value());
  EXPECT_EQ(reader.ReadIndex(*at.value())->ts, 50u);

  auto exact = reader.LastEntryAtOrBefore(50);
  EXPECT_EQ(reader.ReadIndex(*exact.value())->ts, 50u);

  auto before_all = reader.LastEntryAtOrBefore(5);
  EXPECT_FALSE(before_all.value().has_value());

  auto after = reader.FirstEntryAfter(995);
  ASSERT_TRUE(after.value().has_value());
  EXPECT_EQ(reader.ReadIndex(*after.value())->ts, 1000u);

  auto past_end = reader.FirstEntryAfter(1000);
  EXPECT_FALSE(past_end.value().has_value());
}

TEST_F(TimestampIndexFixture, RecordMarkerChainsPerSource) {
  uint64_t prev1 = kNullAddr;
  uint64_t prev2 = kNullAddr;
  for (int i = 0; i < 10; ++i) {
    auto a1 = writer_->AppendRecordMarker(1, static_cast<TimestampNanos>(i * 10 + 1), i, prev1);
    ASSERT_TRUE(a1.ok());
    prev1 = a1.value();
    auto a2 = writer_->AppendRecordMarker(2, static_cast<TimestampNanos>(i * 10 + 2), i, prev2);
    ASSERT_TRUE(a2.ok());
    prev2 = a2.value();
  }
  log_->Publish();
  TimestampIndexReader reader(log_.get(), log_->queryable_tail());

  auto m = reader.FirstRecordMarkerAfter(2, 45);
  ASSERT_TRUE(m.ok());
  ASSERT_TRUE(m.value().has_value());
  EXPECT_EQ(m.value()->source_id, 2u);
  EXPECT_EQ(m.value()->ts, 52u);

  auto f = reader.FirstRecordMarkerAfter(1, 55);
  ASSERT_TRUE(f.value().has_value());
  EXPECT_EQ(f.value()->source_id, 1u);
  EXPECT_EQ(f.value()->ts, 61u);

  // Chain walk: marker prev pointers stay within the source.
  uint64_t addr = m.value()->prev_addr;
  int hops = 0;
  while (addr != kNullAddr) {
    auto e = reader.ReadAt(addr);
    ASSERT_TRUE(e.ok());
    EXPECT_EQ(e.value().source_id, 2u);
    addr = e.value().prev_addr;
    ++hops;
  }
  EXPECT_EQ(hops, 5);  // markers at 2,12,22,32,42 precede 52
}

TEST_F(TimestampIndexFixture, ChunkEventChain) {
  ASSERT_TRUE(writer_->AppendRecordMarker(1, 5, 0, kNullAddr).ok());
  ASSERT_TRUE(writer_->AppendChunkEvent(10, 1000).ok());
  ASSERT_TRUE(writer_->AppendRecordMarker(1, 15, 0, kNullAddr).ok());
  ASSERT_TRUE(writer_->AppendChunkEvent(20, 2000).ok());
  log_->Publish();
  TimestampIndexReader reader(log_.get(), log_->queryable_tail());

  auto pos = reader.LastEntryAtOrBefore(20);
  ASSERT_TRUE(pos.ok());
  ASSERT_TRUE(pos.value().has_value());
  auto last = reader.ReadIndex(*pos.value());
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(last.value().kind, TimestampIndexEntry::Kind::kChunk);
  EXPECT_EQ(last.value().target_addr, 2000u);
  ASSERT_NE(last.value().prev_addr, kNullAddr);
  auto prev = reader.ReadAt(last.value().prev_addr);
  ASSERT_TRUE(prev.ok());
  EXPECT_EQ(prev.value().target_addr, 1000u);
  EXPECT_EQ(prev.value().prev_addr, kNullAddr);
}

TEST_F(TimestampIndexFixture, EmptyIndexQueries) {
  log_->Publish();
  TimestampIndexReader reader(log_.get(), log_->queryable_tail());
  EXPECT_EQ(reader.num_entries(), 0u);
  EXPECT_FALSE(reader.LastEntryAtOrBefore(100).value().has_value());
  EXPECT_FALSE(reader.FirstEntryAfter(0).value().has_value());
  EXPECT_FALSE(reader.FirstRecordMarkerAfter(1, 0).value().has_value());
}

// Property: binary search result matches a linear scan for random timestamps.
class TimestampIndexSearchProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TimestampIndexSearchProperty, MatchesLinearScan) {
  TempDir dir;
  HybridLogOptions opts;
  opts.block_size = 1 << 14;
  auto log = HybridLog::Create(dir.FilePath("ts.idx"), opts);
  ASSERT_TRUE(log.ok());
  TimestampIndexWriter writer(log->get());

  Rng rng(GetParam());
  std::vector<TimestampNanos> stamps;
  TimestampNanos ts = 0;
  for (int i = 0; i < 500; ++i) {
    ts += rng.NextBounded(20);  // duplicates allowed (monotone, not strict)
    stamps.push_back(ts);
    ASSERT_TRUE(writer.AppendRecordMarker(1, ts, i, kNullAddr).ok());
  }
  (*log)->Publish();
  TimestampIndexReader reader(log->get(), (*log)->queryable_tail());

  for (int probe = 0; probe < 200; ++probe) {
    TimestampNanos q = rng.NextBounded(ts + 10);
    auto got = reader.LastEntryAtOrBefore(q);
    ASSERT_TRUE(got.ok());
    // Linear reference.
    int64_t expect = -1;
    for (size_t i = 0; i < stamps.size(); ++i) {
      if (stamps[i] <= q) {
        expect = static_cast<int64_t>(i);
      }
    }
    if (expect < 0) {
      EXPECT_FALSE(got.value().has_value());
    } else {
      ASSERT_TRUE(got.value().has_value());
      // Any entry with an equal timestamp is acceptable for LastEntryAtOrBefore;
      // the canonical answer is the last index.
      EXPECT_EQ(static_cast<int64_t>(*got.value()), expect);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimestampIndexSearchProperty,
                         ::testing::Values(1u, 2u, 3u, 42u, 1337u));

}  // namespace
}  // namespace loom
