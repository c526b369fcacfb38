#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <numeric>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/file.h"
#include "src/common/rng.h"
#include "src/core/loom.h"

namespace loom {
namespace {

// Simple fixed-layout payload used by tests: a single double value.
std::vector<uint8_t> ValuePayload(double v, size_t pad_to = 48) {
  std::vector<uint8_t> buf(std::max(pad_to, sizeof(double)), 0);
  std::memcpy(buf.data(), &v, sizeof(double));
  return buf;
}

double PayloadValue(std::span<const uint8_t> payload) {
  double v;
  std::memcpy(&v, payload.data(), sizeof(double));
  return v;
}

Loom::IndexFunc ValueIndexFunc() {
  return [](std::span<const uint8_t> payload) -> std::optional<double> {
    if (payload.size() < sizeof(double)) {
      return std::nullopt;
    }
    return PayloadValue(payload);
  };
}

class LoomEngineTest : public ::testing::Test {
 protected:
  void SetUp() override { Reopen(); }

  void Reopen(bool chunk_index = true, bool ts_index = true) {
    LoomOptions opts;
    opts.dir = dir_.FilePath("loom");
    opts.chunk_size = 1024;  // ~13 records of 48 B payload per chunk
    opts.record_block_size = 8192;
    opts.chunk_index_block_size = 4096;
    opts.ts_index_block_size = 4096;
    opts.ts_marker_period = 8;
    opts.enable_chunk_index = chunk_index;
    opts.enable_timestamp_index = ts_index;
    opts.clock = &clock_;
    auto loom = Loom::Open(opts);
    ASSERT_TRUE(loom.ok()) << loom.status().ToString();
    loom_ = std::move(loom.value());
  }

  // Pushes `n` records with the given values, advancing the clock by
  // `step_ns` before each push. Returns the (ts, value) ground truth.
  std::vector<std::pair<TimestampNanos, double>> PushValues(uint32_t source,
                                                            const std::vector<double>& values,
                                                            TimestampNanos step_ns = 1000) {
    std::vector<std::pair<TimestampNanos, double>> truth;
    for (double v : values) {
      clock_.AdvanceNanos(step_ns);
      EXPECT_TRUE(loom_->Push(source, ValuePayload(v)).ok());
      truth.emplace_back(clock_.NowNanos(), v);
    }
    return truth;
  }

  TempDir dir_;
  ManualClock clock_{1};
  std::unique_ptr<Loom> loom_;
};

// --- Schema ---------------------------------------------------------------

TEST_F(LoomEngineTest, DefineSourceTwiceFails) {
  ASSERT_TRUE(loom_->DefineSource(1).ok());
  EXPECT_EQ(loom_->DefineSource(1).code(), StatusCode::kAlreadyExists);
}

TEST_F(LoomEngineTest, ReservedSourceIdRejected) {
  EXPECT_EQ(loom_->DefineSource(0xFFFFFFFFu).code(), StatusCode::kInvalidArgument);
}

TEST_F(LoomEngineTest, PushToUnknownSourceFails) {
  EXPECT_EQ(loom_->Push(9, ValuePayload(1.0)).code(), StatusCode::kNotFound);
}

TEST_F(LoomEngineTest, CloseSourceStopsIngest) {
  ASSERT_TRUE(loom_->DefineSource(1).ok());
  ASSERT_TRUE(loom_->Push(1, ValuePayload(1.0)).ok());
  ASSERT_TRUE(loom_->CloseSource(1).ok());
  EXPECT_FALSE(loom_->Push(1, ValuePayload(2.0)).ok());
  // Historical data remains queryable.
  int count = 0;
  ASSERT_TRUE(loom_->RawScan(1, {0, ~0ULL}, [&](const RecordView&) {
                ++count;
                return true;
              }).ok());
  EXPECT_EQ(count, 1);
}

TEST_F(LoomEngineTest, ReopenClosedSourceContinuesChain) {
  ASSERT_TRUE(loom_->DefineSource(1).ok());
  ASSERT_TRUE(loom_->Push(1, ValuePayload(1.0)).ok());
  ASSERT_TRUE(loom_->CloseSource(1).ok());
  ASSERT_TRUE(loom_->DefineSource(1).ok());
  ASSERT_TRUE(loom_->Push(1, ValuePayload(2.0)).ok());
  int count = 0;
  ASSERT_TRUE(loom_->RawScan(1, {0, ~0ULL}, [&](const RecordView&) {
                ++count;
                return true;
              }).ok());
  EXPECT_EQ(count, 2);
}

TEST_F(LoomEngineTest, DefineIndexOnUnknownSourceFails) {
  auto spec = HistogramSpec::Uniform(0, 100, 4).value();
  EXPECT_FALSE(loom_->DefineIndex(1, ValueIndexFunc(), spec).ok());
}

TEST_F(LoomEngineTest, CloseIndexRemovesIt) {
  ASSERT_TRUE(loom_->DefineSource(1).ok());
  auto spec = HistogramSpec::Uniform(0, 100, 4).value();
  auto idx = loom_->DefineIndex(1, ValueIndexFunc(), spec);
  ASSERT_TRUE(idx.ok());
  ASSERT_TRUE(loom_->CloseIndex(idx.value()).ok());
  EXPECT_EQ(loom_->CloseIndex(idx.value()).code(), StatusCode::kNotFound);
  EXPECT_FALSE(loom_->IndexedScan(1, idx.value(), {0, ~0ULL}, {0, 100},
                                  [](const RecordView&) { return true; })
                   .ok());
}

TEST_F(LoomEngineTest, RecordLargerThanChunkRejected) {
  ASSERT_TRUE(loom_->DefineSource(1).ok());
  std::vector<uint8_t> big(2048, 0);
  EXPECT_EQ(loom_->Push(1, big).code(), StatusCode::kInvalidArgument);
}

// --- RawScan ------------------------------------------------------------------

TEST_F(LoomEngineTest, RawScanReturnsNewestFirst) {
  ASSERT_TRUE(loom_->DefineSource(1).ok());
  PushValues(1, {1, 2, 3, 4, 5});
  std::vector<double> seen;
  ASSERT_TRUE(loom_->RawScan(1, {0, ~0ULL}, [&](const RecordView& r) {
                seen.push_back(PayloadValue(r.payload));
                return true;
              }).ok());
  EXPECT_EQ(seen, (std::vector<double>{5, 4, 3, 2, 1}));
}

TEST_F(LoomEngineTest, RawScanRespectsTimeRange) {
  ASSERT_TRUE(loom_->DefineSource(1).ok());
  auto truth = PushValues(1, {10, 20, 30, 40, 50});
  // Select the middle three by time.
  TimeRange range{truth[1].first, truth[3].first};
  std::vector<double> seen;
  ASSERT_TRUE(loom_->RawScan(1, range, [&](const RecordView& r) {
                seen.push_back(PayloadValue(r.payload));
                return true;
              }).ok());
  EXPECT_EQ(seen, (std::vector<double>{40, 30, 20}));
}

TEST_F(LoomEngineTest, RawScanFiltersOtherSources) {
  ASSERT_TRUE(loom_->DefineSource(1).ok());
  ASSERT_TRUE(loom_->DefineSource(2).ok());
  for (int i = 0; i < 20; ++i) {
    clock_.AdvanceNanos(10);
    ASSERT_TRUE(loom_->Push(i % 2 == 0 ? 1 : 2, ValuePayload(i)).ok());
  }
  int count = 0;
  ASSERT_TRUE(loom_->RawScan(2, {0, ~0ULL}, [&](const RecordView& r) {
                EXPECT_EQ(r.source_id, 2u);
                ++count;
                return true;
              }).ok());
  EXPECT_EQ(count, 10);
}

TEST_F(LoomEngineTest, RawScanEarlyStop) {
  ASSERT_TRUE(loom_->DefineSource(1).ok());
  PushValues(1, std::vector<double>(100, 1.0));
  int count = 0;
  ASSERT_TRUE(loom_->RawScan(1, {0, ~0ULL}, [&](const RecordView&) {
                ++count;
                return count < 5;
              }).ok());
  EXPECT_EQ(count, 5);
}

TEST_F(LoomEngineTest, RawScanEmptySource) {
  ASSERT_TRUE(loom_->DefineSource(1).ok());
  int count = 0;
  ASSERT_TRUE(loom_->RawScan(1, {0, ~0ULL}, [&](const RecordView&) {
                ++count;
                return true;
              }).ok());
  EXPECT_EQ(count, 0);
}

TEST_F(LoomEngineTest, RawScanCrossesManyChunksAndBlocks) {
  ASSERT_TRUE(loom_->DefineSource(1).ok());
  std::vector<double> values;
  for (int i = 0; i < 2000; ++i) {
    values.push_back(i);
  }
  auto truth = PushValues(1, values);
  // Window covering records 500..1499.
  TimeRange range{truth[500].first, truth[1499].first};
  std::vector<double> seen;
  ASSERT_TRUE(loom_->RawScan(1, range, [&](const RecordView& r) {
                seen.push_back(PayloadValue(r.payload));
                return true;
              }).ok());
  ASSERT_EQ(seen.size(), 1000u);
  EXPECT_EQ(seen.front(), 1499.0);
  EXPECT_EQ(seen.back(), 500.0);
}

// --- IndexedScan -----------------------------------------------------------------

TEST_F(LoomEngineTest, IndexedScanFiltersByValue) {
  ASSERT_TRUE(loom_->DefineSource(1).ok());
  auto spec = HistogramSpec::Uniform(0, 100, 10).value();
  auto idx = loom_->DefineIndex(1, ValueIndexFunc(), spec);
  ASSERT_TRUE(idx.ok());
  std::vector<double> values;
  for (int i = 0; i < 500; ++i) {
    values.push_back(i % 100);
  }
  PushValues(1, values);
  std::vector<double> seen;
  ASSERT_TRUE(loom_->IndexedScan(1, idx.value(), {0, ~0ULL}, {90, 95},
                                 [&](const RecordView& r) {
                                   seen.push_back(PayloadValue(r.payload));
                                   return true;
                                 })
                  .ok());
  EXPECT_EQ(seen.size(), 30u);  // values 90..95 occur 5x each
  for (double v : seen) {
    EXPECT_GE(v, 90.0);
    EXPECT_LE(v, 95.0);
  }
}

TEST_F(LoomEngineTest, IndexedScanOldestFirstOrder) {
  ASSERT_TRUE(loom_->DefineSource(1).ok());
  auto spec = HistogramSpec::Uniform(0, 100, 10).value();
  auto idx = loom_->DefineIndex(1, ValueIndexFunc(), spec);
  ASSERT_TRUE(idx.ok());
  PushValues(1, {50, 51, 52, 53, 54});
  std::vector<double> seen;
  ASSERT_TRUE(loom_->IndexedScan(1, idx.value(), {0, ~0ULL}, {0, 100},
                                 [&](const RecordView& r) {
                                   seen.push_back(PayloadValue(r.payload));
                                   return true;
                                 })
                  .ok());
  EXPECT_EQ(seen, (std::vector<double>{50, 51, 52, 53, 54}));
}

TEST_F(LoomEngineTest, IndexedScanTimeAndValueCombined) {
  ASSERT_TRUE(loom_->DefineSource(1).ok());
  auto spec = HistogramSpec::Uniform(0, 1000, 10).value();
  auto idx = loom_->DefineIndex(1, ValueIndexFunc(), spec);
  ASSERT_TRUE(idx.ok());
  std::vector<double> values;
  for (int i = 0; i < 1000; ++i) {
    values.push_back(i);
  }
  auto truth = PushValues(1, values);
  TimeRange range{truth[200].first, truth[799].first};
  std::vector<double> seen;
  ASSERT_TRUE(loom_->IndexedScan(1, idx.value(), range, {500, 600},
                                 [&](const RecordView& r) {
                                   seen.push_back(PayloadValue(r.payload));
                                   return true;
                                 })
                  .ok());
  ASSERT_EQ(seen.size(), 101u);
  EXPECT_EQ(seen.front(), 500.0);
  EXPECT_EQ(seen.back(), 600.0);
}

TEST_F(LoomEngineTest, IndexedScanFindsOutliers) {
  ASSERT_TRUE(loom_->DefineSource(1).ok());
  // User bins only cover [0, 10); outliers land in the overflow bin.
  auto spec = HistogramSpec::Uniform(0, 10, 5).value();
  auto idx = loom_->DefineIndex(1, ValueIndexFunc(), spec);
  ASSERT_TRUE(idx.ok());
  std::vector<double> values(500, 5.0);
  values[123] = 1e9;  // one extreme outlier
  PushValues(1, values);
  std::vector<double> seen;
  ASSERT_TRUE(loom_->IndexedScan(1, idx.value(), {0, ~0ULL}, {1e6, 1e12},
                                 [&](const RecordView& r) {
                                   seen.push_back(PayloadValue(r.payload));
                                   return true;
                                 })
                  .ok());
  EXPECT_EQ(seen, std::vector<double>{1e9});
}

TEST_F(LoomEngineTest, IndexedScanSeesUnindexedHistory) {
  ASSERT_TRUE(loom_->DefineSource(1).ok());
  // Push data *before* defining the index: presence entries must route the
  // scan through the old chunks (§5.3).
  PushValues(1, {7, 8, 9});
  auto spec = HistogramSpec::Uniform(0, 100, 10).value();
  auto idx = loom_->DefineIndex(1, ValueIndexFunc(), spec);
  ASSERT_TRUE(idx.ok());
  PushValues(1, {10, 11});
  std::vector<double> seen;
  ASSERT_TRUE(loom_->IndexedScan(1, idx.value(), {0, ~0ULL}, {0, 100},
                                 [&](const RecordView& r) {
                                   seen.push_back(PayloadValue(r.payload));
                                   return true;
                                 })
                  .ok());
  EXPECT_EQ(seen, (std::vector<double>{7, 8, 9, 10, 11}));
}

// --- IndexedAggregate --------------------------------------------------------------

class LoomAggregateTest : public LoomEngineTest {
 protected:
  void SetUpSourceWithData(size_t n, uint64_t seed) {
    ASSERT_TRUE(loom_->DefineSource(1).ok());
    auto spec = HistogramSpec::Exponential(1.0, 2.0, 16).value();
    auto idx = loom_->DefineIndex(1, ValueIndexFunc(), spec);
    ASSERT_TRUE(idx.ok());
    index_id_ = idx.value();
    Rng rng(seed);
    std::vector<double> values;
    values.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      values.push_back(rng.NextLogNormal(100.0, 1.0));
    }
    truth_ = PushValues(1, values);
  }

  double ReferenceAggregate(TimeRange range, AggregateMethod method, double pct = 0) const {
    std::vector<double> in_range;
    for (const auto& [ts, v] : truth_) {
      if (range.Contains(ts)) {
        in_range.push_back(v);
      }
    }
    switch (method) {
      case AggregateMethod::kCount:
        return static_cast<double>(in_range.size());
      case AggregateMethod::kSum:
        return std::accumulate(in_range.begin(), in_range.end(), 0.0);
      case AggregateMethod::kMin:
        return *std::min_element(in_range.begin(), in_range.end());
      case AggregateMethod::kMax:
        return *std::max_element(in_range.begin(), in_range.end());
      case AggregateMethod::kMean:
        return std::accumulate(in_range.begin(), in_range.end(), 0.0) / in_range.size();
      case AggregateMethod::kPercentile: {
        std::sort(in_range.begin(), in_range.end());
        size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * in_range.size()));
        rank = std::max<size_t>(1, std::min(rank, in_range.size()));
        return in_range[rank - 1];
      }
    }
    return 0;
  }

  uint32_t index_id_ = 0;
  std::vector<std::pair<TimestampNanos, double>> truth_;
};

TEST_F(LoomAggregateTest, CountMatchesReference) {
  SetUpSourceWithData(1000, 1);
  TimeRange range{truth_[100].first, truth_[899].first};
  auto got = loom_->IndexedAggregate(1, index_id_, range, AggregateMethod::kCount);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value(), 800.0);
}

TEST_F(LoomAggregateTest, MinMaxMatchReference) {
  SetUpSourceWithData(1000, 2);
  TimeRange range{truth_[50].first, truth_[949].first};
  auto max = loom_->IndexedAggregate(1, index_id_, range, AggregateMethod::kMax);
  ASSERT_TRUE(max.ok());
  EXPECT_DOUBLE_EQ(max.value(), ReferenceAggregate(range, AggregateMethod::kMax));
  auto min = loom_->IndexedAggregate(1, index_id_, range, AggregateMethod::kMin);
  ASSERT_TRUE(min.ok());
  EXPECT_DOUBLE_EQ(min.value(), ReferenceAggregate(range, AggregateMethod::kMin));
}

TEST_F(LoomAggregateTest, SumAndMeanMatchReference) {
  SetUpSourceWithData(500, 3);
  TimeRange range{0, ~0ULL};
  auto sum = loom_->IndexedAggregate(1, index_id_, range, AggregateMethod::kSum);
  ASSERT_TRUE(sum.ok());
  EXPECT_NEAR(sum.value(), ReferenceAggregate(range, AggregateMethod::kSum), 1e-6);
  auto mean = loom_->IndexedAggregate(1, index_id_, range, AggregateMethod::kMean);
  ASSERT_TRUE(mean.ok());
  EXPECT_NEAR(mean.value(), ReferenceAggregate(range, AggregateMethod::kMean), 1e-9);
}

TEST_F(LoomAggregateTest, PercentilesMatchReferenceExactly) {
  SetUpSourceWithData(2000, 4);
  TimeRange range{truth_[100].first, truth_[1899].first};
  for (double pct : {0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    auto got = loom_->IndexedAggregate(1, index_id_, range, AggregateMethod::kPercentile, pct);
    ASSERT_TRUE(got.ok()) << "pct=" << pct << ": " << got.status().ToString();
    EXPECT_DOUBLE_EQ(got.value(), ReferenceAggregate(range, AggregateMethod::kPercentile, pct))
        << "pct=" << pct;
  }
}

TEST_F(LoomAggregateTest, EmptyRangeReturnsNotFound) {
  SetUpSourceWithData(100, 5);
  auto got = loom_->IndexedAggregate(1, index_id_, {1, 2}, AggregateMethod::kMax);
  EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
  auto count = loom_->IndexedAggregate(1, index_id_, {1, 2}, AggregateMethod::kCount);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), 0.0);
}

TEST_F(LoomAggregateTest, InvalidPercentileRejected) {
  SetUpSourceWithData(10, 6);
  EXPECT_FALSE(
      loom_->IndexedAggregate(1, index_id_, {0, ~0ULL}, AggregateMethod::kPercentile, 101).ok());
  EXPECT_FALSE(
      loom_->IndexedAggregate(1, index_id_, {0, ~0ULL}, AggregateMethod::kPercentile, -1).ok());
}

// --- Ablation modes (Fig. 16 machinery) -----------------------------------------

class LoomAblationTest : public LoomEngineTest,
                         public ::testing::WithParamInterface<std::tuple<bool, bool>> {};

TEST_P(LoomAblationTest, QueriesCorrectInAllIndexModes) {
  const auto [chunk_index, ts_index] = GetParam();
  Reopen(chunk_index, ts_index);
  ASSERT_TRUE(loom_->DefineSource(1).ok());
  auto spec = HistogramSpec::Uniform(0, 100, 10).value();
  auto idx = loom_->DefineIndex(1, ValueIndexFunc(), spec);
  ASSERT_TRUE(idx.ok());
  std::vector<double> values;
  for (int i = 0; i < 600; ++i) {
    values.push_back(i % 100);
  }
  auto truth = PushValues(1, values);
  TimeRange range{truth[100].first, truth[499].first};

  // Raw scan count.
  int raw = 0;
  ASSERT_TRUE(loom_->RawScan(1, range, [&](const RecordView&) {
                ++raw;
                return true;
              }).ok());
  EXPECT_EQ(raw, 400);

  // Indexed scan matches regardless of enabled index layers.
  std::vector<double> seen;
  ASSERT_TRUE(loom_->IndexedScan(1, idx.value(), range, {95, 99},
                                 [&](const RecordView& r) {
                                   seen.push_back(PayloadValue(r.payload));
                                   return true;
                                 })
                  .ok());
  EXPECT_EQ(seen.size(), 20u);  // 4 full centuries in range * 5 values

  // Aggregate.
  auto count = loom_->IndexedAggregate(1, idx.value(), range, AggregateMethod::kCount);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), 400.0);
  // rank = ceil(0.99 * 400) = 396; each value occurs 4x, so the 396th
  // smallest of 0..99 repeated is 98.
  auto p99 = loom_->IndexedAggregate(1, idx.value(), range, AggregateMethod::kPercentile, 99);
  ASSERT_TRUE(p99.ok());
  EXPECT_EQ(p99.value(), 98.0);

  // NaN values count in every mode and land in the overflow bin, as the
  // chunk summaries record them.
  ASSERT_TRUE(loom_->DefineSource(2).ok());
  auto nan_idx = loom_->DefineIndex(2, ValueIndexFunc(), spec);
  ASSERT_TRUE(nan_idx.ok());
  std::vector<double> with_nan;
  for (int i = 0; i < 600; ++i) {
    with_nan.push_back(i % 10 == 0 ? std::nan("") : i % 100);
  }
  PushValues(2, with_nan);
  auto nan_count = loom_->IndexedAggregate(2, nan_idx.value(), {0, ~0ULL}, AggregateMethod::kCount);
  ASSERT_TRUE(nan_count.ok());
  EXPECT_EQ(nan_count.value(), 600.0);
  auto nan_hist = loom_->IndexedHistogram(2, nan_idx.value(), {0, ~0ULL});
  ASSERT_TRUE(nan_hist.ok());
  EXPECT_EQ(std::accumulate(nan_hist->begin(), nan_hist->end(), uint64_t{0}), 600u);
  EXPECT_EQ(nan_hist->back(), 60u);
}

INSTANTIATE_TEST_SUITE_P(Modes, LoomAblationTest,
                         ::testing::Combine(::testing::Bool(), ::testing::Bool()));

// --- Randomized differential test against a reference model ------------------------

struct RefRecord {
  TimestampNanos ts;
  double value;
};

// One differential configuration: the workload seed, whether the probes run
// after demoting most chunks into the archive tier, and the chunk size.
struct DiffCase {
  uint64_t seed;
  bool archived;
  size_t chunk_size = 1024;
};

// Names the case after its seed alone for the hot-only engine with 1 KiB
// chunks, so that configuration keeps its historical test names.
void PrintTo(const DiffCase& c, std::ostream* os) {
  *os << c.seed;
  if (c.archived) {
    *os << "_archived";
  }
  if (c.chunk_size != 1024) {
    *os << "_chunk" << c.chunk_size;
  }
}

// 1 KiB chunks hold ~14 records, so every bin entry holds at most 16 values
// and lists them; 8 KiB chunks give the dense bin (source 3) ~40 values per
// entry, which only the [min, max] bracket and a rescan settle.
std::vector<DiffCase> DiffCases() {
  std::vector<DiffCase> cases;
  for (bool archived : {false, true}) {
    for (uint64_t seed : {11u, 22u, 33u, 44u, 55u, 66u}) {
      cases.push_back({seed, archived});
    }
    cases.push_back({77u, archived, 8192});
  }
  return cases;
}

class LoomDifferentialTest : public ::testing::TestWithParam<DiffCase> {};

// Pushes a random multi-source workload, then checks random raw scans,
// indexed scans, counts, and aggregates against a brute-force in-memory
// model. The value mixes reach every zone-map branch: uniform values over the
// outlier bins (source 1), ties drawn from a few values sitting on bin edges
// (2), one dense bin with one or two outliers per chunk, +/-inf included (3),
// and NaN (4, checked by scans and counts only: NaN has no percentile).
TEST_P(LoomDifferentialTest, MatchesReferenceModel) {
  const DiffCase& c = GetParam();
  TempDir dir;
  ManualClock clock(1);
  LoomOptions opts;
  opts.dir = dir.FilePath("loom");
  opts.chunk_size = c.chunk_size;
  opts.record_block_size = std::max<size_t>(4096, c.chunk_size);
  opts.chunk_index_block_size = 4096;
  opts.ts_index_block_size = 2048;
  opts.ts_marker_period = 5;
  opts.clock = &clock;
  if (c.archived) {
    opts.archive_dir = dir.FilePath("cold");
    opts.record_retain_bytes = opts.record_block_size;
  }
  auto loom = Loom::Open(opts);
  ASSERT_TRUE(loom.ok());

  Rng rng(c.seed);
  constexpr uint32_t kSources = 4;
  constexpr uint32_t kNanSource = 4;
  const double inf = std::numeric_limits<double>::infinity();
  std::map<uint32_t, std::vector<RefRecord>> model;
  std::map<uint32_t, uint32_t> index_ids;
  auto spec = HistogramSpec::Uniform(0, 1000, 8).value();
  for (uint32_t s = 1; s <= kSources; ++s) {
    ASSERT_TRUE((*loom)->DefineSource(s).ok());
    auto idx = (*loom)->DefineIndex(
        s,
        [](std::span<const uint8_t> p) -> std::optional<double> {
          double v;
          std::memcpy(&v, p.data(), sizeof(v));
          return v;
        },
        spec);
    ASSERT_TRUE(idx.ok());
    index_ids[s] = idx.value();
  }

  // Mostly bin edges (0, 125, ..., 1000); 250 is drawn twice as often.
  const std::vector<double> ties = {-1.0, 0.0, 125.0, 250.0, 250.0, 375.0, 500.0, 999.5, 1000.0};
  const std::vector<double> outliers = {-inf, inf, -50.0, 1050.0, 130.0, 240.0};
  auto draw = [&](uint32_t s) -> double {
    switch (s) {
      case 1:
        return rng.NextUniform(-100, 1100);
      case 2:
        return ties[rng.NextBounded(ties.size())];
      case 3:
        if (rng.NextBounded(10) == 0) {
          return outliers[rng.NextBounded(outliers.size())];
        }
        return rng.NextUniform(500, 625);
      default:
        if (rng.NextBounded(5) == 0) {
          return std::nan("");
        }
        return rng.NextBounded(20) == 0 ? -inf : rng.NextUniform(0, 1000);
    }
  };
  constexpr int kRecords = 3000;
  for (int i = 0; i < kRecords; ++i) {
    clock.AdvanceNanos(1 + rng.NextBounded(100));
    // Source 3 (the dense bin) gets 40% of the records, 4 (NaN) 10%.
    const uint64_t pick = rng.NextBounded(20);
    const uint32_t s = pick < 5 ? 1 : pick < 10 ? 2 : pick < 18 ? 3 : kNanSource;
    const double v = draw(s);
    ASSERT_TRUE((*loom)->Push(s, ValuePayload(v)).ok());
    model[s].push_back({clock.NowNanos(), v});
  }
  const TimestampNanos t_max = clock.NowNanos();

  if (c.archived) {
    for (uint32_t s = 1; s <= kSources; ++s) {
      ASSERT_TRUE((*loom)->Sync(s).ok());
    }
    // Demotion follows flushed bytes: let the flusher catch up, then demote
    // until a pass archives nothing new.
    const uint64_t full_blocks =
        (*loom)->stats().record_log.bytes_appended / opts.record_block_size;
    for (int spin = 0; spin < 5000 && (*loom)->stats().record_log.blocks_flushed < full_blocks;
         ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    size_t prev;
    do {
      prev = (*loom)->ArchiveCount();
      ASSERT_TRUE((*loom)->DemoteNow().ok());
    } while ((*loom)->ArchiveCount() != prev);
    ASSERT_GE((*loom)->ArchiveCount(), 1u);
  }

  for (int probe = 0; probe < 30; ++probe) {
    const uint32_t s = 1 + static_cast<uint32_t>(rng.NextBounded(kSources));
    const TimestampNanos a = rng.NextBounded(t_max + 10);
    const TimestampNanos b = rng.NextBounded(t_max + 10);
    const TimeRange range =
        probe % 5 == 0 ? TimeRange{0, ~0ULL} : TimeRange{std::min(a, b), std::max(a, b)};
    const std::string where = "source " + std::to_string(s) + " probe " + std::to_string(probe);

    // Reference, in log (= arrival) order.
    std::vector<RefRecord> ref;
    for (const RefRecord& r : model[s]) {
      if (range.Contains(r.ts)) {
        ref.push_back(r);
      }
    }

    // Raw scan delivers newest first.
    std::vector<TimestampNanos> raw;
    QueryTrace raw_trace;
    ASSERT_TRUE((*loom)
                    ->RawScan(
                        s, range,
                        [&](const RecordView& r) {
                          raw.push_back(r.ts);
                          return true;
                        },
                        &raw_trace)
                    .ok());
    std::reverse(raw.begin(), raw.end());
    std::vector<TimestampNanos> ref_ts;
    for (const RefRecord& r : ref) {
      ref_ts.push_back(r.ts);
    }
    EXPECT_EQ(raw, ref_ts) << where;
    EXPECT_EQ(raw_trace.chunks_pruned + raw_trace.chunks_scanned, raw_trace.chunks_considered);
    auto count = (*loom)->CountRecords(s, range);
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(count.value(), ref.size()) << where;

    // Indexed scans: a random range, ends on stored values (a point range
    // included), ends on bin edges, and empty ranges (lo > hi).
    const std::vector<double>& edges = spec.edges();
    auto stored = [&]() { return model[s][rng.NextBounded(model[s].size())].value; };
    auto edge = [&]() { return edges[rng.NextBounded(edges.size())]; };
    const double v1 = rng.NextUniform(-200, 1200);
    const double v2 = rng.NextUniform(-200, 1200);
    const double sv1 = stored();
    const double sv2 = stored();
    const double e1 = edge();
    const double e2 = edge();
    const std::vector<ValueRange> value_ranges = {
        {std::min(v1, v2), std::max(v1, v2)},
        {std::min(sv1, sv2), std::max(sv1, sv2)},
        {sv1, sv1},
        {std::min(e1, e2), std::max(e1, e2)},
        {std::min(e1, sv1), std::max(e1, sv1)},
        {std::max(v1, v2), std::min(v1, v2)},
        {e1, std::nextafter(e1, -inf)},
    };
    for (const ValueRange& vr : value_ranges) {
      std::vector<TimestampNanos> indexed;
      QueryTrace trace;
      ASSERT_TRUE((*loom)
                      ->IndexedScan(
                          s, index_ids[s], range, vr,
                          [&](const RecordView& r) {
                            indexed.push_back(r.ts);
                            return true;
                          },
                          &trace)
                      .ok());
      std::vector<TimestampNanos> ref_filtered;
      for (const RefRecord& r : ref) {
        if (vr.Contains(r.value)) {
          ref_filtered.push_back(r.ts);
        }
      }
      EXPECT_EQ(indexed, ref_filtered) << where << " v [" << vr.lo << ", " << vr.hi << "]";
      EXPECT_EQ(trace.chunks_pruned + trace.chunks_scanned, trace.chunks_considered);
      EXPECT_EQ(trace.tier_chunks_pruned + trace.tier_chunks_scanned,
                trace.tier_chunks_considered);
    }
    if (s == kNanSource) {
      continue;
    }

    // Aggregates: count, max, and percentiles at 0, 100 and a random p.
    std::vector<double> ref_values;
    for (const RefRecord& r : ref) {
      ref_values.push_back(r.value);
    }
    auto agg_count = (*loom)->IndexedAggregate(s, index_ids[s], range, AggregateMethod::kCount);
    ASSERT_TRUE(agg_count.ok());
    EXPECT_EQ(agg_count.value(), static_cast<double>(ref.size()));
    if (ref.empty()) {
      continue;
    }
    auto max = (*loom)->IndexedAggregate(s, index_ids[s], range, AggregateMethod::kMax);
    ASSERT_TRUE(max.ok());
    EXPECT_EQ(max.value(), *std::max_element(ref_values.begin(), ref_values.end()));
    std::sort(ref_values.begin(), ref_values.end());
    for (double pct : {0.0, 100.0, rng.NextUniform(0, 100)}) {
      QueryTrace trace;
      auto p = (*loom)->IndexedAggregate(s, index_ids[s], range, AggregateMethod::kPercentile,
                                         pct, &trace);
      ASSERT_TRUE(p.ok()) << p.status().ToString();
      size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * ref_values.size()));
      rank = std::max<size_t>(1, std::min(rank, ref_values.size()));
      EXPECT_EQ(p.value(), ref_values[rank - 1]) << where << " pct=" << pct;
      EXPECT_EQ(trace.chunks_pruned + trace.chunks_scanned, trace.chunks_considered);
      EXPECT_EQ(trace.tier_chunks_pruned + trace.tier_chunks_scanned,
                trace.tier_chunks_considered);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LoomDifferentialTest, ::testing::ValuesIn(DiffCases()));

// --- Stats ------------------------------------------------------------------------

TEST_F(LoomEngineTest, StatsReflectIngest) {
  ASSERT_TRUE(loom_->DefineSource(1).ok());
  PushValues(1, std::vector<double>(100, 1.0));
  LoomStats stats = loom_->stats();
  EXPECT_EQ(stats.records_ingested, 100u);
  EXPECT_EQ(stats.bytes_ingested, 100u * 48);
  EXPECT_GT(stats.chunks_finalized, 0u);
  EXPECT_GT(stats.ts_entries, 0u);
}

// --- Summary cache (engine level) -------------------------------------------------

TEST_F(LoomEngineTest, RepeatedAggregatesHitSummaryCache) {
  ASSERT_TRUE(loom_->DefineSource(1).ok());
  auto idx = loom_->DefineIndex(1, ValueIndexFunc(), HistogramSpec::Uniform(0, 100, 8).value());
  ASSERT_TRUE(idx.ok());
  std::vector<double> values(500);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<double>(i % 100);
  }
  PushValues(1, values);
  // Drain the seal pipeline so the finalized-chunk set is frozen: a chunk
  // sealing between the cold and warm queries would add fresh cold misses.
  ASSERT_TRUE(loom_->Sync(1).ok());

  // First query decodes summaries cold and populates the cache.
  auto first = loom_->IndexedAggregate(1, idx.value(), {0, ~0ULL}, AggregateMethod::kCount);
  ASSERT_TRUE(first.ok());
  const SummaryCacheStats after_cold = loom_->stats().summary_cache;
  EXPECT_GT(after_cold.misses, 0u);
  EXPECT_GT(after_cold.entries, 0u);

  // Repeats are served from the cache and agree with the cold result.
  for (int i = 0; i < 3; ++i) {
    auto warm = loom_->IndexedAggregate(1, idx.value(), {0, ~0ULL}, AggregateMethod::kCount);
    ASSERT_TRUE(warm.ok());
    EXPECT_EQ(warm.value(), first.value());
  }
  const SummaryCacheStats after_warm = loom_->stats().summary_cache;
  EXPECT_GT(after_warm.hits, after_cold.hits);
  EXPECT_EQ(after_warm.misses, after_cold.misses);
}

TEST_F(LoomEngineTest, SummaryCacheDisabledByZeroBudget) {
  LoomOptions opts;
  opts.dir = dir_.FilePath("loom-nocache");
  opts.chunk_size = 1024;
  opts.record_block_size = 8192;
  opts.summary_cache_bytes = 0;
  opts.clock = &clock_;
  auto loom = Loom::Open(opts);
  ASSERT_TRUE(loom.ok());
  ASSERT_TRUE((*loom)->DefineSource(1).ok());
  auto idx =
      (*loom)->DefineIndex(1, ValueIndexFunc(), HistogramSpec::Uniform(0, 100, 8).value());
  ASSERT_TRUE(idx.ok());
  for (int i = 0; i < 300; ++i) {
    clock_.AdvanceNanos(1000);
    ASSERT_TRUE((*loom)->Push(1, ValuePayload(i % 100)).ok());
  }

  // Queries stay correct with the cache off, and the counters stay zero.
  for (int i = 0; i < 2; ++i) {
    auto count = (*loom)->IndexedAggregate(1, idx.value(), {0, ~0ULL}, AggregateMethod::kCount);
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(count.value(), 300.0);
  }
  const SummaryCacheStats cache = (*loom)->stats().summary_cache;
  EXPECT_EQ(cache.hits, 0u);
  EXPECT_EQ(cache.misses, 0u);
  EXPECT_EQ(cache.entries, 0u);
}

TEST_F(LoomEngineTest, PushBatchMatchesPushResults) {
  ASSERT_TRUE(loom_->DefineSource(1).ok());
  auto idx = loom_->DefineIndex(1, ValueIndexFunc(), HistogramSpec::Uniform(0, 100, 8).value());
  ASSERT_TRUE(idx.ok());

  // Push 200 records through batches of 16; one clock tick per batch.
  std::vector<std::vector<uint8_t>> payloads;
  std::vector<std::span<const uint8_t>> spans;
  uint64_t pushed = 0;
  while (pushed < 200) {
    payloads.clear();
    spans.clear();
    for (int i = 0; i < 16 && pushed < 200; ++i) {
      payloads.push_back(ValuePayload(static_cast<double>(pushed % 100)));
      ++pushed;
    }
    for (const auto& p : payloads) {
      spans.emplace_back(p);
    }
    clock_.AdvanceNanos(1000);
    ASSERT_TRUE(loom_->PushBatch(1, std::span<const std::span<const uint8_t>>(spans)).ok());
  }

  auto count = loom_->IndexedAggregate(1, idx.value(), {0, ~0ULL}, AggregateMethod::kCount);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), 200.0);
  auto counted = loom_->CountRecords(1, {0, ~0ULL});
  ASSERT_TRUE(counted.ok());
  EXPECT_EQ(counted.value(), 200u);

  // Records of one batch share an arrival timestamp; raw order is preserved.
  std::vector<TimestampNanos> stamps;
  ASSERT_TRUE(loom_->RawScan(1, {0, ~0ULL},
                             [&](const RecordView& r) {
                               stamps.push_back(r.ts);
                               return true;
                             })
                  .ok());
  ASSERT_EQ(stamps.size(), 200u);
  for (size_t i = 1; i < stamps.size(); ++i) {
    EXPECT_GE(stamps[i - 1], stamps[i]);  // newest-first, non-increasing
  }
  EXPECT_EQ(stamps.front(), stamps[7]);  // final batch of 8 shares one timestamp
}

TEST_F(LoomEngineTest, PushBatchToUnknownSourceFails) {
  std::vector<uint8_t> payload = ValuePayload(1.0);
  std::array<std::span<const uint8_t>, 1> spans = {std::span<const uint8_t>(payload)};
  EXPECT_EQ(loom_->PushBatch(9, std::span<const std::span<const uint8_t>>(spans)).code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace loom
