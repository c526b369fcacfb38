#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/common/file.h"
#include "src/common/rng.h"
#include "src/distributed/coordinator.h"

namespace loom {
namespace {

std::vector<uint8_t> ValuePayload(double v) {
  std::vector<uint8_t> buf(48, 0);
  std::memcpy(buf.data(), &v, sizeof(v));
  return buf;
}

Loom::IndexFunc ValueFunc() {
  return [](std::span<const uint8_t> p) -> std::optional<double> {
    if (p.size() < sizeof(double)) {
      return std::nullopt;
    }
    double v;
    std::memcpy(&v, p.data(), sizeof(v));
    return v;
  };
}

constexpr uint32_t kSource = 1;

class CoordinatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    spec_ = HistogramSpec::Uniform(0, 1000, 10).value();
    for (int n = 0; n < 3; ++n) {
      clocks_.push_back(std::make_unique<ManualClock>(1));
      LoomOptions opts;
      opts.dir = dir_.FilePath("node" + std::to_string(n));
      opts.clock = clocks_.back().get();
      auto engine = Loom::Open(opts);
      ASSERT_TRUE(engine.ok());
      engines_.push_back(std::move(engine.value()));
      ASSERT_TRUE(engines_.back()->DefineSource(kSource).ok());
      auto idx = engines_.back()->DefineIndex(kSource, ValueFunc(), spec_);
      ASSERT_TRUE(idx.ok());
      index_id_ = idx.value();  // identical across nodes by construction
      nodes_.push_back(LoomNode{engines_.back().get(), static_cast<uint32_t>(n)});
    }
  }

  // Pushes `v` onto node `n` at time `ts`; records into the global model.
  void Push(int n, TimestampNanos ts, double v) {
    clocks_[static_cast<size_t>(n)]->SetNanos(ts);
    ASSERT_TRUE(engines_[static_cast<size_t>(n)]->Push(kSource, ValuePayload(v)).ok());
    model_.emplace_back(ts, v);
  }

  std::vector<double> ModelValues(TimeRange range) const {
    std::vector<double> out;
    for (const auto& [ts, v] : model_) {
      if (range.Contains(ts)) {
        out.push_back(v);
      }
    }
    return out;
  }

  TempDir dir_;
  HistogramSpec spec_ = HistogramSpec::ExactMatch(0);
  std::vector<std::unique_ptr<ManualClock>> clocks_;
  std::vector<std::unique_ptr<Loom>> engines_;
  std::vector<LoomNode> nodes_;
  uint32_t index_id_ = 0;
  std::vector<std::pair<TimestampNanos, double>> model_;
};

TEST_F(CoordinatorTest, DistributiveAggregatesMergeAcrossNodes) {
  Rng rng(5);
  TimestampNanos ts = 0;
  for (int i = 0; i < 3000; ++i) {
    ts += 1 + rng.NextBounded(5);
    Push(static_cast<int>(rng.NextBounded(3)), ts, rng.NextUniform(0, 1000));
  }
  LoomCoordinator coordinator(nodes_);
  TimeRange range{0, ts};
  auto values = ModelValues(range);

  auto count = coordinator.Aggregate(kSource, index_id_, range, AggregateMethod::kCount);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), static_cast<double>(values.size()));

  auto max = coordinator.Aggregate(kSource, index_id_, range, AggregateMethod::kMax);
  ASSERT_TRUE(max.ok());
  EXPECT_DOUBLE_EQ(max.value(), *std::max_element(values.begin(), values.end()));

  auto min = coordinator.Aggregate(kSource, index_id_, range, AggregateMethod::kMin);
  ASSERT_TRUE(min.ok());
  EXPECT_DOUBLE_EQ(min.value(), *std::min_element(values.begin(), values.end()));

  auto mean = coordinator.Aggregate(kSource, index_id_, range, AggregateMethod::kMean);
  ASSERT_TRUE(mean.ok());
  double sum = 0;
  for (double v : values) {
    sum += v;
  }
  EXPECT_NEAR(mean.value(), sum / static_cast<double>(values.size()), 1e-9);
}

TEST_F(CoordinatorTest, AggregateCacheStatsSumsNodeEngines) {
  Rng rng(11);
  TimestampNanos ts = 0;
  // Enough data that every node finalizes chunks and serves summaries.
  for (int i = 0; i < 12000; ++i) {
    ts += 1 + rng.NextBounded(3);
    Push(static_cast<int>(rng.NextBounded(3)), ts, rng.NextUniform(0, 1000));
  }
  LoomCoordinator coordinator(nodes_);
  TimeRange range{0, ts};

  ASSERT_TRUE(coordinator.Aggregate(kSource, index_id_, range, AggregateMethod::kCount).ok());
  const SummaryCacheStats cold = coordinator.AggregateCacheStats();
  EXPECT_GT(cold.misses, 0u);
  ASSERT_TRUE(coordinator.Aggregate(kSource, index_id_, range, AggregateMethod::kMax).ok());
  const SummaryCacheStats warm = coordinator.AggregateCacheStats();
  EXPECT_GT(warm.hits, cold.hits);

  SummaryCacheStats manual;
  for (const auto& engine : engines_) {
    const SummaryCacheStats s = engine->stats().summary_cache;
    manual.hits += s.hits;
    manual.misses += s.misses;
    manual.entries += s.entries;
    manual.bytes_used += s.bytes_used;
  }
  EXPECT_EQ(warm.hits, manual.hits);
  EXPECT_EQ(warm.misses, manual.misses);
  EXPECT_EQ(warm.entries, manual.entries);
  EXPECT_EQ(warm.bytes_used, manual.bytes_used);
}

TEST_F(CoordinatorTest, AggregateMetricsMergesRegistrySnapshots) {
  Rng rng(13);
  TimestampNanos ts = 0;
  for (int i = 0; i < 3000; ++i) {
    ts += 1 + rng.NextBounded(3);
    Push(static_cast<int>(rng.NextBounded(3)), ts, rng.NextUniform(0, 1000));
  }
  LoomCoordinator coordinator(nodes_);

  const MetricsSnapshot merged = coordinator.AggregateMetrics();
  // Fleet-wide counter = sum of per-node counters = everything we pushed.
  EXPECT_EQ(merged.counters.at("loom_core_ingested_records_total"), 3000u);
  uint64_t manual = 0;
  for (const auto& engine : engines_) {
    manual += engine->metrics()->Snapshot().counters.at("loom_core_ingested_records_total");
  }
  EXPECT_EQ(merged.counters.at("loom_core_ingested_records_total"), manual);

  // Histogram buckets merge: per-node push latency distributions sum into
  // one fleet distribution whose count matches the push total.
  const HistogramSnapshot& pushes = merged.histograms.at("loom_core_push_seconds");
  uint64_t manual_pushes = 0;
  for (const auto& engine : engines_) {
    manual_pushes += engine->metrics()->Snapshot().histograms.at("loom_core_push_seconds").count;
  }
  EXPECT_EQ(pushes.count, manual_pushes);
  EXPECT_GT(pushes.count, 0u);  // 1-in-64 sampling over 1000+ pushes per node
  uint64_t bucket_total = 0;
  for (uint64_t b : pushes.counts) {
    bucket_total += b;
  }
  EXPECT_EQ(bucket_total, pushes.count);
  // The merged snapshot renders like any single-node one.
  EXPECT_NE(merged.RenderPrometheus().find("loom_core_ingested_records_total"),
            std::string::npos);

  // Engines sharing one registry are merged once, not once per node.
  std::vector<LoomNode> doubled = nodes_;
  doubled.push_back(LoomNode{engines_.front().get(), 99});
  LoomCoordinator dup_coordinator(doubled);
  EXPECT_EQ(dup_coordinator.AggregateMetrics().counters.at("loom_core_ingested_records_total"),
            3000u);
}

TEST_F(CoordinatorTest, PercentileRejectsAggregateEntryPoint) {
  LoomCoordinator coordinator(nodes_);
  EXPECT_FALSE(
      coordinator.Aggregate(kSource, index_id_, {0, ~0ULL}, AggregateMethod::kPercentile).ok());
}

TEST_F(CoordinatorTest, PercentileOutsideZeroToHundredRejected) {
  for (int i = 0; i < 30; ++i) {
    Push(i % 3, 10 + i, i);
  }
  LoomCoordinator coordinator(nodes_);
  for (double pct : {std::nan(""), 101.0}) {
    EXPECT_EQ(coordinator.Percentile(kSource, index_id_, spec_, {0, ~0ULL}, pct).status().code(),
              StatusCode::kInvalidArgument)
        << pct;
  }
}

TEST_F(CoordinatorTest, GlobalPercentileMatchesGlobalSort) {
  Rng rng(9);
  TimestampNanos ts = 0;
  for (int i = 0; i < 5000; ++i) {
    ts += 1 + rng.NextBounded(3);
    Push(static_cast<int>(rng.NextBounded(3)), ts, rng.NextUniform(0, 1000));
  }
  LoomCoordinator coordinator(nodes_);
  TimeRange range{100, ts - 100};
  auto values = ModelValues(range);
  std::sort(values.begin(), values.end());
  for (double pct : {1.0, 50.0, 90.0, 99.0, 99.9}) {
    auto got = coordinator.Percentile(kSource, index_id_, spec_, range, pct);
    ASSERT_TRUE(got.ok()) << pct << ": " << got.status().ToString();
    size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * values.size()));
    rank = std::max<size_t>(1, std::min(rank, values.size()));
    EXPECT_DOUBLE_EQ(got.value(), values[rank - 1]) << pct;
  }
}

TEST_F(CoordinatorTest, HistogramMergesBinCounts) {
  for (int n = 0; n < 3; ++n) {
    Push(n, 10 + n, 50.0);   // user bin for [0,100)
    Push(n, 20 + n, 950.0);  // user bin for [900,1000)
  }
  LoomCoordinator coordinator(nodes_);
  auto bins = coordinator.Histogram(kSource, index_id_, {0, ~0ULL});
  ASSERT_TRUE(bins.ok());
  ASSERT_EQ(bins.value().size(), spec_.num_bins());
  EXPECT_EQ(bins.value()[spec_.BinOf(50.0)], 3u);
  EXPECT_EQ(bins.value()[spec_.BinOf(950.0)], 3u);
}

TEST_F(CoordinatorTest, ScanMergesInTimestampOrder) {
  Rng rng(21);
  TimestampNanos ts = 0;
  for (int i = 0; i < 600; ++i) {
    ts += 1 + rng.NextBounded(5);
    Push(static_cast<int>(rng.NextBounded(3)), ts, static_cast<double>(i));
  }
  LoomCoordinator coordinator(nodes_);
  TimestampNanos prev = 0;
  int count = 0;
  ASSERT_TRUE(coordinator
                  .Scan(kSource, index_id_, {0, ~0ULL}, {0, 1e9},
                        [&](const LoomCoordinator::NodeRecord& rec) {
                          EXPECT_GE(rec.ts, prev);
                          prev = rec.ts;
                          EXPECT_LT(rec.node_id, 3u);
                          ++count;
                          return true;
                        })
                  .ok());
  EXPECT_EQ(count, 600);
}

TEST_F(CoordinatorTest, CorrelateFindsCrossNodeNeighbors) {
  // Node 0 sees an anomalous value at t=5000; nodes 1 and 2 see normal
  // events around it.
  Push(0, 4990, 10.0);
  Push(1, 4995, 20.0);
  Push(0, 5000, 999.0);  // the anchor
  Push(2, 5005, 30.0);
  Push(1, 5500, 40.0);
  Push(2, 9000, 50.0);  // outside the window
  LoomCoordinator coordinator(nodes_);
  int correlated = 0;
  ASSERT_TRUE(coordinator
                  .Correlate(kSource, index_id_, {0, ~0ULL}, {900.0, 1000.0}, kSource,
                             /*window=*/600,
                             [&](const LoomCoordinator::NodeRecord& anchor,
                                 const LoomCoordinator::NodeRecord& rec) {
                               EXPECT_EQ(anchor.ts, 5000u);
                               EXPECT_GE(rec.ts, 4400u);
                               EXPECT_LE(rec.ts, 5600u);
                               ++correlated;
                               return true;
                             })
                  .ok());
  // All five events within +/-600ns of the anchor (including itself).
  EXPECT_EQ(correlated, 5);
}

TEST_F(CoordinatorTest, EmptyRangeBehaviors) {
  LoomCoordinator coordinator(nodes_);
  auto count = coordinator.Aggregate(kSource, index_id_, {1, 2}, AggregateMethod::kCount);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), 0.0);
  EXPECT_EQ(coordinator.Aggregate(kSource, index_id_, {1, 2}, AggregateMethod::kMax)
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(coordinator.Percentile(kSource, index_id_, spec_, {1, 2}, 50).status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace loom
