// Parameterized cross-configuration sweep: one deterministic workload and
// query set, executed under a grid of engine configurations (chunk size x
// marker period x block size x index ablations). Every configuration must
// produce byte-identical query results — configuration affects performance,
// never answers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <tuple>

#include "src/common/file.h"
#include "src/common/rng.h"
#include "src/core/loom.h"
#include "src/core/record_format.h"

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

struct Workload {
  std::vector<std::pair<TimestampNanos, double>> records;  // single source

  static const Workload& Get() {
    static Workload w = [] {
      Workload built;
      Rng rng(20260706);
      TimestampNanos ts = 0;
      for (int i = 0; i < 4000; ++i) {
        ts += 1 + rng.NextBounded(40);
        built.records.emplace_back(ts, rng.NextUniform(-50, 1050));
      }
      return built;
    }();
    return w;
  }

  TimestampNanos end() const { return records.back().first; }
};

// The canonical answers, computed once by brute force.
struct Expected {
  double count;
  double max;
  double p999;
  std::vector<double> mid_values;  // value in [400, 600] and ts in mid half

  static const Expected& Get() {
    static Expected e = [] {
      const Workload& w = Workload::Get();
      Expected built{};
      std::vector<double> all;
      const TimestampNanos t0 = w.end() / 4;
      const TimestampNanos t1 = 3 * (w.end() / 4);
      for (const auto& [ts, v] : w.records) {
        all.push_back(v);
        if (ts >= t0 && ts <= t1 && v >= 400 && v <= 600) {
          built.mid_values.push_back(v);
        }
      }
      built.count = static_cast<double>(all.size());
      built.max = *std::max_element(all.begin(), all.end());
      std::sort(all.begin(), all.end());
      // Same rank arithmetic as the engine (99.9/100.0, not a 0.999 literal:
      // the two differ by one ULP, which can shift the rank by one).
      size_t rank =
          static_cast<size_t>(std::ceil(99.9 / 100.0 * static_cast<double>(all.size())));
      built.p999 = all[rank - 1];
      std::sort(built.mid_values.begin(), built.mid_values.end());
      return built;
    }();
    return e;
  }
};

using Config = std::tuple<size_t /*chunk*/, uint32_t /*marker*/, size_t /*block*/,
                          bool /*chunk_idx*/, bool /*ts_idx*/>;

class LoomConfigSweep : public ::testing::TestWithParam<Config> {};

TEST_P(LoomConfigSweep, AnswersIdenticalAcrossConfigurations) {
  const auto [chunk, marker, block, chunk_idx, ts_idx] = GetParam();
  TempDir dir;
  ManualClock clock(1);
  LoomOptions opts;
  opts.dir = dir.FilePath("loom");
  opts.chunk_size = chunk;
  opts.ts_marker_period = marker;
  opts.record_block_size = block;
  opts.enable_chunk_index = chunk_idx;
  opts.enable_timestamp_index = ts_idx;
  opts.clock = &clock;
  auto loom = Loom::Open(opts);
  ASSERT_TRUE(loom.ok());
  Loom* l = loom->get();
  ASSERT_TRUE(l->DefineSource(1).ok());
  auto spec = HistogramSpec::Uniform(0, 1000, 12).value();
  auto idx = l->DefineIndex(1, ValueFunc(), spec);
  ASSERT_TRUE(idx.ok());

  const Workload& w = Workload::Get();
  for (const auto& [ts, v] : w.records) {
    clock.SetNanos(ts);
    ASSERT_TRUE(l->Push(1, ValuePayload(v)).ok());
  }
  const Expected& e = Expected::Get();
  const TimeRange all{0, w.end()};

  auto count = l->IndexedAggregate(1, idx.value(), all, AggregateMethod::kCount);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), e.count);

  auto max = l->IndexedAggregate(1, idx.value(), all, AggregateMethod::kMax);
  ASSERT_TRUE(max.ok());
  EXPECT_DOUBLE_EQ(max.value(), e.max);

  auto p999 = l->IndexedAggregate(1, idx.value(), all, AggregateMethod::kPercentile, 99.9);
  ASSERT_TRUE(p999.ok());
  EXPECT_DOUBLE_EQ(p999.value(), e.p999);

  const TimeRange mid{w.end() / 4, 3 * (w.end() / 4)};
  std::vector<double> got;
  ASSERT_TRUE(l->IndexedScan(1, idx.value(), mid, {400, 600},
                             [&](const RecordView& r) {
                               double v;
                               std::memcpy(&v, r.payload.data(), sizeof(v));
                               got.push_back(v);
                               return true;
                             })
                  .ok());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, e.mid_values);

  // Raw scan count over the mid window must also be configuration-invariant.
  uint64_t raw = 0;
  ASSERT_TRUE(l->RawScan(1, mid, [&](const RecordView&) {
                ++raw;
                return true;
              }).ok());
  uint64_t expect_raw = 0;
  for (const auto& [ts, v] : w.records) {
    if (mid.Contains(ts)) {
      ++expect_raw;
    }
  }
  EXPECT_EQ(raw, expect_raw);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LoomConfigSweep,
    ::testing::Combine(::testing::Values<size_t>(256, 1024, 8192),     // chunk size
                       ::testing::Values<uint32_t>(4, 64, 512),        // marker period
                       ::testing::Values<size_t>(4096, 65536),         // block size
                       ::testing::Bool(),                              // chunk index
                       ::testing::Bool()));                            // timestamp index

// --- LoomOptions::Validate ------------------------------------------------
// Rejected combinations fail both standalone validation and Loom::Open;
// merely unusual combinations are canonicalized (clamped), never rejected.

LoomOptions BaseOptions(const TempDir& dir) {
  LoomOptions opts;
  opts.dir = dir.FilePath("loom");
  return opts;
}

TEST(LoomOptionsValidateTest, RejectsEmptyDir) {
  LoomOptions opts;
  Status st = opts.Validate();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Loom::Open(opts).status().code(), StatusCode::kInvalidArgument);
}

TEST(LoomOptionsValidateTest, RejectsTinyChunkSize) {
  TempDir dir;
  LoomOptions opts = BaseOptions(dir);
  opts.chunk_size = kRecordHeaderSize;  // cannot hold even two headers
  Status st = opts.Validate();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Loom::Open(opts).status().code(), StatusCode::kInvalidArgument);
}

TEST(LoomOptionsValidateTest, CanonicalizesMarkerPeriodAndBlockSizes) {
  TempDir dir;
  LoomOptions opts = BaseOptions(dir);
  opts.ts_marker_period = 0;
  opts.chunk_size = 4096;
  opts.record_block_size = 5000;  // not a chunk multiple
  ASSERT_TRUE(opts.Validate().ok());
  EXPECT_EQ(opts.ts_marker_period, 1u);
  EXPECT_EQ(opts.record_block_size % opts.chunk_size, 0u);
  EXPECT_GE(opts.record_block_size, opts.chunk_size);
}

TEST(LoomOptionsValidateTest, ValidateIsIdempotent) {
  TempDir dir;
  LoomOptions opts = BaseOptions(dir);
  opts.summary_stage_records = 1 << 20;  // clamped
  ASSERT_TRUE(opts.Validate().ok());
  LoomOptions once = opts;
  ASSERT_TRUE(opts.Validate().ok());
  EXPECT_EQ(opts.summary_stage_records, once.summary_stage_records);
  EXPECT_EQ(opts.record_block_size, once.record_block_size);
  EXPECT_EQ(opts.ts_index_block_size, once.ts_index_block_size);
}

}  // namespace
}  // namespace loom
