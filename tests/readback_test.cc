// Post-mortem queries (§4.5): a read-only engine over the logs a closed
// engine left behind answers every query operator as that engine did.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <iterator>

#include "src/common/file.h"
#include "src/common/rng.h"
#include "src/core/loom.h"

namespace loom {
namespace {

std::vector<uint8_t> ValuePayload(double v) {
  std::vector<uint8_t> buf(48, 0);
  std::memcpy(buf.data(), &v, sizeof(v));
  return buf;
}

double PayloadValue(std::span<const uint8_t> p) {
  double v;
  std::memcpy(&v, p.data(), sizeof(v));
  return v;
}

Loom::IndexFunc ValueFunc() {
  return [](std::span<const uint8_t> p) -> std::optional<double> {
    if (p.size() < sizeof(double)) {
      return std::nullopt;
    }
    return PayloadValue(p);
  };
}

class ReadbackTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kSources[2] = {1, 2};

  LoomOptions Options(bool chunk_index = true, bool ts_index = true) {
    LoomOptions opts;
    opts.dir = dir_.FilePath("capture");
    opts.chunk_size = 1024;  // ~14 records of 48 B payload per chunk
    opts.record_block_size = 8192;
    opts.chunk_index_block_size = 4096;
    opts.ts_index_block_size = 4096;
    opts.ts_marker_period = 8;
    opts.enable_chunk_index = chunk_index;
    opts.enable_timestamp_index = ts_index;
    opts.clock = &clock_;
    return opts;
  }

  // Captures a deterministic stream of 5,000 records, 70 % from source 1,
  // with each source's index defined after the first 400 records. The last
  // chunk stays unsealed. Closing the returned engine flushes everything.
  std::unique_ptr<Loom> Capture(const LoomOptions& opts) {
    std::filesystem::remove_all(opts.dir);
    model_.clear();
    auto loom = Loom::Open(opts);
    EXPECT_TRUE(loom.ok()) << loom.status().ToString();
    for (uint32_t s : kSources) {
      EXPECT_TRUE((*loom)->DefineSource(s).ok());
    }
    Rng rng(17);
    for (int i = 0; i < 5000; ++i) {
      for (int k = 0; i == 400 && k < 2; ++k) {
        index_ids_[k] = (*loom)->DefineIndex(kSources[k], ValueFunc(), specs_[k]).value();
      }
      clock_.AdvanceNanos(1 + rng.NextBounded(20));
      const uint32_t source = kSources[rng.NextBernoulli(0.7) ? 0 : 1];
      const double v = rng.NextUniform(0, 1000);
      EXPECT_TRUE((*loom)->Push(source, ValuePayload(v)).ok());
      model_.push_back({source, clock_.NowNanos(), v});
    }
    return std::move(loom.value());
  }

  std::unique_ptr<Loom> OpenReadOnly(LoomOptions opts) {
    opts.clock = nullptr;
    auto loom = Loom::OpenReadOnly(opts);
    EXPECT_TRUE(loom.ok()) << loom.status().ToString();
    return loom.ok() ? std::move(loom.value()) : nullptr;
  }

  void AttachIndexes(Loom* loom) {
    for (int k = 0; k < 2; ++k) {
      EXPECT_TRUE(loom->AttachIndex(index_ids_[k], kSources[k], ValueFunc(), specs_[k]).ok());
    }
  }

  // Every query operator's answers over each of `ranges`, exactly: record
  // addresses, counts, and doubles by their bits, one list per call.
  std::vector<std::vector<uint64_t>> Answers(const Loom& loom, std::span<const TimeRange> ranges) {
    std::vector<std::vector<uint64_t>> out;
    const auto add = [&out](std::initializer_list<uint64_t> v) {
      out.back().insert(out.back().end(), v);
    };
    for (TimeRange range : ranges) {
      for (int k = 0; k < 2; ++k) {
        const uint32_t s = kSources[k];
        const uint32_t idx = index_ids_[k];
        out.emplace_back();
        EXPECT_TRUE(loom.RawScan(s, range, [&](const RecordView& r) {
                          add({r.addr});
                          return true;
                        }).ok());
        out.emplace_back();
        EXPECT_TRUE(loom.IndexedScanValues(s, idx, range, {250, 500},
                                           [&](double v, const RecordView& r) {
                                             add({r.addr, std::bit_cast<uint64_t>(v)});
                                             return true;
                                           })
                        .ok());
        for (const auto& [method, pct] : {std::pair{AggregateMethod::kCount, 0.0},
                                          {AggregateMethod::kSum, 0.0},
                                          {AggregateMethod::kMin, 0.0},
                                          {AggregateMethod::kMax, 0.0},
                                          {AggregateMethod::kMean, 0.0},
                                          {AggregateMethod::kPercentile, 0.0},
                                          {AggregateMethod::kPercentile, 50.0},
                                          {AggregateMethod::kPercentile, 99.0},
                                          {AggregateMethod::kPercentile, 100.0}}) {
          auto r = loom.IndexedAggregate(s, idx, range, method, pct);
          out.emplace_back();
          add({static_cast<uint64_t>(r.status().code()),
               std::bit_cast<uint64_t>(r.ok() ? r.value() : 0.0)});
        }
        auto hist = loom.IndexedHistogram(s, idx, range);
        EXPECT_TRUE(hist.ok());
        out.push_back(hist.value());
        auto count = loom.CountRecords(s, range);
        EXPECT_TRUE(count.ok());
        out.push_back({count.value()});
      }
    }
    return out;
  }

  struct Ref {
    uint32_t source;
    TimestampNanos ts;
    double value;
  };

  TempDir dir_;
  ManualClock clock_{1};
  HistogramSpec specs_[2] = {HistogramSpec::Uniform(0, 1000, 10).value(),
                             HistogramSpec::Exponential(1.0, 2.0, 12).value()};
  uint32_t index_ids_[2] = {0, 0};
  std::vector<Ref> model_;
};

TEST_F(ReadbackTest, RawScanMatchesCapture) {
  Capture(Options()).reset();
  auto loom = OpenReadOnly(Options());
  ASSERT_NE(loom, nullptr);
  std::vector<double> got;
  ASSERT_TRUE(loom->RawScan(1, {0, ~0ULL},
                            [&](const RecordView& r) {
                              got.push_back(PayloadValue(r.payload));
                              return true;
                            })
                  .ok());
  std::vector<double> expect;
  for (auto r = model_.rbegin(); r != model_.rend(); ++r) {
    if (r->source == 1) {
      expect.push_back(r->value);
    }
  }
  EXPECT_EQ(got, expect);  // newest-first, like any RawScan
}

TEST_F(ReadbackTest, RawScanTimeRange) {
  Capture(Options()).reset();
  auto loom = OpenReadOnly(Options());
  ASSERT_NE(loom, nullptr);
  const TimeRange range{model_[1000].ts, model_[4000].ts};
  size_t expect = 0;
  for (const Ref& r : model_) {
    if (r.source == 2 && range.Contains(r.ts)) {
      ++expect;
    }
  }
  size_t got = 0;
  ASSERT_TRUE(loom->RawScan(2, range,
                            [&](const RecordView& r) {
                              EXPECT_TRUE(range.Contains(r.ts));
                              ++got;
                              return true;
                            })
                  .ok());
  EXPECT_EQ(got, expect);
}

TEST_F(ReadbackTest, IndexedQueriesAfterReRegistration) {
  Capture(Options()).reset();
  auto loom = OpenReadOnly(Options());
  ASSERT_NE(loom, nullptr);
  const uint32_t index_id = index_ids_[0];
  // Queries before the index is attached fail cleanly.
  EXPECT_EQ(
      loom->IndexedScan(1, index_id, {0, ~0ULL}, {0, 10}, [](const RecordView&) { return true; })
          .code(),
      StatusCode::kNotFound);
  ASSERT_TRUE(loom->AttachIndex(index_id, 1, ValueFunc(), specs_[0]).ok());
  EXPECT_EQ(loom->AttachIndex(index_id, 1, ValueFunc(), specs_[0]).code(),
            StatusCode::kAlreadyExists);

  std::vector<double> got;
  ASSERT_TRUE(loom->IndexedScan(1, index_id, {0, ~0ULL}, {250, 500},
                                [&](const RecordView& r) {
                                  got.push_back(PayloadValue(r.payload));
                                  return true;
                                })
                  .ok());
  std::vector<double> expect;
  for (const Ref& r : model_) {
    if (r.source == 1 && r.value >= 250 && r.value <= 500) {
      expect.push_back(r.value);
    }
  }
  std::sort(got.begin(), got.end());
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(got, expect);

  // Aggregates.
  auto count = loom->IndexedAggregate(1, index_id, {0, ~0ULL}, AggregateMethod::kCount);
  ASSERT_TRUE(count.ok());
  std::vector<double> all;
  for (const Ref& r : model_) {
    if (r.source == 1) {
      all.push_back(r.value);
    }
  }
  EXPECT_EQ(count.value(), static_cast<double>(all.size()));
  auto max = loom->IndexedAggregate(1, index_id, {0, ~0ULL}, AggregateMethod::kMax);
  ASSERT_TRUE(max.ok());
  EXPECT_DOUBLE_EQ(max.value(), *std::max_element(all.begin(), all.end()));
  auto p95 = loom->IndexedAggregate(1, index_id, {0, ~0ULL}, AggregateMethod::kPercentile, 95);
  ASSERT_TRUE(p95.ok());
  std::sort(all.begin(), all.end());
  size_t rank = static_cast<size_t>(std::ceil(0.95 * all.size()));
  EXPECT_DOUBLE_EQ(p95.value(), all[rank - 1]);
}

TEST_F(ReadbackTest, ListSourcesAndBounds) {
  Capture(Options()).reset();
  auto loom = OpenReadOnly(Options());
  ASSERT_NE(loom, nullptr);
  EXPECT_EQ(loom->Sources(), (std::vector<uint32_t>{1, 2}));
  TimeRange bounds{~0ULL, 0};
  for (uint32_t source : loom->Sources()) {
    ASSERT_TRUE(loom->RawScan(source, {0, ~0ULL},
                              [&](const RecordView& r) {
                                bounds.start = std::min(bounds.start, r.ts);
                                bounds.end = std::max(bounds.end, r.ts);
                                return true;
                              })
                    .ok());
  }
  EXPECT_EQ(bounds.start, model_.front().ts);
  EXPECT_EQ(bounds.end, model_.back().ts);
}

TEST_F(ReadbackTest, MissingDirectoryFails) {
  EXPECT_FALSE(Loom::OpenReadOnly(Options()).ok());
  EXPECT_FALSE(std::filesystem::exists(Options().dir));  // nothing created
}

TEST_F(ReadbackTest, CaptureThatLostRecordsToRetentionIsNotServed) {
  LoomOptions opts = Options();
  opts.record_retain_bytes = 32 << 10;
  Capture(opts).reset();
  auto loom = Loom::OpenReadOnly(Options());
  ASSERT_FALSE(loom.ok());
  EXPECT_EQ(loom.status().code(), StatusCode::kFailedPrecondition);
}

// A read-only engine answers every query operator as the live engine did
// before it closed, in every index mode. A capture made without the
// timestamp index answers the same reopened with it on: its timestamp log
// is empty, so the planner sweeps the chunk log.
TEST_F(ReadbackTest, ReadOnlyEngineAnswersAsTheLiveEngineDid) {
  const bool modes[][4] = {// capture chunk, ts index; reopened chunk, ts index
                           {true, true, true, true},
                           {true, false, true, false},
                           {false, true, false, true},
                           {false, false, false, false},
                           {true, false, true, true}};
  for (const auto& m : modes) {
    SCOPED_TRACE(testing::Message() << m[0] << m[1] << m[2] << m[3]);
    auto live = Capture(Options(m[0], m[1]));
    const TimeRange ranges[] = {
        {0, ~0ULL}, {model_[1500].ts, model_[3500].ts}, {model_[4995].ts, ~0ULL}};
    const auto expect = Answers(*live, ranges);
    const std::vector<uint32_t> sources = live->Sources();
    EXPECT_EQ(live->CountRecords(1, ranges[0]).value() + live->CountRecords(2, ranges[0]).value(),
              model_.size());
    live.reset();
    auto loom = OpenReadOnly(Options(m[2], m[3]));
    ASSERT_NE(loom, nullptr);
    AttachIndexes(loom.get());
    EXPECT_EQ(loom->Sources(), sources);
    EXPECT_TRUE(Answers(*loom, ranges) == expect);
  }
}

TEST_F(ReadbackTest, ReadOnlyEngineRejectsWritesAndChangesNoFile) {
  auto live = Capture(Options());
  EXPECT_EQ(live->AttachIndex(99, 1, ValueFunc(), specs_[0]).code(),
            StatusCode::kFailedPrecondition);
  live.reset();
  const auto read_logs = [&] {
    std::vector<std::vector<uint8_t>> bytes;
    for (const char* name : {"/record.log", "/chunk.idx", "/ts.idx"}) {
      auto file = File::OpenReadOnly(Options().dir + name);
      bytes.emplace_back(file->Size().value());
      EXPECT_TRUE(file->PReadAll(0, bytes.back()).ok());
    }
    return bytes;
  };
  const auto before = read_logs();
  const auto threads = [] {
    return std::distance(std::filesystem::directory_iterator("/proc/self/task"),
                         std::filesystem::directory_iterator{});
  };
  const auto threads_before = threads();
  auto loom = OpenReadOnly(Options());
  ASSERT_NE(loom, nullptr);
  EXPECT_EQ(threads(), threads_before);  // no flusher, no demoter

  const std::vector<uint8_t> payload = ValuePayload(1.0);
  const std::span<const uint8_t> batch[] = {payload};
  for (uint32_t s : {1u, 9u}) {
    EXPECT_EQ(loom->Push(s, payload).code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(loom->PushBatch(s, batch).code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(loom->Sync(s).code(), StatusCode::kFailedPrecondition);
  }
  EXPECT_EQ(loom->DefineSource(3).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(loom->DefineIndex(1, ValueFunc(), specs_[0]).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(loom->CloseIndex(index_ids_[0]).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(loom->CloseSource(1).code(), StatusCode::kFailedPrecondition);
  AttachIndexes(loom.get());
  const TimeRange all[] = {{0, ~0ULL}};
  Answers(*loom, all);
  loom.reset();
  EXPECT_TRUE(read_logs() == before);
}

}  // namespace
}  // namespace loom
