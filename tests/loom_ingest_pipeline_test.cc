// The ingest write path: staged summary construction bit-identical to the
// scalar path, chunk seals on the ingest thread (a failed seal is sticky),
// reader visibility under concurrent ingest, and the ingest metrics family.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <fstream>
#include <optional>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/common/file.h"
#include "src/core/loom.h"

namespace loom {
namespace {

std::vector<uint8_t> ValuePayload(double v) {
  std::vector<uint8_t> buf(48, 0);
  std::memcpy(&buf[0], &v, sizeof(v));
  return buf;
}

std::optional<double> ValueIndex(std::span<const uint8_t> p) {
  if (p.size() < sizeof(double)) {
    return std::nullopt;
  }
  double v;
  std::memcpy(&v, p.data(), sizeof(v));
  return v;
}

double WorkloadValue(int i) { return static_cast<double>((i * 37) % 1000) + 0.25; }

// Ingests `n` deterministic records into source 1, advancing `clock` 1ms per
// record, so two engines fed by this helper see identical timestamp streams.
void IngestWorkload(Loom* loom, ManualClock* clock, int n) {
  for (int i = 0; i < n; ++i) {
    clock->AdvanceNanos(1'000'000);
    ASSERT_TRUE(loom->Push(1, ValuePayload(WorkloadValue(i))).ok());
  }
  ASSERT_TRUE(loom->Sync(1).ok());
}

struct QueryFingerprint {
  uint64_t count = 0;
  double sum = 0, min = 0, max = 0, mean = 0, p50 = 0, p99 = 0;
  std::vector<uint64_t> histogram;
  std::vector<std::pair<uint64_t, double>> scan;  // (addr, value), log order

  bool operator==(const QueryFingerprint& o) const {
    return count == o.count && sum == o.sum && min == o.min && max == o.max && mean == o.mean &&
           p50 == o.p50 && p99 == o.p99 && histogram == o.histogram && scan == o.scan;
  }
};

QueryFingerprint Fingerprint(Loom* loom, uint32_t index_id, TimestampNanos end) {
  QueryFingerprint fp;
  const TimeRange all{0, end};
  QueryTrace trace;
  auto count = loom->CountRecords(1, all, &trace);
  EXPECT_TRUE(count.ok());
  EXPECT_EQ(trace.chunks_pruned + trace.chunks_scanned, trace.chunks_considered);
  fp.count = count.value();
  fp.sum = loom->IndexedAggregate(1, index_id, all, AggregateMethod::kSum).value();
  fp.min = loom->IndexedAggregate(1, index_id, all, AggregateMethod::kMin).value();
  fp.max = loom->IndexedAggregate(1, index_id, all, AggregateMethod::kMax).value();
  fp.mean = loom->IndexedAggregate(1, index_id, all, AggregateMethod::kMean).value();
  fp.p50 = loom->IndexedAggregate(1, index_id, all, AggregateMethod::kPercentile, 50).value();
  fp.p99 = loom->IndexedAggregate(1, index_id, all, AggregateMethod::kPercentile, 99).value();
  fp.histogram = loom->IndexedHistogram(1, index_id, all).value();
  EXPECT_TRUE(loom->IndexedScanValues(1, index_id, all, ValueRange{0, 1000},
                                      [&fp](double v, const RecordView& r) {
                                        fp.scan.emplace_back(r.addr, v);
                                        return true;
                                      })
                  .ok());
  return fp;
}

std::vector<char> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

LoomOptions SmallOptions(const std::string& dir, ManualClock* clock) {
  LoomOptions opts;
  opts.dir = dir;
  opts.chunk_size = 1024;
  opts.record_block_size = 4096;
  opts.clock = clock;
  return opts;
}

uint32_t DefineValueIndex(Loom* loom) {
  EXPECT_TRUE(loom->DefineSource(1).ok());
  auto spec = HistogramSpec::Uniform(0, 1000, 32).value();
  auto idx = loom->DefineIndex(1, ValueIndex, spec);
  EXPECT_TRUE(idx.ok());
  return idx.value();
}

// Staged (batch-classified) summary construction vs the scalar per-record
// path: same chunk index bytes. A tiny stage forces many mid-chunk flushes. A
// second, four-bin index puts 3-4 values in each of its bin entries, so the
// bytes compared include listed values.
TEST(IngestPipelineTest, StagedSummariesMatchScalar) {
  constexpr int kRecords = 1500;
  TempDir dir;
  QueryFingerprint fps[2];
  for (int mode = 0; mode < 2; ++mode) {
    ManualClock clock{1};
    LoomOptions opts = SmallOptions(dir.FilePath(mode == 0 ? "scalar" : "staged"), &clock);
    opts.summary_stage_records = mode == 0 ? 0 : 5;
    auto loom = Loom::Open(opts);
    ASSERT_TRUE(loom.ok());
    const uint32_t idx = DefineValueIndex(loom->get());
    ASSERT_TRUE(
        (*loom)->DefineIndex(1, ValueIndex, HistogramSpec::Uniform(0, 1000, 4).value()).ok());
    IngestWorkload(loom->get(), &clock, kRecords);
    fps[mode] = Fingerprint(loom->get(), idx, clock.NowNanos());
  }
  EXPECT_TRUE(fps[0] == fps[1]);
  const auto a = ReadFileBytes(dir.FilePath("scalar") + "/chunk.idx");
  const auto b = ReadFileBytes(dir.FilePath("staged") + "/chunk.idx");
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  ChunkFrameIterator frames(
      [&a](uint64_t addr, size_t len) -> Result<std::span<const uint8_t>> {
        return std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(a.data()) + addr, len);
      },
      0, a.size(), LoomOptions{}.chunk_index_block_size);
  ChunkSummary s;
  size_t listed = 0;
  for (auto more = frames.Next(&s); more.ok() && more.value(); more = frames.Next(&s)) {
    listed += s.listed.size();
  }
  EXPECT_GT(listed, 0u);
}

// Readers racing ingest (plus retention reclaiming old chunks) never
// observe data past the published watermarks: every query either succeeds with consistent trace accounting or hits nothing worse than the
// retained suffix.
TEST(IngestPipelineTest, ConcurrentQueriesSeeConsistentWatermarks) {
  TempDir dir;
  ManualClock clock{1};
  LoomOptions opts = SmallOptions(dir.FilePath("loom"), &clock);
  opts.record_retain_bytes = 64 << 10;
  auto loom = Loom::Open(opts);
  ASSERT_TRUE(loom.ok());
  const uint32_t idx = DefineValueIndex(loom->get());
  std::atomic<bool> done{false};
  std::thread ingest([&] {
    for (int i = 0; i < 20000; ++i) {
      clock.AdvanceNanos(100'000);
      ASSERT_TRUE((*loom)->Push(1, ValuePayload(WorkloadValue(i))).ok());
    }
    done.store(true);
  });
  uint64_t queries = 0;
  while (!done.load()) {
    const TimeRange all{0, clock.NowNanos()};
    QueryTrace trace;
    auto count = (*loom)->CountRecords(1, all, &trace);
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(trace.chunks_pruned + trace.chunks_scanned, trace.chunks_considered);
    QueryTrace agg_trace;
    auto sum =
        (*loom)->IndexedAggregate(1, idx, all, AggregateMethod::kSum, 0.0, &agg_trace);
    ASSERT_TRUE(sum.ok());
    EXPECT_EQ(agg_trace.chunks_pruned + agg_trace.chunks_scanned, agg_trace.chunks_considered);
    uint64_t raw_seen = 0;
    ASSERT_TRUE((*loom)
                    ->RawScan(1, all,
                              [&raw_seen](const RecordView&) {
                                ++raw_seen;
                                return raw_seen < 50;  // bounded walk per round
                              })
                    .ok());
    ++queries;
  }
  ingest.join();
  EXPECT_GT(queries, 0u);
  ASSERT_TRUE((*loom)->Sync(1).ok());
  auto final_count = (*loom)->CountRecords(1, TimeRange{0, clock.NowNanos()});
  ASSERT_TRUE(final_count.ok());
  EXPECT_LE(final_count.value(), 20000u);  // retention dropped the old prefix
  EXPECT_GT(final_count.value(), 0u);
}

// Without retention, the post-Sync count is exact under the same race.
TEST(IngestPipelineTest, ConcurrentIngestExactCountAfterDrain) {
  TempDir dir;
  ManualClock clock{1};
  LoomOptions opts = SmallOptions(dir.FilePath("loom"), &clock);
  auto loom = Loom::Open(opts);
  ASSERT_TRUE(loom.ok());
  DefineValueIndex(loom->get());
  std::atomic<bool> done{false};
  std::thread ingest([&] {
    for (int i = 0; i < 8000; ++i) {
      clock.AdvanceNanos(100'000);
      ASSERT_TRUE((*loom)->Push(1, ValuePayload(WorkloadValue(i))).ok());
    }
    done.store(true);
  });
  uint64_t last = 0;
  while (!done.load()) {
    auto count = (*loom)->CountRecords(1, TimeRange{0, clock.NowNanos()});
    ASSERT_TRUE(count.ok());
    EXPECT_GE(count.value(), last);  // monotone under a snapshot-isolated race
    last = count.value();
  }
  ingest.join();
  ASSERT_TRUE((*loom)->Sync(1).ok());
  auto count = (*loom)->CountRecords(1, TimeRange{0, clock.NowNanos()});
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), 8000u);
}

// Closing an index mid-chunk folds its staged values into the builder before
// the slot unregisters; later chunks and queries are unaffected.
TEST(IngestPipelineTest, CloseIndexMidChunkFlushesStage) {
  TempDir dir;
  ManualClock clock{1};
  LoomOptions opts = SmallOptions(dir.FilePath("loom"), &clock);
  opts.summary_stage_records = 64;  // larger than a chunk's record count
  auto loom = Loom::Open(opts);
  ASSERT_TRUE(loom.ok());
  const uint32_t idx = DefineValueIndex(loom->get());
  auto spec = HistogramSpec::Uniform(0, 1000, 8).value();
  auto idx2 = (*loom)->DefineIndex(1, ValueIndex, spec);
  ASSERT_TRUE(idx2.ok());
  for (int i = 0; i < 5; ++i) {
    clock.AdvanceNanos(1'000'000);
    ASSERT_TRUE((*loom)->Push(1, ValuePayload(WorkloadValue(i))).ok());
  }
  ASSERT_TRUE((*loom)->CloseIndex(idx2.value()).ok());  // stage must flush here
  IngestWorkload(loom->get(), &clock, 500);
  auto count = (*loom)->IndexedAggregate(1, idx, TimeRange{0, clock.NowNanos()},
                                         AggregateMethod::kCount);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), 505.0);
}

// Ingest composes with the chunk-index ablation: chunks seal without
// summaries, the watermark still advances, and queries fall back to scans.
TEST(IngestPipelineTest, PipelinedWithChunkIndexDisabled) {
  TempDir dir;
  ManualClock clock{1};
  LoomOptions opts = SmallOptions(dir.FilePath("loom"), &clock);
  opts.enable_chunk_index = false;
  auto loom = Loom::Open(opts);
  ASSERT_TRUE(loom.ok());
  const uint32_t idx = DefineValueIndex(loom->get());
  IngestWorkload(loom->get(), &clock, 600);
  auto count = (*loom)->IndexedAggregate(1, idx, TimeRange{0, clock.NowNanos()},
                                         AggregateMethod::kCount);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), 600.0);
}

// The ingest metrics family is registered and carries data after a run
// (finalize latency, flush queue depth, writer stalls).
TEST(IngestPipelineTest, IngestMetricsRegisteredAndPopulated) {
  TempDir dir;
  ManualClock clock{1};
  LoomOptions opts = SmallOptions(dir.FilePath("loom"), &clock);
  auto loom = Loom::Open(opts);
  ASSERT_TRUE(loom.ok());
  DefineValueIndex(loom->get());
  IngestWorkload(loom->get(), &clock, 800);
  const std::string text = (*loom)->metrics()->RenderPrometheus();
  EXPECT_NE(text.find("loom_ingest_finalize_seconds"), std::string::npos);
  EXPECT_NE(text.find("loom_ingest_flush_queue_depth"), std::string::npos);
  EXPECT_NE(text.find("loom_ingest_writer_stall_seconds_total"), std::string::npos);
  const uint64_t sealed = (*loom)->stats().chunks_finalized;
  EXPECT_GT(sealed, 0u);
  // Every chunk seal is timed once.
  const MetricsSnapshot snap = (*loom)->metrics()->Snapshot();
  EXPECT_EQ(snap.histograms.at("loom_ingest_finalize_seconds").count, sealed);
}

// A chunk seal that fails (here every summary frame overflows the chunk
// log's 128-byte blocks) is sticky: Push, PushBatch and Sync keep returning
// the first error, no later seal writes an empty frame over the lost
// chunk's records, and every acknowledged record stays countable.
TEST(IngestPipelineTest, FailedSealIsSticky) {
  TempDir dir;
  ManualClock clock{1};
  LoomOptions opts = SmallOptions(dir.FilePath("loom"), &clock);
  opts.chunk_index_block_size = 128;
  auto loom = Loom::Open(opts);
  ASSERT_TRUE(loom.ok());
  DefineValueIndex(loom->get());
  uint64_t acked = 0;
  Status first = Status::Ok();
  for (int i = 0; i < 400 && first.ok(); ++i) {
    clock.AdvanceNanos(1'000'000);
    first = (*loom)->Push(1, ValuePayload(WorkloadValue(i)));
    if (first.ok()) {
      ++acked;
      first = (*loom)->Sync(1);
    }
  }
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.code(), StatusCode::kInvalidArgument) << first.ToString();
  for (int i = 0; i < 100; ++i) {
    clock.AdvanceNanos(1'000'000);
    const Status again = (*loom)->Push(1, ValuePayload(WorkloadValue(i)));
    EXPECT_FALSE(again.ok());
    EXPECT_EQ(again.message(), first.message());
  }
  const std::vector<uint8_t> payload = ValuePayload(1.0);
  const std::span<const uint8_t> batch[] = {payload, payload};
  EXPECT_EQ((*loom)->PushBatch(1, batch).message(), first.message());
  EXPECT_EQ((*loom)->Sync(1).message(), first.message());
  EXPECT_EQ((*loom)->stats().chunk_index_log.bytes_appended, 0u);
  auto count = (*loom)->CountRecords(1, TimeRange{0, clock.NowNanos()});
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), acked);
}

}  // namespace
}  // namespace loom
