// Golden equivalence suite for the morsel-driven parallel query executor.
//
// Two engines ingest the identical deterministic stream under a ManualClock;
// the only difference is LoomOptions::query_threads (0 = serial reference,
// 4 = parallel). Every query operator must return byte-identical results —
// same values, same delivery order, same aggregate doubles (the executor
// merges per-chunk partials in candidate order precisely so floating-point
// non-associativity cannot leak into results).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/common/file.h"
#include "src/common/rng.h"
#include "src/core/loom.h"

namespace loom {
namespace {

constexpr uint32_t kSource = 7;
constexpr size_t kNumRecords = 6000;

std::vector<uint8_t> ValuePayload(double v) {
  std::vector<uint8_t> buf(48, 0);
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

// One record delivered by a scan, captured for exact comparison.
struct Delivered {
  TimestampNanos ts;
  uint64_t addr;
  double value;  // index value for value scans, payload value otherwise

  bool operator==(const Delivered& o) const {
    return ts == o.ts && addr == o.addr && value == o.value;
  }
};

class ParallelQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    serial_ = BuildEngine(dir_.FilePath("serial"), 0, &serial_clock_, &serial_index_);
    parallel_ = BuildEngine(dir_.FilePath("parallel"), 4, &parallel_clock_, &parallel_index_);
  }

  std::unique_ptr<Loom> BuildEngine(const std::string& dir, size_t query_threads,
                                    ManualClock* clock, uint32_t* index_id,
                                    SimdMode simd_mode = SimdMode::kAuto) {
    LoomOptions opts;
    opts.dir = dir;
    opts.chunk_size = 1024;  // ~13 records per chunk -> hundreds of candidates
    opts.record_block_size = 8192;
    opts.chunk_index_block_size = 4096;
    opts.ts_index_block_size = 4096;
    opts.ts_marker_period = 8;
    opts.summary_cache_bytes = 1 << 20;
    opts.query_threads = query_threads;
    opts.simd_mode = simd_mode;
    opts.clock = clock;
    auto loom = Loom::Open(opts);
    EXPECT_TRUE(loom.ok()) << loom.status().ToString();
    std::unique_ptr<Loom> engine = std::move(loom.value());
    EXPECT_TRUE(engine->DefineSource(kSource).ok());
    auto spec = HistogramSpec::Exponential(1.0, 2.0, 20);
    EXPECT_TRUE(spec.ok());
    auto idx = engine->DefineIndex(kSource, ValueIndexFunc(), spec.value());
    EXPECT_TRUE(idx.ok()) << idx.status().ToString();
    *index_id = idx.value();

    // Identical deterministic ingest on both engines.
    Rng rng(42);
    clock->SetNanos(1);
    for (size_t i = 0; i < kNumRecords; ++i) {
      clock->AdvanceNanos(1000);
      double v = rng.NextLogNormal(32.0, 1.1);
      EXPECT_TRUE(engine->Push(kSource, ValuePayload(v)).ok());
    }
    // Drain the sealing pipeline: a chunk still sealing is scanned as tail,
    // and folding a summary rounds a sum differently from adding its values
    // one by one, so engines compared bit for bit must be equally sealed.
    EXPECT_TRUE(engine->Sync(kSource).ok());
    return engine;
  }

  // Ranges exercising full coverage, partial chunks on both ends, a narrow
  // slice, and an empty range past the data.
  std::vector<TimeRange> Ranges() {
    const TimestampNanos last = serial_clock_.NowNanos();
    return {
        TimeRange{0, last + 1},
        TimeRange{1, last},
        TimeRange{last / 4, (3 * last) / 4},
        TimeRange{last / 2, last / 2 + 5000},
        TimeRange{last + 1000, last + 2000},
    };
  }

  TempDir dir_;
  ManualClock serial_clock_{1};
  ManualClock parallel_clock_{1};
  std::unique_ptr<Loom> serial_;
  std::unique_ptr<Loom> parallel_;
  uint32_t serial_index_ = 0;
  uint32_t parallel_index_ = 0;
};

TEST_F(ParallelQueryTest, RawScanMatchesSerial) {
  for (const TimeRange& range : Ranges()) {
    std::vector<Delivered> a;
    std::vector<Delivered> b;
    QueryTrace ta;
    QueryTrace tb;
    auto collect = [](std::vector<Delivered>* out) {
      return [out](const RecordView& r) {
        out->push_back({r.ts, r.addr, PayloadValue(r.payload)});
        return true;
      };
    };
    ASSERT_TRUE(serial_->RawScan(kSource, range, collect(&a), &ta).ok());
    ASSERT_TRUE(parallel_->RawScan(kSource, range, collect(&b), &tb).ok());
    EXPECT_EQ(a, b) << "range [" << range.start << ", " << range.end << "]";
    EXPECT_EQ(ta.records_matched, tb.records_matched);
  }
}

TEST_F(ParallelQueryTest, RawScanEarlyStopMatchesSerial) {
  const TimestampNanos last = serial_clock_.NowNanos();
  for (size_t stop_after : {size_t{1}, size_t{17}, size_t{500}}) {
    std::vector<Delivered> a;
    std::vector<Delivered> b;
    auto collect = [stop_after](std::vector<Delivered>* out) {
      return [out, stop_after](const RecordView& r) {
        out->push_back({r.ts, r.addr, PayloadValue(r.payload)});
        return out->size() < stop_after;
      };
    };
    ASSERT_TRUE(serial_->RawScan(kSource, {0, last + 1}, collect(&a)).ok());
    ASSERT_TRUE(parallel_->RawScan(kSource, {0, last + 1}, collect(&b)).ok());
    EXPECT_EQ(a.size(), stop_after);
    EXPECT_EQ(a, b);
  }
}

TEST_F(ParallelQueryTest, IndexedScanMatchesSerial) {
  const std::vector<ValueRange> value_ranges = {
      {0.0, 1e9},    // everything
      {20.0, 50.0},  // the body of the distribution
      {200.0, 1e9},  // tail only: most chunks pruned
      {-5.0, -1.0},  // nothing
  };
  for (const TimeRange& range : Ranges()) {
    for (const ValueRange& vr : value_ranges) {
      std::vector<Delivered> a;
      std::vector<Delivered> b;
      QueryTrace ta;
      QueryTrace tb;
      auto collect = [](std::vector<Delivered>* out) {
        return [out](const RecordView& r) {
          out->push_back({r.ts, r.addr, PayloadValue(r.payload)});
          return true;
        };
      };
      ASSERT_TRUE(serial_->IndexedScan(kSource, serial_index_, range, vr, collect(&a), &ta).ok());
      ASSERT_TRUE(
          parallel_->IndexedScan(kSource, parallel_index_, range, vr, collect(&b), &tb).ok());
      EXPECT_EQ(a, b) << "t [" << range.start << ", " << range.end << "] v [" << vr.lo << ", "
                      << vr.hi << "]";
      EXPECT_EQ(ta.records_matched, tb.records_matched);
      EXPECT_EQ(ta.chunks_considered, tb.chunks_considered);
      EXPECT_EQ(ta.chunks_pruned, tb.chunks_pruned);
      EXPECT_EQ(ta.chunks_scanned, tb.chunks_scanned);
    }
  }
}

TEST_F(ParallelQueryTest, IndexedScanValuesMatchesSerialIncludingEarlyStop) {
  const TimestampNanos last = serial_clock_.NowNanos();
  for (size_t stop_after : {size_t{0}, size_t{25}, size_t{3000}}) {
    std::vector<Delivered> a;
    std::vector<Delivered> b;
    auto collect = [stop_after](std::vector<Delivered>* out) {
      return [out, stop_after](double value, const RecordView& r) {
        out->push_back({r.ts, r.addr, value});
        return stop_after == 0 || out->size() < stop_after;
      };
    };
    ASSERT_TRUE(serial_
                    ->IndexedScanValues(kSource, serial_index_, {0, last + 1}, {10.0, 100.0},
                                        collect(&a))
                    .ok());
    ASSERT_TRUE(parallel_
                    ->IndexedScanValues(kSource, parallel_index_, {0, last + 1}, {10.0, 100.0},
                                        collect(&b))
                    .ok());
    EXPECT_EQ(a, b) << "stop_after=" << stop_after;
  }
}

TEST_F(ParallelQueryTest, AggregatesBitIdenticalToSerial) {
  const std::vector<std::pair<AggregateMethod, double>> methods = {
      {AggregateMethod::kCount, 0.0}, {AggregateMethod::kSum, 0.0},
      {AggregateMethod::kMin, 0.0},   {AggregateMethod::kMax, 0.0},
      {AggregateMethod::kMean, 0.0},  {AggregateMethod::kPercentile, 50.0},
      {AggregateMethod::kPercentile, 99.0},
  };
  for (const TimeRange& range : Ranges()) {
    for (const auto& [method, pct] : methods) {
      auto a = serial_->IndexedAggregate(kSource, serial_index_, range, method, pct);
      auto b = parallel_->IndexedAggregate(kSource, parallel_index_, range, method, pct);
      ASSERT_EQ(a.ok(), b.ok());
      if (!a.ok()) {
        continue;  // e.g. empty range -> NotFound on both
      }
      // Bit-identical, not just approximately equal: in-order merging must
      // make the parallel sum/mean reduction associate exactly like serial.
      EXPECT_EQ(std::memcmp(&a.value(), &b.value(), sizeof(double)), 0)
          << "method=" << static_cast<int>(method) << " pct=" << pct << " serial=" << a.value()
          << " parallel=" << b.value();
    }
  }
}

TEST_F(ParallelQueryTest, HistogramMatchesSerial) {
  for (const TimeRange& range : Ranges()) {
    auto a = serial_->IndexedHistogram(kSource, serial_index_, range);
    auto b = parallel_->IndexedHistogram(kSource, parallel_index_, range);
    ASSERT_EQ(a.ok(), b.ok());
    if (a.ok()) {
      EXPECT_EQ(a.value(), b.value());
    }
  }
}

TEST_F(ParallelQueryTest, CountRecordsMatchesSerial) {
  for (const TimeRange& range : Ranges()) {
    auto a = serial_->CountRecords(kSource, range);
    auto b = parallel_->CountRecords(kSource, range);
    ASSERT_EQ(a.ok(), b.ok());
    if (a.ok()) {
      EXPECT_EQ(a.value(), b.value());
    }
  }
}

TEST_F(ParallelQueryTest, TraceInvariantHoldsAndMorselsAreUsed) {
  const TimestampNanos last = parallel_clock_.NowNanos();
  QueryTrace trace;
  trace.detailed = true;
  auto r = parallel_->IndexedAggregate(kSource, parallel_index_, {0, last + 1},
                                       AggregateMethod::kMean, 0.0, &trace);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(trace.chunks_pruned + trace.chunks_scanned, trace.chunks_considered);
  EXPECT_GT(trace.chunks_considered, 0u);
  // The wide query has hundreds of candidate chunks; the pool must have
  // partitioned them into more than one morsel.
  EXPECT_GT(trace.parallel_morsels, 1u);
  EXPECT_GE(trace.parallel_workers, 1u);

  // CountRecords fans out the same way.
  QueryTrace count_trace;
  auto count = parallel_->CountRecords(kSource, {0, last + 1}, &count_trace);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count.value(), kNumRecords);
  EXPECT_EQ(count_trace.chunks_pruned + count_trace.chunks_scanned, count_trace.chunks_considered);
  EXPECT_GT(count_trace.parallel_morsels, 1u);

  // A narrow query under the morsel threshold stays serial.
  QueryTrace narrow;
  ASSERT_TRUE(parallel_
                  ->IndexedAggregate(kSource, parallel_index_, {1, 2000},
                                     AggregateMethod::kCount, 0.0, &narrow)
                  .ok());
  EXPECT_EQ(narrow.chunks_pruned + narrow.chunks_scanned, narrow.chunks_considered);
}

TEST_F(ParallelQueryTest, ScanTracesSatisfyInvariantInParallel) {
  const TimestampNanos last = parallel_clock_.NowNanos();
  QueryTrace trace;
  std::vector<Delivered> got;
  ASSERT_TRUE(parallel_
                  ->IndexedScanValues(kSource, parallel_index_, {0, last + 1}, {0.0, 1e9},
                                      [&](double value, const RecordView& r) {
                                        got.push_back({r.ts, r.addr, value});
                                        return true;
                                      },
                                      &trace)
                  .ok());
  EXPECT_EQ(got.size(), kNumRecords);
  EXPECT_EQ(trace.records_matched, kNumRecords);
  EXPECT_EQ(trace.chunks_pruned + trace.chunks_scanned, trace.chunks_considered);
  EXPECT_GT(trace.parallel_morsels, 1u);
}

// Randomized sweep: many random (time range, value range) pairs, all four
// query classes, serial and parallel must agree exactly on every one.
TEST_F(ParallelQueryTest, RandomizedEquivalenceSweep) {
  Rng rng(2026);
  const TimestampNanos last = serial_clock_.NowNanos();
  for (int iter = 0; iter < 25; ++iter) {
    TimestampNanos t0 = rng.NextBounded(last);
    TimestampNanos t1 = t0 + rng.NextBounded(last - t0) + 1;
    TimeRange range{t0, t1};
    double lo = rng.NextUniform(0.0, 80.0);
    ValueRange vr{lo, lo + rng.NextUniform(1.0, 300.0)};

    auto agg_a = serial_->IndexedAggregate(kSource, serial_index_, range, AggregateMethod::kSum);
    auto agg_b =
        parallel_->IndexedAggregate(kSource, parallel_index_, range, AggregateMethod::kSum);
    ASSERT_EQ(agg_a.ok(), agg_b.ok());
    if (agg_a.ok()) {
      EXPECT_EQ(std::memcmp(&agg_a.value(), &agg_b.value(), sizeof(double)), 0);
    }

    auto hist_a = serial_->IndexedHistogram(kSource, serial_index_, range);
    auto hist_b = parallel_->IndexedHistogram(kSource, parallel_index_, range);
    ASSERT_EQ(hist_a.ok(), hist_b.ok());
    if (hist_a.ok()) {
      EXPECT_EQ(hist_a.value(), hist_b.value());
    }

    std::vector<Delivered> scan_a;
    std::vector<Delivered> scan_b;
    auto collect = [](std::vector<Delivered>* out) {
      return [out](double value, const RecordView& r) {
        out->push_back({r.ts, r.addr, value});
        return true;
      };
    };
    ASSERT_TRUE(
        serial_->IndexedScanValues(kSource, serial_index_, range, vr, collect(&scan_a)).ok());
    ASSERT_TRUE(
        parallel_->IndexedScanValues(kSource, parallel_index_, range, vr, collect(&scan_b)).ok());
    EXPECT_EQ(scan_a, scan_b) << "iter=" << iter;

    std::vector<Delivered> raw_a;
    std::vector<Delivered> raw_b;
    auto collect_raw = [](std::vector<Delivered>* out) {
      return [out](const RecordView& r) {
        out->push_back({r.ts, r.addr, PayloadValue(r.payload)});
        return true;
      };
    };
    ASSERT_TRUE(serial_->RawScan(kSource, range, collect_raw(&raw_a)).ok());
    ASSERT_TRUE(parallel_->RawScan(kSource, range, collect_raw(&raw_b)).ok());
    EXPECT_EQ(raw_a, raw_b) << "iter=" << iter;
  }
}

// A forced-scalar engine must return bit-identical results to the
// auto-dispatched engines: the vector kernels are a pure performance layer,
// never allowed to change a byte of query output or delivery order.
TEST_F(ParallelQueryTest, ForcedScalarBitIdentical) {
  ManualClock clock{1};
  uint32_t index_id = 0;
  std::unique_ptr<Loom> scalar =
      BuildEngine(dir_.FilePath("scalar"), 4, &clock, &index_id, SimdMode::kScalar);
  for (const TimeRange& range : Ranges()) {
    std::vector<Delivered> a;
    std::vector<Delivered> b;
    auto collect = [](std::vector<Delivered>* out) {
      return [out](double value, const RecordView& r) {
        out->push_back({r.ts, r.addr, value});
        return true;
      };
    };
    ASSERT_TRUE(
        parallel_->IndexedScanValues(kSource, parallel_index_, range, {0.0, 1e9}, collect(&a))
            .ok());
    ASSERT_TRUE(scalar->IndexedScanValues(kSource, index_id, range, {0.0, 1e9}, collect(&b))
                    .ok());
    EXPECT_EQ(a, b) << "range [" << range.start << ", " << range.end << "]";

    for (AggregateMethod method : {AggregateMethod::kSum, AggregateMethod::kMean,
                                   AggregateMethod::kCount, AggregateMethod::kPercentile}) {
      const double pct = method == AggregateMethod::kPercentile ? 99.0 : 0.0;
      auto va = parallel_->IndexedAggregate(kSource, parallel_index_, range, method, pct);
      auto vb = scalar->IndexedAggregate(kSource, index_id, range, method, pct);
      ASSERT_EQ(va.ok(), vb.ok());
      if (va.ok()) {
        EXPECT_EQ(std::memcmp(&va.value(), &vb.value(), sizeof(double)), 0)
            << "method=" << static_cast<int>(method);
      }
    }

    std::vector<Delivered> raw_a;
    std::vector<Delivered> raw_b;
    auto collect_raw = [](std::vector<Delivered>* out) {
      return [out](const RecordView& r) {
        out->push_back({r.ts, r.addr, PayloadValue(r.payload)});
        return true;
      };
    };
    ASSERT_TRUE(parallel_->RawScan(kSource, range, collect_raw(&raw_a)).ok());
    ASSERT_TRUE(scalar->RawScan(kSource, range, collect_raw(&raw_b)).ok());
    EXPECT_EQ(raw_a, raw_b);

    auto cnt_a = parallel_->CountRecords(kSource, range);
    auto cnt_b = scalar->CountRecords(kSource, range);
    ASSERT_EQ(cnt_a.ok(), cnt_b.ok());
    if (cnt_a.ok()) {
      EXPECT_EQ(cnt_a.value(), cnt_b.value());
    }
  }

  // The scalar engine reports its dispatch in the metrics registry.
  EXPECT_EQ(scalar->metrics()->Snapshot().gauges.at("loom_query_kernel_mode"), 0.0);
}

// query_threads=1 still goes through the pool with one worker; it must be
// just as equivalent as the 4-thread configuration.
TEST_F(ParallelQueryTest, SingleWorkerPoolMatchesSerial) {
  ManualClock clock{1};
  uint32_t index_id = 0;
  std::unique_ptr<Loom> one = BuildEngine(dir_.FilePath("one"), 1, &clock, &index_id);
  const TimestampNanos last = clock.NowNanos();
  auto a = serial_->IndexedAggregate(kSource, serial_index_, {0, last + 1},
                                     AggregateMethod::kMean);
  auto b = one->IndexedAggregate(kSource, index_id, {0, last + 1}, AggregateMethod::kMean);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(std::memcmp(&a.value(), &b.value(), sizeof(double)), 0);
}

// --- Bin-level zone maps ----------------------------------------------------
//
// Every summary entry keeps its bin's [min, max], and lists its values when it
// holds 3 to 16. These cases pin, by trace counts, the record reads that lets
// a query skip, on four engines holding the same stream: serial and parallel,
// hot only and mostly archived.

constexpr size_t kZoneRecords = 3000;

struct ZoneEngine {
  std::string name;
  bool archived = false;
  std::unique_ptr<ManualClock> clock;
  std::unique_ptr<Loom> loom;
  uint32_t index_id = 0;
};

class BinZoneMapTest : public ::testing::Test {
 protected:
  void Build(const std::vector<double>& values, size_t chunk_size = 1024) {
    for (size_t threads : {size_t{0}, size_t{4}}) {
      for (bool archived : {false, true}) {
        ZoneEngine e;
        e.name = std::string(threads > 0 ? "parallel" : "serial") + (archived ? "-archived" : "-hot");
        e.archived = archived;
        e.clock = std::make_unique<ManualClock>(1);
        LoomOptions opts;
        opts.dir = dir_.FilePath(e.name);
        opts.chunk_size = chunk_size;  // 1024: ~14 records per chunk
        opts.record_block_size = 8192;
        opts.query_threads = threads;
        opts.clock = e.clock.get();
        if (archived) {
          opts.archive_dir = dir_.FilePath(e.name + "-cold");
          opts.record_retain_bytes = opts.record_block_size;
        }
        auto loom = Loom::Open(opts);
        ASSERT_TRUE(loom.ok()) << loom.status().ToString();
        e.loom = std::move(loom.value());
        ASSERT_TRUE(e.loom->DefineSource(kSource).ok());
        auto idx = e.loom->DefineIndex(kSource, ValueIndexFunc(),
                                       HistogramSpec::Exponential(1.0, 2.0, 20).value());
        ASSERT_TRUE(idx.ok());
        e.index_id = idx.value();
        for (double v : values) {
          e.clock->AdvanceNanos(1000);
          ASSERT_TRUE(e.loom->Push(kSource, ValuePayload(v)).ok());
        }
        ASSERT_TRUE(e.loom->Sync(kSource).ok());
        if (archived) {
          // Demotion follows flushed bytes: let the flusher catch up, then
          // demote until a pass archives nothing new.
          const uint64_t full_blocks = e.loom->stats().record_log.bytes_appended / 8192;
          for (int spin = 0;
               spin < 5000 && e.loom->stats().record_log.blocks_flushed < full_blocks; ++spin) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          size_t prev;
          do {
            prev = e.loom->ArchiveCount();
            ASSERT_TRUE(e.loom->DemoteNow().ok());
          } while (e.loom->ArchiveCount() != prev);
          ASSERT_GE(e.loom->ArchiveCount(), 1u);
        }
        engines_.push_back(std::move(e));
      }
    }
  }

  static void ExpectInvariants(const QueryTrace& t, const ZoneEngine& e) {
    EXPECT_GT(t.chunks_considered, 0u) << e.name;
    EXPECT_EQ(t.chunks_pruned + t.chunks_scanned, t.chunks_considered) << e.name;
    EXPECT_EQ(t.tier_chunks_pruned + t.tier_chunks_scanned, t.tier_chunks_considered) << e.name;
    EXPECT_EQ(t.tier_chunks_considered > 0, e.archived) << e.name;
  }

  // The p-th percentile of `values` by the engine's rank rule.
  static double Percentile(std::vector<double> values, double p) {
    std::sort(values.begin(), values.end());
    size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(values.size())));
    rank = std::max<size_t>(1, std::min(rank, values.size()));
    return values[rank - 1];
  }

  TempDir dir_;
  std::vector<ZoneEngine> engines_;
};

// Bin [32, 64) is in every chunk, but its values never pass 38: a scan for
// [50, 60], which overlaps only that bin, reads no chunk.
TEST_F(BinZoneMapTest, ScanSkipsChunksWhoseBinValuesMissTheRange) {
  std::vector<double> values;
  for (size_t i = 0; i < kZoneRecords; ++i) {
    values.push_back(i % 2 == 0 ? 32.0 + static_cast<double>(i % 7)
                                : 4.0 + static_cast<double>(i % 3));
  }
  ASSERT_NO_FATAL_FAILURE(Build(values));
  const size_t in_36_38 = static_cast<size_t>(
      std::count_if(values.begin(), values.end(), [](double v) { return v >= 36.0; }));
  for (const ZoneEngine& e : engines_) {
    for (const ValueRange vr : {ValueRange{50.0, 60.0}, ValueRange{36.0, 60.0}}) {
      QueryTrace trace;
      size_t matched = 0;
      ASSERT_TRUE(e.loom
                      ->IndexedScan(
                          kSource, e.index_id, {0, ~0ULL}, vr,
                          [&](const RecordView&) {
                            ++matched;
                            return true;
                          },
                          &trace)
                      .ok());
      ExpectInvariants(trace, e);
      if (vr.lo == 50.0) {
        EXPECT_EQ(matched, 0u) << e.name;
        EXPECT_EQ(trace.chunks_scanned, 0u) << e.name;
      } else {
        EXPECT_EQ(matched, in_36_38) << e.name;
        EXPECT_GT(trace.chunks_scanned, 0u) << e.name;
      }
    }
  }
}

// Every eighth value lands in bin [32, 64), so each chunk's entry for it holds
// one value or two distinct ones: the summaries pin them exactly and the p45
// in that bin needs no stage-2 rescan.
TEST_F(BinZoneMapTest, PercentileOverExactEntriesRescansNothing) {
  std::vector<double> values;
  for (size_t i = 0; i < kZoneRecords; ++i) {
    if (i % 8 == 0) {
      values.push_back(32.0 + 0.001 * static_cast<double>(i));
    } else {
      values.push_back(i % 2 == 0 ? 2.5 : 1000.5);
    }
  }
  ASSERT_NO_FATAL_FAILURE(Build(values));
  const double want = Percentile(values, 45.0);
  ASSERT_GE(want, 32.0);
  ASSERT_LT(want, 64.0);
  for (const ZoneEngine& e : engines_) {
    QueryTrace trace;
    auto got = e.loom->IndexedAggregate(kSource, e.index_id, {0, ~0ULL},
                                        AggregateMethod::kPercentile, 45.0, &trace);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.value(), want) << e.name;
    ExpectInvariants(trace, e);
    EXPECT_EQ(trace.chunks_scanned, 0u) << e.name;
    EXPECT_GT(trace.chunks_summary_folded, 0u) << e.name;
  }
}

// Every other value lands in bin [32, 64), so each chunk's entry for it holds
// about seven values: more than min and max pin, few enough that the summary
// lists them, and the p50 in that bin needs no stage-2 rescan.
TEST_F(BinZoneMapTest, PercentileOverListedEntriesRescansNothing) {
  Rng rng(11);
  std::vector<double> values;
  for (size_t i = 0; i < kZoneRecords; ++i) {
    if (i % 2 == 1) {
      values.push_back(rng.NextUniform(33.0, 63.0));
    } else {
      values.push_back(i % 4 == 0 ? 2.5 : 1000.5);
    }
  }
  ASSERT_NO_FATAL_FAILURE(Build(values));
  const double want = Percentile(values, 50.0);
  ASSERT_GE(want, 32.0);
  ASSERT_LT(want, 64.0);
  for (const ZoneEngine& e : engines_) {
    QueryTrace trace;
    auto got = e.loom->IndexedAggregate(kSource, e.index_id, {0, ~0ULL},
                                        AggregateMethod::kPercentile, 50.0, &trace);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.value(), want) << e.name;
    ExpectInvariants(trace, e);
    EXPECT_EQ(trace.chunks_scanned, 0u) << e.name;
    EXPECT_GT(trace.chunks_summary_folded, 0u) << e.name;
  }
}

// Every value lands in bin [32, 64): the first half in [32, 39), the second in
// [40, 63). The p75 lies in the second half, so the first half's chunks sit
// wholly below the bracket and only count toward the rank. The 4 KiB chunks
// hold ~56 values each, more than a summary lists, so the bracket decides.
TEST_F(BinZoneMapTest, DenseBinPercentileRescansOnlyChunksNearTheAnswer) {
  Rng rng(7);
  std::vector<double> values;
  for (size_t i = 0; i < kZoneRecords; ++i) {
    values.push_back(i < kZoneRecords / 2 ? rng.NextUniform(32.0, 39.0)
                                          : rng.NextUniform(40.0, 63.0));
  }
  ASSERT_NO_FATAL_FAILURE(Build(values, /*chunk_size=*/4096));
  const double want = Percentile(values, 75.0);
  for (const ZoneEngine& e : engines_) {
    QueryTrace trace;
    auto got = e.loom->IndexedAggregate(kSource, e.index_id, {0, ~0ULL},
                                        AggregateMethod::kPercentile, 75.0, &trace);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.value(), want) << e.name;
    ExpectInvariants(trace, e);
    // Every considered chunk holds the bin; only some are read.
    EXPECT_GT(trace.chunks_scanned, 0u) << e.name;
    EXPECT_LT(trace.chunks_scanned, trace.chunks_considered) << e.name;
    if (e.archived) {
      EXPECT_LT(trace.tier_chunks_scanned, trace.tier_chunks_considered) << e.name;
    }
  }
}

}  // namespace
}  // namespace loom
