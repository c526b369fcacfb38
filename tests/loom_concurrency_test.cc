// Engine-level concurrency and consistency tests: queries racing with live
// ingest (§4.4), snapshot semantics (§4.5), and the coordination-avoiding
// read path under block recycling. Part of the TSan smoke
// (tools/run_tsan_smoke.sh).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include "src/common/file.h"
#include "src/common/rng.h"
#include "src/core/loom.h"

namespace loom {
namespace {

std::vector<uint8_t> SeqPayload(uint64_t seq) {
  std::vector<uint8_t> buf(48, 0);
  std::memcpy(buf.data(), &seq, sizeof(seq));
  return buf;
}

uint64_t PayloadSeq(std::span<const uint8_t> payload) {
  uint64_t seq;
  std::memcpy(&seq, payload.data(), sizeof(seq));
  return seq;
}

Loom::IndexFunc SeqFunc() {
  return [](std::span<const uint8_t> p) -> std::optional<double> {
    if (p.size() < 8) {
      return std::nullopt;
    }
    uint64_t seq;
    std::memcpy(&seq, p.data(), sizeof(seq));
    return static_cast<double>(seq % 1000);
  };
}

TEST(LoomConcurrencyTest, RawScanDuringIngestSeesPrefix) {
  TempDir dir;
  LoomOptions opts;
  opts.dir = dir.FilePath("loom");
  opts.record_block_size = 64 << 10;  // small blocks: frequent recycling
  opts.chunk_size = 4 << 10;
  auto loom = Loom::Open(opts);
  ASSERT_TRUE(loom.ok());
  Loom* l = loom->get();
  ASSERT_TRUE(l->DefineSource(1).ok());

  constexpr uint64_t kRecords = 200'000;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> scan_errors{0};
  std::atomic<uint64_t> scans{0};

  // Reader: raw scans must always observe a dense, gap-free suffix of the
  // sequence (snapshot isolation: everything published before the snapshot).
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      uint64_t prev = ~0ULL;
      Status st = l->RawScan(1, {0, ~0ULL}, [&](const RecordView& r) {
        const uint64_t seq = PayloadSeq(r.payload);
        if (prev != ~0ULL && seq != prev - 1) {
          scan_errors.fetch_add(1);
          return false;
        }
        prev = seq;
        // Bound scan depth so the reader samples many snapshots.
        return seq > 500;
      });
      if (!st.ok()) {
        scan_errors.fetch_add(1);
      }
      scans.fetch_add(1);
    }
  });

  for (uint64_t i = 1; i <= kRecords; ++i) {
    ASSERT_TRUE(l->Push(1, SeqPayload(i)).ok());
  }
  // On a loaded host the scheduler can starve the reader for the whole stream
  // above. Ingest then goes on, one record per 100 us, until the reader has
  // finished its scans or 10 s pass, so a reader that cannot scan while
  // ingest runs still fails the progress check below.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (uint64_t i = kRecords + 1;
       scans.load() <= 10 && std::chrono::steady_clock::now() < deadline; ++i) {
    ASSERT_TRUE(l->Push(1, SeqPayload(i)).ok());
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(scan_errors.load(), 0u);
  EXPECT_GT(scans.load(), 10u);
}

TEST(LoomConcurrencyTest, AggregatesDuringIngestAreConsistent) {
  TempDir dir;
  LoomOptions opts;
  opts.dir = dir.FilePath("loom");
  opts.record_block_size = 128 << 10;
  opts.chunk_size = 8 << 10;
  auto loom = Loom::Open(opts);
  ASSERT_TRUE(loom.ok());
  Loom* l = loom->get();
  ASSERT_TRUE(l->DefineSource(1).ok());
  auto spec = HistogramSpec::Uniform(0, 1000, 16).value();
  auto idx = l->DefineIndex(1, SeqFunc(), spec);
  ASSERT_TRUE(idx.ok());

  constexpr uint64_t kRecords = 150'000;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> errors{0};
  double prev_count = 0;

  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      auto count = l->IndexedAggregate(1, idx.value(), {0, ~0ULL}, AggregateMethod::kCount);
      if (!count.ok()) {
        errors.fetch_add(1);
        continue;
      }
      // Counts must be monotone over successive snapshots.
      if (count.value() < prev_count) {
        errors.fetch_add(1);
      }
      prev_count = count.value();
      if (count.value() > 0) {
        auto max = l->IndexedAggregate(1, idx.value(), {0, ~0ULL}, AggregateMethod::kMax);
        if (!max.ok() || max.value() > 999.0) {
          errors.fetch_add(1);
        }
      }
    }
  });

  for (uint64_t i = 1; i <= kRecords; ++i) {
    ASSERT_TRUE(l->Push(1, SeqPayload(i)).ok());
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(errors.load(), 0u);

  auto final_count = l->IndexedAggregate(1, idx.value(), {0, ~0ULL}, AggregateMethod::kCount);
  ASSERT_TRUE(final_count.ok());
  EXPECT_EQ(final_count.value(), static_cast<double>(kRecords));
}

TEST(LoomConcurrencyTest, ManyReadersOneWriter) {
  TempDir dir;
  LoomOptions opts;
  opts.dir = dir.FilePath("loom");
  opts.record_block_size = 64 << 10;
  opts.chunk_size = 4 << 10;
  auto loom = Loom::Open(opts);
  ASSERT_TRUE(loom.ok());
  Loom* l = loom->get();
  ASSERT_TRUE(l->DefineSource(1).ok());
  auto spec = HistogramSpec::Uniform(0, 1000, 8).value();
  auto idx = l->DefineIndex(1, SeqFunc(), spec);
  ASSERT_TRUE(idx.ok());

  std::atomic<bool> done{false};
  std::atomic<uint64_t> errors{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(static_cast<uint64_t>(r) + 1);
      while (!done.load(std::memory_order_acquire)) {
        double lo = rng.NextUniform(0, 500);
        Status st = l->IndexedScan(1, idx.value(), {0, ~0ULL}, {lo, lo + 100},
                                   [&](const RecordView& rec) {
                                     double v = static_cast<double>(PayloadSeq(rec.payload) %
                                                                    1000);
                                     if (v < lo || v > lo + 100) {
                                       errors.fetch_add(1);
                                     }
                                     return true;
                                   });
        if (!st.ok()) {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (uint64_t i = 1; i <= 100'000; ++i) {
    ASSERT_TRUE(l->Push(1, SeqPayload(i)).ok());
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) {
    t.join();
  }
  EXPECT_EQ(errors.load(), 0u);
}

TEST(LoomConcurrencyTest, CachedQueriesMatchColdReadsUnderRetention) {
  TempDir dir;
  LoomOptions opts;
  opts.dir = dir.FilePath("loom");
  opts.record_block_size = 16 << 10;
  opts.chunk_size = 4 << 10;
  opts.record_retain_bytes = 128 << 10;  // retention races the queries
  opts.summary_cache_bytes = 4 << 20;
  auto loom = Loom::Open(opts);
  ASSERT_TRUE(loom.ok());
  Loom* l = loom->get();
  ASSERT_TRUE(l->DefineSource(1).ok());
  auto spec = HistogramSpec::Uniform(0, 1000, 16).value();
  auto idx = l->DefineIndex(1, SeqFunc(), spec);
  ASSERT_TRUE(idx.ok());

  constexpr uint64_t kRecords = 120'000;  // ~7 MiB of records >> 128 KiB retained
  std::atomic<bool> done{false};
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> queries{0};

  // Reader: repeated whole-range aggregates while ingest runs and retention
  // drops chunks underneath the cache. Counts are NOT monotone here (old
  // records disappear), but every snapshot must be internally consistent.
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      auto count = l->IndexedAggregate(1, idx.value(), {0, ~0ULL}, AggregateMethod::kCount);
      if (!count.ok()) {
        fprintf(stderr, "COUNT ERR: %s\n", count.status().ToString().c_str());
        errors.fetch_add(1);
        continue;
      }
      if (count.value() > 0) {
        auto max = l->IndexedAggregate(1, idx.value(), {0, ~0ULL}, AggregateMethod::kMax);
        if (max.ok()) {
          if (max.value() > 999.0) {
            fprintf(stderr, "MAX VALUE ERR: %f\n", max.value());
            errors.fetch_add(1);
          }
        } else if (max.status().code() != StatusCode::kNotFound) {
          fprintf(stderr, "MAX ERR: %s\n", max.status().ToString().c_str());
          // NotFound is legal here: each query takes its own snapshot, and
          // retention may drop every record between the count and the max.
          // Anything else is a real failure.
          errors.fetch_add(1);
        }
      }
      queries.fetch_add(1);
    }
  });

  for (uint64_t i = 1; i <= kRecords; ++i) {
    ASSERT_TRUE(l->Push(1, SeqPayload(i)).ok());
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(errors.load(), 0u);
  EXPECT_GT(queries.load(), 10u);

  // Quiesce: wait for the background flusher to stop advancing retention.
  uint64_t flushed = l->stats().record_log.blocks_flushed;
  for (int spin = 0; spin < 1000; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const uint64_t now_flushed = l->stats().record_log.blocks_flushed;
    if (now_flushed == flushed) {
      break;
    }
    flushed = now_flushed;
  }

  // Cache-served results must match a cold read path that never touches the
  // cache: RawScan re-reads records from the log. Retry in case a straggling
  // floor advance lands between the two reads.
  bool matched = false;
  for (int attempt = 0; attempt < 5 && !matched; ++attempt) {
    uint64_t raw_count = 0;
    double raw_max = -1.0;
    ASSERT_TRUE(l->RawScan(1, {0, ~0ULL},
                           [&](const RecordView& r) {
                             ++raw_count;
                             const double v =
                                 static_cast<double>(PayloadSeq(r.payload) % 1000);
                             raw_max = std::max(raw_max, v);
                             return true;
                           })
                    .ok());
    auto warm_count = l->IndexedAggregate(1, idx.value(), {0, ~0ULL}, AggregateMethod::kCount);
    auto warm_max = l->IndexedAggregate(1, idx.value(), {0, ~0ULL}, AggregateMethod::kMax);
    ASSERT_TRUE(warm_count.ok());
    ASSERT_TRUE(warm_max.ok());
    matched = warm_count.value() == static_cast<double>(raw_count) &&
              warm_max.value() == raw_max;
  }
  EXPECT_TRUE(matched);

  // The race exercised the cache: queries hit it, and retention invalidated
  // dropped chunks' summaries from query threads.
  const SummaryCacheStats cache = l->stats().summary_cache;
  EXPECT_GT(cache.hits, 0u);
  EXPECT_GT(cache.invalidated, 0u);
  EXPECT_LE(cache.bytes_used, opts.summary_cache_bytes);
}

TEST(LoomConcurrencyTest, ConcurrentQueriesDuringIngestAndRetention) {
  // Three query threads run the same mix at once while the ingest thread
  // appends records and retention recycles blocks underneath. Every
  // candidate re-checks the retained floor, so queries racing each other and
  // retention must stay exactly as consistent as a lone query.
  TempDir dir;
  LoomOptions opts;
  opts.dir = dir.FilePath("loom");
  opts.record_block_size = 16 << 10;
  opts.chunk_size = 4 << 10;
  opts.record_retain_bytes = 128 << 10;  // retention races the queries
  opts.summary_cache_bytes = 1 << 20;
  auto loom = Loom::Open(opts);
  ASSERT_TRUE(loom.ok());
  Loom* l = loom->get();
  ASSERT_TRUE(l->DefineSource(1).ok());
  auto spec = HistogramSpec::Uniform(0, 1000, 16).value();
  auto idx = l->DefineIndex(1, SeqFunc(), spec);
  ASSERT_TRUE(idx.ok());

  constexpr uint64_t kRecords = 120'000;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> queries{0};

  std::vector<std::thread> readers;
  for (uint64_t r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(99 + r);
      while (!done.load(std::memory_order_acquire)) {
        // Whole-range aggregate: summary-dominated.
        auto count = l->IndexedAggregate(1, idx.value(), {0, ~0ULL}, AggregateMethod::kCount);
        if (!count.ok()) {
          fprintf(stderr, "COUNT ERR: %s\n", count.status().ToString().c_str());
          errors.fetch_add(1);
          continue;
        }
        // Whole-range histogram and a value scan that stops early.
        auto hist = l->IndexedHistogram(1, idx.value(), {0, ~0ULL});
        if (!hist.ok() && hist.status().code() != StatusCode::kNotFound) {
          fprintf(stderr, "HIST ERR: %s\n", hist.status().ToString().c_str());
          errors.fetch_add(1);
        }
        double lo = rng.NextUniform(0, 500);
        uint64_t scanned = 0;
        Status st = l->IndexedScan(1, idx.value(), {0, ~0ULL}, {lo, lo + 200},
                                   [&](const RecordView& rec) {
                                     const double v =
                                         static_cast<double>(PayloadSeq(rec.payload) % 1000);
                                     if (v < lo || v > lo + 200) {
                                       errors.fetch_add(1);
                                     }
                                     return ++scanned < 4096;
                                   });
        if (!st.ok()) {
          fprintf(stderr, "SCAN ERR: %s\n", st.ToString().c_str());
          errors.fetch_add(1);
        }
        // Raw scan: the sequence must stay dense (each record's predecessor
        // is seq - 1) per snapshot.
        uint64_t prev = ~0ULL;
        st = l->RawScan(1, {0, ~0ULL}, [&](const RecordView& rec) {
          const uint64_t seq = PayloadSeq(rec.payload);
          if (prev != ~0ULL && seq != prev - 1) {
            fprintf(stderr, "RAW GAP: %llu after %llu\n", static_cast<unsigned long long>(seq),
                    static_cast<unsigned long long>(prev));
            errors.fetch_add(1);
            return false;
          }
          prev = seq;
          return true;
        });
        if (!st.ok()) {
          fprintf(stderr, "RAW ERR: %s\n", st.ToString().c_str());
          errors.fetch_add(1);
        }
        queries.fetch_add(1);
      }
    });
  }

  for (uint64_t i = 1; i <= kRecords; ++i) {
    ASSERT_TRUE(l->Push(1, SeqPayload(i)).ok());
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) {
    t.join();
  }
  EXPECT_EQ(errors.load(), 0u);
  EXPECT_GT(queries.load(), 5u);
}

TEST(LoomConcurrencyTest, PushBatchDuringQueriesKeepsSnapshots) {
  TempDir dir;
  LoomOptions opts;
  opts.dir = dir.FilePath("loom");
  opts.record_block_size = 64 << 10;
  opts.chunk_size = 4 << 10;
  auto loom = Loom::Open(opts);
  ASSERT_TRUE(loom.ok());
  Loom* l = loom->get();
  ASSERT_TRUE(l->DefineSource(1).ok());
  auto spec = HistogramSpec::Uniform(0, 1000, 16).value();
  auto idx = l->DefineIndex(1, SeqFunc(), spec);
  ASSERT_TRUE(idx.ok());

  std::atomic<bool> done{false};
  std::atomic<uint64_t> errors{0};
  std::thread reader([&] {
    double prev_count = 0;
    while (!done.load(std::memory_order_acquire)) {
      auto count = l->IndexedAggregate(1, idx.value(), {0, ~0ULL}, AggregateMethod::kCount);
      if (!count.ok() || count.value() < prev_count) {
        errors.fetch_add(1);
        continue;
      }
      prev_count = count.value();
    }
  });

  // Batches publish once at the end: a reader must never observe a torn
  // batch prefix inconsistency (counts stay monotone, data stays dense).
  constexpr uint64_t kBatches = 2000;
  constexpr size_t kBatchSize = 64;
  uint64_t seq = 0;
  for (uint64_t b = 0; b < kBatches; ++b) {
    std::vector<std::vector<uint8_t>> payloads;
    std::vector<std::span<const uint8_t>> spans;
    payloads.reserve(kBatchSize);
    spans.reserve(kBatchSize);
    for (size_t i = 0; i < kBatchSize; ++i) {
      payloads.push_back(SeqPayload(++seq));
      spans.emplace_back(payloads.back());
    }
    ASSERT_TRUE(l->PushBatch(1, std::span<const std::span<const uint8_t>>(spans)).ok());
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(errors.load(), 0u);

  auto final_count = l->IndexedAggregate(1, idx.value(), {0, ~0ULL}, AggregateMethod::kCount);
  ASSERT_TRUE(final_count.ok());
  EXPECT_EQ(final_count.value(), static_cast<double>(kBatches * kBatchSize));
}

// Four interleaved sources ingesting while queries run: snapshot isolation
// holds per source (counts are monotone, trace accounting balances) while
// chunk seals and the ts markers of several sources share the ingest thread.
TEST(LoomConcurrencyTest, InterleavedSourcesIngestDuringQueries) {
  constexpr uint32_t kSources = 4;  // source ids 1..kSources
  constexpr uint64_t kRecords = 12000;
  TempDir dir;
  ManualClock clock{1};
  LoomOptions opts;
  opts.dir = dir.FilePath("loom");
  opts.chunk_size = 1024;
  opts.record_block_size = 4096;
  opts.ts_marker_period = 8;
  opts.clock = &clock;
  auto loom = Loom::Open(opts);
  ASSERT_TRUE(loom.ok());
  Loom* l = loom->get();
  auto spec = HistogramSpec::Uniform(0, 1000, 32).value();
  std::vector<uint32_t> ids(kSources + 1, 0);
  for (uint32_t s = 1; s <= kSources; ++s) {
    ASSERT_TRUE(l->DefineSource(s).ok());
    auto idx = l->DefineIndex(s, SeqFunc(), spec);
    ASSERT_TRUE(idx.ok());
    ids[s] = idx.value();
  }
  std::atomic<bool> done{false};
  std::thread ingest([&] {
    for (uint64_t i = 0; i < kRecords; ++i) {
      clock.AdvanceNanos(100'000);
      ASSERT_TRUE(l->Push(static_cast<uint32_t>(i % kSources) + 1, SeqPayload(i)).ok());
    }
    done.store(true);
  });
  std::vector<uint64_t> last(kSources + 1, 0);
  uint64_t rounds = 0;
  while (!done.load()) {
    for (uint32_t s = 1; s <= kSources; ++s) {
      const TimeRange all{0, clock.NowNanos()};
      auto count = l->CountRecords(s, all);
      ASSERT_TRUE(count.ok());
      EXPECT_GE(count.value(), last[s]);
      last[s] = count.value();
      QueryTrace trace;
      auto sum = l->IndexedAggregate(s, ids[s], all, AggregateMethod::kSum, 0.0, &trace);
      ASSERT_TRUE(sum.ok());
      EXPECT_EQ(trace.chunks_pruned + trace.chunks_scanned, trace.chunks_considered);
    }
    ++rounds;
  }
  ingest.join();
  EXPECT_GT(rounds, 0u);
  // Every chunk sealed so far is indexed: a full-range aggregate considers
  // exactly the finalized chunks, each of which holds every source.
  const uint64_t finalized = l->stats().chunks_finalized;
  EXPECT_GT(finalized, 10u);
  for (uint32_t s = 1; s <= kSources; ++s) {
    ASSERT_TRUE(l->Sync(s).ok());
    const TimeRange all{0, clock.NowNanos()};
    auto count = l->CountRecords(s, all);
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(count.value(), kRecords / kSources);
    QueryTrace trace;
    auto agg = l->IndexedAggregate(s, ids[s], all, AggregateMethod::kCount, 0.0, &trace);
    ASSERT_TRUE(agg.ok());
    EXPECT_EQ(agg.value(), static_cast<double>(kRecords / kSources));
    EXPECT_EQ(trace.chunks_considered, finalized);
    EXPECT_EQ(trace.chunks_pruned + trace.chunks_scanned, trace.chunks_considered);
  }
}

}  // namespace
}  // namespace loom
