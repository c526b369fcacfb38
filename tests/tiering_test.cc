// Tiered storage: demotion of retention-expired chunks into zone-mapped
// LOOMEXP1 archives, crash safety of the archive write protocol, and
// transparent cross-tier query federation.
//
// The golden suite pins the tier boundary to be invisible: every query
// operator must return bit-identical results before and after the hot copies
// of demoted chunks are reclaimed.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <set>
#include <thread>

#include "src/common/codec.h"
#include "src/common/file.h"
#include "src/core/loom.h"
#include "src/tier/archive.h"

namespace loom {
namespace {

namespace fs = std::filesystem;

std::vector<uint8_t> ValuePayload(double v) {
  std::vector<uint8_t> buf(48, 0);
  std::memcpy(&buf[0], &v, sizeof(v));
  return buf;
}

Loom::IndexFunc ValueIndex() {
  return [](std::span<const uint8_t> p) -> std::optional<double> {
    if (p.size() < sizeof(double)) {
      return std::nullopt;
    }
    double v;
    std::memcpy(&v, p.data(), sizeof(v));
    return v;
  };
}

struct RawRow {
  uint32_t source;
  TimestampNanos ts;
  uint64_t addr;
  std::vector<uint8_t> payload;

  bool operator==(const RawRow&) const = default;
};

// --- ArchiveWriter crash safety ---------------------------------------------

TEST(ArchiveCrashSafetyTest, AbandonedWriterLeavesNothingBehind) {
  TempDir dir;
  const std::string path = dir.FilePath("a.loomarc");
  {
    auto w = ArchiveWriter::Create(path);
    ASSERT_TRUE(w.ok());
    std::vector<uint8_t> payload(16, 0x5A);
    ArchiveRecord rec{1, 100, 0, payload};
    ASSERT_TRUE(w->AppendBlock(std::span<const ArchiveRecord>(&rec, 1),
                               /*with_addrs=*/false, nullptr)
                    .ok());
    // Everything stages under the ".tmp" sibling; the final path must not
    // exist while the write is in flight.
    EXPECT_TRUE(fs::exists(path + ".tmp"));
    EXPECT_FALSE(fs::exists(path));
  }  // destroyed without Finish: simulated crash/abandon
  EXPECT_FALSE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(ArchiveCrashSafetyTest, FinishPublishesAtomicallyAndRemovesTemp) {
  TempDir dir;
  const std::string path = dir.FilePath("b.loomarc");
  auto w = ArchiveWriter::Create(path);
  ASSERT_TRUE(w.ok());
  std::vector<uint8_t> payload(16, 0x5A);
  ArchiveRecord rec{1, 100, 0, payload};
  ASSERT_TRUE(w->AppendBlock(std::span<const ArchiveRecord>(&rec, 1),
                             /*with_addrs=*/false, nullptr)
                  .ok());
  auto archived = w->Finish();
  ASSERT_TRUE(archived.ok());
  EXPECT_TRUE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  EXPECT_EQ(archived.value(), fs::file_size(path));
}

// --- Truncation diagnostics --------------------------------------------------

class ArchiveTruncationTest : public ::testing::Test {
 protected:
  // A footerless two-block archive (the legacy export layout, where
  // truncation cannot be caught by footer validation at open).
  void SetUp() override {
    path_ = dir_.FilePath("t.loomarc");
    auto w = ArchiveWriter::Create(path_);
    ASSERT_TRUE(w.ok());
    std::vector<uint8_t> payload(32, 0x11);
    for (int b = 0; b < 2; ++b) {
      std::vector<ArchiveRecord> recs;
      for (int i = 0; i < 8; ++i) {
        recs.push_back({1, static_cast<TimestampNanos>(b * 100 + i), 0, payload});
      }
      ASSERT_TRUE(w->AppendBlock(recs, /*with_addrs=*/false, nullptr).ok());
    }
    ASSERT_TRUE(w->Finish().ok());

    // Parse the first block's header to learn the block boundary.
    auto file = File::OpenReadOnly(path_);
    ASSERT_TRUE(file.ok());
    std::vector<uint8_t> header(20);
    ASSERT_TRUE(file->PReadAll(0, header).ok());
    const uint32_t compressed_len = GetU32(header, 16);
    block_boundary_ = 8 + 12 + compressed_len;
    file_size_ = fs::file_size(path_);
    ASSERT_LT(block_boundary_, file_size_);
  }

  size_t ScanCount() const {
    auto reader = ArchiveReader::Open(path_);
    EXPECT_TRUE(reader.ok());
    size_t n = 0;
    scan_status_ = reader->Scan([&](uint32_t, TimestampNanos, std::span<const uint8_t>) {
      ++n;
      return true;
    });
    return n;
  }

  TempDir dir_;
  std::string path_;
  uint64_t block_boundary_ = 0;
  uint64_t file_size_ = 0;
  mutable Status scan_status_ = Status::Ok();
};

TEST_F(ArchiveTruncationTest, TruncationAtBlockBoundaryIsCleanEof) {
  fs::resize_file(path_, block_boundary_);
  EXPECT_EQ(ScanCount(), 8u);  // first block intact, archive simply ends
  EXPECT_TRUE(scan_status_.ok()) << scan_status_.ToString();
}

TEST_F(ArchiveTruncationTest, MidBlockTruncationNamesTheByteOffset) {
  fs::resize_file(path_, file_size_ - 1);
  EXPECT_EQ(ScanCount(), 8u);  // first block still delivered
  EXPECT_EQ(scan_status_.code(), StatusCode::kDataLoss);
  EXPECT_NE(scan_status_.message().find("byte offset " + std::to_string(block_boundary_)),
            std::string::npos)
      << scan_status_.ToString();
}

TEST_F(ArchiveTruncationTest, PartialHeaderTruncationNamesTheByteOffset) {
  fs::resize_file(path_, block_boundary_ + 5);  // 5 of 12 header bytes
  ScanCount();
  EXPECT_EQ(scan_status_.code(), StatusCode::kDataLoss);
  EXPECT_NE(scan_status_.message().find("truncated block header"), std::string::npos);
  EXPECT_NE(scan_status_.message().find("5 of 12"), std::string::npos)
      << scan_status_.ToString();
}

// --- Engine-level tiering ----------------------------------------------------

class TieringTest : public ::testing::Test {
 protected:
  LoomOptions BaseOptions() {
    LoomOptions opts;
    opts.dir = dir_.FilePath("hot");
    opts.archive_dir = dir_.FilePath("cold");
    opts.chunk_size = 1024;
    opts.record_block_size = 4096;
    opts.record_retain_bytes = 32 << 10;
    opts.clock = &clock_;
    return opts;
  }

  void OpenEngine(const LoomOptions& opts) {
    auto loom = Loom::Open(opts);
    ASSERT_TRUE(loom.ok()) << loom.status().ToString();
    loom_ = std::move(loom.value());
    ASSERT_TRUE(loom_->DefineSource(1).ok());
    ASSERT_TRUE(loom_->DefineSource(2).ok());
    auto spec = HistogramSpec::Uniform(0, 100000, 16).value();
    auto idx = loom_->DefineIndex(1, ValueIndex(), spec);
    ASSERT_TRUE(idx.ok());
    index_id_ = idx.value();
  }

  // Pushes `n` records: value i on source 1, every 4th also mirrored to
  // source 2, so archived blocks interleave sources.
  void Ingest(int n) {
    for (int i = 0; i < n; ++i) {
      clock_.AdvanceNanos(100);
      ASSERT_TRUE(loom_->Push(1, ValuePayload(i)).ok());
      if (i % 4 == 0) {
        ASSERT_TRUE(loom_->Push(2, ValuePayload(i)).ok());
      }
    }
    last_ts_ = clock_.NowNanos();
  }

  // Waits for the record-log flusher to quiesce so DesiredRetentionFloor is
  // stable (demotion is driven by flushed bytes, like retention itself).
  void DrainFlusher() {
    const uint64_t full_blocks = loom_->stats().record_log.bytes_appended / 4096;
    for (int spin = 0; spin < 5000 && loom_->stats().record_log.blocks_flushed < full_blocks;
         ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(loom_->stats().record_log.blocks_flushed, full_blocks);
  }

  // Demotes until a pass archives nothing new.
  void DemoteAll() {
    size_t prev;
    do {
      prev = loom_->ArchiveCount();
      ASSERT_TRUE(loom_->DemoteNow().ok());
    } while (loom_->ArchiveCount() != prev);
  }

  std::vector<RawRow> CollectRaw(uint32_t source) {
    std::vector<RawRow> rows;
    EXPECT_TRUE(loom_
                    ->RawScan(source, {0, ~0ULL},
                              [&](const RecordView& r) {
                                rows.push_back({r.source_id, r.ts, r.addr,
                                                {r.payload.begin(), r.payload.end()}});
                                return true;
                              })
                    .ok());
    return rows;
  }

  std::vector<RawRow> CollectIndexedScan(ValueRange v_range) {
    std::vector<RawRow> rows;
    EXPECT_TRUE(loom_
                    ->IndexedScan(1, index_id_, {0, ~0ULL}, v_range,
                                  [&](const RecordView& r) {
                                    rows.push_back({r.source_id, r.ts, r.addr,
                                                    {r.payload.begin(), r.payload.end()}});
                                    return true;
                                  })
                    .ok());
    return rows;
  }

  std::vector<std::pair<double, TimestampNanos>> CollectValues(ValueRange v_range) {
    std::vector<std::pair<double, TimestampNanos>> vals;
    EXPECT_TRUE(loom_
                    ->IndexedScanValues(1, index_id_, {0, ~0ULL}, v_range,
                                        [&](double v, const RecordView& r) {
                                          vals.emplace_back(v, r.ts);
                                          return true;
                                        })
                    .ok());
    return vals;
  }

  double Agg(AggregateMethod m, double percentile = 0.0) {
    auto r = loom_->IndexedAggregate(1, index_id_, {0, ~0ULL}, m, percentile);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r.value() : -1.0;
  }

  TempDir dir_;
  ManualClock clock_{1};
  std::unique_ptr<Loom> loom_;
  uint32_t index_id_ = 0;
  TimestampNanos last_ts_ = 0;
};

TEST_F(TieringTest, DemoteThenQueryBitIdentical) {
  OpenEngine(BaseOptions());
  Ingest(8000);
  DrainFlusher();

  // Golden answers with every record still hot (the retention barrier is
  // pinned at 0 until demotion, so nothing has been dropped).
  const auto raw1 = CollectRaw(1);
  const auto raw2 = CollectRaw(2);
  ASSERT_EQ(raw1.size(), 8000u);
  ASSERT_EQ(raw2.size(), 2000u);
  const auto iscan = CollectIndexedScan({1000, 3000});
  const auto ivals = CollectValues({0, 1e9});
  auto hist = loom_->IndexedHistogram(1, index_id_, {0, ~0ULL});
  ASSERT_TRUE(hist.ok());
  auto count1 = loom_->CountRecords(1, {0, ~0ULL});
  auto count2 = loom_->CountRecords(2, {0, ~0ULL});
  ASSERT_TRUE(count1.ok());
  ASSERT_TRUE(count2.ok());
  const double g_count = Agg(AggregateMethod::kCount);
  const double g_sum = Agg(AggregateMethod::kSum);
  const double g_min = Agg(AggregateMethod::kMin);
  const double g_max = Agg(AggregateMethod::kMax);
  const double g_mean = Agg(AggregateMethod::kMean);
  const double g_p50 = Agg(AggregateMethod::kPercentile, 50);
  const double g_p99 = Agg(AggregateMethod::kPercentile, 99);

  DemoteAll();
  ASSERT_GE(loom_->ArchiveCount(), 1u);
  auto snap = loom_->metrics()->Snapshot();
  EXPECT_GT(snap.counters["loom_tier_demoted_chunks_total"], 0u);
  EXPECT_GT(snap.counters["loom_tier_demoted_records_total"], 0u);
  EXPECT_GT(snap.gauges["loom_tier_retention_barrier_bytes"], 0.0);
  EXPECT_GT(snap.gauges["loom_tier_archived_chunks"], 0.0);

  // The hot copies are gone (retention applied past the barrier), yet every
  // operator answers bit-identically across the tier boundary.
  QueryTrace trace;
  std::vector<RawRow> rows;
  ASSERT_TRUE(loom_
                  ->RawScan(1, {0, ~0ULL},
                            [&](const RecordView& r) {
                              rows.push_back({r.source_id, r.ts, r.addr,
                                              {r.payload.begin(), r.payload.end()}});
                              return true;
                            },
                            &trace)
                  .ok());
  EXPECT_GT(trace.tier_chunks_scanned, 0u);  // the comparison really spans tiers
  EXPECT_EQ(rows, raw1);
  EXPECT_EQ(CollectRaw(2), raw2);
  EXPECT_EQ(CollectIndexedScan({1000, 3000}), iscan);
  EXPECT_EQ(CollectValues({0, 1e9}), ivals);
  auto hist2 = loom_->IndexedHistogram(1, index_id_, {0, ~0ULL});
  ASSERT_TRUE(hist2.ok());
  EXPECT_EQ(hist2.value(), hist.value());
  auto recount1 = loom_->CountRecords(1, {0, ~0ULL});
  auto recount2 = loom_->CountRecords(2, {0, ~0ULL});
  ASSERT_TRUE(recount1.ok());
  ASSERT_TRUE(recount2.ok());
  EXPECT_EQ(recount1.value(), count1.value());
  EXPECT_EQ(recount2.value(), count2.value());
  EXPECT_EQ(Agg(AggregateMethod::kCount), g_count);
  EXPECT_EQ(Agg(AggregateMethod::kSum), g_sum);
  EXPECT_EQ(Agg(AggregateMethod::kMin), g_min);
  EXPECT_EQ(Agg(AggregateMethod::kMax), g_max);
  EXPECT_EQ(Agg(AggregateMethod::kMean), g_mean);
  EXPECT_EQ(Agg(AggregateMethod::kPercentile, 50), g_p50);
  EXPECT_EQ(Agg(AggregateMethod::kPercentile, 99), g_p99);
}

TEST_F(TieringTest, CrossTierTraceInvariantHolds) {
  // 4 KiB chunks hold ~45 source-1 values in one bin, more than a summary
  // lists, so the percentile below has archived chunks to rescan.
  LoomOptions opts = BaseOptions();
  opts.chunk_size = 4096;
  OpenEngine(opts);
  Ingest(8000);
  DrainFlusher();
  DemoteAll();
  ASSERT_GE(loom_->ArchiveCount(), 1u);

  auto check = [](const QueryTrace& t) {
    EXPECT_EQ(t.chunks_pruned + t.chunks_scanned, t.chunks_considered) << t.ToString();
    EXPECT_EQ(t.tier_chunks_pruned + t.tier_chunks_scanned, t.tier_chunks_considered)
        << t.ToString();
    // tier_* counters are subsets of the cross-tier totals.
    EXPECT_LE(t.tier_chunks_considered, t.chunks_considered);
    EXPECT_LE(t.tier_chunks_pruned, t.chunks_pruned);
    EXPECT_LE(t.tier_chunks_scanned, t.chunks_scanned);
    EXPECT_LE(t.tier_chunks_summary_folded, t.tier_chunks_pruned);
    EXPECT_LE(t.chunks_summary_folded, t.chunks_pruned);
    EXPECT_LE(t.tier_bytes_read, t.bytes_read);
  };

  {
    QueryTrace t;
    uint64_t n = 0;
    ASSERT_TRUE(loom_
                    ->RawScan(1, {0, ~0ULL},
                              [&](const RecordView&) {
                                ++n;
                                return true;
                              },
                              &t)
                    .ok());
    EXPECT_EQ(n, 8000u);
    EXPECT_GE(t.tier_archives_consulted, 1u);
    EXPECT_GT(t.tier_chunks_considered, 0u);
    EXPECT_GT(t.tier_chunks_scanned, 0u);
    EXPECT_GT(t.tier_bytes_read, 0u);
    check(t);
  }
  {
    // A query over only the newest records: every archived block is
    // time-disjoint, filtered at plan time, and never enters the counters.
    QueryTrace t;
    ASSERT_TRUE(loom_
                    ->RawScan(1, {last_ts_ - 100 * 100, last_ts_},
                              [&](const RecordView&) { return true; }, &t)
                    .ok());
    EXPECT_EQ(t.tier_chunks_considered, 0u);
    EXPECT_EQ(t.tier_bytes_read, 0u);
    check(t);
  }
  {
    // A value range no record hits: archived blocks are considered but
    // settled by their zone maps alone — pruned without decompression.
    QueryTrace t;
    ASSERT_TRUE(loom_
                    ->IndexedScan(1, index_id_, {0, ~0ULL}, {90000, 95000},
                                  [&](const RecordView&) { return true; }, &t)
                    .ok());
    EXPECT_GT(t.tier_chunks_considered, 0u);
    EXPECT_EQ(t.tier_chunks_scanned, 0u);
    EXPECT_EQ(t.tier_chunks_pruned, t.tier_chunks_considered);
    EXPECT_EQ(t.tier_bytes_read, 0u);
    check(t);
  }
  {
    QueryTrace t;
    auto count = loom_->CountRecords(1, {0, ~0ULL}, &t);
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(count.value(), 8000u);
    // Fully-covered archived blocks answer from their zone maps: folded,
    // never decompressed.
    EXPECT_GT(t.tier_chunks_summary_folded, 0u);
    check(t);
  }
  {
    QueryTrace t;
    auto sum = loom_->IndexedAggregate(1, index_id_, {0, ~0ULL}, AggregateMethod::kSum, 0.0, &t);
    ASSERT_TRUE(sum.ok());
    EXPECT_GT(t.tier_chunks_summary_folded, 0u);
    check(t);
  }
  {
    // Percentile stage 2 reclassifies rescanned archived chunks from folded
    // to scanned; the invariant must survive the reclassification.
    QueryTrace t;
    auto p = loom_->IndexedAggregate(1, index_id_, {0, ~0ULL}, AggregateMethod::kPercentile,
                                     90.0, &t);
    ASSERT_TRUE(p.ok());
    EXPECT_GT(t.tier_chunks_scanned, 0u);
    check(t);
  }
}

TEST_F(TieringTest, EarlyStopDoesNotTouchTheArchiveTier) {
  OpenEngine(BaseOptions());
  Ingest(8000);
  DrainFlusher();
  DemoteAll();
  ASSERT_GE(loom_->ArchiveCount(), 1u);

  // RawScan is newest-first; stopping after a few records must be served
  // entirely from the hot tier.
  QueryTrace t;
  int n = 0;
  ASSERT_TRUE(loom_
                  ->RawScan(1, {0, ~0ULL},
                            [&](const RecordView&) { return ++n < 5; }, &t)
                  .ok());
  EXPECT_EQ(n, 5);
  EXPECT_EQ(t.tier_bytes_read, 0u);
  EXPECT_EQ(t.tier_chunks_scanned, 0u);
}

TEST_F(TieringTest, DemoteNowWithoutDataIsANoOp) {
  OpenEngine(BaseOptions());
  ASSERT_TRUE(loom_->DemoteNow().ok());
  EXPECT_EQ(loom_->ArchiveCount(), 0u);
  // Demoting again after everything eligible is archived adds nothing.
  Ingest(8000);
  DrainFlusher();
  DemoteAll();
  const size_t archives = loom_->ArchiveCount();
  ASSERT_TRUE(loom_->DemoteNow().ok());
  EXPECT_EQ(loom_->ArchiveCount(), archives);
}

TEST_F(TieringTest, ArchiveDirRequiresChunkIndex) {
  LoomOptions opts = BaseOptions();
  opts.enable_chunk_index = false;
  EXPECT_EQ(opts.Validate().code(), StatusCode::kInvalidArgument);
}

TEST_F(TieringTest, OpenSweepsStaleTempsAndQuarantinesCorruptArchives) {
  const std::string cold = dir_.FilePath("cold");
  fs::create_directories(cold);
  {
    auto f = File::CreateTruncate(cold + "/stale.loomarc.tmp");
    ASSERT_TRUE(f.ok());
    std::vector<uint8_t> junk = {1, 2, 3};
    ASSERT_TRUE(f->PWriteAll(0, junk).ok());
  }
  {
    auto f = File::CreateTruncate(cold + "/bad.loomarc");
    ASSERT_TRUE(f.ok());
    std::vector<uint8_t> junk(64, 0xEE);
    ASSERT_TRUE(f->PWriteAll(0, junk).ok());
  }
  {
    auto f = File::CreateTruncate(cold + "/notes.txt");
    ASSERT_TRUE(f.ok());
  }

  OpenEngine(BaseOptions());
  // Interrupted staging files hold nothing the tier promised: removed.
  EXPECT_FALSE(fs::exists(cold + "/stale.loomarc.tmp"));
  // Corrupt archives are quarantined (renamed aside), not served, counted.
  EXPECT_FALSE(fs::exists(cold + "/bad.loomarc"));
  EXPECT_TRUE(fs::exists(cold + "/bad.loomarc.quarantine"));
  // Unrelated files are left alone.
  EXPECT_TRUE(fs::exists(cold + "/notes.txt"));
  EXPECT_EQ(loom_->ArchiveCount(), 0u);
  auto snap = loom_->metrics()->Snapshot();
  EXPECT_EQ(snap.counters["loom_tier_quarantined_total"], 1u);
}

TEST_F(TieringTest, ForeignIntactArchivesAreNotServed) {
  OpenEngine(BaseOptions());
  Ingest(8000);
  DrainFlusher();
  DemoteAll();
  ASSERT_GE(loom_->ArchiveCount(), 1u);
  loom_.reset();

  size_t archives_on_disk = 0;
  for (const auto& entry : fs::directory_iterator(dir_.FilePath("cold"))) {
    if (entry.path().string().ends_with(".loomarc")) {
      ++archives_on_disk;
    }
  }
  ASSERT_GE(archives_on_disk, 1u);

  // A fresh engine incarnation starts a new log address space: the previous
  // run's archives are probed (intact, so not quarantined) but not served.
  OpenEngine(BaseOptions());
  EXPECT_EQ(loom_->ArchiveCount(), 0u);
  auto snap = loom_->metrics()->Snapshot();
  EXPECT_EQ(snap.counters["loom_tier_quarantined_total"], 0u);
  size_t still_on_disk = 0;
  for (const auto& entry : fs::directory_iterator(dir_.FilePath("cold"))) {
    if (entry.path().string().ends_with(".loomarc")) {
      ++still_on_disk;
    }
  }
  EXPECT_EQ(still_on_disk, archives_on_disk);
}

TEST_F(TieringTest, BackgroundDemoterArchivesWhileQueriesRun) {
  LoomOptions opts = BaseOptions();
  opts.demote_interval_ms = 1;
  OpenEngine(opts);

  // Queries hammer both tiers while ingest drives retention pressure and the
  // background demoter moves the boundary under them.
  std::atomic<bool> stop{false};
  std::thread querier([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto count = loom_->CountRecords(1, {0, ~0ULL});
      EXPECT_TRUE(count.ok());
      QueryTrace t;
      uint64_t n = 0;
      EXPECT_TRUE(loom_
                      ->RawScan(1, {0, ~0ULL},
                                [&](const RecordView&) {
                                  ++n;
                                  return true;
                                },
                                &t)
                      .ok());
      EXPECT_EQ(t.chunks_pruned + t.chunks_scanned, t.chunks_considered);
      EXPECT_EQ(t.tier_chunks_pruned + t.tier_chunks_scanned, t.tier_chunks_considered);
    }
  });

  Ingest(12000);
  for (int spin = 0; spin < 10000 && loom_->ArchiveCount() == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_relaxed);
  querier.join();
  EXPECT_GE(loom_->ArchiveCount(), 1u);

  // Once demotion quiesces, nothing was lost: the count is exact across
  // whatever boundary the demoter settled on.
  DrainFlusher();
  DemoteAll();
  auto count = loom_->CountRecords(1, {0, ~0ULL});
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), 12000u);
  auto raw = CollectRaw(1);
  EXPECT_EQ(raw.size(), 12000u);
}

// A demotion pass that lands mid-query must not move the tier boundary under
// the query: the query pinned the retention floor, both tiers split where it
// stood, and every record arrives exactly once. Each callback demotes one
// more chunk, so the passes overtake the newest-first walk.
TEST_F(TieringTest, DemotionDuringRawScanDeliversEveryRecordOnce) {
  LoomOptions opts = BaseOptions();
  opts.demote_batch_chunks = 1;
  OpenEngine(opts);
  Ingest(8000);
  DrainFlusher();
  std::set<uint64_t> unique;
  uint64_t delivered = 0;
  ASSERT_TRUE(loom_
                  ->RawScan(1, {0, ~0ULL},
                            [&](const RecordView& r) {
                              ++delivered;
                              unique.insert(r.addr);
                              EXPECT_TRUE(loom_->DemoteNow().ok());
                              return true;
                            })
                  .ok());
  EXPECT_GE(loom_->ArchiveCount(), 1u);
  EXPECT_EQ(delivered, 8000u);
  EXPECT_EQ(unique.size(), 8000u);
}

// The same for an oldest-first operator: hot chunks the passes demote while
// the query runs stay readable until it ends, so none is dropped.
TEST_F(TieringTest, DemotionDuringIndexedScanDeliversEveryRecordOnce) {
  LoomOptions opts = BaseOptions();
  opts.demote_batch_chunks = 1;
  OpenEngine(opts);
  Ingest(8000);
  DrainFlusher();
  std::set<uint64_t> unique;
  uint64_t delivered = 0;
  ASSERT_TRUE(loom_
                  ->IndexedScan(1, index_id_, {0, ~0ULL}, {0, 1e9},
                                [&](const RecordView& r) {
                                  ++delivered;
                                  unique.insert(r.addr);
                                  EXPECT_TRUE(loom_->DemoteNow().ok());
                                  return true;
                                })
                  .ok());
  EXPECT_GE(loom_->ArchiveCount(), 1u);
  EXPECT_EQ(delivered, 8000u);
  EXPECT_EQ(unique.size(), 8000u);
}

TEST_F(TieringTest, WithoutArchiveDirRetentionStaysLossy) {
  LoomOptions opts = BaseOptions();
  opts.archive_dir.clear();
  OpenEngine(opts);
  Ingest(8000);
  DrainFlusher();
  ASSERT_TRUE(loom_->DemoteNow().ok());  // no-op without a tier
  EXPECT_EQ(loom_->ArchiveCount(), 0u);
  auto count = loom_->CountRecords(1, {0, ~0ULL});
  ASSERT_TRUE(count.ok());
  EXPECT_LT(count.value(), 8000u);  // retention dropped the old chunks
}

}  // namespace
}  // namespace loom
