// Retention: bounded disk footprint for the record log. Old blocks are
// dropped (and hole-punched where supported); queries cleanly return the
// retained suffix of the data.

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <thread>

#include "src/common/file.h"
#include "src/core/loom.h"
#include "src/hybridlog/hybrid_log.h"

namespace loom {
namespace {

std::vector<uint8_t> ValuePayload(double v) {
  std::vector<uint8_t> buf(48, 0);
  std::memcpy(&buf[0], &v, sizeof(v));
  return buf;
}

TEST(HybridLogRetentionTest, FloorAdvancesAndOldReadsFail) {
  TempDir dir;
  HybridLogOptions opts;
  opts.block_size = 1024;
  opts.retain_bytes = 4096;  // rounded up to >= (num_blocks+1)*block = 3072
  auto log = HybridLog::Create(dir.FilePath("log"), opts);
  ASSERT_TRUE(log.ok());
  std::vector<uint8_t> cell(256, 0xAB);
  // Write 64 KiB: far more than the retained window.
  for (int i = 0; i < 256; ++i) {
    ASSERT_TRUE((*log)->Append(cell).ok());
  }
  (*log)->Publish();
  // Wait for the flusher to go quiet: it has flushed every block the writer
  // handed it (all but the tail's block) and applied retention for them.
  // Sampling the floor earlier races the flusher, which may retire the
  // sampled floor before Read(floor) below.
  const uint64_t handed = ((*log)->queryable_tail() - 1) / opts.block_size * opts.block_size;
  for (int spin = 0; spin < 10000 && ((*log)->flushed_tail() < handed ||
                                      (*log)->retained_floor() != (*log)->DesiredRetentionFloor());
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE((*log)->flushed_tail(), handed);
  const uint64_t floor = (*log)->retained_floor();
  ASSERT_EQ(floor, (*log)->DesiredRetentionFloor());
  EXPECT_GT(floor, 0u);
  EXPECT_EQ(floor % opts.block_size, 0u);  // block-aligned

  std::vector<uint8_t> out(256);
  EXPECT_EQ((*log)->Read(0, out).code(), StatusCode::kOutOfRange);
  // Retained data still reads fine.
  ASSERT_TRUE((*log)->Read(floor, out).ok());
  EXPECT_EQ(out, cell);
  // Tail is always retained.
  ASSERT_TRUE((*log)->Read((*log)->queryable_tail() - 256, out).ok());
  EXPECT_EQ(out, cell);
}

// Readers whose pins overlap without a gap must not stall retention: each
// pins where retention is headed, so as the older reader unpins, the floor
// advances to the newer reader's pin although some pin is held throughout.
TEST(HybridLogRetentionTest, OverlappingPinsDoNotStallRetention) {
  TempDir dir;
  HybridLogOptions opts;
  opts.block_size = 1024;
  opts.retain_bytes = 4096;
  auto log = HybridLog::Create(dir.FilePath("log"), opts);
  ASSERT_TRUE(log.ok());
  std::vector<uint8_t> cell(256, 0xAB);
  // Appends 16 KiB (4x the retained window) and waits until the flusher has
  // written every full block, so the pin below sees where retention is headed.
  const auto ingest = [&] {
    for (int i = 0; i < 64; ++i) {
      ASSERT_TRUE((*log)->Append(cell).ok());
    }
    (*log)->Publish();
    const uint64_t handed = ((*log)->queryable_tail() - 1) / opts.block_size * opts.block_size;
    for (int spin = 0; spin < 5000 && (*log)->flushed_tail() < handed; ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_GE((*log)->flushed_tail(), handed);
  };
  uint64_t held = (*log)->PinFloor();
  for (int round = 0; round < 4; ++round) {
    ingest();
    const uint64_t floor = (*log)->retained_floor();
    EXPECT_LE(floor, held) << "round " << round;  // the pin holds retention back
    const uint64_t next = (*log)->PinFloor();      // the next reader starts...
    EXPECT_GT(next, floor) << "round " << round;
    (*log)->UnpinFloor(held);  // ...before the older one ends
    // The flusher applies the held-back retention on its own, ingest paused.
    for (int spin = 0; spin < 5000 && (*log)->retained_floor() < next; ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ((*log)->retained_floor(), next) << "round " << round;
    held = next;
  }
  (*log)->UnpinFloor(held);
}

TEST(HybridLogRetentionTest, DisabledByDefault) {
  TempDir dir;
  HybridLogOptions opts;
  opts.block_size = 512;
  auto log = HybridLog::Create(dir.FilePath("log"), opts);
  ASSERT_TRUE(log.ok());
  std::vector<uint8_t> cell(128, 1);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE((*log)->Append(cell).ok());
  }
  (*log)->Publish();
  EXPECT_EQ((*log)->retained_floor(), 0u);
  std::vector<uint8_t> out(128);
  EXPECT_TRUE((*log)->Read(0, out).ok());
}

class LoomRetentionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    LoomOptions opts;
    opts.dir = dir_.FilePath("loom");
    opts.chunk_size = 1024;
    opts.record_block_size = 4096;
    opts.record_retain_bytes = 32 << 10;  // keep the newest ~32 KiB of records
    opts.clock = &clock_;
    auto loom = Loom::Open(opts);
    ASSERT_TRUE(loom.ok());
    loom_ = std::move(loom.value());
    ASSERT_TRUE(loom_->DefineSource(1).ok());
    auto spec = HistogramSpec::Uniform(0, 100000, 16).value();
    auto idx = loom_->DefineIndex(
        1,
        [](std::span<const uint8_t> p) -> std::optional<double> {
          if (p.size() < sizeof(double)) {
            return std::nullopt;
          }
          double v;
          std::memcpy(&v, p.data(), sizeof(v));
          return v;
        },
        spec);
    ASSERT_TRUE(idx.ok());
    index_id_ = idx.value();
  }

  TempDir dir_;
  ManualClock clock_{1};
  std::unique_ptr<Loom> loom_;
  uint32_t index_id_ = 0;
};

TEST_F(LoomRetentionTest, QueriesReturnRetainedSuffix) {
  constexpr int kRecords = 10000;  // ~720 KiB of records, >> 32 KiB retained
  for (int i = 0; i < kRecords; ++i) {
    clock_.AdvanceNanos(100);
    ASSERT_TRUE(loom_->Push(1, ValuePayload(i)).ok());
  }
  // Let the flusher fully quiesce: the queries below each take their own
  // snapshot, so retention must not advance between the raw scan and the
  // aggregates it is compared against. Ingest is done, so the flusher owes
  // exactly one flush per full block (the active partial block stays in
  // memory); once blocks_flushed reaches that count, no further retention
  // movement is possible. One extra sleep covers the instant between the
  // final flush being counted and its floor advance landing.
  const uint64_t full_blocks = loom_->stats().record_log.bytes_appended / 4096;
  ASSERT_GE(full_blocks, 150u);  // >> the 8-block retained window
  for (int spin = 0; spin < 2000 && loom_->stats().record_log.blocks_flushed < full_blocks;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(loom_->stats().record_log.blocks_flushed, full_blocks);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));

  // Raw scan over all time returns a dense suffix ending at the newest
  // record; the oldest records are gone.
  std::vector<double> seen;
  ASSERT_TRUE(loom_->RawScan(1, {0, ~0ULL},
                             [&](const RecordView& r) {
                               double v;
                               std::memcpy(&v, r.payload.data(), sizeof(v));
                               seen.push_back(v);
                               return true;
                             })
                  .ok());
  ASSERT_FALSE(seen.empty());
  EXPECT_LT(seen.size(), static_cast<size_t>(kRecords));  // retention dropped data
  EXPECT_EQ(seen.front(), kRecords - 1.0);                // newest first
  // Dense: consecutive descending values.
  for (size_t i = 1; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], seen[i - 1] - 1.0);
  }

  // Indexed queries agree with the raw suffix.
  auto count = loom_->IndexedAggregate(1, index_id_, {0, ~0ULL}, AggregateMethod::kCount);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), static_cast<double>(seen.size()));
  auto max = loom_->IndexedAggregate(1, index_id_, {0, ~0ULL}, AggregateMethod::kMax);
  ASSERT_TRUE(max.ok());
  EXPECT_EQ(max.value(), kRecords - 1.0);
  auto min = loom_->IndexedAggregate(1, index_id_, {0, ~0ULL}, AggregateMethod::kMin);
  ASSERT_TRUE(min.ok());
  EXPECT_EQ(min.value(), seen.back());

  auto counted = loom_->CountRecords(1, {0, ~0ULL});
  ASSERT_TRUE(counted.ok());
  EXPECT_EQ(counted.value(), seen.size());
}

// Two query threads whose queries always overlap: each holds its scan open
// (blocked in its first callback, pin held) until the other's has started,
// so some query pins the floor at every moment. Retention must still keep
// pace with ingest.
TEST_F(LoomRetentionTest, OverlappingQueriesDoNotStallRetention) {
  // A RawScan on its own thread, held open (blocked in its first callback,
  // its floor pinned) until the object is destroyed.
  class OpenQuery {
   public:
    explicit OpenQuery(Loom* loom) {
      std::shared_future<void> release = release_.get_future().share();
      thread_ = std::thread([this, loom, release] {
        bool first = true;
        EXPECT_TRUE(loom->RawScan(1, {0, ~0ULL},
                                  [&](const RecordView&) {
                                    if (first) {
                                      first = false;
                                      started_.set_value();
                                      release.wait();
                                    }
                                    return true;
                                  })
                        .ok());
      });
      started_.get_future().wait();
    }
    ~OpenQuery() {
      release_.set_value();
      thread_.join();
    }
    OpenQuery(const OpenQuery&) = delete;
    OpenQuery& operator=(const OpenQuery&) = delete;

   private:
    std::promise<void> started_;
    std::promise<void> release_;
    std::thread thread_;
  };
  int next_value = 0;
  // Pushes `n` records and waits for the flusher to write every full block.
  const auto ingest = [&](int n) {
    for (int i = 0; i < n; ++i) {
      clock_.AdvanceNanos(100);
      ASSERT_TRUE(loom_->Push(1, ValuePayload(next_value++)).ok());
    }
    const uint64_t full_blocks = loom_->stats().record_log.bytes_appended / 4096;
    for (int spin = 0; spin < 5000 && loom_->stats().record_log.blocks_flushed < full_blocks;
         ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(loom_->stats().record_log.blocks_flushed, full_blocks);
  };

  ingest(2000);  // ~144 KiB, well past the 32 KiB window
  auto held = std::make_unique<OpenQuery>(loom_.get());
  for (int round = 0; round < 4; ++round) {
    ingest(2000);
    const uint64_t floor = loom_->stats().record_log.retained_floor;
    auto next = std::make_unique<OpenQuery>(loom_.get());
    held = std::move(next);  // the older query ends only after the next started
    for (int spin = 0; spin < 5000 && loom_->stats().record_log.retained_floor <= floor; ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_GT(loom_->stats().record_log.retained_floor, floor) << "round " << round;
  }
}

TEST_F(LoomRetentionTest, RecentWindowUnaffectedByRetention) {
  std::vector<TimestampNanos> stamps;
  for (int i = 0; i < 10000; ++i) {
    clock_.AdvanceNanos(100);
    ASSERT_TRUE(loom_->Push(1, ValuePayload(i)).ok());
    stamps.push_back(clock_.NowNanos());
  }
  // A query over the newest 200 records is entirely inside the retained
  // window and must be complete.
  const TimeRange recent{stamps[9800], stamps[9999]};
  uint64_t raw = 0;
  ASSERT_TRUE(loom_->RawScan(1, recent, [&](const RecordView&) {
                ++raw;
                return true;
              }).ok());
  EXPECT_EQ(raw, 200u);
  std::vector<double> values;
  ASSERT_TRUE(loom_->IndexedScan(1, index_id_, recent, {9900, 9949},
                                 [&](const RecordView& r) {
                                   double v;
                                   std::memcpy(&v, r.payload.data(), sizeof(v));
                                   values.push_back(v);
                                   return true;
                                 })
                  .ok());
  EXPECT_EQ(values.size(), 50u);
}

}  // namespace
}  // namespace loom
