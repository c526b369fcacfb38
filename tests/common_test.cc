#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/common/codec.h"
#include "src/common/file.h"
#include "src/common/rng.h"
#include "src/common/spsc_queue.h"
#include "src/common/status.h"

namespace loom {
namespace {

// --- Status / Result ---------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::IoError("disk on fire");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_EQ(st.message(), "disk on fire");
  EXPECT_EQ(st.ToString(), "IO_ERROR: disk on fire");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kUnavailable); ++c) {
    EXPECT_FALSE(StatusCodeName(static_cast<StatusCode>(c)).empty());
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

// --- Clock --------------------------------------------------------------------

TEST(ClockTest, MonotonicNeverGoesBackwards) {
  MonotonicClock clock;
  TimestampNanos prev = clock.NowNanos();
  for (int i = 0; i < 1000; ++i) {
    TimestampNanos now = clock.NowNanos();
    EXPECT_GE(now, prev);
    prev = now;
  }
}

TEST(ClockTest, ManualClockAdvances) {
  ManualClock clock(100);
  EXPECT_EQ(clock.NowNanos(), 100u);
  clock.AdvanceNanos(50);
  EXPECT_EQ(clock.NowNanos(), 150u);
  clock.SetNanos(1000);
  EXPECT_EQ(clock.NowNanos(), 1000u);
}

// --- Rng ------------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next64(), b.Next64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next64() == b.Next64()) {
      ++same;
    }
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BoundedStaysInBound) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, ExponentialMeanRoughlyCorrect) {
  Rng rng(11);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    double v = rng.NextExponential(5.0);
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum / n, 5.0, 0.2);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  double sum = 0;
  double sq = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    double v = rng.NextGaussian();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, LogNormalMedian) {
  Rng rng(17);
  std::vector<double> vals;
  const int n = 50001;
  vals.reserve(n);
  for (int i = 0; i < n; ++i) {
    vals.push_back(rng.NextLogNormal(10.0, 0.5));
  }
  std::nth_element(vals.begin(), vals.begin() + n / 2, vals.end());
  EXPECT_NEAR(vals[n / 2], 10.0, 0.5);
}

TEST(RngTest, BernoulliProbability) {
  Rng rng(19);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextBernoulli(0.25)) {
      ++hits;
    }
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
}

TEST(ZipfTest, SkewsTowardLowKeys) {
  ZipfSampler zipf(1000, 0.99, 23);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 100000; ++i) {
    uint64_t k = zipf.Next();
    ASSERT_LT(k, 1000u);
    counts[k]++;
  }
  // Key 0 should be sampled far more than key 999.
  EXPECT_GT(counts[0], counts[999] * 10);
}

// --- SpscQueue ---------------------------------------------------------------------

TEST(SpscQueueTest, PushPopSingleThread) {
  SpscQueue<int> q(8);
  EXPECT_FALSE(q.TryPop().has_value());
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_EQ(q.SizeApprox(), 2u);
  EXPECT_EQ(q.TryPop().value(), 1);
  EXPECT_EQ(q.TryPop().value(), 2);
  EXPECT_FALSE(q.TryPop().has_value());
}

TEST(SpscQueueTest, FullQueueRejectsPush) {
  SpscQueue<int> q(4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(q.TryPush(i));
  }
  EXPECT_FALSE(q.TryPush(99));
  EXPECT_EQ(q.TryPop().value(), 0);
  EXPECT_TRUE(q.TryPush(99));
}

TEST(SpscQueueTest, WrapsAround) {
  SpscQueue<int> q(4);
  for (int round = 0; round < 100; ++round) {
    EXPECT_TRUE(q.TryPush(round));
    EXPECT_EQ(q.TryPop().value(), round);
  }
}

TEST(SpscQueueTest, TwoThreadsTransferAllItems) {
  SpscQueue<uint64_t> q(64);
  constexpr uint64_t kItems = 200000;
  uint64_t consumer_sum = 0;
  std::thread consumer([&] {
    uint64_t received = 0;
    while (received < kItems) {
      auto item = q.TryPop();
      if (item.has_value()) {
        consumer_sum += *item;
        ++received;
      }
    }
  });
  uint64_t producer_sum = 0;
  for (uint64_t i = 0; i < kItems; ++i) {
    while (!q.TryPush(i)) {
      std::this_thread::yield();
    }
    producer_sum += i;
  }
  consumer.join();
  EXPECT_EQ(consumer_sum, producer_sum);
}

// --- File -------------------------------------------------------------------------

TEST(FileTest, WriteReadRoundTrip) {
  TempDir dir;
  auto file = File::CreateTruncate(dir.FilePath("t.bin"));
  ASSERT_TRUE(file.ok());
  std::vector<uint8_t> data = {1, 2, 3, 4, 5};
  ASSERT_TRUE(file->PWriteAll(0, data).ok());
  std::vector<uint8_t> out(5);
  ASSERT_TRUE(file->PReadAll(0, out).ok());
  EXPECT_EQ(out, data);
}

TEST(FileTest, PositionalWritesDoNotInterfere) {
  TempDir dir;
  auto file = File::CreateTruncate(dir.FilePath("t.bin"));
  ASSERT_TRUE(file.ok());
  std::vector<uint8_t> a(10, 0xAA);
  std::vector<uint8_t> b(10, 0xBB);
  ASSERT_TRUE(file->PWriteAll(100, b).ok());
  ASSERT_TRUE(file->PWriteAll(0, a).ok());
  std::vector<uint8_t> out(10);
  ASSERT_TRUE(file->PReadAll(100, out).ok());
  EXPECT_EQ(out, b);
  ASSERT_TRUE(file->PReadAll(0, out).ok());
  EXPECT_EQ(out, a);
  EXPECT_EQ(file->Size().value(), 110u);
}

TEST(FileTest, ReadPastEofFails) {
  TempDir dir;
  auto file = File::CreateTruncate(dir.FilePath("t.bin"));
  ASSERT_TRUE(file.ok());
  std::vector<uint8_t> out(10);
  Status st = file->PReadAll(0, out);
  EXPECT_FALSE(st.ok());
}

TEST(FileTest, OpenMissingFileFails) {
  TempDir dir;
  auto file = File::OpenReadOnly(dir.FilePath("missing.bin"));
  EXPECT_FALSE(file.ok());
  EXPECT_EQ(file.status().code(), StatusCode::kIoError);
}

TEST(FileTest, ClosedFileRejectsOps) {
  TempDir dir;
  auto file = File::CreateTruncate(dir.FilePath("t.bin"));
  ASSERT_TRUE(file.ok());
  file->Close();
  std::vector<uint8_t> buf(1);
  EXPECT_EQ(file->PWriteAll(0, buf).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(file->PReadAll(0, buf).code(), StatusCode::kFailedPrecondition);
}

TEST(TempDirTest, CreatesUsableDirectory) {
  std::string path;
  {
    TempDir dir;
    path = dir.path();
    auto file = File::CreateTruncate(dir.FilePath("x"));
    EXPECT_TRUE(file.ok());
  }
  // Removed on destruction.
  auto reopened = File::OpenReadOnly(path + "/x");
  EXPECT_FALSE(reopened.ok());
}

// --- Codec ---------------------------------------------------------------------------

TEST(CodecTest, U32RoundTrip) {
  std::vector<uint8_t> buf;
  PutU32(buf, 0xDEADBEEF);
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_EQ(GetU32(buf, 0), 0xDEADBEEFu);
}

TEST(CodecTest, U64RoundTrip) {
  std::vector<uint8_t> buf;
  PutU64(buf, 0x0123456789ABCDEFULL);
  EXPECT_EQ(GetU64(buf, 0), 0x0123456789ABCDEFULL);
}

TEST(CodecTest, F64RoundTrip) {
  std::vector<uint8_t> buf;
  PutF64(buf, -1234.5678);
  EXPECT_EQ(GetF64(buf, 0), -1234.5678);
}

TEST(CodecTest, LittleEndianLayout) {
  std::vector<uint8_t> buf;
  PutU32(buf, 0x01020304);
  EXPECT_EQ(buf[0], 0x04);
  EXPECT_EQ(buf[3], 0x01);
}

TEST(CodecTest, InPlaceStoreLoad) {
  uint8_t buf[8];
  StoreU64(buf, 42);
  EXPECT_EQ(LoadU64(buf), 42u);
  StoreU32(buf, 7);
  EXPECT_EQ(LoadU32(buf), 7u);
}

}  // namespace
}  // namespace loom
