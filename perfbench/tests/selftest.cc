// Self-tests of the benchmark's own machinery: the percentile helper, the
// brute-force reference, input determinism and the query checks.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>

#include "perfbench/src/harness.h"

namespace perfbench {
namespace {

TEST(PercentileTest, NearestRankOnKnownSamples) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) {
    v.push_back(i);
  }
  EXPECT_EQ(Percentile(v, 50), 50);
  EXPECT_EQ(Percentile(v, 95), 95);
  EXPECT_EQ(Percentile(v, 99), 99);
  EXPECT_EQ(Percentile(v, 99.99), 100);
  EXPECT_EQ(Percentile(v, 100), 100);
  EXPECT_EQ(Percentile(v, 0.5), 1);
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2);
  EXPECT_EQ(Percentile({7}, 99), 7);
  EXPECT_TRUE(std::isnan(Percentile({}, 50)));
  EXPECT_EQ(Max({3, 9, 1}), 9);
  EXPECT_EQ(Min({3, 9, 1}), 1);
  EXPECT_TRUE(std::isnan(Max({})));
  EXPECT_TRUE(std::isnan(Min({})));
}

template <typename T>
void Append(Stream* s, uint32_t source, const T& rec) {
  const size_t off = s->bytes.size();
  s->bytes.resize(off + sizeof(T));
  std::memcpy(s->bytes.data() + off, &rec, sizeof(T));
  s->source.push_back(source);
  s->payload_bytes += sizeof(T);
}

// Three batches: two app records at t=10, one sendto + one recv at t=20, two
// packets (one mangled) at t=30.
Stream TinyStream() {
  Stream s;
  loom::AppRecord a;
  a.latency_us = 5;
  Append(&s, loom::kAppSource, a);
  a.latency_us = 50;
  Append(&s, loom::kAppSource, a);
  loom::SyscallRecord sc;
  sc.syscall_id = loom::kSyscallSendto;
  sc.latency_us = kSlowSendtoUs + 1;
  Append(&s, loom::kSyscallSource, sc);
  sc.syscall_id = loom::kSyscallRecv;
  sc.latency_us = 90;
  Append(&s, loom::kSyscallSource, sc);
  loom::PacketHeader p;
  p.len = sizeof(p);
  p.dport = loom::kRedisPort;
  Append(&s, loom::kPacketSource, p);
  p.dport = loom::kMangledPort;
  Append(&s, loom::kPacketSource, p);
  size_t off = 0;
  for (uint32_t src : s.source) {
    const size_t len = src == loom::kPacketSource ? sizeof(loom::PacketHeader) : 48;
    s.payloads.emplace_back(s.bytes.data() + off, len);
    off += len;
  }
  s.batches = {{loom::kAppSource, 0, 2, 10}, {loom::kSyscallSource, 2, 2, 20},
               {loom::kPacketSource, 4, 2, 30}};
  return s;
}

TEST(ReferenceTest, AnswersTinyHandBuiltStream) {
  const Stream s = TinyStream();
  const Reference ref(s);
  EXPECT_EQ(ref.Count(loom::kAppSource, {0, 100}), 2u);
  EXPECT_EQ(ref.Count(loom::kAppSource, {11, 100}), 0u);
  EXPECT_EQ(ref.Count(loom::kSyscallSource, {20, 20}), 2u);
  EXPECT_EQ(ref.Values(0, {0, 100}), (std::vector<double>{5, 50}));
  EXPECT_EQ(ref.Values(1, {0, 100}), (std::vector<double>{kSlowSendtoUs + 1, 90}));
  EXPECT_EQ(ref.Values(2, {0, 100}), (std::vector<double>{kSlowSendtoUs + 1}));  // sendto only
  EXPECT_EQ(ref.CountAtLeast(0, {0, 100}, 50), 1u);
  EXPECT_EQ(ref.CountAtLeast(2, {0, 100}, kSlowSendtoUs), 1u);
  EXPECT_EQ(ref.CountEqual(3, {0, 100}, loom::kMangledPort), 1u);
  EXPECT_EQ(ref.CountEqual(3, {0, 29}, loom::kMangledPort), 0u);

  QueryOutcome out;
  out.ok = true;
  out.value = 50;
  EXPECT_TRUE(MatchesReference(ref, Query{QueryKind::kMaxApp, 1, {0, 100}}, out));
  out.value = 5;
  EXPECT_FALSE(MatchesReference(ref, Query{QueryKind::kMaxApp, 1, {0, 100}}, out));
  out.count = 1;
  EXPECT_TRUE(MatchesReference(ref, Query{QueryKind::kMangledPackets, 3, {0, 100}}, out));
  out.ok = false;
  EXPECT_FALSE(MatchesReference(ref, Query{QueryKind::kMangledPackets, 3, {0, 100}}, out));
}

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("perfbench_selftest_" + std::to_string(::getpid()));
    std::filesystem::create_directories(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  // Ingests `s` on its virtual timeline and answers `queries`.
  std::vector<QueryOutcome> IngestAndQuery(const Stream& s, const std::vector<Query>& queries,
                                           const std::string& name) {
    loom::ManualClock clock(1);
    loom::LoomOptions lo;
    lo.dir = (root_ / name).string();
    lo.clock = &clock;
    auto engine = loom::Loom::Open(lo);
    EXPECT_TRUE(engine.ok());
    Indexes idx;
    EXPECT_TRUE(DefineRedisSchema(engine.value().get(), &idx).ok());
    for (const Stream::Batch& b : s.batches) {
      clock.SetNanos(b.ts);
      EXPECT_TRUE(engine.value()->PushBatch(b.source, s.BatchPayloads(b)).ok());
    }
    for (uint32_t src : {1u, 2u, 3u}) {
      EXPECT_TRUE(engine.value()->Sync(src).ok());
    }
    std::vector<QueryOutcome> out;
    for (const Query& q : queries) {
      out.push_back(RunQuery(*engine.value(), idx, q, true, nullptr, 0));
    }
    return out;
  }

  std::filesystem::path root_;
};

std::vector<Query> QueriesOver(const Stream& s) {
  std::vector<Query> qs;
  const loom::TimeRange p3{s.phase_start[3], s.phase_end[3]};
  const loom::TimeRange p23{s.phase_start[2] + 1'000'000'000, s.phase_end[3] - 2'000'000'000};
  for (loom::TimeRange w : {p3, p23}) {
    for (QueryKind k : {QueryKind::kMaxApp, QueryKind::kP9999App, QueryKind::kP99Sendto,
                        QueryKind::kSlowRequests, QueryKind::kSlowSendto,
                        QueryKind::kMangledPackets, QueryKind::kPacketDump}) {
      qs.push_back(Query{k, loom::kAppSource, w});
    }
    for (uint32_t src : {1u, 2u, 3u}) {
      qs.push_back(Query{QueryKind::kCountSource, src, w});
    }
  }
  return qs;
}

TEST_F(EngineTest, TinyHandBuiltStreamMatchesReference) {
  const Stream s = TinyStream();
  const Reference ref(s);
  std::vector<Query> qs;
  for (QueryKind k : {QueryKind::kMaxApp, QueryKind::kP9999App, QueryKind::kP99Sendto,
                      QueryKind::kSlowRequests, QueryKind::kSlowSendto,
                      QueryKind::kMangledPackets, QueryKind::kPacketDump}) {
    qs.push_back(Query{k, loom::kAppSource, {0, 100}});
  }
  qs.push_back(Query{QueryKind::kCountSource, loom::kSyscallSource, {15, 25}});
  const std::vector<QueryOutcome> out = IngestAndQuery(s, qs, "tiny");
  for (size_t i = 0; i < qs.size(); ++i) {
    EXPECT_TRUE(MatchesReference(ref, qs[i], out[i])) << "query " << i;
    EXPECT_TRUE(out[i].invariant_ok);
  }
}

TEST_F(EngineTest, EngineMatchesReferenceOnGeneratedStream) {
  const Stream s = BuildRedisStream(5, 0.001);
  const Reference ref(s);
  const std::vector<Query> qs = QueriesOver(s);
  const std::vector<QueryOutcome> out = IngestAndQuery(s, qs, "generated");
  for (size_t i = 0; i < qs.size(); ++i) {
    EXPECT_TRUE(MatchesReference(ref, qs[i], out[i])) << "query " << i;
    EXPECT_TRUE(out[i].invariant_ok) << "query " << i;
  }
  EXPECT_EQ(ref.CountEqual(3, {s.phase_start[3], s.phase_end[3]}, loom::kMangledPort), 6u);
}

TEST_F(EngineTest, SameSeedGivesIdenticalInputAndAnswers) {
  const Stream a = BuildRedisStream(7, 0.001);
  const Stream b = BuildRedisStream(7, 0.001);
  ASSERT_EQ(a.bytes, b.bytes);
  ASSERT_EQ(a.source, b.source);
  ASSERT_EQ(a.batches.size(), b.batches.size());
  for (size_t i = 0; i < a.batches.size(); ++i) {
    EXPECT_EQ(a.batches[i].ts, b.batches[i].ts);
    EXPECT_EQ(a.batches[i].count, b.batches[i].count);
    EXPECT_LE(a.batches[i].count, kMaxBatch);
  }
  EXPECT_NE(a.bytes, BuildRedisStream(8, 0.001).bytes);

  const std::vector<Query> qs = QueriesOver(a);
  const std::vector<QueryOutcome> ra = IngestAndQuery(a, qs, "a");
  const std::vector<QueryOutcome> rb = IngestAndQuery(b, qs, "b");
  for (size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(ra[i].value, rb[i].value) << "query " << i;
    EXPECT_EQ(ra[i].count, rb[i].count) << "query " << i;
  }
}

TEST(SlicedSamplesTest, PercentilePerSliceSkipsThinSlices) {
  SlicedSamples s;
  for (int i = 1; i <= 100; ++i) {
    s.Add(0, i);
    s.Add(2, 1000 + i);
  }
  s.Add(3, 7);  // too few samples to count
  EXPECT_EQ(s.size(), 201u);
  EXPECT_EQ(s.PerSlice(50, 10), (std::vector<double>{50, 1050}));
  EXPECT_EQ(s.PerSlice(95, 1), (std::vector<double>{95, 1095, 7}));

  SlicedSamples merged;
  merged.Add(1, 3);
  merged.Merge(s);
  EXPECT_EQ(merged.size(), 202u);
  EXPECT_EQ(merged.PerSlice(50, 1), (std::vector<double>{50, 3, 1050, 7}));

  const SliceClock clock{1000, 10, 2};
  EXPECT_EQ(clock.At(500), 2u);  // before the start: the first slice
  EXPECT_EQ(clock.At(1009), 2u);
  EXPECT_EQ(clock.At(1010), 3u);
}

TEST(HistoryQueriesTest, SameSeedSameWindowsInsideTheirSourcesPhases) {
  const Stream s = BuildRedisStream(3, 0.001);
  const HistoryQueries a(11);
  const HistoryQueries b(11);
  const HistoryQueries c(12);
  int differ = 0;
  double shortest = 1e9, longest = 0;
  for (uint64_t i = 0; i < 300; ++i) {
    const Query q = a.At(i, s);
    EXPECT_EQ(q.window.start, b.At(i, s).window.start);
    EXPECT_EQ(q.window.end, b.At(i, s).window.end);
    differ += q.window.start != c.At(i, s).window.start;
    uint32_t source = q.kind == QueryKind::kCountSource ? q.source : loom::kAppSource;
    if (q.kind == QueryKind::kP99Sendto || q.kind == QueryKind::kSlowSendto) {
      source = loom::kSyscallSource;
    } else if (q.kind == QueryKind::kMangledPackets || q.kind == QueryKind::kPacketDump) {
      source = loom::kPacketSource;
    }
    EXPECT_GE(q.window.start, s.phase_start[source]) << "question " << i;
    EXPECT_LE(q.window.end, s.phase_end[3]) << "question " << i;
    const double len_s = static_cast<double>(q.window.end - q.window.start) / 1e9;
    if (q.kind != QueryKind::kPacketDump) {
      shortest = std::min(shortest, len_s);
      longest = std::max(longest, len_s);
    }
  }
  EXPECT_GT(differ, 290);
  // Lengths cover [0.25 s, 2 s) evenly enough that both ends are reached.
  EXPECT_LT(shortest, 0.3);
  EXPECT_GT(longest, 1.95);
}

TEST(StreamTest, BatchesAreSameSourceRunsWithMonotoneTimes) {
  const Stream s = BuildRedisStream(3, 0.001);
  uint64_t records = 0;
  TimestampNanos last = 0;
  for (const Stream::Batch& b : s.batches) {
    EXPECT_GE(b.ts, last);
    last = b.ts;
    for (uint32_t i = b.first; i < b.first + b.count; ++i) {
      EXPECT_EQ(s.source[i], b.source);
    }
    records += b.count;
  }
  EXPECT_EQ(records, s.size());
}

}  // namespace
}  // namespace perfbench
