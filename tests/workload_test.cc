#include <gtest/gtest.h>

#include <map>

#include "src/workload/case_studies.h"
#include "src/workload/probe_app.h"
#include "src/workload/records.h"

namespace loom {
namespace {

TEST(RecordsTest, ExtractorsDecodeFields) {
  AppRecord app;
  app.latency_us = 123.5;
  std::vector<uint8_t> buf(sizeof(app));
  std::memcpy(buf.data(), &app, sizeof(app));
  EXPECT_EQ(AppLatencyUs(buf).value(), 123.5);

  SyscallRecord sys;
  sys.latency_us = 9.25;
  sys.syscall_id = kSyscallPread64;
  std::memcpy(buf.data(), &sys, sizeof(sys));
  EXPECT_EQ(SyscallLatencyUs(buf).value(), 9.25);
  EXPECT_EQ(SyscallId(buf).value(), kSyscallPread64);
  EXPECT_EQ(SyscallLatencyFor(kSyscallPread64, buf).value(), 9.25);
  EXPECT_FALSE(SyscallLatencyFor(kSyscallWrite, buf).has_value());

  PacketHeader pkt;
  pkt.dport = kRedisPort;
  std::vector<uint8_t> pbuf(sizeof(pkt));
  std::memcpy(pbuf.data(), &pkt, sizeof(pkt));
  EXPECT_EQ(PacketDport(pbuf).value(), kRedisPort);

  std::vector<uint8_t> tiny(4, 0);
  EXPECT_FALSE(AppLatencyUs(tiny).has_value());
  EXPECT_FALSE(PacketDport(tiny).has_value());
}

class RedisWorkloadTest : public ::testing::Test {
 protected:
  RedisWorkloadConfig SmallConfig() const {
    RedisWorkloadConfig config;
    config.scale = 0.0005;
    config.phase_seconds = 2.0;
    config.seed = 11;
    config.num_incidents = 6;
    return config;
  }
};

TEST_F(RedisWorkloadTest, TimestampsAreNonDecreasingAndPhased) {
  RedisWorkload gen(SmallConfig());
  TimestampNanos prev = 0;
  std::map<uint32_t, TimestampNanos> first_ts;
  while (auto ev = gen.Next()) {
    EXPECT_GE(ev->ts, prev);
    prev = ev->ts;
    first_ts.try_emplace(ev->source_id, ev->ts);
  }
  // Sources activate at their phase starts.
  ASSERT_TRUE(first_ts.count(kAppSource));
  ASSERT_TRUE(first_ts.count(kSyscallSource));
  ASSERT_TRUE(first_ts.count(kPacketSource));
  EXPECT_LT(first_ts[kAppSource], gen.PhaseEnd(1));
  EXPECT_GE(first_ts[kSyscallSource], gen.PhaseStart(2));
  EXPECT_GE(first_ts[kPacketSource], gen.PhaseStart(3));
}

TEST_F(RedisWorkloadTest, RatesMatchPaperRatios) {
  RedisWorkload gen(SmallConfig());
  while (gen.Next()) {
  }
  // App runs 3 phases, syscalls 2, packets 1. Expected counts follow the
  // paper's per-second rates scaled by `scale`.
  const double scale = 0.0005;
  const double secs = 2.0;
  EXPECT_NEAR(static_cast<double>(gen.app_records()),
              RedisWorkload::kAppRate * scale * secs * 3, 60);
  EXPECT_NEAR(static_cast<double>(gen.syscall_records()),
              RedisWorkload::kSyscallRate * scale * secs * 2, 60);
  EXPECT_NEAR(static_cast<double>(gen.packet_records()),
              RedisWorkload::kPacketRate * scale * secs * 1, 60);
}

TEST_F(RedisWorkloadTest, IncidentsArePlantedAndCorrelated) {
  RedisWorkload gen(SmallConfig());
  // Collect all mangled packets and very slow requests from the stream.
  std::vector<TimestampNanos> mangled;
  std::vector<TimestampNanos> slow_requests;
  std::vector<TimestampNanos> slow_recv;
  while (auto ev = gen.Next()) {
    if (ev->source_id == kPacketSource) {
      auto dport = PacketDport(ev->payload);
      if (dport.has_value() && *dport == kMangledPort) {
        mangled.push_back(ev->ts);
      }
    } else if (ev->source_id == kAppSource) {
      auto latency = AppLatencyUs(ev->payload);
      if (latency.has_value() && *latency > 50'000) {
        slow_requests.push_back(ev->ts);
      }
    } else if (ev->source_id == kSyscallSource) {
      auto latency = SyscallLatencyUs(ev->payload);
      if (latency.has_value() && *latency > 20'000) {
        slow_recv.push_back(ev->ts);
      }
    }
  }
  const auto& incidents = gen.incidents();
  ASSERT_EQ(incidents.size(), 6u);
  EXPECT_EQ(mangled.size(), 6u);
  EXPECT_EQ(slow_requests.size(), 6u);
  EXPECT_EQ(slow_recv.size(), 6u);
  for (size_t i = 0; i < incidents.size(); ++i) {
    EXPECT_EQ(incidents[i].packet_ts, mangled[i]);
    EXPECT_EQ(incidents[i].request_ts, slow_requests[i]);
    // Events of one incident are within 200us of each other.
    EXPECT_LT(incidents[i].request_ts - incidents[i].packet_ts, 200'000u);
  }
}

TEST_F(RedisWorkloadTest, DeterministicForSameSeed) {
  RedisWorkload a(SmallConfig());
  RedisWorkload b(SmallConfig());
  for (int i = 0; i < 10000; ++i) {
    auto ea = a.Next();
    auto eb = b.Next();
    ASSERT_EQ(ea.has_value(), eb.has_value());
    if (!ea.has_value()) {
      break;
    }
    EXPECT_EQ(ea->ts, eb->ts);
    EXPECT_EQ(ea->source_id, eb->source_id);
    ASSERT_EQ(ea->payload.size(), eb->payload.size());
    EXPECT_EQ(std::memcmp(ea->payload.data(), eb->payload.data(), ea->payload.size()), 0);
  }
}

TEST(RocksdbWorkloadTest, RatesAndSubsets) {
  RocksdbWorkloadConfig config;
  config.scale = 0.0005;
  config.phase_seconds = 2.0;
  RocksdbWorkload gen(config);
  uint64_t pread = 0;
  uint64_t other_sys = 0;
  TimestampNanos prev = 0;
  while (auto ev = gen.Next()) {
    EXPECT_GE(ev->ts, prev);
    prev = ev->ts;
    if (ev->source_id == kSyscallSource) {
      auto id = SyscallId(ev->payload);
      ASSERT_TRUE(id.has_value());
      if (*id == kSyscallPread64) {
        ++pread;
      } else {
        ++other_sys;
      }
    } else if (ev->source_id == kPageCacheSource) {
      EXPECT_EQ(ev->payload.size(), 60u);
    }
  }
  const double scale = 0.0005;
  EXPECT_NEAR(static_cast<double>(gen.req_records()),
              RocksdbWorkload::kReqRate * scale * 2.0 * 3, 60);
  EXPECT_NEAR(static_cast<double>(gen.syscall_records()),
              RocksdbWorkload::kSyscallRate * scale * 2.0 * 2, 60);
  EXPECT_NEAR(static_cast<double>(gen.pagecache_records()),
              RocksdbWorkload::kPageCacheRate * scale * 2.0 * 1, 10);
  // pread64 is ~7.8% of syscalls.
  const double frac = static_cast<double>(pread) / static_cast<double>(pread + other_sys);
  EXPECT_NEAR(frac, RocksdbWorkload::kPread64Fraction, 0.02);
}

TEST(ProbeAppTest, NullSinkProducesThroughput) {
  ProbeAppConfig config;
  config.seconds = 0.2;
  auto result = ProbeApp::Run(config, [](std::span<const uint8_t>) {});
  EXPECT_GT(result.operations, 1000u);
  EXPECT_GT(result.ops_per_second, 0.0);
  EXPECT_NEAR(result.wall_seconds, 0.2, 0.1);
}

TEST(ProbeAppTest, ExpensiveSinkReducesThroughput) {
  ProbeAppConfig config;
  config.seconds = 0.3;
  auto fast = ProbeApp::Run(config, [](std::span<const uint8_t>) {});
  volatile uint64_t sum = 0;
  auto slow = ProbeApp::Run(config, [&](std::span<const uint8_t> p) {
    // A deliberately expensive sink: many times an operation's own cost, so
    // scheduling noise between the two timed runs cannot flip the order.
    for (int i = 0; i < 2000; ++i) {
      sum = sum + p[static_cast<size_t>(i) % p.size()];
    }
  });
  EXPECT_LT(slow.ops_per_second, fast.ops_per_second);
}

TEST(ProbeAppTest, PayloadIsValidAppRecord) {
  ProbeAppConfig config;
  config.seconds = 0.05;
  uint64_t count = 0;
  uint64_t last_seq = 0;
  ProbeApp::Run(config, [&](std::span<const uint8_t> p) {
    ASSERT_EQ(p.size(), sizeof(AppRecord));
    auto rec = DecodeAs<AppRecord>(p);
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->seq, last_seq + 1);
    last_seq = rec->seq;
    ++count;
  });
  EXPECT_GT(count, 0u);
}

}  // namespace
}  // namespace loom
