#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>

#include "src/common/file.h"
#include "src/daemon/daemon_config.h"
#include "src/daemon/monitoring_daemon.h"
#include "src/workload/records.h"

namespace loom {
namespace {

std::vector<uint8_t> AppPayload(double latency) {
  AppRecord rec;
  rec.latency_us = latency;
  std::vector<uint8_t> buf(sizeof(rec));
  std::memcpy(buf.data(), &rec, sizeof(rec));
  return buf;
}

class DaemonTest : public ::testing::Test {
 protected:
  std::unique_ptr<MonitoringDaemon> StartDaemon(DaemonOptions opts = {}) {
    opts.loom.dir = dir_.FilePath("daemon-" + std::to_string(instance_++));
    auto daemon = MonitoringDaemon::Start(opts);
    EXPECT_TRUE(daemon.ok());
    return std::move(daemon.value());
  }

  TempDir dir_;
  int instance_ = 0;
};

TEST_F(DaemonTest, SingleSourceRoundTrip) {
  auto daemon = StartDaemon();
  auto channel = daemon->AddSource(kAppSource);
  ASSERT_TRUE(channel.ok());
  for (int i = 0; i < 1000; ++i) {
    channel.value()->Publish(AppPayload(i));
  }
  daemon->Flush();
  EXPECT_EQ(daemon->records_ingested(), 1000u);
  int count = 0;
  ASSERT_TRUE(daemon->engine()
                  ->RawScan(kAppSource, {0, ~0ULL},
                            [&](const RecordView&) {
                              ++count;
                              return true;
                            })
                  .ok());
  EXPECT_EQ(count, 1000);
}

TEST_F(DaemonTest, DuplicateSourceRejected) {
  auto daemon = StartDaemon();
  ASSERT_TRUE(daemon->AddSource(1).ok());
  EXPECT_FALSE(daemon->AddSource(1).ok());
}

TEST_F(DaemonTest, AddIndexThenQuery) {
  auto daemon = StartDaemon();
  auto channel = daemon->AddSource(kAppSource);
  ASSERT_TRUE(channel.ok());
  auto spec = HistogramSpec::Uniform(0, 1000, 10).value();
  auto idx = daemon->AddIndex(
      kAppSource, [](std::span<const uint8_t> p) { return AppLatencyUs(p); }, spec);
  ASSERT_TRUE(idx.ok());
  for (int i = 0; i < 500; ++i) {
    channel.value()->Publish(AppPayload(i % 100));
  }
  daemon->Flush();
  auto max =
      daemon->engine()->IndexedAggregate(kAppSource, idx.value(), {0, ~0ULL},
                                         AggregateMethod::kMax);
  ASSERT_TRUE(max.ok());
  EXPECT_EQ(max.value(), 99.0);
}

TEST_F(DaemonTest, OversizeRecordDropped) {
  DaemonOptions opts;
  opts.max_record_bytes = 64;
  auto daemon = StartDaemon(opts);
  auto channel = daemon->AddSource(1);
  ASSERT_TRUE(channel.ok());
  std::vector<uint8_t> big(128, 0);
  EXPECT_FALSE(channel.value()->Offer(big));
  EXPECT_EQ(channel.value()->stats().dropped, 1u);
  EXPECT_EQ(channel.value()->stats().offered, 1u);
}

TEST_F(DaemonTest, OfferCountsDropsWhenChannelFull) {
  DaemonOptions opts;
  opts.max_record_bytes = 64;
  opts.channel_bytes = 256;  // four 48-byte records
  auto daemon = StartDaemon(opts);
  auto channel = daemon->AddSource(1);
  ASSERT_TRUE(channel.ok());
  // Fire far more than the channel can hold without giving the ingest
  // thread a chance to keep up every time.
  uint64_t accepted = 0;
  for (int i = 0; i < 100000; ++i) {
    if (channel.value()->Offer(AppPayload(i))) {
      ++accepted;
    }
  }
  daemon->Flush();
  DaemonSourceStats stats = channel.value()->stats();
  EXPECT_EQ(stats.offered, 100000u);
  EXPECT_EQ(stats.accepted, accepted);
  EXPECT_EQ(stats.accepted + stats.dropped, stats.offered);
  EXPECT_EQ(daemon->records_ingested(), accepted);
}

// --- The channel's byte ring ----------------------------------------------

// Holds the ingest thread inside PushBatch (the index function runs there)
// until opened, so a test can fill a ring that nothing drains.
struct IngestGate {
  std::atomic<bool> entered{false};
  std::atomic<bool> open{false};

  Loom::IndexFunc Func() {
    return [this](std::span<const uint8_t>) -> std::optional<double> {
      entered.store(true);
      while (!open.load()) {
        std::this_thread::yield();
      }
      return 0.0;
    };
  }

  // Publishes one record and returns once the ingest thread is stuck on it.
  void Close(MonitoringDaemon* daemon, SourceChannel* channel) {
    ASSERT_TRUE(daemon->AddIndex(channel->source_id(), Func(),
                                 HistogramSpec::Uniform(0, 1, 1).value())
                    .ok());
    channel->Publish(AppPayload(0));
    while (!entered.load()) {
      std::this_thread::yield();
    }
  }
};

// Payload of record `seq` of `source`: a size in [0, max_bytes] that moves
// frames across every offset of the ring, then a checkable fill pattern.
std::vector<uint8_t> SizedPayload(uint32_t source, uint32_t seq, size_t max_bytes) {
  const size_t len = (static_cast<size_t>(seq) * 977 + source * 131) % (max_bytes + 1);
  std::vector<uint8_t> buf(len);
  for (size_t i = 0; i < len; ++i) {
    buf[i] = static_cast<uint8_t>(seq + source + i);
  }
  if (len >= 8) {
    std::memcpy(buf.data(), &source, 4);
    std::memcpy(buf.data() + 4, &seq, 4);
  }
  return buf;
}

TEST_F(DaemonTest, RingWrapsManyTimesAndDeliversEveryRecordInOrder) {
  DaemonOptions opts;  // max_record_bytes 4096
  opts.channel_bytes = 2 * (4 + 4096);  // rounds up to 16 KiB
  auto daemon = StartDaemon(opts);
  constexpr uint32_t kSources = 2;
  constexpr uint32_t kPerSource = 3000;  // ~6 MiB per source: hundreds of wraps
  std::vector<SourceChannel*> channels;
  for (uint32_t s = 1; s <= kSources; ++s) {
    auto channel = daemon->AddSource(s);
    ASSERT_TRUE(channel.ok());
    channels.push_back(channel.value());
  }
  std::vector<std::thread> producers;
  for (uint32_t s = 1; s <= kSources; ++s) {
    producers.emplace_back([&, s] {
      // Alternate single records and batches of up to 7.
      std::vector<std::vector<uint8_t>> batch;
      std::vector<std::span<const uint8_t>> spans;
      for (uint32_t seq = 0; seq < kPerSource;) {
        batch.clear();
        spans.clear();
        const uint32_t n = std::min<uint32_t>(1 + seq % 7, kPerSource - seq);
        for (uint32_t k = 0; k < n; ++k) {
          batch.push_back(SizedPayload(s, seq + k, opts.max_record_bytes));
        }
        for (const auto& b : batch) {
          spans.emplace_back(b);
        }
        EXPECT_EQ(channels[s - 1]->PublishBatch(spans), n);
        seq += n;
      }
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  daemon->Flush();
  EXPECT_EQ(daemon->records_ingested(), uint64_t{kSources} * kPerSource);
  for (uint32_t s = 1; s <= kSources; ++s) {
    const DaemonSourceStats stats = channels[s - 1]->stats();
    EXPECT_EQ(stats.accepted, kPerSource);
    EXPECT_EQ(stats.dropped, 0u);
    // RawScan walks newest-first: expect kPerSource-1 down to 0.
    uint32_t want = kPerSource;
    ASSERT_TRUE(daemon->engine()
                    ->RawScan(s, {0, ~0ULL},
                              [&](const RecordView& r) {
                                --want;
                                const std::vector<uint8_t> expect =
                                    SizedPayload(s, want, opts.max_record_bytes);
                                EXPECT_TRUE(std::equal(r.payload.begin(), r.payload.end(),
                                                       expect.begin(), expect.end()))
                                    << "source " << s << " record " << want;
                                return true;
                              })
                    .ok());
    EXPECT_EQ(want, 0u) << "source " << s;
  }
}

TEST_F(DaemonTest, OfferOnFullRingReturnsFalseAndCountsOneDrop) {
  IngestGate gate;  // outlives the daemon that calls its index function
  DaemonOptions opts;
  opts.max_record_bytes = 64;
  opts.channel_bytes = 256;
  auto daemon = StartDaemon(opts);
  auto channel = daemon->AddSource(1);
  ASSERT_TRUE(channel.ok());
  gate.Close(daemon.get(), channel.value());

  uint64_t accepted = 1;  // the record holding the gate
  int offers = 0;
  while (channel.value()->Offer(AppPayload(1))) {
    ++accepted;
    ASSERT_LT(++offers, 100) << "a 256-byte ring never filled";
  }
  DaemonSourceStats stats = channel.value()->stats();
  EXPECT_EQ(stats.dropped, 1u);
  EXPECT_EQ(stats.accepted, accepted);
  EXPECT_EQ(stats.offered, accepted + 1);

  gate.open.store(true);
  daemon->Flush();
  EXPECT_EQ(daemon->records_ingested(), accepted);
  const MetricsSnapshot snap = daemon->metrics()->Snapshot();
  EXPECT_EQ(snap.counters.at("loom_daemon_dropped_records_total"), 1u);
  EXPECT_EQ(snap.counters.at("loom_daemon_offered_records_total"), accepted + 1);
  EXPECT_EQ(snap.gauges.at("loom_daemon_queue_depth"), 0.0);
}

TEST_F(DaemonTest, PublisherOutrunningIngestWaitsInsteadOfDropping) {
  IngestGate gate;  // outlives the daemon that calls its index function
  DaemonOptions opts;
  opts.max_record_bytes = 64;
  opts.channel_bytes = 256;
  auto daemon = StartDaemon(opts);
  auto channel = daemon->AddSource(1);
  ASSERT_TRUE(channel.ok());
  gate.Close(daemon.get(), channel.value());

  constexpr uint64_t kRecords = 20000;
  std::thread producer([&] {
    for (uint64_t i = 1; i < kRecords; ++i) {
      channel.value()->Publish(AppPayload(static_cast<double>(i)));
    }
  });
  // The ring fills behind the held ingest thread; the producer must wait.
  while (channel.value()->stats().publish_waits == 0) {
    std::this_thread::yield();
  }
  gate.open.store(true);
  producer.join();
  daemon->Flush();

  const DaemonSourceStats stats = channel.value()->stats();
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.offered, kRecords);
  EXPECT_EQ(stats.accepted, kRecords);
  EXPECT_GE(stats.publish_waits, 1u);
  EXPECT_EQ(daemon->records_ingested(), kRecords);
  const MetricsSnapshot snap = daemon->metrics()->Snapshot();
  EXPECT_EQ(snap.counters.at("loom_daemon_dropped_records_total"), 0u);
  EXPECT_EQ(snap.counters.at("loom_daemon_offered_records_total"), kRecords);
  EXPECT_EQ(snap.counters.at("loom_daemon_accepted_records_total"), kRecords);
  EXPECT_EQ(snap.counters.at("loom_daemon_publish_waits_total"), stats.publish_waits);
}

TEST_F(DaemonTest, StartRejectsRingSmallerThanTwoMaximumFrames) {
  DaemonOptions opts;
  opts.loom.dir = dir_.FilePath("small-ring");
  opts.max_record_bytes = 100;       // frame: 4 + 100 bytes
  opts.channel_bytes = 2 * 104 - 1;
  auto rejected = MonitoringDaemon::Start(opts);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  opts.channel_bytes = 2 * 104;
  EXPECT_TRUE(MonitoringDaemon::Start(opts).ok());
}

TEST_F(DaemonTest, FlushWaitsUntilRingRecordsAreStored) {
  IngestGate gate;  // outlives the daemon that calls its index function
  auto daemon = StartDaemon();
  auto channel = daemon->AddSource(1);
  ASSERT_TRUE(channel.ok());
  gate.Close(daemon.get(), channel.value());
  for (int i = 0; i < 100; ++i) {
    channel.value()->Publish(AppPayload(i));
  }
  std::atomic<bool> flushed{false};
  std::thread flusher([&] {
    daemon->Flush();
    flushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(flushed.load()) << "Flush returned while records sat in the ring";
  gate.open.store(true);
  flusher.join();
  EXPECT_EQ(daemon->records_ingested(), 101u);
  auto count = daemon->engine()->CountRecords(1, {0, ~0ULL});
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), 101u);
}

TEST_F(DaemonTest, IdleIngestThreadStillPushesSelfTelemetry) {
  // No source ever publishes, so the ingest thread parks; it must still wake
  // on the self-telemetry period and push samples.
  DaemonOptions opts;
  opts.self_telemetry = true;
  opts.self_telemetry_period_nanos = 5'000'000;  // 5 ms
  auto daemon = StartDaemon(opts);
  int pushes = 0;
  uint64_t last = daemon->records_ingested();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (pushes < 5 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const uint64_t now = daemon->records_ingested();
    if (now != last) {
      ++pushes;
      last = now;
    }
  }
  EXPECT_GE(pushes, 5);
}

TEST_F(DaemonTest, MultipleConcurrentProducers) {
  auto daemon = StartDaemon();
  constexpr int kSources = 3;
  constexpr int kPerSource = 20000;
  std::vector<SourceChannel*> channels;
  for (uint32_t s = 1; s <= kSources; ++s) {
    auto channel = daemon->AddSource(s);
    ASSERT_TRUE(channel.ok());
    channels.push_back(channel.value());
  }
  std::vector<std::thread> producers;
  producers.reserve(kSources);
  for (int s = 0; s < kSources; ++s) {
    producers.emplace_back([&, s] {
      for (int i = 0; i < kPerSource; ++i) {
        channels[static_cast<size_t>(s)]->Publish(AppPayload(i));
      }
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  daemon->Flush();
  EXPECT_EQ(daemon->records_ingested(), static_cast<uint64_t>(kSources) * kPerSource);
  for (uint32_t s = 1; s <= kSources; ++s) {
    int count = 0;
    ASSERT_TRUE(daemon->engine()
                    ->RawScan(s, {0, ~0ULL},
                              [&](const RecordView& r) {
                                EXPECT_EQ(r.source_id, s);
                                ++count;
                                return true;
                              })
                    .ok());
    EXPECT_EQ(count, kPerSource);
  }
}

TEST_F(DaemonTest, QueriesRunConcurrentlyWithIngest) {
  auto daemon = StartDaemon();
  auto channel = daemon->AddSource(kAppSource);
  ASSERT_TRUE(channel.ok());
  auto spec = HistogramSpec::Uniform(0, 1000, 10).value();
  auto idx = daemon->AddIndex(
      kAppSource, [](std::span<const uint8_t> p) { return AppLatencyUs(p); }, spec);
  ASSERT_TRUE(idx.ok());

  constexpr int kRecords = 50000;
  std::thread producer([&] {
    for (int i = 0; i < kRecords; ++i) {
      channel.value()->Publish(AppPayload(i % 1000));
    }
  });
  // Queries from this thread while the producer runs. Monotonic counts show
  // queries observe consistent snapshots mid-ingest.
  double prev = 0;
  for (int q = 0; q < 50; ++q) {
    auto count = daemon->engine()->IndexedAggregate(kAppSource, idx.value(), {0, ~0ULL},
                                                    AggregateMethod::kCount);
    ASSERT_TRUE(count.ok());
    EXPECT_GE(count.value(), prev);
    prev = count.value();
    std::this_thread::yield();
  }
  producer.join();
  daemon->Flush();
  EXPECT_EQ(daemon->records_ingested(), static_cast<uint64_t>(kRecords));
}

TEST_F(DaemonTest, ChunkSizeWiresThroughDaemonConfig) {
  // DaemonOptions.loom carries chunk_size into the engine: daemon-fed ingest
  // still answers queries exactly, and the seal traffic shows up in the
  // metrics the daemon exports.
  DaemonOptions opts;
  opts.loom.chunk_size = 2 << 10;
  auto daemon = StartDaemon(opts);
  auto channel = daemon->AddSource(kAppSource);
  ASSERT_TRUE(channel.ok());
  auto spec = HistogramSpec::Uniform(0, 1000, 10).value();
  auto idx = daemon->AddIndex(
      kAppSource, [](std::span<const uint8_t> p) { return AppLatencyUs(p); }, spec);
  ASSERT_TRUE(idx.ok());
  for (int i = 0; i < 20000; ++i) {
    channel.value()->Publish(AppPayload(i % 1000));
  }
  daemon->Flush();

  auto count = daemon->engine()->IndexedAggregate(kAppSource, idx.value(), {0, ~0ULL},
                                                  AggregateMethod::kCount);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), 20000.0);

  MetricsSnapshot snap = daemon->metrics()->Snapshot();
  EXPECT_EQ(daemon->engine()->options().chunk_size, 2u << 10);
  const uint64_t sealed = snap.counters.at("loom_core_chunks_finalized_total");
  EXPECT_GE(sealed, 1u);
  EXPECT_EQ(snap.histograms.at("loom_ingest_finalize_seconds").count, sealed);
}

// --- Daemon configuration surface -----------------------------------------

TEST_F(DaemonTest, TierKnobsWireThroughDaemonConfig) {
  // The tiered-storage knobs must be reachable from the daemon's textual
  // config surface (they were engine-only when tiering landed): flags parse
  // into DaemonOptions.loom, and a daemon started with them actually
  // demotes into the configured archive directory.
  const std::string archive = dir_.FilePath("cold");
  auto parsed = ParseDaemonConfigArgs({
      "--archive-dir", archive,
      "--demote-interval-ms=0",  // manual DemoteNow only: deterministic test
      "--demote-batch-chunks", "8",
      "--record-retain-bytes", "16384",
      "--chunk-size", "2048",
      "--record-block-size", "4096",
  });
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().loom.archive_dir, archive);
  EXPECT_EQ(parsed.value().loom.demote_interval_ms, 0u);
  EXPECT_EQ(parsed.value().loom.demote_batch_chunks, 8u);
  EXPECT_EQ(parsed.value().loom.record_retain_bytes, 16384u);

  auto daemon = StartDaemon(parsed.value());
  EXPECT_EQ(daemon->engine()->options().archive_dir, archive);
  EXPECT_EQ(daemon->engine()->options().demote_batch_chunks, 8u);

  auto channel = daemon->AddSource(kAppSource);
  ASSERT_TRUE(channel.ok());
  for (int i = 0; i < 5000; ++i) {
    channel.value()->Publish(AppPayload(i % 100));
  }
  daemon->Flush();
  size_t prev;
  do {
    prev = daemon->engine()->ArchiveCount();
    ASSERT_TRUE(daemon->engine()->DemoteNow().ok());
  } while (daemon->engine()->ArchiveCount() != prev);
  EXPECT_GE(daemon->engine()->ArchiveCount(), 1u);

  // Demoted data stays queryable through the same daemon engine.
  auto count = daemon->engine()->CountRecords(kAppSource, {0, ~0ULL});
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), 5000u);
}

TEST_F(DaemonTest, ConfigParserAcceptsAllSurfaces) {
  // Equals form, separate-value form, dashed and underscored keys.
  auto args = ParseDaemonConfigArgs({"--enable-timestamp-index=off", "--channel_bytes", "65536",
                                     "--self-telemetry", "true", "--dir=/tmp/x"});
  ASSERT_TRUE(args.ok()) << args.status().ToString();
  EXPECT_FALSE(args.value().loom.enable_timestamp_index);
  EXPECT_EQ(args.value().channel_bytes, 65536u);
  EXPECT_TRUE(args.value().self_telemetry);
  EXPECT_EQ(args.value().loom.dir, "/tmp/x");

  // Config-file form with comments and blank lines.
  auto text = ParseDaemonConfigText(
      "# tiering\n"
      "archive_dir = /tmp/cold\n"
      "\n"
      "demote_batch_chunks = 4   # per pass\n"
      "enable_latency_metrics = off\n");
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_EQ(text.value().loom.archive_dir, "/tmp/cold");
  EXPECT_EQ(text.value().loom.demote_batch_chunks, 4u);
  EXPECT_FALSE(text.value().loom.enable_latency_metrics);
}

TEST_F(DaemonTest, SyncPolicyWiresThroughDaemonConfig) {
  // The durability knobs parse from both config surfaces: flag form with
  // dashes, file form with underscores.
  auto args = ParseDaemonConfigArgs({"--sync-policy=group",
                                     "--group-commit-bytes", "65536",
                                     "--group-commit-interval-ms=10"});
  ASSERT_TRUE(args.ok()) << args.status().ToString();
  EXPECT_EQ(args.value().loom.sync_policy, SyncPolicy::kGroup);
  EXPECT_EQ(args.value().loom.group_commit_bytes, 65536u);
  EXPECT_EQ(args.value().loom.group_commit_interval_ms, 10u);

  auto text = ParseDaemonConfigText(
      "sync_policy = every_block   # durability per flush\n"
      "group_commit_bytes = 4096\n");
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_EQ(text.value().loom.sync_policy, SyncPolicy::kEveryBlock);
  EXPECT_EQ(text.value().loom.group_commit_bytes, 4096u);

  // A daemon opened with them runs its engine under that policy and exports
  // the group-commit counters.
  DaemonOptions opts;
  opts.loom.sync_policy = SyncPolicy::kGroup;
  opts.loom.chunk_size = 2 << 10;
  auto daemon = StartDaemon(opts);
  auto channel = daemon->AddSource(kAppSource);
  ASSERT_TRUE(channel.ok());
  for (int i = 0; i < 1000; ++i) {
    channel.value()->Publish(AppPayload(i));
  }
  daemon->Flush();
  EXPECT_EQ(daemon->records_ingested(), 1000u);
  EXPECT_EQ(daemon->engine()->options().sync_policy, SyncPolicy::kGroup);
  const std::string page = daemon->engine()->metrics()->RenderPrometheus();
  EXPECT_NE(page.find("loom_ingest_group_commits_total"), std::string::npos);
}

TEST_F(DaemonTest, ConfigParserRejectsBadInput) {
  DaemonOptions opts;
  EXPECT_EQ(ApplyDaemonConfigOption(&opts, "no_such_knob", "1").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ApplyDaemonConfigOption(&opts, "chunk_size", "not_a_number").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ApplyDaemonConfigOption(&opts, "enable_chunk_index", "maybe").code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(ParseDaemonConfigArgs({"--chunk-size"}).ok());       // missing value
  EXPECT_FALSE(ParseDaemonConfigArgs({"chunk-size", "1"}).ok());    // no -- prefix
  EXPECT_FALSE(ParseDaemonConfigText("chunk_size 4096\n").ok());    // no '='
}

TEST_F(DaemonTest, ConfigParserRejectsValuesPastTheFieldRange) {
  // ts_marker_period is 32 bits wide: 2^32 must not wrap to 0, which
  // Validate would turn into a timestamp marker after every record.
  auto flag = ParseDaemonConfigArgs({"--ts-marker-period", "4294967296"});
  EXPECT_EQ(flag.status().code(), StatusCode::kInvalidArgument);
  auto text = ParseDaemonConfigText("ts_marker_period = 4294967296\n");
  EXPECT_EQ(text.status().code(), StatusCode::kInvalidArgument);

  // The largest value that fits still parses, on both surfaces.
  auto max_flag = ParseDaemonConfigArgs({"--ts_marker_period=4294967295"});
  ASSERT_TRUE(max_flag.ok()) << max_flag.status().ToString();
  EXPECT_EQ(max_flag.value().loom.ts_marker_period, 4294967295u);
  auto max_text = ParseDaemonConfigText("ts_marker_period = 4294967295\n");
  ASSERT_TRUE(max_text.ok()) << max_text.status().ToString();
  EXPECT_EQ(max_text.value().loom.ts_marker_period, 4294967295u);
}

}  // namespace
}  // namespace loom
