// End-to-end observability: a workload streams through the network front
// door into the daemon's engine, the daemon's metrics endpoint is scraped
// over HTTP, per-query traces report pruning, and SelfTelemetry mode lets
// Loom's own query operators aggregate the engine's operational metrics —
// Loom observing itself with Loom.

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <functional>
#include <string>
#include <thread>

#include "src/common/file.h"
#include "src/core/query_trace.h"
#include "src/net/ingest_server.h"
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

// Extracts the value of a `name value` line from Prometheus exposition text.
double MetricValue(const std::string& text, const std::string& name) {
  const std::string needle = "\n" + name + " ";
  size_t pos = text.find(needle);
  if (pos == std::string::npos) {
    if (text.rfind(name + " ", 0) == 0) {
      pos = 0;
      return std::stod(text.substr(name.size() + 1));
    }
    return -1.0;
  }
  return std::stod(text.substr(pos + needle.size()));
}

bool WaitUntil(const std::function<bool()>& pred, int timeout_ms = 10'000) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

class ObservabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DaemonOptions opts;
    opts.loom.dir = dir_.FilePath("daemon");
    opts.loom.chunk_size = 4 << 10;  // many chunks -> pruning is observable
    opts.self_telemetry = true;
    opts.self_telemetry_period_nanos = 2'000'000;  // 2 ms
    auto daemon = MonitoringDaemon::Start(opts);
    ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();
    daemon_ = std::move(daemon.value());
    auto server = IngestServer::Start(daemon_.get(), 0);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(server.value());
  }

  TempDir dir_;
  std::unique_ptr<MonitoringDaemon> daemon_;
  std::unique_ptr<IngestServer> server_;
};

TEST_F(ObservabilityTest, WorkloadScrapeTraceAndSelfQuery) {
  // --- Setup: app source (indexed on latency) + self-telemetry index on the
  // engine's own ingested-records counter, both defined before ingest. ---
  auto channel = daemon_->AddSource(kAppSource);
  ASSERT_TRUE(channel.ok());
  server_->BindSource(kAppSource, channel.value());
  auto latency_spec = HistogramSpec::Exponential(1.0, 2.0, 24);
  ASSERT_TRUE(latency_spec.ok());
  auto app_index = daemon_->AddIndex(
      kAppSource, [](std::span<const uint8_t> p) { return AppLatencyUs(p); },
      latency_spec.value());
  ASSERT_TRUE(app_index.ok()) << app_index.status().ToString();
  auto self_index =
      daemon_->AddIndex(kSelfTelemetrySourceId,
                        SelfValueIndexFunc("loom_core_ingested_records_total"),
                        latency_spec.value());
  ASSERT_TRUE(self_index.ok()) << self_index.status().ToString();

  // --- Ingest: 5000 records through the TCP front door. ---
  constexpr int kRecords = 5000;
  auto client = IngestClient::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  for (int i = 0; i < kRecords; ++i) {
    ASSERT_TRUE((*client)->Send(kAppSource, AppPayload(i)).ok());
  }
  ASSERT_TRUE((*client)->Flush().ok());
  ASSERT_TRUE(WaitUntil([&] {
    return channel.value()->stats().accepted >= kRecords;
  }));
  daemon_->Flush();

  // --- Scrape: GET /metrics on the ingest port returns Prometheus text with
  // the ingest-latency histogram populated. ---
  auto scrape = FetchMetricsOverHttp("127.0.0.1", server_->port());
  ASSERT_TRUE(scrape.ok()) << scrape.status().ToString();
  const std::string& text = scrape.value();
  EXPECT_NE(text.find("# TYPE loom_core_push_batch_seconds histogram"), std::string::npos);
  EXPECT_GT(MetricValue(text, "loom_core_push_batch_seconds_count"), 0.0);
  EXPECT_GE(MetricValue(text, "loom_core_ingested_records_total"),
            static_cast<double>(kRecords));
  EXPECT_GE(MetricValue(text, "loom_net_records_total"), static_cast<double>(kRecords));
  EXPECT_GE(MetricValue(text, "loom_daemon_accepted_records_total"),
            static_cast<double>(kRecords));
  EXPECT_NE(text.find("loom_daemon_queue_depth"), std::string::npos);
  // DumpMetrics() is the same exposition, minus whatever moved between the
  // two snapshots.
  EXPECT_NE(daemon_->DumpMetrics().find("loom_core_push_batch_seconds_bucket"),
            std::string::npos);
  // The scrape itself was counted.
  auto scrape2 = FetchMetricsOverHttp("127.0.0.1", server_->port());
  ASSERT_TRUE(scrape2.ok());
  EXPECT_GE(MetricValue(scrape2.value(), "loom_net_scrapes_total"), 1.0);

  // --- Per-query trace: a value range above every record prunes all chunks
  // via summary bins; the invariant holds and nothing is scanned. ---
  QueryTrace trace;
  uint64_t delivered = 0;
  Status st = daemon_->engine()->IndexedScanValues(
      kAppSource, app_index.value(), {0, ~0ULL}, {1e9, 1e10},
      [&](double, const RecordView&) {
        ++delivered;
        return true;
      },
      &trace);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(delivered, 0u);
  EXPECT_GT(trace.chunks_considered, 0u);
  EXPECT_GT(trace.chunks_pruned, 0u);
  EXPECT_EQ(trace.chunks_pruned + trace.chunks_scanned, trace.chunks_considered);
  EXPECT_STREQ(trace.op, "indexed_scan");

  // A full-range aggregate scans or summary-folds every chunk; the trace
  // stays consistent and the answer is right.
  QueryTrace agg_trace;
  auto max = daemon_->engine()->IndexedAggregate(kAppSource, app_index.value(), {0, ~0ULL},
                                                 AggregateMethod::kMax, 0.0, &agg_trace);
  ASSERT_TRUE(max.ok()) << max.status().ToString();
  EXPECT_DOUBLE_EQ(max.value(), kRecords - 1);
  EXPECT_GT(agg_trace.chunks_considered, 0u);
  EXPECT_EQ(agg_trace.chunks_pruned + agg_trace.chunks_scanned, agg_trace.chunks_considered);
  EXPECT_GT(agg_trace.total_nanos, 0u);

  // --- Self-telemetry: the daemon has been feeding metric samples into the
  // reserved source; IndexedAggregate over the engine's own ingest counter
  // sees the 5000-record burst. ---
  ASSERT_TRUE(WaitUntil([&] {
    auto count = daemon_->engine()->CountRecords(kSelfTelemetrySourceId, {0, ~0ULL});
    return count.ok() && count.value() > 50;
  }));
  auto self_max = daemon_->engine()->IndexedAggregate(
      kSelfTelemetrySourceId, self_index.value(), {0, ~0ULL}, AggregateMethod::kMax);
  ASSERT_TRUE(self_max.ok()) << self_max.status().ToString();
  // Counter samples are deltas; the ingest burst must show up in some period.
  EXPECT_GT(self_max.value(), 0.0);
  EXPECT_GE(MetricValue(daemon_->DumpMetrics(), "loom_daemon_self_samples_total"), 1.0);
}

TEST_F(ObservabilityTest, SelfMetricIdIsStableAndIndexFuncFilters) {
  const uint32_t id = SelfMetricId("loom_core_ingested_records_total");
  EXPECT_EQ(id, SelfMetricId("loom_core_ingested_records_total"));
  EXPECT_NE(id, SelfMetricId("loom_core_ingested_bytes"));

  // A hand-built sample round-trips through the index function.
  uint8_t sample[12];
  std::memcpy(sample, &id, sizeof(id));
  const double value = 1234.5;
  std::memcpy(sample + 4, &value, sizeof(value));
  auto func = SelfValueIndexFunc("loom_core_ingested_records_total");
  auto extracted = func(std::span<const uint8_t>(sample, sizeof(sample)));
  ASSERT_TRUE(extracted.has_value());
  EXPECT_DOUBLE_EQ(*extracted, 1234.5);
  auto other = SelfValueIndexFunc("loom_core_ingested_bytes");
  EXPECT_FALSE(other(std::span<const uint8_t>(sample, sizeof(sample))).has_value());
  // Truncated payloads are ignored, not misread.
  EXPECT_FALSE(func(std::span<const uint8_t>(sample, 8)).has_value());
}

// --- Self-watch alerts end to end -----------------------------------------

// Loom watching itself: the default self-watches turn the daemon's own
// dropped-records metric into a standing alert, and the TCP subscription
// stream delivers the FIRING and RESOLVED transitions to a live client.
TEST(SelfWatchAlertTest, DropsAlertFiresAndResolvesOverSubscription) {
  TempDir dir;
  DaemonOptions opts;
  opts.loom.dir = dir.FilePath("daemon");
  opts.loom.chunk_size = 4 << 10;  // seal often so windows close promptly
  opts.self_telemetry = true;
  opts.self_telemetry_period_nanos = 2'000'000;  // 2 ms
  opts.max_record_bytes = 32;
  opts.channel_bytes = 128;  // three records: flooding must drop
  opts.self_watches = DefaultSelfWatches();
  auto daemon = MonitoringDaemon::Start(opts);
  ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();
  // The watches install on the ingest thread before any other op completes.
  ASSERT_TRUE(WaitUntil([&] { return (*daemon)->self_watch_ids().size() == 2; }));

  auto server = IngestServer::Start(daemon->get(), 0);
  ASSERT_TRUE(server.ok());
  auto sub = WatchClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(sub.ok());
  ASSERT_TRUE((*sub)->SendLine("SUB 0").ok());
  auto ok = (*sub)->ReadLine();
  ASSERT_TRUE(ok.ok());
  ASSERT_EQ(ok.value(), "OK");

  // Flood a tiny unserved channel until drops are recorded; the drops
  // self-watch (sum of per-tick deltas > 0) must fire within a window or
  // two, then resolve once the flood stops and deltas return to zero.
  auto channel = (*daemon)->AddSource(kAppSource);
  ASSERT_TRUE(channel.ok());
  std::vector<uint8_t> payload(32, 0);
  uint64_t dropped = 0;
  for (int i = 0; i < 200'000 && dropped == 0; ++i) {
    channel.value()->Offer(payload);
    dropped = channel.value()->stats().dropped;
  }
  ASSERT_GT(dropped, 0u);

  bool fired = false;
  bool resolved = false;
  for (int i = 0; i < 200 && !(fired && resolved); ++i) {
    auto line = (*sub)->ReadLine();
    ASSERT_TRUE(line.ok()) << line.status().ToString();
    if (line.value().rfind("ALERT ", 0) != 0) {
      continue;
    }
    if (line.value().find(" FIRING ") != std::string::npos) {
      EXPECT_FALSE(fired) << "alert fired twice without resolving";
      fired = true;
    } else if (line.value().find(" RESOLVED ") != std::string::npos) {
      EXPECT_TRUE(fired) << "resolved before firing: " << line.value();
      resolved = true;
    }
  }
  EXPECT_TRUE(fired);
  EXPECT_TRUE(resolved);

  // The alert transitions are also visible in the standing metric family.
  MetricsSnapshot snap = (*daemon)->metrics()->Snapshot();
  EXPECT_GE(snap.counters.at("loom_standing_alerts_fired_total"), 1u);
  EXPECT_GE(snap.counters.at("loom_standing_alerts_resolved_total"), 1u);
  EXPECT_GE(snap.counters.at("loom_standing_windows_emitted_total"), 1u);
}

}  // namespace
}  // namespace loom
