#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <thread>

#include "src/common/file.h"
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

class NetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DaemonOptions opts;
    opts.loom.dir = dir_.FilePath("daemon");
    auto daemon = MonitoringDaemon::Start(opts);
    ASSERT_TRUE(daemon.ok());
    daemon_ = std::move(daemon.value());
    auto server = IngestServer::Start(daemon_.get(), 0);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(server.value());
  }

  SourceChannel* Register(uint32_t source_id) {
    auto channel = daemon_->AddSource(source_id);
    EXPECT_TRUE(channel.ok());
    server_->BindSource(source_id, channel.value());
    return channel.value();
  }

  TempDir dir_;
  std::unique_ptr<MonitoringDaemon> daemon_;
  std::unique_ptr<IngestServer> server_;
};

TEST_F(NetTest, RoundTripOverLoopback) {
  Register(kAppSource);
  auto client = IngestClient::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE((*client)->Send(kAppSource, AppPayload(i)).ok());
  }
  ASSERT_TRUE((*client)->Flush().ok());
  // Wait until the daemon has ingested everything.
  while (daemon_->records_ingested() < 5000) {
    std::this_thread::yield();
  }
  daemon_->Flush();
  int count = 0;
  double sum = 0;
  ASSERT_TRUE(daemon_->engine()
                  ->RawScan(kAppSource, {0, ~0ULL},
                            [&](const RecordView& r) {
                              auto v = AppLatencyUs(r.payload);
                              sum += v.value_or(0);
                              ++count;
                              return true;
                            })
                  .ok());
  EXPECT_EQ(count, 5000);
  EXPECT_DOUBLE_EQ(sum, 5000.0 * 4999.0 / 2);
  // The server counts a wave only after publishing it, so the daemon may
  // have stored (and the scan read) the records before the count lands.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server_->stats().records < 5000 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(server_->stats().records, 5000u);
}

TEST_F(NetTest, MultipleClientsMultipleSources) {
  Register(1);
  Register(2);
  constexpr int kPerClient = 3000;
  std::vector<std::thread> clients;
  for (uint32_t source : {1u, 2u}) {
    clients.emplace_back([&, source] {
      auto client = IngestClient::Connect("127.0.0.1", server_->port());
      ASSERT_TRUE(client.ok());
      for (int i = 0; i < kPerClient; ++i) {
        ASSERT_TRUE((*client)->Send(source, AppPayload(i)).ok());
      }
      ASSERT_TRUE((*client)->Flush().ok());
    });
  }
  for (auto& t : clients) {
    t.join();
  }
  while (daemon_->records_ingested() < 2 * kPerClient) {
    std::this_thread::yield();
  }
  for (uint32_t source : {1u, 2u}) {
    int count = 0;
    ASSERT_TRUE(daemon_->engine()
                    ->RawScan(source, {0, ~0ULL},
                              [&](const RecordView&) {
                                ++count;
                                return true;
                              })
                    .ok());
    EXPECT_EQ(count, kPerClient) << source;
  }
  EXPECT_EQ(server_->stats().connections, 2u);
}

TEST_F(NetTest, UnknownSourceRejectedNotFatal) {
  Register(1);
  auto client = IngestClient::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->Send(99, AppPayload(1)).ok());  // unregistered
  ASSERT_TRUE((*client)->Send(1, AppPayload(2)).ok());   // fine
  ASSERT_TRUE((*client)->Flush().ok());
  // The server counts a wave only after publishing it, and the daemon may
  // store the record before that: wait on the server's own counters too.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((daemon_->records_ingested() < 1 || server_->stats().records < 1 ||
          server_->stats().rejected < 1) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_GE(daemon_->records_ingested(), 1u);
  EXPECT_GE(server_->stats().rejected, 1u);
  EXPECT_EQ(server_->stats().records, 1u);
}

TEST_F(NetTest, OversizeRecordIsDroppedOnceAndLaterRecordsStored) {
  // A record above max_record_bytes (4096) but inside the wire limit must not
  // wedge the connection: it is dropped once and the records around it go in.
  SourceChannel* channel = Register(1);
  auto client = IngestClient::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok());
  const std::vector<uint8_t> oversize(5000, 0x5A);
  ASSERT_TRUE((*client)->Send(1, AppPayload(1)).ok());
  ASSERT_TRUE((*client)->Send(1, oversize).ok());
  ASSERT_TRUE((*client)->Send(1, AppPayload(2)).ok());
  ASSERT_TRUE((*client)->Flush().ok());
  // A later wave on the same connection still gets through.
  ASSERT_TRUE((*client)->Send(1, AppPayload(3)).ok());
  ASSERT_TRUE((*client)->Flush().ok());
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server_->stats().records < 3 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  daemon_->Flush();
  double sum = 0;
  int count = 0;
  ASSERT_TRUE(daemon_->engine()
                  ->RawScan(1, {0, ~0ULL},
                            [&](const RecordView& r) {
                              sum += AppLatencyUs(r.payload).value_or(0);
                              ++count;
                              return true;
                            })
                  .ok());
  EXPECT_EQ(count, 3);
  EXPECT_EQ(sum, 6.0);
  EXPECT_EQ(server_->stats().records, 3u);
  EXPECT_EQ(server_->stats().rejected, 1u);
  EXPECT_EQ(channel->stats().dropped, 1u);
  EXPECT_EQ(channel->stats().offered, 4u);
}

TEST_F(NetTest, EmptyPayloadRecord) {
  Register(1);
  auto client = IngestClient::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->Send(1, {}).ok());
  ASSERT_TRUE((*client)->Flush().ok());
  while (daemon_->records_ingested() < 1) {
    std::this_thread::yield();
  }
  int count = 0;
  ASSERT_TRUE(daemon_->engine()
                  ->RawScan(1, {0, ~0ULL},
                            [&](const RecordView& r) {
                              EXPECT_TRUE(r.payload.empty());
                              ++count;
                              return true;
                            })
                  .ok());
  EXPECT_EQ(count, 1);
}

TEST_F(NetTest, ServerShutsDownWithLiveConnections) {
  Register(1);
  auto client = IngestClient::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->Send(1, AppPayload(1)).ok());
  ASSERT_TRUE((*client)->Flush().ok());
  while (daemon_->records_ingested() < 1) {
    std::this_thread::yield();
  }
  // Destroying the server with the client still connected must not hang.
  server_.reset();
}

TEST_F(NetTest, ConnectToClosedPortFails) {
  auto bad = IngestClient::Connect("127.0.0.1", 1);  // privileged & unused
  EXPECT_FALSE(bad.ok());
}

// --- Standing-query front door --------------------------------------------

std::vector<std::string> Tokens(const std::string& line) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && line[i] == ' ') {
      ++i;
    }
    size_t j = line.find(' ', i);
    if (j == std::string::npos) {
      j = line.size();
    }
    if (j > i) {
      out.push_back(line.substr(i, j - i));
    }
    i = j;
  }
  return out;
}

TEST(NetStandingTest, RegisterAndStreamWindowsOverTcp) {
  TempDir dir;
  DaemonOptions opts;
  opts.loom.dir = dir.FilePath("daemon");
  opts.loom.chunk_size = 4 << 10;  // frequent seals so windows close quickly
  auto daemon = MonitoringDaemon::Start(opts);
  ASSERT_TRUE(daemon.ok());
  auto server = IngestServer::Start(daemon->get(), 0);
  ASSERT_TRUE(server.ok());
  const uint16_t port = (*server)->port();

  auto channel = (*daemon)->AddSource(kAppSource);
  ASSERT_TRUE(channel.ok());
  (*server)->BindSource(kAppSource, channel.value());
  auto idx = (*daemon)->AddIndex(
      kAppSource, [](std::span<const uint8_t> p) { return AppLatencyUs(p); },
      HistogramSpec::Uniform(0, 1000, 10).value());
  ASSERT_TRUE(idx.ok());

  // Malformed registrations get an ERR line, not a hang or a crash.
  {
    auto bad = WatchClient::Connect("127.0.0.1", port);
    ASSERT_TRUE(bad.ok());
    ASSERT_TRUE((*bad)->SendLine("REG oops").ok());
    auto reply = (*bad)->ReadLine();
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply.value().rfind("ERR ", 0), 0u) << reply.value();
  }
  {
    auto bad = WatchClient::Connect("127.0.0.1", port);
    ASSERT_TRUE(bad.ok());
    // Index 999 does not exist: parses fine, fails registration.
    ASSERT_TRUE((*bad)->SendLine("REG x 1 999 mean 2000000").ok());
    auto reply = (*bad)->ReadLine();
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply.value().rfind("ERR ", 0), 0u) << reply.value();
  }

  // Register a 2 ms mean-latency standing query over the app index.
  uint64_t query_id = 0;
  {
    auto reg = WatchClient::Connect("127.0.0.1", port);
    ASSERT_TRUE(reg.ok());
    ASSERT_TRUE((*reg)
                    ->SendLine("REG app_mean 1 " + std::to_string(idx.value()) +
                               " mean 2000000 above 1000000 1")
                    .ok());
    auto reply = (*reg)->ReadLine();
    ASSERT_TRUE(reply.ok());
    ASSERT_EQ(reply.value().rfind("OK ", 0), 0u) << reply.value();
    query_id = strtoull(reply.value().c_str() + 3, nullptr, 10);
    ASSERT_GT(query_id, 0u);
  }

  auto sub = WatchClient::Connect("127.0.0.1", port);
  ASSERT_TRUE(sub.ok());
  ASSERT_TRUE((*sub)->SendLine("SUB " + std::to_string(query_id)).ok());
  auto ok = (*sub)->ReadLine();
  ASSERT_TRUE(ok.ok());
  ASSERT_EQ(ok.value(), "OK");

  // Ingest in spaced bursts so seals land across many 2 ms windows.
  auto client = IngestClient::Connect("127.0.0.1", port);
  ASSERT_TRUE(client.ok());
  std::atomic<bool> done{false};
  std::thread producer([&] {
    for (int burst = 0; burst < 50 && !done.load(); ++burst) {
      for (int i = 0; i < 2000; ++i) {
        if (!(*client)->Send(kAppSource, AppPayload(i % 500)).ok()) {
          return;
        }
      }
      (void)(*client)->Flush();
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
  });

  // The subscription must deliver well-formed WINDOW lines for our query.
  int windows = 0;
  for (int i = 0; i < 50 && windows < 3; ++i) {
    auto line = (*sub)->ReadLine();
    ASSERT_TRUE(line.ok()) << line.status().ToString();
    auto tok = Tokens(line.value());
    ASSERT_GE(tok.size(), 2u);
    if (tok[0] != "WINDOW") {
      ASSERT_EQ(tok[0], "ALERT");  // only these two event kinds exist
      continue;
    }
    ASSERT_EQ(tok.size(), 8u) << line.value();
    EXPECT_EQ(strtoull(tok[1].c_str(), nullptr, 10), query_id);
    const uint64_t start = strtoull(tok[3].c_str(), nullptr, 10);
    const uint64_t end = strtoull(tok[4].c_str(), nullptr, 10);
    EXPECT_EQ(end - start + 1, 2'000'000u);  // inclusive window bounds
    EXPECT_GT(strtoull(tok[5].c_str(), nullptr, 10), 0u);  // count
    char* endp = nullptr;
    const double mean = strtod(tok[6].c_str(), &endp);
    EXPECT_EQ(*endp, '\0');
    EXPECT_GE(mean, 0.0);
    ++windows;
  }
  EXPECT_GE(windows, 3);
  done.store(true);
  producer.join();
}

// --- /metrics under concurrency -------------------------------------------

// Every concurrent scrape must observe a complete, well-formed Prometheus
// body while ingest is actively sealing chunks — no torn output, no
// interleaving between connections. Runs under the tsan smoke as well.
TEST(NetScrapeTest, ConcurrentScrapesDuringActiveIngest) {
  TempDir dir;
  DaemonOptions opts;
  opts.loom.dir = dir.FilePath("daemon");
  opts.loom.chunk_size = 4 << 10;
  auto daemon = MonitoringDaemon::Start(opts);
  ASSERT_TRUE(daemon.ok());
  auto server = IngestServer::Start(daemon->get(), 0);
  ASSERT_TRUE(server.ok());
  const uint16_t port = (*server)->port();
  auto channel = (*daemon)->AddSource(kAppSource);
  ASSERT_TRUE(channel.ok());

  std::atomic<bool> stop{false};
  std::thread producer([&] {
    int i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      channel.value()->Publish(AppPayload(i++ % 1000));
    }
  });

  auto well_formed = [](const std::string& body) {
    if (body.empty() || body.back() != '\n') {
      return false;
    }
    size_t pos = 0;
    while (pos < body.size()) {
      size_t nl = body.find('\n', pos);
      if (nl == std::string::npos) {
        return false;
      }
      std::string_view line(body.data() + pos, nl - pos);
      pos = nl + 1;
      if (line.empty() || line.front() == '#') {
        continue;
      }
      // "name value" or "name_bucket{le=\"...\"} value": split at the last
      // space, check the name charset (labels allowed), parse the value.
      const size_t space = line.rfind(' ');
      if (space == std::string_view::npos || space == 0) {
        return false;
      }
      if (!isalpha(static_cast<unsigned char>(line.front())) && line.front() != '_') {
        return false;
      }
      for (char c : line.substr(0, space)) {
        if (!(isalnum(static_cast<unsigned char>(c)) || c == '_' || c == ':' || c == '{' ||
              c == '}' || c == '=' || c == '"' || c == '.' || c == '+' || c == '-')) {
          return false;
        }
      }
      char* end = nullptr;
      std::string value(line.substr(space + 1));
      strtod(value.c_str(), &end);
      if (end != value.c_str() + value.size()) {
        return false;
      }
    }
    return true;
  };

  constexpr int kScrapers = 4;
  constexpr int kScrapesEach = 20;
  std::atomic<int> bad{0};
  std::vector<std::thread> scrapers;
  for (int t = 0; t < kScrapers; ++t) {
    scrapers.emplace_back([&] {
      for (int i = 0; i < kScrapesEach; ++i) {
        auto body = FetchMetricsOverHttp("127.0.0.1", port);
        if (!body.ok() || body.value().find("loom_core_ingested_records_total") ==
                              std::string::npos ||
            !well_formed(body.value())) {
          bad.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : scrapers) {
    t.join();
  }
  stop.store(true);
  producer.join();
  EXPECT_EQ(bad.load(), 0);
}

}  // namespace
}  // namespace loom
