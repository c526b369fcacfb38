// Network ingest front door for the monitoring daemon (Figure 4: "HFT
// sources send data to the monitoring daemon").
//
// Sources on the same host (or test harnesses) connect over TCP and stream
// length-prefixed records:
//
//   u32 source_id | u32 payload_len | payload bytes        (little-endian)
//
// The server accepts connections on a listener thread and reads each
// connection on its own thread, forwarding records into the daemon's
// per-source channels, one PublishBatch per source per received wave.
// Multiple connections may carry the same source id; the server serializes
// access to each channel (the daemon's channels are single-producer).
//
// This is deliberately minimal — no TLS, no auth, loopback-oriented — it
// exists to exercise the daemon the way a real collector is driven, and to
// give tests a process-boundary-shaped path.
//
// The same port doubles as the daemon's metrics exposition endpoint: a
// connection whose first bytes are "GET " is answered with an HTTP response
// carrying the registry in Prometheus text format and then closed (the
// binary framing above can never start with those bytes — they would decode
// as source id 0x20544547). `curl http://127.0.0.1:<port>/metrics` works.
//
// It is also the standing-query front door, with the same first-bytes
// dispatch ("SUB " / "REG " decode to no plausible source id either):
//
//   REG <name> <source_id> <index_id> <aggregate> <window_nanos>
//       [<above|below|outlier> <threshold> <for_windows>]\n
//     -> "OK <query_id>\n" or "ERR <message>\n", then close.
//
//   SUB <query_id>\n        (0 subscribes to every standing query)
//     -> "OK\n", then one line per event until either side closes:
//        WINDOW <query_id> <window_index> <start> <end> <count> <value> <firing>
//        ALERT <query_id> <FIRING|RESOLVED> <window_start> <window_end> <value> <threshold>
//     <value> is printed with %.17g ("nan" when the window has no value).

#ifndef SRC_NET_INGEST_SERVER_H_
#define SRC_NET_INGEST_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/daemon/monitoring_daemon.h"

namespace loom {

struct IngestServerStats {
  uint64_t connections = 0;
  uint64_t records = 0;   // accepted into a daemon channel
  uint64_t bytes = 0;     // payload bytes received for registered sources
  uint64_t rejected = 0;  // unknown source, record above max_record_bytes, bad frame
};

class IngestServer {
 public:
  // Listens on 127.0.0.1:`port` (0 picks an ephemeral port). Sources must be
  // registered on the daemon before records for them arrive; records for
  // unregistered sources are counted as rejected and dropped.
  static Result<std::unique_ptr<IngestServer>> Start(MonitoringDaemon* daemon, uint16_t port);

  ~IngestServer();

  IngestServer(const IngestServer&) = delete;
  IngestServer& operator=(const IngestServer&) = delete;

  uint16_t port() const { return port_; }
  IngestServerStats stats() const;

  // Makes a source's channel reachable from connections. (The daemon's
  // AddSource returns the channel; handing it to the server binds it.)
  void BindSource(uint32_t source_id, SourceChannel* channel);

 private:
  explicit IngestServer(MonitoringDaemon* daemon) : daemon_(daemon) {}

  void AcceptLoop();
  void ConnectionLoop(int fd);
  // Serves one HTTP metrics scrape on `fd` (headers + Prometheus body).
  void ServeMetrics(int fd);
  // Serves one "SUB "/"REG " standing-query command whose first bytes are
  // already in `initial`; reads the rest of the line itself.
  void ServeStanding(int fd, std::vector<uint8_t> initial);
  void StreamStandingEvents(int fd, uint64_t query_id);

  MonitoringDaemon* daemon_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> stop_{false};

  mutable std::mutex mu_;
  std::unordered_map<uint32_t, SourceChannel*> channels_;
  std::vector<std::thread> connection_threads_;
  std::vector<int> connection_fds_;  // shut down on stop to unblock recv()

  std::atomic<uint64_t> connections_{0};
  std::atomic<uint64_t> records_{0};
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> rejected_{0};

  // Registry-backed mirrors (registered against the daemon's registry).
  Counter* connections_metric_ = nullptr;
  Counter* records_metric_ = nullptr;
  Counter* bytes_metric_ = nullptr;
  Counter* rejected_metric_ = nullptr;
  Counter* scrapes_metric_ = nullptr;
  Counter* standing_subs_metric_ = nullptr;
};

// Client side of the standing-query text protocol: sends SUB/REG command
// lines and reads response/event lines. Used by `loom_cli watch` and tests.
class WatchClient {
 public:
  static Result<std::unique_ptr<WatchClient>> Connect(const std::string& host, uint16_t port);
  ~WatchClient();

  WatchClient(const WatchClient&) = delete;
  WatchClient& operator=(const WatchClient&) = delete;

  // Sends one command line ("\n" appended if missing).
  Status SendLine(const std::string& line);

  // Blocks for the next "\n"-terminated line (returned without the
  // terminator). IoError("connection closed") on EOF.
  Result<std::string> ReadLine();

 private:
  explicit WatchClient(int fd) : fd_(fd) {}

  int fd_;
  std::string buf_;
};

// Client side: buffers records and writes them to the server.
class IngestClient {
 public:
  static Result<std::unique_ptr<IngestClient>> Connect(const std::string& host, uint16_t port);
  ~IngestClient();

  IngestClient(const IngestClient&) = delete;
  IngestClient& operator=(const IngestClient&) = delete;

  // Buffers one record; flushes automatically when the buffer fills.
  Status Send(uint32_t source_id, std::span<const uint8_t> payload);
  Status Flush();

 private:
  explicit IngestClient(int fd) : fd_(fd) { buffer_.reserve(kBufferSize); }

  static constexpr size_t kBufferSize = 64 << 10;

  int fd_;
  std::vector<uint8_t> buffer_;
};

// Issues an HTTP/1.0 GET against the server's metrics endpoint and returns
// the response body (the Prometheus text exposition). Test/tool helper.
Result<std::string> FetchMetricsOverHttp(const std::string& host, uint16_t port);

}  // namespace loom

#endif  // SRC_NET_INGEST_SERVER_H_
