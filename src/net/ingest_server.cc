#include "src/net/ingest_server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <string>

#include "src/common/codec.h"

namespace loom {

namespace {

constexpr size_t kMaxPayload = 1 << 20;

// Connection framing-buffer sizing: one blocking receive pulls up to
// kRecvChunk bytes, and the opportunistic non-blocking drain stops growing a
// wave past kMaxBatchBytes of unparsed data.
constexpr size_t kRecvChunk = 64 << 10;
constexpr size_t kMaxBatchBytes = 256 << 10;

Status ErrnoStatus(const char* op) {
  return Status::IoError(std::string(op) + ": " + strerror(errno));
}

Status WriteFull(int fd, const uint8_t* src, size_t n) {
  size_t done = 0;
  while (done < n) {
    ssize_t w = ::send(fd, src + done, n - done, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) {
        continue;
      }
      return ErrnoStatus("send");
    }
    done += static_cast<size_t>(w);
  }
  return Status::Ok();
}

}  // namespace

Result<std::unique_ptr<IngestServer>> IngestServer::Start(MonitoringDaemon* daemon,
                                                          uint16_t port) {
  std::unique_ptr<IngestServer> server(new IngestServer(daemon));
  MetricsRegistry* reg = daemon->metrics();
  server->connections_metric_ = reg->AddCounter("loom_net_connections_total");
  server->records_metric_ = reg->AddCounter("loom_net_records_total");
  server->bytes_metric_ = reg->AddCounter("loom_net_received_bytes");
  server->rejected_metric_ = reg->AddCounter("loom_net_rejected_total");
  server->scrapes_metric_ = reg->AddCounter("loom_net_scrapes_total");
  server->standing_subs_metric_ = reg->AddCounter("loom_net_standing_subscriptions_total");
  server->listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (server->listen_fd_ < 0) {
    return ErrnoStatus("socket");
  }
  int one = 1;
  ::setsockopt(server->listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(server->listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return ErrnoStatus("bind");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(server->listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return ErrnoStatus("getsockname");
  }
  server->port_ = ntohs(addr.sin_port);
  if (::listen(server->listen_fd_, 16) != 0) {
    return ErrnoStatus("listen");
  }
  server->accept_thread_ = std::thread([raw = server.get()] { raw->AcceptLoop(); });
  return server;
}

IngestServer::~IngestServer() {
  stop_.store(true, std::memory_order_release);
  // Closing the listener unblocks accept(); shutdown is belt-and-braces.
  // listen_fd_ itself is only overwritten after the accept thread joins —
  // AcceptLoop reads it concurrently until then.
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
  }
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  listen_fd_ = -1;
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int fd : connection_fds_) {
      ::shutdown(fd, SHUT_RDWR);  // unblocks any recv() in flight
    }
    threads.swap(connection_threads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) {
      t.join();
    }
  }
}

void IngestServer::BindSource(uint32_t source_id, SourceChannel* channel) {
  std::lock_guard<std::mutex> lock(mu_);
  channels_[source_id] = channel;
}

void IngestServer::AcceptLoop() {
  // Set before the thread starts and stable until after it joins; reading
  // the member in the loop would race the destructor's reset.
  const int listen_fd = listen_fd_;
  for (;;) {
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (stop_.load(std::memory_order_acquire)) {
        return;
      }
      if (errno == EINTR) {
        continue;
      }
      return;  // listener closed
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    connections_.fetch_add(1, std::memory_order_relaxed);
    connections_metric_->Increment();
    std::lock_guard<std::mutex> lock(mu_);
    connection_fds_.push_back(fd);
    connection_threads_.emplace_back([this, fd] { ConnectionLoop(fd); });
  }
}

void IngestServer::ConnectionLoop(int fd) {
  // Clients buffer many records per send (IngestClient::kBufferSize), so a
  // wave of records usually arrives in one TCP segment burst. Parse the wave
  // out of a framing buffer and publish each source's records in it with one
  // PublishBatch under one producer-lock acquisition, instead of one header
  // read + one payload read + one lock per record. Only the order within a
  // source survives into the engine (each source has its own channel), and
  // grouping keeps it.
  std::vector<uint8_t> buf;  // [start, buf.size()) holds unparsed bytes
  size_t start = 0;
  struct SourceRun {
    uint32_t source_id = 0;
    std::vector<std::span<const uint8_t>> payloads;  // views into buf
    uint64_t bytes = 0;
  };
  // runs[0, used) hold this wave's sources in first-seen order; the vectors
  // keep their capacity across waves, so steady state allocates nothing.
  std::vector<SourceRun> runs;

  // Appends up to kRecvChunk bytes. Returns false when no data is available
  // (EOF, or EAGAIN in non-blocking mode).
  auto fill = [&](bool nonblocking) -> Result<bool> {
    const size_t old = buf.size();
    buf.resize(old + kRecvChunk);
    for (;;) {
      ssize_t r = ::recv(fd, buf.data() + old, kRecvChunk, nonblocking ? MSG_DONTWAIT : 0);
      if (r < 0) {
        buf.resize(old);
        if (errno == EINTR) {
          continue;
        }
        if (nonblocking && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          return false;
        }
        return Status::IoError(std::string("recv: ") + strerror(errno));
      }
      if (r == 0) {
        buf.resize(old);
        return false;  // EOF (mid-frame leftovers just drop the connection)
      }
      buf.resize(old + static_cast<size_t>(r));
      return true;
    }
  };

  bool first_wave = true;
  for (;;) {
    if (stop_.load(std::memory_order_acquire)) {
      break;
    }
    // Compact the partial frame (if any) to the front, then block for the
    // next wave and drain whatever else is already on the wire.
    if (start > 0) {
      buf.erase(buf.begin(), buf.begin() + static_cast<ptrdiff_t>(start));
      start = 0;
    }
    auto got = fill(/*nonblocking=*/false);
    if (!got.ok() || !got.value()) {
      break;
    }
    // HTTP scrape detection: the binary framing starts with a source id, and
    // no real source decodes to ASCII "GET " (0x20544547). Serve the metrics
    // page and close — one scrape per connection, like Prometheus expects
    // from an HTTP/1.0 target.
    if (first_wave && buf.size() >= 4 && std::memcmp(buf.data(), "GET ", 4) == 0) {
      ServeMetrics(fd);
      ::close(fd);
      return;
    }
    // Standing-query text commands ride the same first-bytes dispatch:
    // "SUB " / "REG " decode to source ids 0x20425553 / 0x20474552, outside
    // any plausible source range just like "GET ".
    if (first_wave && buf.size() >= 4 &&
        (std::memcmp(buf.data(), "SUB ", 4) == 0 || std::memcmp(buf.data(), "REG ", 4) == 0)) {
      ServeStanding(fd, std::move(buf));
      ::close(fd);
      return;
    }
    first_wave = false;
    while (buf.size() - start < kMaxBatchBytes) {
      auto more = fill(/*nonblocking=*/true);
      if (!more.ok() || !more.value()) {
        break;
      }
    }

    // Parse complete frames; a partial frame stays for the next wave.
    size_t used = 0;
    size_t last = 0;  // run of the previous frame
    bool protocol_error = false;
    while (buf.size() - start >= 8) {
      const uint32_t source_id = LoadU32(buf.data() + start);
      const uint32_t payload_len = LoadU32(buf.data() + start + 4);
      if (payload_len > kMaxPayload) {
        protocol_error = true;  // drop the connection after this wave
        break;
      }
      if (buf.size() - start < 8ull + payload_len) {
        break;
      }
      if (used == 0 || runs[last].source_id != source_id) {
        last = 0;
        while (last < used && runs[last].source_id != source_id) {
          ++last;
        }
        if (last == used) {
          if (used == runs.size()) {
            runs.emplace_back();
          }
          runs[used].source_id = source_id;
          runs[used].payloads.clear();
          runs[used].bytes = 0;
          ++used;
        }
      }
      runs[last].payloads.emplace_back(buf.data() + start + 8, payload_len);
      runs[last].bytes += payload_len;
      start += 8 + payload_len;
    }

    uint64_t stored = 0;
    uint64_t stored_bytes = 0;
    uint64_t rejected = protocol_error ? 1 : 0;
    for (size_t r = 0; r < used; ++r) {
      const SourceRun& run = runs[r];
      // Serialize producers: the daemon channel is single-producer.
      std::lock_guard<std::mutex> lock(mu_);
      auto it = channels_.find(run.source_id);
      if (it == channels_.end()) {
        rejected += run.payloads.size();
        continue;
      }
      // Records above the channel's max_record_bytes come back dropped.
      const size_t accepted = it->second->PublishBatch(run.payloads);
      rejected += run.payloads.size() - accepted;
      stored += accepted;
      stored_bytes += run.bytes;
    }
    if (stored > 0) {
      records_.fetch_add(stored, std::memory_order_relaxed);
      records_metric_->Increment(stored);
      bytes_.fetch_add(stored_bytes, std::memory_order_relaxed);
      bytes_metric_->Increment(stored_bytes);
    }
    if (rejected > 0) {
      rejected_.fetch_add(rejected, std::memory_order_relaxed);
      rejected_metric_->Increment(rejected);
    }
    if (protocol_error) {
      break;
    }
  }
  ::close(fd);
}

void IngestServer::ServeMetrics(int fd) {
  scrapes_metric_->Increment();
  const std::string body = daemon_->DumpMetrics();
  std::string response;
  response.reserve(body.size() + 128);
  response += "HTTP/1.0 200 OK\r\n";
  response += "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n";
  response += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  response += "Connection: close\r\n\r\n";
  response += body;
  (void)WriteFull(fd, reinterpret_cast<const uint8_t*>(response.data()), response.size());
}

namespace {

Status WriteLine(int fd, const std::string& line) {
  return WriteFull(fd, reinterpret_cast<const uint8_t*>(line.data()), line.size());
}

std::vector<std::string> SplitTokens(const std::string& s) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) {
      ++i;
    }
    size_t j = i;
    while (j < s.size() && s[j] != ' ' && s[j] != '\t') {
      ++j;
    }
    if (j > i) {
      out.push_back(s.substr(i, j - i));
    }
    i = j;
  }
  return out;
}

bool ParseU64Token(const std::string& tok, uint64_t* out) {
  if (tok.empty()) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = strtoull(tok.c_str(), &end, 10);
  if (errno != 0 || end != tok.c_str() + tok.size()) {
    return false;
  }
  *out = v;
  return true;
}

std::string FormatEventLine(const StandingEvent& ev) {
  char buf[256];
  if (ev.kind == StandingEvent::Kind::kWindow) {
    const StandingWindowResult& w = ev.window;
    char value[40];
    if (w.has_value) {
      snprintf(value, sizeof(value), "%.17g", w.value);
    } else {
      snprintf(value, sizeof(value), "nan");
    }
    snprintf(buf, sizeof(buf), "WINDOW %llu %llu %llu %llu %llu %s %d\n",
             static_cast<unsigned long long>(w.query_id),
             static_cast<unsigned long long>(w.window_index),
             static_cast<unsigned long long>(w.window_start),
             static_cast<unsigned long long>(w.window_end),
             static_cast<unsigned long long>(w.count), value, w.alert_firing ? 1 : 0);
  } else {
    const StandingAlertEvent& a = ev.alert;
    snprintf(buf, sizeof(buf), "ALERT %llu %s %llu %llu %.17g %.17g\n",
             static_cast<unsigned long long>(a.query_id), a.firing ? "FIRING" : "RESOLVED",
             static_cast<unsigned long long>(a.window_start),
             static_cast<unsigned long long>(a.window_end), a.value, a.threshold);
  }
  return buf;
}

}  // namespace

void IngestServer::ServeStanding(int fd, std::vector<uint8_t> initial) {
  // Complete the command line (the first wave may have split it).
  std::string line(initial.begin(), initial.end());
  while (line.find('\n') == std::string::npos) {
    if (line.size() > 1024) {
      (void)WriteLine(fd, "ERR command line too long\n");
      return;
    }
    char chunk[256];
    ssize_t r = ::recv(fd, chunk, sizeof(chunk), 0);
    if (r < 0 && errno == EINTR) {
      continue;
    }
    if (r <= 0) {
      return;  // client went away mid-command
    }
    line.append(chunk, static_cast<size_t>(r));
  }
  line.resize(line.find('\n'));
  if (!line.empty() && line.back() == '\r') {
    line.pop_back();
  }

  std::vector<std::string> tok = SplitTokens(line);
  if (tok.empty()) {
    (void)WriteLine(fd, "ERR empty command\n");
    return;
  }
  if (tok[0] == "SUB") {
    uint64_t query_id = 0;
    if (tok.size() != 2 || !ParseU64Token(tok[1], &query_id)) {
      (void)WriteLine(fd, "ERR usage: SUB <query_id>\n");
      return;
    }
    if (!WriteLine(fd, "OK\n").ok()) {
      return;
    }
    standing_subs_metric_->Increment();
    StreamStandingEvents(fd, query_id);
    return;
  }
  // REG <name> <source_id> <index_id> <aggregate> <window_nanos>
  //     [<kind> <threshold> <for_windows>]
  if (tok.size() != 6 && tok.size() != 9) {
    (void)WriteLine(fd,
                    "ERR usage: REG <name> <source_id> <index_id> <aggregate> "
                    "<window_nanos> [<above|below|outlier> <threshold> <for_windows>]\n");
    return;
  }
  StandingQuerySpec spec;
  spec.name = tok[1];
  uint64_t source_id = 0;
  uint64_t index_id = 0;
  auto aggregate = ParseStandingAggregate(tok[4]);
  if (!ParseU64Token(tok[2], &source_id) || !ParseU64Token(tok[3], &index_id) ||
      !aggregate.ok() || !ParseU64Token(tok[5], &spec.window_nanos)) {
    (void)WriteLine(fd, "ERR bad REG arguments\n");
    return;
  }
  spec.source_id = static_cast<uint32_t>(source_id);
  spec.index_id = static_cast<uint32_t>(index_id);
  spec.aggregate = aggregate.value();
  if (tok.size() == 9) {
    auto kind = ParseStandingAlertKind(tok[6]);
    uint64_t for_windows = 0;
    char* end = nullptr;
    const double threshold = strtod(tok[7].c_str(), &end);
    if (!kind.ok() || end != tok[7].c_str() + tok[7].size() ||
        !ParseU64Token(tok[8], &for_windows)) {
      (void)WriteLine(fd, "ERR bad alert rule\n");
      return;
    }
    spec.alert.kind = kind.value();
    spec.alert.threshold = threshold;
    spec.alert.for_windows = static_cast<uint32_t>(for_windows);
  }
  auto id = daemon_->AddStandingQuery(spec);
  if (!id.ok()) {
    (void)WriteLine(fd, "ERR " + id.status().message() + "\n");
    return;
  }
  (void)WriteLine(fd, "OK " + std::to_string(id.value()) + "\n");
}

void IngestServer::StreamStandingEvents(int fd, uint64_t query_id) {
  std::shared_ptr<StandingSubscription> sub = daemon_->SubscribeStanding(query_id, 4096);
  if (sub == nullptr) {
    (void)WriteLine(fd, "ERR standing queries unavailable\n");
    return;
  }
  while (!stop_.load(std::memory_order_acquire)) {
    std::vector<StandingEvent> events = sub->Poll(128, 200);
    bool write_failed = false;
    for (const StandingEvent& ev : events) {
      const std::string line = FormatEventLine(ev);
      if (!WriteLine(fd, line).ok()) {
        write_failed = true;
        break;
      }
    }
    if (write_failed) {
      break;
    }
  }
  sub->Close();  // detaches from the engine at its next publish
}

IngestServerStats IngestServer::stats() const {
  IngestServerStats s;
  s.connections = connections_.load(std::memory_order_relaxed);
  s.records = records_.load(std::memory_order_relaxed);
  s.bytes = bytes_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  return s;
}

Result<std::unique_ptr<IngestClient>> IngestClient::Connect(const std::string& host,
                                                            uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return ErrnoStatus("socket");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad host address " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status st = ErrnoStatus("connect");
    ::close(fd);
    return st;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::unique_ptr<IngestClient>(new IngestClient(fd));
}

Result<std::unique_ptr<WatchClient>> WatchClient::Connect(const std::string& host,
                                                          uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return ErrnoStatus("socket");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad host address " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status st = ErrnoStatus("connect");
    ::close(fd);
    return st;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::unique_ptr<WatchClient>(new WatchClient(fd));
}

WatchClient::~WatchClient() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Status WatchClient::SendLine(const std::string& line) {
  std::string out = line;
  if (out.empty() || out.back() != '\n') {
    out.push_back('\n');
  }
  return WriteFull(fd_, reinterpret_cast<const uint8_t*>(out.data()), out.size());
}

Result<std::string> WatchClient::ReadLine() {
  for (;;) {
    const size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buf_.substr(0, nl);
      buf_.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') {
        line.pop_back();
      }
      return line;
    }
    char chunk[4096];
    ssize_t r = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (r < 0) {
      if (errno == EINTR) {
        continue;
      }
      return ErrnoStatus("recv");
    }
    if (r == 0) {
      return Status::IoError("connection closed");
    }
    buf_.append(chunk, static_cast<size_t>(r));
  }
}

IngestClient::~IngestClient() {
  (void)Flush();
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Status IngestClient::Send(uint32_t source_id, std::span<const uint8_t> payload) {
  PutU32(buffer_, source_id);
  PutU32(buffer_, static_cast<uint32_t>(payload.size()));
  buffer_.insert(buffer_.end(), payload.begin(), payload.end());
  if (buffer_.size() >= kBufferSize) {
    return Flush();
  }
  return Status::Ok();
}

Status IngestClient::Flush() {
  if (buffer_.empty()) {
    return Status::Ok();
  }
  Status st = WriteFull(fd_, buffer_.data(), buffer_.size());
  buffer_.clear();
  return st;
}

Result<std::string> FetchMetricsOverHttp(const std::string& host, uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return ErrnoStatus("socket");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad host address " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status st = ErrnoStatus("connect");
    ::close(fd);
    return st;
  }
  const std::string request = "GET /metrics HTTP/1.0\r\nHost: " + host + "\r\n\r\n";
  Status st = WriteFull(fd, reinterpret_cast<const uint8_t*>(request.data()), request.size());
  if (!st.ok()) {
    ::close(fd);
    return st;
  }
  std::string response;
  char chunk[4096];
  for (;;) {
    ssize_t r = ::recv(fd, chunk, sizeof(chunk), 0);
    if (r < 0) {
      if (errno == EINTR) {
        continue;
      }
      ::close(fd);
      return ErrnoStatus("recv");
    }
    if (r == 0) {
      break;  // server closes after one response
    }
    response.append(chunk, static_cast<size_t>(r));
  }
  ::close(fd);
  const size_t body_at = response.find("\r\n\r\n");
  if (!response.starts_with("HTTP/") || body_at == std::string::npos) {
    return Status::DataLoss("malformed HTTP response");
  }
  return response.substr(body_at + 4);
}

}  // namespace loom
