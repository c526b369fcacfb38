#include "src/daemon/monitoring_daemon.h"

#include <chrono>
#include <cstring>
#include <optional>

#include "src/common/codec.h"

namespace loom {

uint32_t SelfMetricId(std::string_view metric_name) {
  // FNV-1a, 32-bit.
  uint32_t h = 2166136261u;
  for (char c : metric_name) {
    h ^= static_cast<uint8_t>(c);
    h *= 16777619u;
  }
  return h;
}

namespace {

// Self-telemetry sample payload: u32 metric id | f64 value (host-endian,
// in-process only — samples never cross machines unencoded).
constexpr size_t kSelfSampleBytes = 12;

void EncodeSelfSample(uint32_t id, double value, uint8_t* out) {
  std::memcpy(out, &id, 4);
  std::memcpy(out + 4, &value, 8);
}

// Length word of the frame that sends the consumer back to offset 0. Start()
// keeps max_record_bytes below it.
constexpr uint32_t kWrapMarker = 0xFFFFFFFFu;

// Records per PushBatch handoff (the batch-size histogram's range).
constexpr size_t kMaxBatchRecords = 128;

// Ring bytes one record takes: the length word, the payload, padding to 4 so
// every length word is aligned and at least 4 bytes always remain before the
// end of the ring for a wrap marker.
size_t FrameBytes(size_t payload_len) { return (4 + payload_len + 3) & ~size_t{3}; }

// Producer-only counters: a relaxed load and store instead of a locked add.
void AddOwned(std::atomic<uint64_t>& counter, uint64_t delta) {
  counter.store(counter.load(std::memory_order_relaxed) + delta, std::memory_order_relaxed);
}

}  // namespace

std::vector<SelfWatch> DefaultSelfWatches() {
  std::vector<SelfWatch> watches;
  SelfWatch drops;
  drops.metric = "loom_daemon_dropped_records_total";
  drops.aggregate = StandingAggregate::kSum;  // deltas, so sum = drops/window
  drops.alert.kind = StandingAlertRule::Kind::kAbove;
  drops.alert.threshold = 0.0;
  drops.alert.for_windows = 1;
  watches.push_back(std::move(drops));
  SelfWatch cache_hits;
  // Exported as a gauge (cumulative value, not a delta): kMax per window is
  // the hit count as of the window's end, so dashboards difference windows.
  cache_hits.metric = "loom_cache_hits_total";
  cache_hits.aggregate = StandingAggregate::kMax;
  watches.push_back(std::move(cache_hits));
  return watches;
}

Loom::IndexFunc SelfValueIndexFunc(const std::string& metric_name) {
  const uint32_t want = SelfMetricId(metric_name);
  return [want](std::span<const uint8_t> payload) -> std::optional<double> {
    if (payload.size() != kSelfSampleBytes) {
      return std::nullopt;
    }
    uint32_t id;
    std::memcpy(&id, payload.data(), 4);
    if (id != want) {
      return std::nullopt;
    }
    double value;
    std::memcpy(&value, payload.data() + 4, 8);
    return value;
  };
}

SourceChannel::SourceChannel(uint32_t source_id, size_t ring_bytes, size_t max_bytes,
                             Waker* waker)
    : source_id_(source_id),
      max_bytes_(max_bytes),
      capacity_(ring_bytes),
      ring_(new uint8_t[ring_bytes]),
      waker_(waker) {}

bool SourceChannel::TryWrite(std::span<const uint8_t> payload) {
  const size_t frame = FrameBytes(payload.size());
  size_t offset = static_cast<size_t>(write_pos_ & (capacity_ - 1));
  const size_t to_end = capacity_ - offset;
  const size_t skip = frame > to_end ? to_end : 0;  // wrap: frames never straddle the end
  if (capacity_ - (write_pos_ - read_cache_) < skip + frame) {
    read_cache_ = read_pos_.load(std::memory_order_acquire);
    if (capacity_ - (write_pos_ - read_cache_) < skip + frame) {
      return false;
    }
  }
  if (skip != 0) {
    StoreU32(ring_.get() + offset, kWrapMarker);
    write_pos_ += skip;
    offset = 0;
  }
  StoreU32(ring_.get() + offset, static_cast<uint32_t>(payload.size()));
  if (!payload.empty()) {
    std::memcpy(ring_.get() + offset + 4, payload.data(), payload.size());
  }
  write_pos_ += frame;
  return true;
}

void SourceChannel::PublishWritten(uint64_t records) {
  AddOwned(accepted_, records);
  write_pub_.store(write_pos_, std::memory_order_release);
  waker_->WakeIfParked();
}

bool SourceChannel::Offer(std::span<const uint8_t> payload) {
  if (payload.size() > max_bytes_ || !TryWrite(payload)) {
    AddOwned(dropped_, 1);
    return false;
  }
  PublishWritten(1);
  return true;
}

size_t SourceChannel::PublishBatch(std::span<const std::span<const uint8_t>> payloads) {
  uint64_t written = 0;   // frames written since the last publish
  uint64_t accepted = 0;
  for (const std::span<const uint8_t>& payload : payloads) {
    if (payload.size() > max_bytes_) {
      AddOwned(dropped_, 1);  // can never fit: drop it once and go on
      continue;
    }
    if (!TryWrite(payload)) {
      // Full: let the ingest thread drain what is written, then wait. Start()
      // sized the ring for two maximum frames, so an empty ring takes any.
      PublishWritten(written);
      written = 0;
      AddOwned(publish_waits_, 1);
      while (!TryWrite(payload)) {
        std::this_thread::yield();
      }
    }
    ++written;
    ++accepted;
  }
  if (written > 0) {
    PublishWritten(written);
  }
  return accepted;
}

uint64_t SourceChannel::Peek(size_t max, std::vector<std::span<const uint8_t>>* out) {
  uint64_t pos = read_pos_.load(std::memory_order_relaxed);  // written only here
  if (pos == write_cache_) {
    write_cache_ = write_pub_.load(std::memory_order_acquire);
  }
  for (size_t n = 0; n < max && pos != write_cache_;) {
    const size_t offset = static_cast<size_t>(pos & (capacity_ - 1));
    const uint32_t len = LoadU32(ring_.get() + offset);
    if (len == kWrapMarker) {
      pos += capacity_ - offset;
      continue;
    }
    out->emplace_back(ring_.get() + offset + 4, len);
    pos += FrameBytes(len);
    ++n;
  }
  return pos;
}

void SourceChannel::Release(uint64_t pos, uint64_t records) {
  AddOwned(consumed_, records);
  read_pos_.store(pos, std::memory_order_release);
}

DaemonSourceStats SourceChannel::stats() const {
  DaemonSourceStats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.dropped = dropped_.load(std::memory_order_relaxed);
  s.offered = s.accepted + s.dropped;
  s.publish_waits = publish_waits_.load(std::memory_order_relaxed);
  return s;
}

Result<std::unique_ptr<MonitoringDaemon>> MonitoringDaemon::Start(const DaemonOptions& options) {
  if (options.max_record_bytes >= kWrapMarker ||
      options.channel_bytes < 2 * FrameBytes(options.max_record_bytes)) {
    return Status::InvalidArgument(
        "channel_bytes must hold two frames of max_record_bytes (4 + bytes, padded to 4)");
  }
  std::unique_ptr<MonitoringDaemon> daemon(new MonitoringDaemon(options));
  size_t ring_bytes = 4;
  while (ring_bytes < options.channel_bytes) {
    ring_bytes <<= 1;
  }
  daemon->options_.channel_bytes = ring_bytes;
  auto loom = Loom::Open(options.loom);
  if (!loom.ok()) {
    return loom.status();
  }
  daemon->loom_ = std::move(loom.value());
  daemon->RegisterMetrics();
  daemon->ingest_ = std::thread([raw = daemon.get()] { raw->IngestMain(); });
  return daemon;
}

MonitoringDaemon::~MonitoringDaemon() {
  stop_.store(true, std::memory_order_release);
  waker_.Wake();
  if (ingest_.joinable()) {
    ingest_.join();
  }
  // The registry may be shared (DaemonOptions.loom.metrics) and outlive this
  // daemon: count what the channels did since the last collection, then
  // remove the hook, which walks channels_, before they go.
  if (channel_hook_id_ != 0) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      SyncChannelMetrics();
    }
    metrics()->RemoveCollectionHook(channel_hook_id_);
  }
}

void MonitoringDaemon::RegisterMetrics() {
  MetricsRegistry* reg = metrics();
  offered_metric_ = reg->AddCounter("loom_daemon_offered_records_total");
  accepted_metric_ = reg->AddCounter("loom_daemon_accepted_records_total");
  dropped_metric_ = reg->AddCounter("loom_daemon_dropped_records_total");
  publish_waits_metric_ = reg->AddCounter("loom_daemon_publish_waits_total");
  self_samples_metric_ = reg->AddCounter("loom_daemon_self_samples_total");
  // Batch handoffs carry at most kMaxBatchRecords records.
  batch_records_ = reg->AddHistogram("loom_daemon_batch_records",
                                     HistogramOptions::Exponential(1.0, 2.0, 9));
  queue_depth_ = reg->AddGauge("loom_daemon_queue_depth");
  channel_hook_id_ = reg->AddCollectionHook([this] {
    std::lock_guard<std::mutex> lock(mu_);
    SyncChannelMetrics();
  });
}

void MonitoringDaemon::SyncChannelMetrics() {
  DaemonSourceStats total;
  uint64_t depth = 0;
  for (const auto& channel : channels_) {
    const DaemonSourceStats s = channel->stats();
    total.offered += s.offered;
    total.accepted += s.accepted;
    total.dropped += s.dropped;
    total.publish_waits += s.publish_waits;
    depth += channel->QueueDepthRecords();
  }
  // Each channel count only grows, so every difference is non-negative.
  offered_metric_->Increment(total.offered - reported_.offered);
  accepted_metric_->Increment(total.accepted - reported_.accepted);
  dropped_metric_->Increment(total.dropped - reported_.dropped);
  publish_waits_metric_->Increment(total.publish_waits - reported_.publish_waits);
  reported_ = total;
  queue_depth_->Set(static_cast<double>(depth));
}

Result<SourceChannel*> MonitoringDaemon::AddSource(uint32_t source_id) {
  std::unique_ptr<SourceChannel> channel(new SourceChannel(
      source_id, options_.channel_bytes, options_.max_record_bytes, &waker_));
  SourceChannel* raw = channel.get();

  // DefineSource must run on the ingest thread; enqueue and wait.
  Result<uint32_t> define_result(0u);
  std::atomic<bool> done{false};
  {
    std::lock_guard<std::mutex> lock(mu_);
    PendingIndex op;
    op.source_id = source_id;
    op.func = nullptr;  // marks "define source"
    op.result = &define_result;
    op.done = &done;
    pending_.push_back(std::move(op));
    ops_pending_.store(true, std::memory_order_release);
  }
  waker_.Wake();
  while (!done.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  if (!define_result.ok()) {
    return define_result.status();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    channels_.push_back(std::move(channel));
    channel_count_.store(channels_.size(), std::memory_order_release);
  }
  return raw;
}

Result<uint32_t> MonitoringDaemon::AddIndex(uint32_t source_id, Loom::IndexFunc func,
                                            HistogramSpec spec) {
  Result<uint32_t> result(0u);
  std::atomic<bool> done{false};
  {
    std::lock_guard<std::mutex> lock(mu_);
    PendingIndex op;
    op.source_id = source_id;
    op.func = std::move(func);
    op.spec = std::move(spec);
    op.result = &result;
    op.done = &done;
    pending_.push_back(std::move(op));
    ops_pending_.store(true, std::memory_order_release);
  }
  waker_.Wake();
  while (!done.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  return result;
}

void MonitoringDaemon::Flush() {
  // The ingest thread releases ring space only after PushBatch returned, so
  // an empty ring means its records are stored.
  waker_.Wake();
  for (;;) {
    bool empty = true;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& channel : channels_) {
        if (!channel->Empty()) {
          empty = false;
          break;
        }
      }
      if (empty && pending_.empty()) {
        return;
      }
    }
    std::this_thread::yield();
  }
}

void MonitoringDaemon::PushSelfTelemetrySamples() {
  // Runs on the ingest thread (the engine's single-writer contract). The
  // snapshot runs the registry's collection hooks, so gauges are current.
  const MetricsSnapshot snap = metrics()->Snapshot();
  std::vector<uint8_t> bytes;
  bytes.reserve((snap.counters.size() + snap.gauges.size() + snap.histograms.size()) *
                kSelfSampleBytes);
  size_t n = 0;
  auto add = [&](const std::string& name, double value) {
    bytes.resize((n + 1) * kSelfSampleBytes);
    EncodeSelfSample(SelfMetricId(name), value, bytes.data() + n * kSelfSampleBytes);
    ++n;
  };
  for (const auto& [name, value] : snap.counters) {
    uint64_t& prev = prev_counters_[name];
    add(name, static_cast<double>(value - prev));
    prev = value;
  }
  for (const auto& [name, value] : snap.gauges) {
    add(name, value);
  }
  for (const auto& [name, hist] : snap.histograms) {
    auto& [prev_sum, prev_count] = prev_hist_[name];
    if (hist.count > prev_count) {
      add(name + ":mean",
          (hist.sum - prev_sum) / static_cast<double>(hist.count - prev_count));
    }
    prev_sum = hist.sum;
    prev_count = hist.count;
  }
  if (n == 0) {
    return;
  }
  std::vector<std::span<const uint8_t>> payloads;
  payloads.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    payloads.emplace_back(bytes.data() + i * kSelfSampleBytes, kSelfSampleBytes);
  }
  Status st = loom_->PushBatch(kSelfTelemetrySourceId,
                               std::span<const std::span<const uint8_t>>(payloads));
  if (st.ok()) {
    self_samples_metric_->Increment(n);
    records_ingested_.fetch_add(n, std::memory_order_relaxed);
  }
}

std::vector<std::pair<std::string, uint64_t>> MonitoringDaemon::self_watch_ids() const {
  std::lock_guard<std::mutex> lock(mu_);
  return self_watch_ids_;
}

void MonitoringDaemon::InstallSelfWatches() {
  // Runs first thing on the ingest thread, before any pending op: callers
  // whose AddSource/AddIndex completed are therefore ordered after the
  // watches exist. Index definitions must run here (single-writer contract).
  std::vector<std::pair<std::string, uint64_t>> installed;
  for (const SelfWatch& watch : options_.self_watches) {
    auto spec = HistogramSpec::Exponential(1.0, 2.0, 20);
    if (!spec.ok()) {
      continue;
    }
    auto index =
        loom_->DefineIndex(kSelfTelemetrySourceId, SelfValueIndexFunc(watch.metric),
                           std::move(spec.value()));
    if (!index.ok()) {
      continue;
    }
    StandingQuerySpec query;
    query.name = watch.metric;
    query.source_id = kSelfTelemetrySourceId;
    query.index_id = index.value();
    query.aggregate = watch.aggregate;
    query.window_nanos = watch.window_nanos;
    query.alert = watch.alert;
    auto id = loom_->RegisterStandingQuery(query);
    if (id.ok()) {
      installed.emplace_back(watch.metric, id.value());
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  self_watch_ids_ = std::move(installed);
}

void MonitoringDaemon::RunPendingOps() {
  std::vector<PendingIndex> ops;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ops.swap(pending_);
    ops_pending_.store(false, std::memory_order_relaxed);
  }
  for (PendingIndex& op : ops) {
    if (!op.func) {
      Status st = loom_->DefineSource(op.source_id);
      *op.result = st.ok() ? Result<uint32_t>(op.source_id) : Result<uint32_t>(st);
    } else {
      *op.result = loom_->DefineIndex(op.source_id, std::move(op.func), std::move(op.spec));
    }
    op.done->store(true, std::memory_order_release);
  }
}

void MonitoringDaemon::Park(const std::vector<SourceChannel*>& channels) {
  std::optional<std::chrono::nanoseconds> timeout;
  if (options_.self_telemetry) {
    const uint64_t since = MetricsNowNanos() - last_self_sample_nanos_;
    const uint64_t period = options_.self_telemetry_period_nanos;
    timeout = std::chrono::nanoseconds(since < period ? period - since : 0);
  }
  waker_.Park(
      [&] {
        if (stop_.load(std::memory_order_relaxed) ||
            ops_pending_.load(std::memory_order_relaxed) ||
            channel_count_.load(std::memory_order_relaxed) != channels.size()) {
          return true;
        }
        for (const SourceChannel* channel : channels) {
          if (!channel->Empty()) {
            return true;
          }
        }
        return false;
      },
      timeout);
}

void MonitoringDaemon::IngestMain() {
  if (options_.self_telemetry) {
    (void)loom_->DefineSource(kSelfTelemetrySourceId);
    InstallSelfWatches();
    last_self_sample_nanos_ = MetricsNowNanos();
  }
  std::vector<SourceChannel*> channels;  // this thread's copy of channels_
  std::vector<std::span<const uint8_t>> payloads;
  payloads.reserve(kMaxBatchRecords);
  size_t rr = 0;  // round-robin cursor over channels
  for (;;) {
    // 1. Run pending schema ops and pick up new channels.
    if (ops_pending_.load(std::memory_order_acquire)) {
      RunPendingOps();
    }
    if (channel_count_.load(std::memory_order_acquire) != channels.size()) {
      std::lock_guard<std::mutex> lock(mu_);
      channels.clear();
      for (const auto& channel : channels_) {
        channels.push_back(channel.get());
      }
    }

    // 2. Drain channels round-robin, one bounded batch each, handed to the
    // engine in a single PushBatch straight out of the ring: one source
    // lookup, one clock read, one publish fence instead of one each per
    // record. The ring space is released once the engine has copied it.
    const size_t channel_count = channels.size();
    uint64_t drained = 0;
    for (size_t i = 0; i < channel_count; ++i) {
      SourceChannel* channel = channels[(rr + i) % channel_count];
      payloads.clear();
      const uint64_t end = channel->Peek(kMaxBatchRecords, &payloads);
      if (payloads.empty()) {
        continue;
      }
      Status st = loom_->PushBatch(channel->source_id(),
                                   std::span<const std::span<const uint8_t>>(payloads));
      if (st.ok()) {
        records_ingested_.fetch_add(payloads.size(), std::memory_order_relaxed);
      }
      batch_records_->Observe(static_cast<double>(payloads.size()));
      channel->Release(end, payloads.size());
      drained += payloads.size();
    }
    rr = channel_count == 0 ? 0 : (rr + 1) % channel_count;

    // 3. Self-telemetry: on the sampling period, feed the registry's current
    // readings back into the engine as ordinary records.
    if (options_.self_telemetry) {
      const uint64_t now = MetricsNowNanos();
      if (now - last_self_sample_nanos_ >= options_.self_telemetry_period_nanos) {
        last_self_sample_nanos_ = now;
        PushSelfTelemetrySamples();
      }
    }

    if (drained == 0) {
      if (stop_.load(std::memory_order_acquire)) {
        return;
      }
      Park(channels);
    }
  }
}

}  // namespace loom
