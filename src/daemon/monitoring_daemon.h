// Monitoring daemon: the deployment shape from §3 / Figure 4.
//
// Loom's engine requires a single ingest thread. Real collectors (the
// OpenTelemetry Collector, FluentD) receive telemetry from many concurrent
// sources, so this daemon provides the multi-producer front door: each
// registered source gets its own bounded SPSC byte ring, and one internal
// ingest thread drains the rings into the Loom engine. Queries pass straight
// through to the engine (they are already any-thread-safe and never block
// ingest).
//
// Backpressure policy: Offer() never blocks the producing source. If a
// source's ring is full, Offer() drops the record (counted); PublishBatch()
// and Publish() wait for space instead (each wait counted) and drop only
// records larger than max_record_bytes — matching the paper's position that
// probe effect (blocking the instrumented application) is worse than
// visible, counted drops at the collector boundary.

#ifndef SRC_DAEMON_MONITORING_DAEMON_H_
#define SRC_DAEMON_MONITORING_DAEMON_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/core/loom.h"

namespace loom {

// Source id reserved for the daemon's own metric samples (SelfTelemetry
// mode). High enough to stay clear of user sources, below the padding
// sentinel (0xFFFFFFFF).
inline constexpr uint32_t kSelfTelemetrySourceId = 0xFFFFFF00u;

// A standing watch the daemon installs over its own self-telemetry stream:
// one metric name (by exact registry name; counters arrive as per-sample
// deltas, so kSum over a window is the metric's increase in that window),
// aggregated per window, with an optional alert rule. The first consumer of
// standing queries is Loom watching itself.
struct SelfWatch {
  std::string metric;
  StandingAggregate aggregate = StandingAggregate::kSum;
  uint64_t window_nanos = 200'000'000;  // 200 ms
  StandingAlertRule alert;
};

// The default self-watch set: alert when the daemon drops records at its
// front door (any drop in a window), and surface the summary-cache hit rate
// per window for dashboards (no alert rule — cold starts would flap).
std::vector<SelfWatch> DefaultSelfWatches();

struct DaemonOptions {
  LoomOptions loom;
  // Per-source ring size in bytes, rounded up to a power of two. A record
  // takes 4 + its payload bytes, padded to 4. Start() rejects a ring that
  // cannot hold two frames of max_record_bytes.
  size_t channel_bytes = 512 << 10;
  // Largest record accepted through a channel.
  size_t max_record_bytes = 4096;
  // SelfTelemetry: the daemon periodically samples its own metrics registry
  // and pushes the samples into source `kSelfTelemetrySourceId`, so Loom's
  // query operators (e.g. IndexedAggregate with SelfValueIndexFunc) run over
  // the engine's own operational metrics. Counters are sampled as deltas,
  // gauges as values, histograms as mean-over-period under "<name>:mean".
  bool self_telemetry = false;
  uint64_t self_telemetry_period_nanos = 50'000'000;  // 50 ms
  // Standing watches installed over the self-telemetry source at startup
  // (requires self_telemetry). Empty = none; use DefaultSelfWatches() for
  // the drop-rate alert + cache-hit watch.
  std::vector<SelfWatch> self_watches;
};

// Stable 32-bit id (FNV-1a) of a metric name; the first field of every
// self-telemetry sample payload.
uint32_t SelfMetricId(std::string_view metric_name);

// Index function matching self-telemetry samples of one metric: returns the
// sample's value for records whose id equals SelfMetricId(metric_name),
// nullopt otherwise. Histogram means are published as "<name>:mean".
Loom::IndexFunc SelfValueIndexFunc(const std::string& metric_name);

// Every record offered is either accepted or dropped, once:
// offered == accepted + dropped.
struct DaemonSourceStats {
  uint64_t offered = 0;
  uint64_t accepted = 0;
  uint64_t dropped = 0;
  // Times PublishBatch/Publish found the ring full and waited for space.
  uint64_t publish_waits = 0;
};

// Wakes the daemon's ingest thread when it is parked. The thread announces
// `parked` before its last look at the rings; a producer reads it after
// publishing (a seq_cst fence on each side orders the two), so either the
// thread sees the new records or the producer sees it parked and sets the
// wake flag under the mutex.
struct IngestWaker {
  std::atomic<bool> parked{false};
  std::mutex mu;
  std::condition_variable cv;
  bool wake = false;  // guarded by mu

  // After a publish: wakes the thread only if it announced that it parked.
  void WakeIfParked();
  // Unconditional (schema ops, Flush, shutdown).
  void Wake();
};

// A handle a telemetry source uses to push records into the daemon. One
// handle per source, used by one thread at a time (IngestServer serializes
// the connections that share a source).
//
// The channel is a single-producer/single-consumer byte ring of framed
// records, `u32 len | payload`, each frame padded to 4 bytes. A frame never
// crosses the end of the ring: where one would, the producer writes a wrap
// marker and continues at offset 0. Each side caches the other's index and
// reloads it only when the cached value says full (producer) or empty
// (consumer). Publishing a batch costs one index store and one counter
// store; nothing allocates. The ingest thread hands frames in the ring
// straight to Loom::PushBatch, which copies them into the record log, and
// only then releases their space.
class SourceChannel {
 public:
  // Non-blocking: false means the record was dropped (counted) because the
  // ring was full or the record is larger than max_record_bytes.
  bool Offer(std::span<const uint8_t> payload);

  // Blocking: appends every record in order, waiting for space whenever the
  // ring is full. A record larger than max_record_bytes is dropped (counted)
  // and the rest still go in. Returns the number of records accepted. Use
  // where data completeness matters more than producer latency.
  size_t PublishBatch(std::span<const std::span<const uint8_t>> payloads);

  // PublishBatch of one record.
  void Publish(std::span<const uint8_t> payload) {
    PublishBatch(std::span<const std::span<const uint8_t>>(&payload, 1));
  }

  uint32_t source_id() const { return source_id_; }
  DaemonSourceStats stats() const;

 private:
  friend class MonitoringDaemon;

  SourceChannel(uint32_t source_id, size_t ring_bytes, size_t max_bytes, IngestWaker* waker);

  // Producer: writes one frame at write_pos_ without publishing it. False
  // when the ring lacks space.
  bool TryWrite(std::span<const uint8_t> payload);
  // Producer: makes the frames written so far visible to the consumer.
  void PublishWritten(uint64_t records);

  // Consumer: appends the payloads of up to `max` published frames to `out`
  // (views into the ring) and returns the read position after them.
  uint64_t Peek(size_t max, std::vector<std::span<const uint8_t>>* out);
  // Consumer: gives the space up to `pos` (returned by Peek) back to the
  // producer, once the `records` frames there are stored.
  void Release(uint64_t pos, uint64_t records);

  // Any thread.
  bool Empty() const {
    return read_pos_.load(std::memory_order_acquire) == write_pub_.load(std::memory_order_acquire);
  }
  uint64_t QueueDepthRecords() const {
    const uint64_t consumed = consumed_.load(std::memory_order_relaxed);
    const uint64_t accepted = accepted_.load(std::memory_order_relaxed);
    return accepted > consumed ? accepted - consumed : 0;
  }

  const uint32_t source_id_;
  const size_t max_bytes_;
  const size_t capacity_;  // power of two
  const std::unique_ptr<uint8_t[]> ring_;
  IngestWaker* const waker_;

  // Producer side. Counters are written by the producer only (a load and a
  // store, no read-modify-write); any thread may read them.
  alignas(64) std::atomic<uint64_t> write_pub_{0};  // published write index
  uint64_t write_pos_ = 0;                          // written, maybe unpublished
  uint64_t read_cache_ = 0;                         // last read_pos_ seen
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> publish_waits_{0};

  // Consumer side (the daemon's ingest thread).
  alignas(64) std::atomic<uint64_t> read_pos_{0};
  uint64_t write_cache_ = 0;  // last write_pub_ seen
  std::atomic<uint64_t> consumed_{0};
};

class MonitoringDaemon {
 public:
  static Result<std::unique_ptr<MonitoringDaemon>> Start(const DaemonOptions& options);
  ~MonitoringDaemon();

  MonitoringDaemon(const MonitoringDaemon&) = delete;
  MonitoringDaemon& operator=(const MonitoringDaemon&) = delete;

  // Registers a source with the engine and returns its channel. Safe to call
  // from any thread; the channel itself is single-producer.
  Result<SourceChannel*> AddSource(uint32_t source_id);

  // Defines an index on a source (forwarded to the engine on the ingest
  // thread's schedule; effective for records ingested afterwards).
  Result<uint32_t> AddIndex(uint32_t source_id, Loom::IndexFunc func, HistogramSpec spec);

  // Registers a standing query against the engine (any thread; the index
  // must already be defined — e.g. via AddIndex, which blocks until the
  // ingest thread ran the definition).
  Result<uint64_t> AddStandingQuery(const StandingQuerySpec& spec) {
    return loom_->RegisterStandingQuery(spec);
  }

  // Subscribes to standing-query events (query_id 0 = all queries).
  std::shared_ptr<StandingSubscription> SubscribeStanding(uint64_t query_id = 0,
                                                          size_t capacity = 1024) {
    return loom_->SubscribeStanding(query_id, capacity);
  }

  // The standing query ids of the installed self-watches, in
  // options.self_watches order (empty until the ingest thread has started;
  // installation is ordered before any AddSource/AddIndex completion).
  std::vector<std::pair<std::string, uint64_t>> self_watch_ids() const;

  // Returns once every record published to a channel before the call is
  // stored in the engine, so tests and shutdown see everything.
  void Flush();

  // The underlying engine, for queries (RawScan / IndexedScan /
  // IndexedAggregate are safe from any thread).
  Loom* engine() { return loom_.get(); }

  // The engine's metrics registry (shared with DaemonOptions.loom.metrics
  // when that was set).
  MetricsRegistry* metrics() const { return loom_->metrics(); }

  // Prometheus text exposition of every metric in the registry — the same
  // bytes the network front door serves for GET /metrics.
  std::string DumpMetrics() const { return metrics()->RenderPrometheus(); }

  uint64_t records_ingested() const { return records_ingested_.load(std::memory_order_relaxed); }

 private:
  explicit MonitoringDaemon(const DaemonOptions& options) : options_(options) {}

  void IngestMain();
  // Runs the queued schema ops. Ingest thread only.
  void RunPendingOps();
  // Parks the idle ingest thread until a producer, a schema op, Flush or
  // shutdown wakes it, or the self-telemetry period passes. `channels` is
  // the thread's copy of channels_.
  void Park(const std::vector<SourceChannel*>& channels);
  void InstallSelfWatches();
  void RegisterMetrics();
  // Adds the channels' counts since the last call to the registry counters
  // and refreshes the queue-depth gauge. Caller holds mu_.
  void SyncChannelMetrics();
  // Samples the registry and pushes the delta/value records into the
  // self-telemetry source. Ingest thread only.
  void PushSelfTelemetrySamples();

  DaemonOptions options_;
  std::unique_ptr<Loom> loom_;
  std::thread ingest_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> records_ingested_{0};
  IngestWaker waker_;

  // Channel list: appended under mu_ by AddSource, which then publishes the
  // new size in channel_count_; the ingest thread copies the list only when
  // that count changed (channels are never removed).
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SourceChannel>> channels_;
  std::atomic<size_t> channel_count_{0};

  // Pending schema ops executed on the ingest thread (DefineIndex must run
  // there per the engine's threading contract). ops_pending_ is set under
  // mu_ with pending_ non-empty, so the ingest thread takes mu_ only when
  // there is work.
  struct PendingIndex {
    uint32_t source_id;
    Loom::IndexFunc func;
    HistogramSpec spec = HistogramSpec::ExactMatch(0);
    Result<uint32_t>* result;
    std::atomic<bool>* done;
  };
  std::vector<PendingIndex> pending_;
  std::atomic<bool> ops_pending_{false};

  // Registry-backed metrics (registered against the engine's registry). The
  // record counters mirror the channels' own counts at collection time, so
  // publishing never touches the registry.
  Counter* offered_metric_ = nullptr;
  Counter* accepted_metric_ = nullptr;
  Counter* dropped_metric_ = nullptr;
  Counter* publish_waits_metric_ = nullptr;
  Counter* self_samples_metric_ = nullptr;
  Gauge* queue_depth_ = nullptr;        // records in the rings
  Histogram* batch_records_ = nullptr;  // records per PushBatch handoff
  DaemonSourceStats reported_;          // channel totals already counted; mu_
  // Collection hook running SyncChannelMetrics; removed in the destructor
  // (the registry may be external and outlive the daemon).
  uint64_t channel_hook_id_ = 0;

  // Installed self-watch queries (written once by the ingest thread at
  // startup, guarded by mu_).
  std::vector<std::pair<std::string, uint64_t>> self_watch_ids_;

  // Self-telemetry sampler state (ingest thread only): previous counter /
  // histogram readings for delta computation.
  uint64_t last_self_sample_nanos_ = 0;
  std::unordered_map<std::string, uint64_t> prev_counters_;
  std::unordered_map<std::string, std::pair<double, uint64_t>> prev_hist_;  // sum, count
};

}  // namespace loom

#endif  // SRC_DAEMON_MONITORING_DAEMON_H_
