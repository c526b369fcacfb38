// Standing queries: continuous windowed aggregation evaluated at seal time.
//
// Every query in the engine so far is one-shot and pull-based: a dashboard
// or watchdog polls, and the engine re-plans over data it already
// summarized when the chunk sealed. A standing query inverts that. The
// client registers a windowed aggregate (count/sum/min/max/mean over a
// defined index, tumbling windows of fixed width) once, and the engine
// folds each freshly sealed `ChunkSummary` into the matching open windows
// as part of the seal path — no second pass over raw records for chunks
// whose summary fully covers a window, a bounded per-(chunk, window)
// rescan for chunks that straddle window boundaries or carry unindexed
// records. An optional alert rule (threshold above/below on the window
// value, or outlier-bin mass) turns closed windows into firing/resolved
// transitions, and subscriptions stream both window results and alert
// transitions to any thread.
//
// Equivalence contract (the "golden" guarantee, tested bit-for-bit): every
// emitted window result equals the one-shot `IndexedAggregate` /
// `IndexedHistogram` over the same inclusive time range, as long as the
// underlying data is still retained or archived. The fold path replays the
// exact per-chunk decision and merge order of the one-shot executor
// (`ClassifyZone` and the fold-bins policy), and the scan path classifies
// through the same `KernelOps`, so even the order-sensitive double `sum`
// matches.
//
// Watermark / late-data rules (§5.4 publish order): the watermark is the
// timestamp of the newest chunk seal, and the engine seals a chunk only
// after its record bytes are published — so a window closes (and emits)
// only once every record that could land in it is published and
// summarized. Arrival timestamps are monotone in log order, so a closed
// window can never gain a contribution from a later chunk; contributions
// below a query's registration floor (windows already in progress when the
// query was registered, which the engine never evaluated from the start)
// are counted late and skipped rather than emitted wrong.

#ifndef SRC_STANDING_STANDING_QUERY_H_
#define SRC_STANDING_STANDING_QUERY_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/clock.h"
#include "src/common/metrics.h"
#include "src/common/status.h"
#include "src/core/kernels/kernels.h"
#include "src/core/record_format.h"
#include "src/index/chunk_summary.h"
#include "src/index/histogram.h"

namespace loom {

enum class StandingAggregate : uint8_t { kCount, kSum, kMin, kMax, kMean };

const char* StandingAggregateName(StandingAggregate aggregate);
Result<StandingAggregate> ParseStandingAggregate(std::string_view name);

// Alert rule attached to a standing query. The rule is evaluated on every
// emitted (closed) window; `for_windows` consecutive breaching windows are
// required before the alert fires, and the first non-breaching window with
// a value resolves it. Windows without a value (empty min/max/mean) leave
// the alert state unchanged.
struct StandingAlertRule {
  enum class Kind : uint8_t {
    kNone = 0,
    kAbove,       // fires when the window value > threshold
    kBelow,       // fires when the window value < threshold
    kOutlierBins  // fires when underflow+overflow bin count >= threshold
  };
  Kind kind = Kind::kNone;
  double threshold = 0.0;
  uint32_t for_windows = 1;
};

const char* StandingAlertKindName(StandingAlertRule::Kind kind);
Result<StandingAlertRule::Kind> ParseStandingAlertKind(std::string_view name);

struct StandingQuerySpec {
  std::string name;       // human label, carried through events
  uint32_t source_id = 0;
  uint32_t index_id = 0;  // must be an index defined over source_id
  StandingAggregate aggregate = StandingAggregate::kCount;
  uint64_t window_nanos = 0;  // tumbling window width, > 0
  StandingAlertRule alert;
  // Emit zero-count results for windows with no records (default: count
  // them in loom_standing_windows_empty_total and stay silent).
  bool emit_empty_windows = false;
};

// One closed window. `window_start`/`window_end` are the inclusive bounds
// of the tumbling window; feeding them to IndexedAggregate/IndexedHistogram
// as a TimeRange reproduces every field bit-for-bit while the data lives.
struct StandingWindowResult {
  uint64_t query_id = 0;
  uint64_t window_index = 0;  // window_start / window_nanos
  TimestampNanos window_start = 0;
  TimestampNanos window_end = 0;
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  // +inf when count == 0 (BinStats convention)
  double max = 0.0;  // -inf when count == 0
  std::vector<uint64_t> bin_counts;  // per HistogramSpec bin, incl. under/overflow
  // The aggregate the query asked for. has_value is false exactly when the
  // one-shot would return NotFound (empty min/max/mean window).
  bool has_value = false;
  double value = 0.0;
  bool alert_firing = false;  // alert state after this window
};

struct StandingAlertEvent {
  uint64_t query_id = 0;
  bool firing = false;  // true = fired, false = resolved
  uint64_t window_index = 0;
  TimestampNanos window_start = 0;
  TimestampNanos window_end = 0;
  double value = 0.0;  // the value that breached / resolved
  double threshold = 0.0;
};

struct StandingEvent {
  enum class Kind : uint8_t { kWindow, kAlert };
  Kind kind = Kind::kWindow;
  StandingWindowResult window;  // valid when kind == kWindow
  StandingAlertEvent alert;     // valid when kind == kAlert
};

// Bounded single-consumer event stream. The engine publishes from the seal
// path and never blocks: when the queue is full the event is dropped and
// counted. Consumers Poll from any one thread; Close() wakes pollers and
// detaches the stream from the engine.
class StandingSubscription {
 public:
  ~StandingSubscription() = default;
  StandingSubscription(const StandingSubscription&) = delete;
  StandingSubscription& operator=(const StandingSubscription&) = delete;

  // Blocks up to timeout_millis for at least one event (0 = non-blocking),
  // then drains up to max_events. Returns empty when closed and drained.
  std::vector<StandingEvent> Poll(size_t max_events, uint64_t timeout_millis);

  void Close();
  bool closed() const;
  uint64_t query_id() const { return query_filter_; }  // 0 = all queries
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  size_t DepthApprox() const;

 private:
  friend class StandingQueryEngine;
  StandingSubscription(uint64_t query_filter, size_t capacity)
      : query_filter_(query_filter), capacity_(capacity == 0 ? 1 : capacity) {}

  // Engine side; returns false when the event was dropped (queue full).
  bool Offer(const StandingEvent& event);

  const uint64_t query_filter_;
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<StandingEvent> events_;
  bool closed_ = false;
  std::atomic<uint64_t> dropped_{0};
};

struct StandingQueryEngineOptions {
  const KernelOps* kernels = nullptr;  // required; same dispatch as queries
  MetricsRegistry* metrics = nullptr;  // required
  // Rescans one sealed chunk for records of `source_id` whose arrival
  // timestamp lies in the inclusive [start, end] range, in log order —
  // the engine binds this to ScanRecordRangeFor so the straddling-chunk
  // path visits records exactly as the one-shot scan does.
  std::function<Status(uint64_t chunk_addr, uint32_t chunk_len, uint32_t source_id,
                       TimestampNanos start, TimestampNanos end,
                       const std::function<bool(const RecordView&)>& fn)>
      scan_chunk;
};

class StandingQueryEngine {
 public:
  using IndexFunc = std::function<std::optional<double>(std::span<const uint8_t>)>;

  explicit StandingQueryEngine(StandingQueryEngineOptions options);
  ~StandingQueryEngine();
  StandingQueryEngine(const StandingQueryEngine&) = delete;
  StandingQueryEngine& operator=(const StandingQueryEngine&) = delete;

  // Registers a standing query; `func`/`hspec` are the index function and
  // histogram layout of spec.index_id (the caller — Loom — resolves them).
  // Windows already in progress at registration time are never emitted
  // (the engine did not see their earlier chunks); the first emitted
  // window is the first one starting after the current watermark.
  Result<uint64_t> Register(StandingQuerySpec spec, IndexFunc func, HistogramSpec hspec);
  Status Unregister(uint64_t query_id);

  // Live stream of events for one query (or all, query_id = 0).
  std::shared_ptr<StandingSubscription> Subscribe(uint64_t query_id = 0,
                                                  size_t capacity = 1024);

  // Seal-path hook: folds `summary` into every registered query's open
  // windows, advances the watermark to `seal_ts`, and emits every window
  // that closed. Must be called in seal order from the thread that seals
  // (the engine's ingest thread); the record bytes of the sealed chunk must
  // already be published for readers.
  void OnChunkSealed(const ChunkSummary& summary, TimestampNanos seal_ts);

  // Fast emptiness probe for the seal path (skips the publish fence when
  // nothing is registered).
  bool has_queries() const { return query_count_.load(std::memory_order_acquire) > 0; }

  TimestampNanos watermark() const;

  struct Stats {
    uint64_t evaluations = 0;
    uint64_t windows_emitted = 0;
    uint64_t windows_empty = 0;
    uint64_t late_windows = 0;
    uint64_t alerts_fired = 0;
    uint64_t alerts_resolved = 0;
    uint64_t events_dropped = 0;
    uint64_t chunk_scans = 0;
    uint64_t scan_failures = 0;
    size_t queries = 0;
    size_t subscribers = 0;
  };
  Stats stats() const;

 private:
  struct Window {
    BinStats merged;
    std::vector<uint64_t> bin_counts;
  };

  struct Query {
    uint64_t id = 0;
    StandingQuerySpec spec;
    IndexFunc func;
    HistogramSpec hspec = HistogramSpec::ExactMatch(0);
    // Windows below this index are closed (emitted or skipped); a sealed
    // chunk contributing below it is late data.
    uint64_t next_emit_window = 0;
    std::map<uint64_t, Window> open;  // window_index -> accumulator
    bool alert_firing = false;
    uint64_t breach_streak = 0;
  };

  // Per-seal shared rescan results: one chunk scan + classification per
  // (source_id, index_id), reused by every query and window that needs it.
  struct ScanCacheEntry {
    bool attempted = false;
    bool ok = false;
    std::vector<std::pair<double, TimestampNanos>> vals;  // log order
    std::vector<uint32_t> bins;
  };
  using ScanCache = std::map<std::pair<uint32_t, uint32_t>, ScanCacheEntry>;

  void EvaluateChunk(Query& q, const ChunkSummary& summary, ScanCache& cache);
  void CloseWindows(Query& q, std::vector<StandingEvent>& out);
  void EmitWindow(Query& q, uint64_t window_index, const Window* window,
                  std::vector<StandingEvent>& out);
  void PublishEvents(const std::vector<StandingEvent>& events);
  Window& OpenWindow(Query& q, uint64_t window_index);

  StandingQueryEngineOptions options_;

  mutable std::mutex mu_;  // queries_, watermark_, next_query_id_
  std::map<uint64_t, Query> queries_;
  TimestampNanos watermark_ = 0;
  uint64_t next_query_id_ = 1;
  std::atomic<size_t> query_count_{0};

  mutable std::mutex subs_mu_;
  std::vector<std::shared_ptr<StandingSubscription>> subs_;

  Counter* evaluations_ = nullptr;
  Counter* windows_emitted_ = nullptr;
  Counter* windows_empty_ = nullptr;
  Counter* late_windows_ = nullptr;
  Counter* alerts_fired_ = nullptr;
  Counter* alerts_resolved_ = nullptr;
  Counter* events_dropped_ = nullptr;
  Counter* chunk_scans_ = nullptr;
  Counter* scan_failures_ = nullptr;
  Histogram* eval_seconds_ = nullptr;
  uint64_t gauge_hook_id_ = 0;
};

}  // namespace loom

#endif  // SRC_STANDING_STANDING_QUERY_H_
