#include "src/standing/standing_query.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

namespace loom {

namespace {

// Empty-gap emission is capped per close pass so a clock jump over an idle
// stretch cannot emit millions of zero windows into subscriber queues; the
// skipped run is still counted in loom_standing_windows_empty_total.
constexpr uint64_t kMaxEmptyEmitRun = 4096;

}  // namespace

const char* StandingAggregateName(StandingAggregate aggregate) {
  switch (aggregate) {
    case StandingAggregate::kCount:
      return "count";
    case StandingAggregate::kSum:
      return "sum";
    case StandingAggregate::kMin:
      return "min";
    case StandingAggregate::kMax:
      return "max";
    case StandingAggregate::kMean:
      return "mean";
  }
  return "unknown";
}

Result<StandingAggregate> ParseStandingAggregate(std::string_view name) {
  if (name == "count") return StandingAggregate::kCount;
  if (name == "sum") return StandingAggregate::kSum;
  if (name == "min") return StandingAggregate::kMin;
  if (name == "max") return StandingAggregate::kMax;
  if (name == "mean" || name == "avg") return StandingAggregate::kMean;
  return Status::InvalidArgument("unknown aggregate: " + std::string(name));
}

const char* StandingAlertKindName(StandingAlertRule::Kind kind) {
  switch (kind) {
    case StandingAlertRule::Kind::kNone:
      return "none";
    case StandingAlertRule::Kind::kAbove:
      return "above";
    case StandingAlertRule::Kind::kBelow:
      return "below";
    case StandingAlertRule::Kind::kOutlierBins:
      return "outlier";
  }
  return "unknown";
}

Result<StandingAlertRule::Kind> ParseStandingAlertKind(std::string_view name) {
  if (name == "none") return StandingAlertRule::Kind::kNone;
  if (name == "above") return StandingAlertRule::Kind::kAbove;
  if (name == "below") return StandingAlertRule::Kind::kBelow;
  if (name == "outlier") return StandingAlertRule::Kind::kOutlierBins;
  return Status::InvalidArgument("unknown alert kind: " + std::string(name));
}

std::vector<StandingEvent> StandingSubscription::Poll(size_t max_events,
                                                      uint64_t timeout_millis) {
  std::unique_lock<std::mutex> lock(mu_);
  if (events_.empty() && !closed_ && timeout_millis > 0) {
    cv_.wait_for(lock, std::chrono::milliseconds(timeout_millis),
                 [&] { return !events_.empty() || closed_; });
  }
  std::vector<StandingEvent> out;
  while (!events_.empty() && out.size() < max_events) {
    out.push_back(std::move(events_.front()));
    events_.pop_front();
  }
  return out;
}

void StandingSubscription::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

bool StandingSubscription::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

size_t StandingSubscription::DepthApprox() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

bool StandingSubscription::Offer(const StandingEvent& event) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) {
      return true;  // consumer gone; nothing was lost that it wanted
    }
    if (events_.size() >= capacity_) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    events_.push_back(event);
  }
  cv_.notify_one();
  return true;
}

StandingQueryEngine::StandingQueryEngine(StandingQueryEngineOptions options)
    : options_(std::move(options)) {
  MetricsRegistry* reg = options_.metrics;
  evaluations_ = reg->AddCounter("loom_standing_evaluations_total");
  windows_emitted_ = reg->AddCounter("loom_standing_windows_emitted_total");
  windows_empty_ = reg->AddCounter("loom_standing_windows_empty_total");
  late_windows_ = reg->AddCounter("loom_standing_late_windows_total");
  alerts_fired_ = reg->AddCounter("loom_standing_alerts_fired_total");
  alerts_resolved_ = reg->AddCounter("loom_standing_alerts_resolved_total");
  events_dropped_ = reg->AddCounter("loom_standing_events_dropped_total");
  chunk_scans_ = reg->AddCounter("loom_standing_chunk_scans_total");
  scan_failures_ = reg->AddCounter("loom_standing_scan_failures_total");
  eval_seconds_ = reg->AddHistogram("loom_standing_eval_seconds",
                                    HistogramOptions::ExponentialSeconds());
  Gauge* queries_gauge = reg->AddGauge("loom_standing_queries");
  Gauge* subscribers_gauge = reg->AddGauge("loom_standing_subscribers");
  Gauge* lag_gauge = reg->AddGauge("loom_standing_subscriber_lag_events");
  gauge_hook_id_ = reg->AddCollectionHook([this, queries_gauge, subscribers_gauge, lag_gauge] {
    queries_gauge->Set(static_cast<double>(query_count_.load(std::memory_order_relaxed)));
    size_t subs = 0;
    size_t max_depth = 0;
    {
      std::lock_guard<std::mutex> lock(subs_mu_);
      for (const auto& sub : subs_) {
        if (sub->closed()) {
          continue;
        }
        ++subs;
        max_depth = std::max(max_depth, sub->DepthApprox());
      }
    }
    subscribers_gauge->Set(static_cast<double>(subs));
    lag_gauge->Set(static_cast<double>(max_depth));
  });
}

StandingQueryEngine::~StandingQueryEngine() {
  options_.metrics->RemoveCollectionHook(gauge_hook_id_);
  std::lock_guard<std::mutex> lock(subs_mu_);
  for (const auto& sub : subs_) {
    sub->Close();
  }
  subs_.clear();
}

Result<uint64_t> StandingQueryEngine::Register(StandingQuerySpec spec, IndexFunc func,
                                               HistogramSpec hspec) {
  if (spec.window_nanos == 0) {
    return Status::InvalidArgument("standing query window_nanos must be > 0");
  }
  if (!func) {
    return Status::InvalidArgument("standing query requires an index function");
  }
  if (spec.alert.for_windows == 0) {
    spec.alert.for_windows = 1;
  }
  std::lock_guard<std::mutex> lock(mu_);
  Query q;
  q.id = next_query_id_++;
  q.func = std::move(func);
  q.hspec = std::move(hspec);
  // First emitted window must start strictly after the watermark: windows
  // already in progress missed the chunks sealed before registration.
  q.next_emit_window = watermark_ == 0 ? 0 : watermark_ / spec.window_nanos + 1;
  q.spec = std::move(spec);
  const uint64_t id = q.id;
  queries_.emplace(id, std::move(q));
  query_count_.store(queries_.size(), std::memory_order_release);
  return id;
}

Status StandingQueryEngine::Unregister(uint64_t query_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (queries_.erase(query_id) == 0) {
    return Status::NotFound("no such standing query");
  }
  query_count_.store(queries_.size(), std::memory_order_release);
  return Status::Ok();
}

std::shared_ptr<StandingSubscription> StandingQueryEngine::Subscribe(uint64_t query_id,
                                                                     size_t capacity) {
  std::shared_ptr<StandingSubscription> sub(new StandingSubscription(query_id, capacity));
  std::lock_guard<std::mutex> lock(subs_mu_);
  subs_.push_back(sub);
  return sub;
}

TimestampNanos StandingQueryEngine::watermark() const {
  std::lock_guard<std::mutex> lock(mu_);
  return watermark_;
}

StandingQueryEngine::Stats StandingQueryEngine::stats() const {
  Stats s;
  s.evaluations = evaluations_->Value();
  s.windows_emitted = windows_emitted_->Value();
  s.windows_empty = windows_empty_->Value();
  s.late_windows = late_windows_->Value();
  s.alerts_fired = alerts_fired_->Value();
  s.alerts_resolved = alerts_resolved_->Value();
  s.events_dropped = events_dropped_->Value();
  s.chunk_scans = chunk_scans_->Value();
  s.scan_failures = scan_failures_->Value();
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.queries = queries_.size();
  }
  {
    std::lock_guard<std::mutex> lock(subs_mu_);
    for (const auto& sub : subs_) {
      if (!sub->closed()) {
        ++s.subscribers;
      }
    }
  }
  return s;
}

void StandingQueryEngine::OnChunkSealed(const ChunkSummary& summary, TimestampNanos seal_ts) {
  std::vector<StandingEvent> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // The watermark advances even with no queries registered, so a later
    // registration's floor reflects every chunk the engine never evaluated.
    if (seal_ts > watermark_) {
      watermark_ = seal_ts;
    }
    if (queries_.empty()) {
      return;
    }
    const uint64_t start_nanos = MetricsNowNanos();
    // Chunk rescans are shared: at most one scan+classify per (source,
    // index) pair per sealed chunk, no matter how many queries or windows
    // need it (queries on the same index route records to their own
    // windows by timestamp).
    ScanCache cache;
    for (auto& [id, q] : queries_) {
      EvaluateChunk(q, summary, cache);
      CloseWindows(q, out);
    }
    evaluations_->Increment(queries_.size());
    eval_seconds_->ObserveNanos(MetricsNowNanos() - start_nanos);
  }
  if (!out.empty()) {
    PublishEvents(out);
  }
}

StandingQueryEngine::Window& StandingQueryEngine::OpenWindow(Query& q, uint64_t window_index) {
  Window& w = q.open[window_index];
  if (w.bin_counts.empty()) {
    w.bin_counts.assign(q.hspec.num_bins(), 0);
  }
  return w;
}

// Mirrors the one-shot executor's per-chunk decision (ClassifyZone + the
// fold-bins policy in loom.cc): prune on the presence timestamp span, fold the
// summary entries in entry order when the chunk is fully covered by one window
// with every record indexed, otherwise rescan the chunk once and route each
// record to its window by timestamp. The rescan is shared through `cache` —
// one scan+classify per (source, index) per sealed chunk regardless of query
// or window count; queries reaching the same index through Loom share the
// index's histogram layout, so cached bins are valid for all of them. Merge
// order is seal order = log order and the per-window record subsequence of
// one log-order pass equals the one-shot's windowed scan, so even
// order-sensitive double sums combine identically.
void StandingQueryEngine::EvaluateChunk(Query& q, const ChunkSummary& s, ScanCache& cache) {
  bool has_presence = false;
  uint64_t presence_count = 0;
  uint64_t evaluated_count = 0;
  TimestampNanos src_min_ts = 0;
  TimestampNanos src_max_ts = 0;
  for (const ChunkSummary::Entry& e : s.entries) {
    if (e.source_id != q.spec.source_id) {
      continue;
    }
    if (e.index_id == kPresenceIndexId) {
      has_presence = true;
      presence_count = e.stats.count;
      src_min_ts = e.stats.min_ts;
      src_max_ts = e.stats.max_ts;
    } else if (e.index_id == q.spec.index_id && e.bin == kEvaluatedBin) {
      evaluated_count = e.stats.count;
    }
  }
  if (!has_presence) {
    return;
  }
  const bool all_indexed = evaluated_count == presence_count;
  const uint64_t w = q.spec.window_nanos;
  const uint64_t w_lo = static_cast<uint64_t>(src_min_ts) / w;
  const uint64_t w_hi = static_cast<uint64_t>(src_max_ts) / w;

  // Contributions to windows below the registration floor are late data:
  // arrival timestamps are monotone in log order, so this only happens for
  // windows already in progress when the query was registered.
  if (w_hi < q.next_emit_window) {
    late_windows_->Increment(w_hi - w_lo + 1);
    return;
  }
  if (w_lo < q.next_emit_window) {
    late_windows_->Increment(q.next_emit_window - w_lo);
  }

  if (w_lo == w_hi && all_indexed) {
    // The whole chunk lands in one window and every record is indexed: fold
    // the summary entries, in entry order, without touching record bytes.
    Window& win = OpenWindow(q, w_lo);
    for (const ChunkSummary::Entry& e : s.entries) {
      if (e.source_id == q.spec.source_id && e.index_id == q.spec.index_id &&
          e.bin != kEvaluatedBin) {
        win.merged.Merge(e.stats);
        win.bin_counts[e.bin] += e.stats.count;
      }
    }
    return;
  }

  ScanCacheEntry& entry = cache[{q.spec.source_id, q.spec.index_id}];
  if (!entry.attempted) {
    entry.attempted = true;
    Status st = options_.scan_chunk(
        s.chunk_addr, s.chunk_len, q.spec.source_id, 0,
        std::numeric_limits<TimestampNanos>::max(),
        [&](const RecordView& view) -> bool {
          std::optional<double> value = q.func(view.payload);
          if (value.has_value()) {
            entry.vals.emplace_back(*value, view.ts);
          }
          return true;
        });
    chunk_scans_->Increment();
    if (!st.ok()) {
      // Windows will undercount; surface it rather than fail the seal.
      scan_failures_->Increment();
      return;
    }
    entry.ok = true;
    std::vector<double> scan_vals;
    scan_vals.reserve(entry.vals.size());
    for (const auto& [value, ts] : entry.vals) {
      scan_vals.push_back(value);
    }
    entry.bins.resize(scan_vals.size());
    if (!scan_vals.empty()) {
      q.hspec.ClassifyBatch(*options_.kernels, scan_vals.data(), scan_vals.size(),
                            entry.bins.data());
    }
  }
  if (!entry.ok) {
    return;
  }
  const TimestampNanos floor_ts = static_cast<TimestampNanos>(
      std::max<uint64_t>(w_lo, q.next_emit_window) * w);
  for (size_t i = 0; i < entry.vals.size(); ++i) {
    const TimestampNanos ts = entry.vals[i].second;
    if (ts < floor_ts) {
      continue;  // late-window records, already counted above
    }
    Window& win = OpenWindow(q, static_cast<uint64_t>(ts) / w);
    win.merged.Update(entry.vals[i].first, ts);
    win.bin_counts[entry.bins[i]]++;
  }
}

void StandingQueryEngine::CloseWindows(Query& q, std::vector<StandingEvent>& out) {
  const uint64_t w = q.spec.window_nanos;
  // A window [wi*w, (wi+1)*w) is closed once the watermark reaches its end:
  // every record that could land in it has been sealed and published.
  const uint64_t closed_below = static_cast<uint64_t>(watermark_) / w;
  while (q.next_emit_window < closed_below) {
    uint64_t wi = q.next_emit_window;
    auto it = q.open.find(wi);
    if (it == q.open.end()) {
      // Empty gap: jump to the next window that has data (or the close
      // limit). Open windows below next_emit_window cannot exist — those
      // contributions were rejected as late.
      uint64_t next_open = closed_below;
      if (!q.open.empty()) {
        next_open = std::min(next_open, q.open.begin()->first);
      }
      const uint64_t gap = next_open - wi;
      if (!q.spec.emit_empty_windows) {
        windows_empty_->Increment(gap);
        q.next_emit_window = next_open;
        continue;
      }
      if (gap > kMaxEmptyEmitRun) {
        windows_empty_->Increment(gap - kMaxEmptyEmitRun);
        wi = next_open - kMaxEmptyEmitRun;
        q.next_emit_window = wi;
      }
      EmitWindow(q, wi, nullptr, out);
      q.next_emit_window = wi + 1;
      continue;
    }
    EmitWindow(q, wi, &it->second, out);
    q.open.erase(it);
    q.next_emit_window = wi + 1;
  }
}

void StandingQueryEngine::EmitWindow(Query& q, uint64_t window_index, const Window* window,
                                     std::vector<StandingEvent>& out) {
  const uint64_t w = q.spec.window_nanos;
  StandingEvent ev;
  ev.kind = StandingEvent::Kind::kWindow;
  StandingWindowResult& r = ev.window;
  r.query_id = q.id;
  r.window_index = window_index;
  r.window_start = static_cast<TimestampNanos>(window_index * w);
  r.window_end = static_cast<TimestampNanos>(window_index * w + (w - 1));
  if (window != nullptr) {
    r.count = window->merged.count;
    r.sum = window->merged.sum;
    r.min = window->merged.min;
    r.max = window->merged.max;
    r.bin_counts = window->bin_counts;
  } else {
    r.min = std::numeric_limits<double>::infinity();
    r.max = -std::numeric_limits<double>::infinity();
    r.bin_counts.assign(q.hspec.num_bins(), 0);
  }
  // Same result semantics as Loom::IndexedAggregate: count/sum always have a
  // value; min/max/mean are NotFound (has_value = false) on empty windows.
  switch (q.spec.aggregate) {
    case StandingAggregate::kCount:
      r.has_value = true;
      r.value = static_cast<double>(r.count);
      break;
    case StandingAggregate::kSum:
      r.has_value = true;
      r.value = r.sum;
      break;
    case StandingAggregate::kMin:
      r.has_value = r.count > 0;
      r.value = r.has_value ? r.min : 0.0;
      break;
    case StandingAggregate::kMax:
      r.has_value = r.count > 0;
      r.value = r.has_value ? r.max : 0.0;
      break;
    case StandingAggregate::kMean:
      r.has_value = r.count > 0;
      r.value = r.has_value ? r.sum / static_cast<double>(r.count) : 0.0;
      break;
  }

  const StandingAlertRule& rule = q.spec.alert;
  std::optional<double> alert_value;
  if (rule.kind == StandingAlertRule::Kind::kAbove ||
      rule.kind == StandingAlertRule::Kind::kBelow) {
    if (r.has_value) {
      alert_value = r.value;
    }
  } else if (rule.kind == StandingAlertRule::Kind::kOutlierBins) {
    if (!r.bin_counts.empty()) {
      alert_value = static_cast<double>(r.bin_counts.front() + r.bin_counts.back());
    }
  }
  if (alert_value.has_value()) {
    const bool breach = rule.kind == StandingAlertRule::Kind::kAbove
                            ? *alert_value > rule.threshold
                            : rule.kind == StandingAlertRule::Kind::kBelow
                                  ? *alert_value < rule.threshold
                                  : *alert_value >= rule.threshold;
    bool transition = false;
    if (breach) {
      ++q.breach_streak;
      if (!q.alert_firing && q.breach_streak >= rule.for_windows) {
        q.alert_firing = true;
        transition = true;
        alerts_fired_->Increment();
      }
    } else {
      q.breach_streak = 0;
      if (q.alert_firing) {
        q.alert_firing = false;
        transition = true;
        alerts_resolved_->Increment();
      }
    }
    r.alert_firing = q.alert_firing;
    out.push_back(ev);
    if (transition) {
      StandingEvent alert_ev;
      alert_ev.kind = StandingEvent::Kind::kAlert;
      alert_ev.alert.query_id = q.id;
      alert_ev.alert.firing = q.alert_firing;
      alert_ev.alert.window_index = window_index;
      alert_ev.alert.window_start = r.window_start;
      alert_ev.alert.window_end = r.window_end;
      alert_ev.alert.value = *alert_value;
      alert_ev.alert.threshold = rule.threshold;
      out.push_back(alert_ev);
    }
  } else {
    r.alert_firing = q.alert_firing;
    out.push_back(ev);
  }
  windows_emitted_->Increment();
}

void StandingQueryEngine::PublishEvents(const std::vector<StandingEvent>& events) {
  std::lock_guard<std::mutex> lock(subs_mu_);
  bool any_closed = false;
  for (const auto& sub : subs_) {
    if (sub->closed()) {
      any_closed = true;
      continue;
    }
    for (const StandingEvent& ev : events) {
      if (sub->query_filter_ != 0) {
        const uint64_t qid =
            ev.kind == StandingEvent::Kind::kWindow ? ev.window.query_id : ev.alert.query_id;
        if (qid != sub->query_filter_) {
          continue;
        }
      }
      if (!sub->Offer(ev)) {
        events_dropped_->Increment();
      }
    }
  }
  if (any_closed) {
    subs_.erase(std::remove_if(subs_.begin(), subs_.end(),
                               [](const auto& s) { return s->closed(); }),
                subs_.end());
  }
}

}  // namespace loom
