#include "src/core/loom.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <thread>
#include <utility>

#include "src/hybridlog/cached_reader.h"

namespace loom {

namespace {

// Window used by scan-local read caches.
constexpr size_t kScanWindow = 64 << 10;

// LRU shards of the summary cache. Query threads try-lock a shard per lookup,
// so more shards mean fewer skipped lookups when queries run concurrently.
constexpr size_t kSummaryCacheShards = 8;

// Forward scans of the timestamp index looking for the next chunk event are
// bounded; past this many entries the query falls back to the chain walk.
constexpr uint64_t kChunkEventScanCap = 8192;

// Backward chain walks batch this many headers before running the vectorized
// time filter over them (the walk itself is data-dependent).
constexpr size_t kChainWalkBatch = 64;

Clock* DefaultClock() {
  static MonotonicClock clock;
  return &clock;
}

size_t RoundUp(size_t value, size_t multiple) {
  return (value + multiple - 1) / multiple * multiple;
}

// Accumulates scope wall time into trace->plan_nanos, only for detailed
// (caller-requested) traces; internal bookkeeping never reads the clock.
class PlanTimer {
 public:
  explicit PlanTimer(QueryTrace* trace)
      : trace_(trace), t0_(trace->detailed ? MetricsNowNanos() : 0) {}
  ~PlanTimer() {
    if (trace_->detailed) {
      trace_->plan_nanos += MetricsNowNanos() - t0_;
    }
  }
  PlanTimer(const PlanTimer&) = delete;
  PlanTimer& operator=(const PlanTimer&) = delete;

 private:
  QueryTrace* trace_;
  uint64_t t0_;
};

// A value scan's filter as the zone-map classifier sees it: the range and the
// histogram bins overlapping it.
struct ValueFilter {
  ValueRange range;
  uint32_t first_bin = 0;
  uint32_t last_bin = 0;
};

// What a zone map proves about one chunk for one query.
enum class Zone : uint8_t {
  kPrune,  // no record the query wants lies in the chunk
  kFold,   // wholly inside the time range and fully indexed: the entries
           // describe the chunk exactly (aggregates and counts only)
  kScan,   // the chunk's records must be read
};

// The one zone-map classifier: every operator's prune / fold / scan decision,
// for hot chunk summaries and archive footers alike. `index_id` is
// kPresenceIndexId for record-level operators (RawScan, CountRecords), whose
// fold is the presence count, stored in *presence_count when asked. With a
// `values` filter (value scans) a chunk scans only if a bin entry in the
// filter's bins has [min, max] overlapping its range — NaN never moves
// min/max and never matches, so the test stays exact — or if it holds
// records that predate the index (evaluated < presence, §5.3).
Zone ClassifyZone(const ChunkSummary& s, uint32_t source_id, uint32_t index_id,
                  TimeRange t_range, const ValueFilter* values,
                  uint64_t* presence_count = nullptr) {
  const BinStats* presence = nullptr;
  uint64_t evaluated = 0;
  bool value_match = false;
  for (const ChunkSummary::Entry& e : s.entries) {
    if (e.source_id != source_id) {
      continue;
    }
    if (e.index_id == kPresenceIndexId) {
      presence = &e.stats;
    } else if (e.index_id == index_id) {
      if (e.bin == kEvaluatedBin) {
        evaluated = e.stats.count;
      } else if (values != nullptr && e.bin >= values->first_bin && e.bin <= values->last_bin &&
                 e.stats.max >= values->range.lo && e.stats.min <= values->range.hi) {
        value_match = true;
      }
    }
  }
  if (presence == nullptr || presence->max_ts < t_range.start || presence->min_ts > t_range.end) {
    return Zone::kPrune;
  }
  if (presence_count != nullptr) {
    *presence_count = presence->count;
  }
  const bool all_indexed = index_id == kPresenceIndexId || evaluated == presence->count;
  if (values != nullptr) {
    return value_match || !all_indexed ? Zone::kScan : Zone::kPrune;
  }
  const bool covered = presence->min_ts >= t_range.start && presence->max_ts <= t_range.end;
  return covered && all_indexed ? Zone::kFold : Zone::kScan;
}

// Counts one classified chunk into the trace; an archived block counts into
// both the chunks_* and the tier_* families.
void CountZone(QueryTrace* trace, Zone zone, bool archived) {
  ++trace->chunks_considered;
  trace->tier_chunks_considered += archived;
  if (zone == Zone::kScan) {
    ++trace->chunks_scanned;
    trace->tier_chunks_scanned += archived;
    return;
  }
  ++trace->chunks_pruned;
  trace->tier_chunks_pruned += archived;
  if (zone == Zone::kFold) {
    ++trace->chunks_summary_folded;
    trace->tier_chunks_summary_folded += archived;
  }
}

// Holds a query's pin on the record log's retention floor (see
// HybridLog::PinFloor) for the life of the scope.
class FloorPin {
 public:
  explicit FloorPin(HybridLog* log) : log_(log), floor_(log->PinFloor()) {}
  ~FloorPin() { log_->UnpinFloor(floor_); }
  FloorPin(const FloorPin&) = delete;
  FloorPin& operator=(const FloorPin&) = delete;

  uint64_t floor() const { return floor_; }

 private:
  HybridLog* log_;
  uint64_t floor_;
};

}  // namespace

Status LoomOptions::Validate() {
  if (dir.empty()) {
    return Status::InvalidArgument("LoomOptions.dir must be set");
  }
  if (chunk_size < 2 * kRecordHeaderSize) {
    return Status::InvalidArgument("chunk_size too small");
  }
  if (ts_marker_period == 0) {
    ts_marker_period = 1;
  }
  if (!archive_dir.empty() && !enable_chunk_index) {
    return Status::InvalidArgument(
        "archive_dir requires enable_chunk_index (zone maps are chunk summaries)");
  }
  if (demote_batch_chunks == 0) {
    demote_batch_chunks = 1;
  }
  record_block_size = RoundUp(std::max(record_block_size, chunk_size), chunk_size);
  ts_index_block_size =
      RoundUp(std::max<size_t>(ts_index_block_size, 1024), TimestampIndexEntry::kEncodedSize);
  // A stage larger than this buys nothing (classify batches are already far
  // past the kernel's vector width) and bloats the per-index buffers.
  if (summary_stage_records > 4096) {
    summary_stage_records = 4096;
  }
  return Status::Ok();
}

Result<std::unique_ptr<Loom>> Loom::Open(const LoomOptions& options) {
  LoomOptions opts = options;
  LOOM_RETURN_IF_ERROR(opts.Validate());
  std::error_code ec;
  std::filesystem::create_directories(opts.dir, ec);
  if (ec) {
    return Status::IoError("create_directories " + opts.dir + ": " + ec.message());
  }
  if (opts.clock == nullptr) {
    opts.clock = DefaultClock();
  }

  // Resolve the metrics registry before the hybrid logs are created so they
  // can register their flush/stall metrics against it.
  std::unique_ptr<MetricsRegistry> owned_metrics;
  if (opts.metrics == nullptr) {
    owned_metrics = std::make_unique<MetricsRegistry>();
    opts.metrics = owned_metrics.get();
  }

  HybridLogOptions rec_opts;
  rec_opts.block_size = opts.record_block_size;
  rec_opts.retain_bytes = opts.record_retain_bytes;
  rec_opts.metrics = opts.metrics;
  rec_opts.metrics_prefix = "loom_hybridlog_record";
  rec_opts.sync_policy = opts.sync_policy;
  rec_opts.group_commit_bytes = opts.group_commit_bytes;
  rec_opts.group_commit_interval_ms = opts.group_commit_interval_ms;
  rec_opts.group_commits_metric = opts.metrics->AddCounter("loom_ingest_group_commits_total");
  rec_opts.group_commit_bytes_metric =
      opts.metrics->AddCounter("loom_ingest_group_commit_bytes");
  auto record_log = HybridLog::Create(opts.dir + "/record.log", rec_opts);
  if (!record_log.ok()) {
    return record_log.status();
  }
  HybridLogOptions chunk_opts;
  chunk_opts.block_size = opts.chunk_index_block_size;
  chunk_opts.metrics = opts.metrics;
  chunk_opts.metrics_prefix = "loom_hybridlog_chunkidx";
  auto chunk_log = HybridLog::Create(opts.dir + "/chunk.idx", chunk_opts);
  if (!chunk_log.ok()) {
    return chunk_log.status();
  }
  HybridLogOptions ts_opts;
  ts_opts.block_size = opts.ts_index_block_size;
  ts_opts.metrics = opts.metrics;
  ts_opts.metrics_prefix = "loom_hybridlog_tsidx";
  auto ts_log = HybridLog::Create(opts.dir + "/ts.idx", ts_opts);
  if (!ts_log.ok()) {
    return ts_log.status();
  }
  std::unique_ptr<Loom> engine(new Loom(opts, std::move(owned_metrics),
                                        std::move(record_log.value()),
                                        std::move(chunk_log.value()),
                                        std::move(ts_log.value())));
  if (!opts.archive_dir.empty()) {
    LOOM_RETURN_IF_ERROR(engine->InitTiering());
  }
  return engine;
}

Loom::Loom(const LoomOptions& options, std::unique_ptr<MetricsRegistry> owned_metrics,
           std::unique_ptr<HybridLog> record_log, std::unique_ptr<HybridLog> chunk_log,
           std::unique_ptr<HybridLog> ts_log)
    : options_(options),
      clock_(options.clock),
      metrics_(options.metrics),
      owned_metrics_(std::move(owned_metrics)),
      record_log_(std::move(record_log)),
      chunk_log_(std::move(chunk_log)),
      ts_log_(std::move(ts_log)),
      ts_writer_(ts_log_.get()) {
  if (options_.summary_cache_bytes > 0 && options_.enable_chunk_index) {
    SummaryCacheOptions cache_opts;
    cache_opts.capacity_bytes = options_.summary_cache_bytes;
    cache_opts.shards = kSummaryCacheShards;
    summary_cache_ = std::make_unique<SummaryCache>(cache_opts);
  }
  // Resolve the kernel set once: an explicit simd_mode wins; kAuto consults
  // LOOM_SIMD and then autodetects. SelectKernels never returns null.
  kernels_ = SelectKernels(options_.simd_mode == SimdMode::kAuto
                               ? SimdModeFromEnv(SimdMode::kAuto)
                               : options_.simd_mode);
  stage_bins_.resize(options_.summary_stage_records);
  if (options_.enable_chunk_index) {
    StandingQueryEngineOptions standing_opts;
    standing_opts.kernels = kernels_;
    standing_opts.metrics = metrics_;
    standing_opts.scan_chunk = [this](uint64_t chunk_addr, uint32_t chunk_len,
                                      uint32_t source_id, TimestampNanos start,
                                      TimestampNanos end,
                                      const std::function<bool(const RecordView&)>& fn) {
      // Straddling-chunk rescan: same batched walk as the one-shot planner's
      // scanned path, bounded to the just-sealed chunk. The caller (seal
      // path) guarantees the chunk's record bytes are published.
      QueryTrace scratch;
      return ScanRecordRangeFor(chunk_addr, chunk_addr + chunk_len, source_id,
                                TimeRange{start, end}, fn, &scratch);
    };
    standing_ = std::make_unique<StandingQueryEngine>(std::move(standing_opts));
  }
  RegisterMetrics();
}

Loom::~Loom() {
  // The demoter reads the logs and the catalog: join it before either dies.
  if (demoter_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(demote_mu_);
      demote_stop_.store(true, std::memory_order_relaxed);
    }
    demote_cv_.notify_all();
    demoter_.join();
  }
  // A shared registry (LoomOptions.metrics) outlives this engine; the hooks
  // capture `summary_cache_` / the logs / the catalog and must go first.
  if (cache_hook_id_ != 0) {
    metrics_->RemoveCollectionHook(cache_hook_id_);
  }
  if (ingest_hook_id_ != 0) {
    metrics_->RemoveCollectionHook(ingest_hook_id_);
  }
  if (tier_hook_id_ != 0) {
    metrics_->RemoveCollectionHook(tier_hook_id_);
  }
}

void Loom::RegisterMetrics() {
  m_.records_ingested = metrics_->AddCounter("loom_core_ingested_records_total");
  m_.bytes_ingested = metrics_->AddCounter("loom_core_ingested_bytes");
  m_.chunks_finalized = metrics_->AddCounter("loom_core_chunks_finalized_total");
  m_.ts_entries = metrics_->AddCounter("loom_core_ts_entries_total");
  m_.push_ops = metrics_->AddCounter("loom_core_push_total");
  m_.push_batch_ops = metrics_->AddCounter("loom_core_push_batch_total");
  m_.sync_ops = metrics_->AddCounter("loom_core_sync_total");
  m_.push_seconds = metrics_->AddHistogram("loom_core_push_seconds");
  m_.push_batch_seconds = metrics_->AddHistogram("loom_core_push_batch_seconds");
  m_.sync_seconds = metrics_->AddHistogram("loom_core_sync_seconds");
  m_.finalize_seconds = metrics_->AddHistogram("loom_ingest_finalize_seconds");
  m_.query_chunks_considered = metrics_->AddCounter("loom_query_chunks_considered_total");
  m_.query_chunks_pruned = metrics_->AddCounter("loom_query_chunks_pruned_total");
  m_.query_chunks_scanned = metrics_->AddCounter("loom_query_chunks_scanned_total");
  m_.query_records_examined = metrics_->AddCounter("loom_query_records_examined_total");
  m_.query_bytes_read = metrics_->AddCounter("loom_query_read_bytes");
  m_.raw_scan_seconds = metrics_->AddHistogram("loom_query_raw_scan_seconds");
  m_.indexed_scan_seconds = metrics_->AddHistogram("loom_query_indexed_scan_seconds");
  m_.aggregate_seconds = metrics_->AddHistogram("loom_query_aggregate_seconds");
  m_.histogram_seconds = metrics_->AddHistogram("loom_query_histogram_seconds");
  m_.count_seconds = metrics_->AddHistogram("loom_query_count_seconds");
  if (summary_cache_ != nullptr) {
    // The cache keeps its own atomics (query threads bump them with no
    // registry in sight); a collection hook folds them into gauges at each
    // Snapshot() so scrapes see current values without double counting.
    Gauge* hits = metrics_->AddGauge("loom_cache_hits_total");
    Gauge* misses = metrics_->AddGauge("loom_cache_misses_total");
    Gauge* evictions = metrics_->AddGauge("loom_cache_evictions_total");
    Gauge* invalidated = metrics_->AddGauge("loom_cache_invalidated_total");
    Gauge* bytes_used = metrics_->AddGauge("loom_cache_used_bytes");
    Gauge* entries = metrics_->AddGauge("loom_cache_entries_total");
    SummaryCache* cache = summary_cache_.get();
    cache_hook_id_ = metrics_->AddCollectionHook(
        [cache, hits, misses, evictions, invalidated, bytes_used, entries] {
          const SummaryCacheStats s = cache->stats();
          hits->Set(static_cast<double>(s.hits));
          misses->Set(static_cast<double>(s.misses));
          evictions->Set(static_cast<double>(s.evictions));
          invalidated->Set(static_cast<double>(s.invalidated));
          bytes_used->Set(static_cast<double>(s.bytes_used));
          entries->Set(static_cast<double>(s.entries));
        });
  }
  {
    // The active kernel set, exported as a one-hot style gauge (0 scalar,
    // 1 avx2, 2 neon) so dashboards can tell which dispatch a node runs.
    Gauge* kernel_mode = metrics_->AddGauge("loom_query_kernel_mode");
    const char* name = kernels_->name;
    kernel_mode->Set(std::strcmp(name, "avx2") == 0   ? 1.0
                     : std::strcmp(name, "neon") == 0 ? 2.0
                                                      : 0.0);
  }
  {
    // Tiered-storage family. Demotion counters tick in the demoter; the
    // per-query block counters fold from finished traces. Registered
    // unconditionally (always zero without archive_dir) so exposition is
    // stable across configurations; the catalog gauges join in InitTiering.
    m_.tier_demoted_chunks = metrics_->AddCounter("loom_tier_demoted_chunks_total");
    m_.tier_demoted_records = metrics_->AddCounter("loom_tier_demoted_records_total");
    m_.tier_demoted_bytes = metrics_->AddCounter("loom_tier_demoted_bytes");
    m_.tier_demote_failures = metrics_->AddCounter("loom_tier_demote_failures_total");
    m_.tier_quarantined = metrics_->AddCounter("loom_tier_quarantined_total");
    m_.tier_blocks_considered = metrics_->AddCounter("loom_tier_blocks_considered_total");
    m_.tier_blocks_pruned = metrics_->AddCounter("loom_tier_blocks_pruned_total");
    m_.tier_blocks_scanned = metrics_->AddCounter("loom_tier_blocks_scanned_total");
    m_.tier_read_bytes = metrics_->AddCounter("loom_tier_read_bytes");
    m_.tier_demote_seconds = metrics_->AddHistogram("loom_tier_demote_seconds");
  }
  {
    // Ingest family. The record log keeps its flusher state itself; a hook
    // folds it into gauges at each Snapshot(), mirroring the summary-cache
    // pattern.
    Gauge* writer_stall = metrics_->AddGauge("loom_ingest_writer_stall_seconds_total");
    Gauge* flush_depth = metrics_->AddGauge("loom_ingest_flush_queue_depth");
    HybridLog* rec = record_log_.get();
    ingest_hook_id_ = metrics_->AddCollectionHook([rec, writer_stall, flush_depth] {
      writer_stall->Set(static_cast<double>(rec->writer_stall_nanos()) * 1e-9);
      flush_depth->Set(static_cast<double>(rec->FlushQueueDepthApprox()));
    });
  }
}

void Loom::FoldTraceIntoMetrics(const QueryTrace& trace, Histogram* op_hist) const {
  if (trace.chunks_considered > 0) {
    m_.query_chunks_considered->Increment(trace.chunks_considered);
    m_.query_chunks_pruned->Increment(trace.chunks_pruned);
    m_.query_chunks_scanned->Increment(trace.chunks_scanned);
  }
  if (trace.tier_chunks_considered > 0) {
    m_.tier_blocks_considered->Increment(trace.tier_chunks_considered);
    m_.tier_blocks_pruned->Increment(trace.tier_chunks_pruned);
    m_.tier_blocks_scanned->Increment(trace.tier_chunks_scanned);
  }
  if (trace.tier_bytes_read > 0) {
    m_.tier_read_bytes->Increment(trace.tier_bytes_read);
  }
  if (trace.records_examined > 0) {
    m_.query_records_examined->Increment(trace.records_examined);
  }
  if (trace.bytes_read > 0) {
    m_.query_bytes_read->Increment(trace.bytes_read);
  }
  if (options_.enable_latency_metrics && op_hist != nullptr) {
    op_hist->ObserveNanos(trace.total_nanos);
  }
}

// --- Schema operators ------------------------------------------------------

Status Loom::DefineSource(uint32_t source_id) {
  if (source_id == kPadSourceId) {
    return Status::InvalidArgument("source id reserved for padding");
  }
  auto it = sources_.find(source_id);
  if (it != sources_.end()) {
    if (it->second->open) {
      return Status::AlreadyExists("source already defined");
    }
    it->second->open = true;  // reopen: the record chain continues
    return Status::Ok();
  }
  auto state = std::make_unique<SourceState>();
  state->id = source_id;
  state->open = true;
  state->presence_slot = builder_.RegisterSlot(source_id, kPresenceIndexId, 1);
  {
    std::lock_guard<std::mutex> lock(schema_mu_);
    sources_.emplace(source_id, std::move(state));
  }
  return Status::Ok();
}

Status Loom::CloseSource(uint32_t source_id) {
  auto it = sources_.find(source_id);
  if (it == sources_.end() || !it->second->open) {
    return Status::NotFound("source not defined");
  }
  SourceState& src = *it->second;
  for (IndexState* idx : src.indexes) {
    idx->open = false;
    FlushIndexStage(*idx);  // staged values still belong to the active chunk
    builder_.UnregisterSlot(idx->builder_slot);
    std::lock_guard<std::mutex> lock(schema_mu_);
    index_snapshots_.erase(idx->id);
  }
  src.indexes.clear();
  src.open = false;
  return Status::Ok();
}

Result<uint32_t> Loom::DefineIndex(uint32_t source_id, IndexFunc func, HistogramSpec spec) {
  auto it = sources_.find(source_id);
  if (it == sources_.end() || !it->second->open) {
    return Status::NotFound("source not defined");
  }
  if (!func) {
    return Status::InvalidArgument("index function must be callable");
  }
  const uint32_t id = next_index_id_++;
  auto state = std::make_unique<IndexState>();
  state->id = id;
  state->source_id = source_id;
  state->open = true;
  state->func = func;
  state->spec = spec;
  state->stage_values.resize(options_.summary_stage_records);
  state->stage_ts.resize(options_.summary_stage_records);
  state->builder_slot =
      builder_.RegisterSlot(source_id, id, static_cast<uint32_t>(spec.num_bins()));
  it->second->indexes.push_back(state.get());
  {
    std::lock_guard<std::mutex> lock(schema_mu_);
    index_snapshots_.emplace(id, IndexSnapshot{source_id, std::move(func), std::move(spec)});
    indexes_.emplace(id, std::move(state));
  }
  return id;
}

Status Loom::CloseIndex(uint32_t index_id) {
  auto it = indexes_.find(index_id);
  if (it == indexes_.end() || !it->second->open) {
    return Status::NotFound("index not defined");
  }
  IndexState& idx = *it->second;
  idx.open = false;
  FlushIndexStage(idx);  // staged values still belong to the active chunk
  builder_.UnregisterSlot(idx.builder_slot);
  auto src_it = sources_.find(idx.source_id);
  if (src_it != sources_.end()) {
    auto& vec = src_it->second->indexes;
    vec.erase(std::remove(vec.begin(), vec.end(), &idx), vec.end());
  }
  {
    std::lock_guard<std::mutex> lock(schema_mu_);
    index_snapshots_.erase(index_id);
  }
  return Status::Ok();
}

// --- Ingest ------------------------------------------------------------------

Status Loom::Push(uint32_t source_id, std::span<const uint8_t> payload,
                  TimestampNanos* arrival_ts) {
  // Timing every Push would cost two clock reads per record — more than the
  // append itself for small payloads — so the latency histogram is fed by a
  // 1-in-64 sample. Counters are always exact.
  m_.push_ops->Increment();
  const bool sampled = options_.enable_latency_metrics && (push_sample_tick_++ & 63) == 0;
  const uint64_t t0 = sampled ? MetricsNowNanos() : 0;
  auto it = sources_.find(source_id);
  if (it == sources_.end() || !it->second->open) {
    return Status::NotFound("source not defined");
  }
  if (!seal_status_.ok()) {
    return seal_status_;
  }
  SourceState& src = *it->second;
  const TimestampNanos now = clock_->NowNanos();
  LOOM_RETURN_IF_ERROR(AppendRecord(src, payload, now));
  if (arrival_ts != nullptr) {
    *arrival_ts = now;
  }
  PublishAll(src);
  if (sampled) {
    m_.push_seconds->ObserveNanos(MetricsNowNanos() - t0);
  }
  return Status::Ok();
}

Status Loom::PushBatch(uint32_t source_id,
                       std::span<const std::span<const uint8_t>> payloads) {
  m_.push_batch_ops->Increment();
  ScopedLatencyTimer timer(options_.enable_latency_metrics ? m_.push_batch_seconds : nullptr);
  auto it = sources_.find(source_id);
  if (it == sources_.end() || !it->second->open) {
    return Status::NotFound("source not defined");
  }
  if (payloads.empty()) {
    return Status::Ok();
  }
  if (!seal_status_.ok()) {
    return seal_status_;
  }
  SourceState& src = *it->second;
  const TimestampNanos now = clock_->NowNanos();
  size_t appended = 0;
  Status status = Status::Ok();
  for (const std::span<const uint8_t>& payload : payloads) {
    status = AppendRecord(src, payload, now);
    if (!status.ok()) {
      break;
    }
    ++appended;
  }
  if (appended > 0) {
    PublishAll(src);  // records before the failure stay published
  }
  return status;
}

Status Loom::AppendRecord(SourceState& src, std::span<const uint8_t> payload,
                          TimestampNanos now) {
  const size_t need = kRecordHeaderSize + payload.size();
  if (need > options_.chunk_size) {
    return Status::InvalidArgument("record larger than chunk size");
  }

  // Chunk accounting: pad and finalize the active chunk if the record does
  // not fit in its remainder (§5.4).
  const uint64_t chunk_end = active_chunk_start_ + options_.chunk_size;
  if (record_log_->tail() + need > chunk_end) {
    const size_t pad = static_cast<size_t>(chunk_end - record_log_->tail());
    if (pad > 0) {
      auto reserved = record_log_->AppendReserve(pad);
      if (!reserved.ok()) {
        return reserved.status();
      }
      std::memset(reserved.value().second, 0xFF, pad);
    }
    if (Status st = FinalizeChunk(now); !st.ok()) {
      // Sticky: Push and PushBatch checked seal_status_ on entry, so this is
      // the first failure.
      seal_status_ = Status(st.code(), "chunk seal: " + std::string(st.message()));
      return seal_status_;
    }
    active_chunk_start_ = chunk_end;
  }

  // Append the record.
  auto reserved = record_log_->AppendReserve(need);
  if (!reserved.ok()) {
    return reserved.status();
  }
  const uint64_t addr = reserved.value().first;
  RecordHeader header;
  header.source_id = src.id;
  header.payload_len = static_cast<uint32_t>(payload.size());
  header.ts = now;
  header.prev_addr = src.last_record_addr;
  header.EncodeTo(reserved.value().second);
  if (!payload.empty()) {
    std::memcpy(reserved.value().second + kRecordHeaderSize, payload.data(), payload.size());
  }
  src.last_record_addr = addr;
  ++src.record_count;
  m_.records_ingested->Increment();
  m_.bytes_ingested->Increment(payload.size());

  // Update the active chunk summary (presence + every index on the source).
  builder_.UpdatePresence(src.presence_slot, now);
  const size_t stage_cap = options_.summary_stage_records;
  if (stage_cap > 0) {
    // Staged path: buffer the extracted value and batch-classify later with
    // the vectorized kernel; bit-identical to the scalar path below because
    // per-(slot, bin) accumulation order still equals record order.
    for (IndexState* idx : src.indexes) {
      if (!idx->stage_listed) {
        idx->stage_listed = true;
        staged_indexes_.push_back(idx);
      }
      ++idx->stage_evaluated;
      std::optional<double> value = idx->func(payload);
      if (value.has_value()) {
        idx->stage_values[idx->stage_n] = *value;
        idx->stage_ts[idx->stage_n] = now;
        if (++idx->stage_n == stage_cap) {
          FlushIndexStage(*idx);
        }
      }
    }
  } else {
    for (IndexState* idx : src.indexes) {
      builder_.NoteEvaluated(idx->builder_slot);
      std::optional<double> value = idx->func(payload);
      if (value.has_value()) {
        builder_.Update(idx->builder_slot, idx->spec.BinOf(*value), *value, now);
      }
    }
  }

  return MaybeWriteMarker(src, now, addr);
}

void Loom::FlushIndexStage(IndexState& idx) {
  if (idx.stage_evaluated > 0) {
    builder_.NoteEvaluatedBatch(idx.builder_slot, idx.stage_evaluated);
    idx.stage_evaluated = 0;
  }
  const size_t n = idx.stage_n;
  if (n == 0) {
    return;
  }
  if (stage_bins_.size() < n) {
    stage_bins_.resize(n);
  }
  idx.spec.ClassifyBatch(*kernels_, idx.stage_values.data(), n, stage_bins_.data());
  builder_.UpdateBatch(idx.builder_slot, stage_bins_.data(), idx.stage_values.data(),
                       idx.stage_ts.data(), n);
  idx.stage_n = 0;
}

void Loom::FlushSummaryStages() {
  for (IndexState* idx : staged_indexes_) {
    FlushIndexStage(*idx);
    idx->stage_listed = false;
  }
  staged_indexes_.clear();
}

Status Loom::FinalizeChunk(TimestampNanos now) {
  // Per chunk, not per record: a full timer here is cheap and seal latency
  // (materialize + encode + two index appends) is a leading probe-effect
  // signal.
  ScopedLatencyTimer timer(options_.enable_latency_metrics ? m_.finalize_seconds : nullptr);
  FlushSummaryStages();
  m_.chunks_finalized->Increment();
  ChunkSummary summary =
      builder_.Finalize(active_chunk_start_, static_cast<uint32_t>(options_.chunk_size));
  if (!options_.enable_chunk_index) {
    return Status::Ok();
  }
  std::vector<uint8_t> buf;
  buf.reserve(4 + summary.EncodedSize());
  PutU32(buf, static_cast<uint32_t>(summary.EncodedSize()));
  summary.EncodeTo(buf);
  auto addr = chunk_log_->Append(std::span<const uint8_t>(buf.data(), buf.size()));
  if (!addr.ok()) {
    return addr.status();
  }
  if (options_.enable_timestamp_index) {
    auto event = ts_writer_.AppendChunkEvent(now, addr.value());
    if (!event.ok()) {
      return event.status();
    }
    m_.ts_entries->Increment();
  }
  if (standing_ != nullptr) {
    if (standing_->has_queries()) {
      // Standing rescans read the sealed chunk's record bytes through the
      // published watermark, and the caller's PublishAll has not run yet.
      record_log_->Publish();
    }
    standing_->OnChunkSealed(summary, now);
  }
  return Status::Ok();
}

Status Loom::MaybeWriteMarker(SourceState& src, TimestampNanos ts, uint64_t record_addr) {
  if (!options_.enable_timestamp_index) {
    return Status::Ok();
  }
  ++src.records_since_marker;
  if (src.records_since_marker < options_.ts_marker_period && src.record_count != 1) {
    return Status::Ok();
  }
  src.records_since_marker = 0;
  auto marker = ts_writer_.AppendRecordMarker(src.id, ts, record_addr, src.last_marker_addr);
  if (!marker.ok()) {
    return marker.status();
  }
  src.last_marker_addr = marker.value();
  m_.ts_entries->Increment();
  return Status::Ok();
}

void Loom::PublishAll(SourceState& src) {
  // §5.4 ordering: record log, then chunk index, then timestamp index, then
  // the derived watermarks. Readers capture in the reverse order.
  record_log_->Publish();
  chunk_log_->Publish();
  ts_log_->Publish();
  published_indexed_tail_.store(active_chunk_start_, std::memory_order_release);
  src.published_last_record.store(src.last_record_addr, std::memory_order_release);
}

Status Loom::Sync(uint32_t source_id) {
  m_.sync_ops->Increment();
  ScopedLatencyTimer timer(options_.enable_latency_metrics ? m_.sync_seconds : nullptr);
  auto it = sources_.find(source_id);
  if (it == sources_.end()) {
    return Status::NotFound("source not defined");
  }
  PublishAll(*it->second);
  return seal_status_;
}

// --- Snapshots and lookups ----------------------------------------------------

Loom::Snapshot Loom::TakeSnapshot(const SourceState* src, uint64_t floor) const {
  Snapshot snap;
  if (src != nullptr) {
    snap.source_tail = src->published_last_record.load(std::memory_order_acquire);
  }
  snap.indexed_tail = published_indexed_tail_.load(std::memory_order_acquire);
  snap.ts_tail = ts_log_->queryable_tail();
  snap.chunk_tail = chunk_log_->queryable_tail();
  snap.record_tail = record_log_->queryable_tail();
  snap.floor = floor;
  return snap;
}

const Loom::SourceState* Loom::FindSource(uint32_t source_id) const {
  std::lock_guard<std::mutex> lock(schema_mu_);
  auto it = sources_.find(source_id);
  if (it == sources_.end()) {
    return nullptr;
  }
  return it->second.get();
}

Result<Loom::IndexSnapshot> Loom::GetIndexSnapshot(uint32_t index_id) const {
  std::lock_guard<std::mutex> lock(schema_mu_);
  auto it = index_snapshots_.find(index_id);
  if (it == index_snapshots_.end()) {
    return Status::NotFound("index not defined");
  }
  return it->second;
}

Result<Loom::IndexSnapshot> Loom::GetIndexSnapshot(uint32_t source_id, uint32_t index_id) const {
  auto idx = GetIndexSnapshot(index_id);
  if (idx.ok() && idx.value().source_id != source_id) {
    return Status::InvalidArgument("index does not cover source");
  }
  return idx;
}

// --- Standing queries --------------------------------------------------------

Status Loom::UnregisterStandingQuery(uint64_t query_id) {
  if (standing_ == nullptr) {
    return Status::FailedPrecondition("standing queries require enable_chunk_index");
  }
  return standing_->Unregister(query_id);
}

Result<uint64_t> Loom::RegisterStandingQuery(const StandingQuerySpec& spec) {
  if (standing_ == nullptr) {
    return Status::FailedPrecondition("standing queries require enable_chunk_index");
  }
  auto idx = GetIndexSnapshot(spec.source_id, spec.index_id);
  if (!idx.ok()) {
    return idx.status();
  }
  return standing_->Register(spec, idx.value().func, idx.value().spec);
}

std::shared_ptr<StandingSubscription> Loom::SubscribeStanding(uint64_t query_id,
                                                              size_t capacity) {
  if (standing_ == nullptr) {
    return nullptr;
  }
  return standing_->Subscribe(query_id, capacity);
}

// --- Scan helpers ---------------------------------------------------------------

Status Loom::ScanRecordRangeFor(uint64_t from, uint64_t to, uint32_t source_id, TimeRange t_range,
                                const std::function<bool(const RecordView&)>& fn,
                                QueryTrace* trace) const {
  return ScanRecordRangeInternal(from, to, /*filtered=*/true, source_id, t_range, fn, trace);
}

template <typename Fn>
Status Loom::ScanRecordRangeInternal(uint64_t from, uint64_t to, bool filtered,
                                     uint32_t source_id, TimeRange t_range, const Fn& fn,
                                     QueryTrace* trace) const {
  // Data below the retention floor is gone; scan the retained suffix. Chunk
  // alignment survives because the floor advances in block multiples and
  // blocks are chunk-aligned.
  uint64_t seen_floor = record_log_->retained_floor();
  from = std::max(from, seen_floor);
  if (from >= to) {
    return Status::Ok();
  }
  const uint64_t scan_t0 = trace->detailed ? MetricsNowNanos() : 0;
  CachedLogReader reader(record_log_.get(), to, kScanWindow);
  const uint64_t chunk_size = options_.chunk_size;
  uint64_t addr = from;
  // A query pins the floor, but an unpinned reader (the standing-query
  // rescan) can see retention advance mid-scan: past the scan position, or
  // merely past the start of the reader's aligned window while `addr` itself
  // is still retained. The reclaimed data is gone either way, so whenever the
  // floor moved, retry the fetch — skipping to the new floor (block-aligned,
  // hence chunk-aligned) if it passed `addr`, re-clamping the window
  // otherwise — instead of failing the scan. A floor that did not move means
  // the OutOfRange is real and propagates.
  const auto reclaimed_mid_scan = [&](const Status& st) {
    if (st.code() != StatusCode::kOutOfRange) {
      return false;
    }
    const uint64_t new_floor = record_log_->retained_floor();
    if (new_floor <= seen_floor) {
      return false;
    }
    seen_floor = new_floor;
    addr = std::max(addr, new_floor);
    return true;
  };
  DecodedBatch batch;
  std::vector<uint64_t> mask;
  bool done = false;
  while (!done && addr + kRecordHeaderSize <= to) {
    const uint64_t chunk_end = std::min<uint64_t>(to, addr - (addr % chunk_size) + chunk_size);
    if (chunk_end - addr < kRecordHeaderSize) {
      addr = chunk_end;
      continue;
    }
    const size_t span_len = static_cast<size_t>(chunk_end - addr);
    auto span = reader.Fetch(addr, span_len);
    if (!span.ok()) {
      if (reclaimed_mid_scan(span.status())) {
        continue;
      }
      return span.status();
    }
    const uint8_t* buf = span.value().data();
    // Batch-decode the span, vector-filter, then emit strictly in log order
    // with per-record accounting — an early stop mid-batch leaves the trace
    // exactly where the per-record walk would have left it.
    batch.Clear();
    const size_t consumed = kernels_->decode_records(buf, span_len, addr, chunk_size, &batch);
    const size_t n = batch.size();
    if (filtered && n > 0) {
      mask.assign(MaskWords(n), 0);
      kernels_->filter_source_time(batch.source_ids.data(), batch.timestamps.data(), n,
                                   source_id, t_range.start, t_range.end, mask.data());
    }
    for (size_t i = 0; i < n; ++i) {
      const uint32_t plen = batch.payload_lens[i];
      ++trace->records_examined;
      trace->bytes_read += kRecordHeaderSize + plen;
      if (filtered && ((mask[i >> 6] >> (i & 63)) & 1) == 0) {
        continue;
      }
      RecordView view;
      view.source_id = batch.source_ids[i];
      view.ts = batch.timestamps[i];
      view.addr = batch.addrs[i];
      view.payload = std::span<const uint8_t>(
          buf + (batch.addrs[i] - addr) + kRecordHeaderSize, plen);
      if (!fn(view)) {
        done = true;
        break;
      }
    }
    if (consumed < span_len) {
      // The span ends inside a record: the snapshot boundary cut it off
      // (records never span chunks, so a mid-log truncation cannot happen on
      // writer-produced data). The per-record walk stopped here too.
      break;
    }
    if (filtered && n > 0 && batch.timestamps[n - 1] > t_range.end) {
      break;  // log order is arrival order: no later record can match
    }
    addr += consumed;
  }
  if (trace->detailed) {
    trace->scan_nanos += MetricsNowNanos() - scan_t0;
  }
  return Status::Ok();
}

Result<std::shared_ptr<const ChunkSummary>> Loom::ReadSummary(uint64_t addr, uint64_t chunk_tail,
                                                              QueryTrace* trace) const {
  if (addr + 4 > chunk_tail) {
    return Status::OutOfRange("summary past snapshot");
  }
  if (summary_cache_ != nullptr) {
    uint32_t frame_len = 0;
    auto hit = summary_cache_->Lookup(addr, &frame_len);
    // Frames are appended whole before the publish fence, so a snapshot tail
    // always sits at a frame boundary; the length check alone bounds the hit
    // to this query's snapshot.
    if (hit != nullptr && addr + 4 + frame_len <= chunk_tail) {
      ++trace->cache_hits;
      return hit;
    }
  }
  ++trace->cache_misses;
  uint8_t len_buf[4];
  LOOM_RETURN_IF_ERROR(chunk_log_->Read(addr, std::span<uint8_t>(len_buf, 4)));
  const uint32_t len = LoadU32(len_buf);
  if (len == kChunkPadFrame || addr + 4 + len > chunk_tail) {
    return Status::DataLoss("corrupt chunk summary frame");
  }
  std::vector<uint8_t> buf(len);
  LOOM_RETURN_IF_ERROR(chunk_log_->Read(addr + 4, std::span<uint8_t>(buf.data(), len)));
  // Cached summaries leave out the listed section: only percentile stage 2
  // reads it, from the frame (Percentile).
  auto decoded = ChunkSummary::Decode(std::span<const uint8_t>(buf.data(), buf.size()),
                                      /*keep_listed=*/false);
  if (!decoded.ok()) {
    return decoded.status();
  }
  auto summary = std::make_shared<const ChunkSummary>(std::move(decoded.value()));
  if (summary_cache_ != nullptr) {
    summary_cache_->Insert(addr, len, summary);
  }
  return summary;
}

void Loom::MaybeInvalidateCacheForRetention(uint64_t floor) const {
  if (summary_cache_ == nullptr || floor == 0) {
    return;
  }
  uint64_t seen = cache_invalidated_floor_.load(std::memory_order_relaxed);
  while (floor > seen) {
    if (cache_invalidated_floor_.compare_exchange_weak(seen, floor,
                                                       std::memory_order_relaxed)) {
      summary_cache_->InvalidateBelowRecordFloor(floor);
      return;
    }
  }
}

// --- Tiered storage -------------------------------------------------------------

Status Loom::InitTiering() {
  auto catalog = ArchiveCatalog::Open(options_.archive_dir, m_.tier_quarantined);
  if (!catalog.ok()) {
    return catalog.status();
  }
  catalog_ = std::move(catalog.value());
  // Nothing may be dropped before it is archived: pin the retention barrier
  // at 0 before ingest can advance the floor. Demotion moves it forward past
  // each durable archive, turning retention from deletion into demotion.
  record_log_->SetRetentionBarrier(0);
  {
    Gauge* archives = metrics_->AddGauge("loom_tier_archives");
    Gauge* archived_chunks = metrics_->AddGauge("loom_tier_archived_chunks");
    Gauge* archived_bytes = metrics_->AddGauge("loom_tier_archived_bytes");
    Gauge* barrier = metrics_->AddGauge("loom_tier_retention_barrier_bytes");
    ArchiveCatalog* cat = catalog_.get();
    HybridLog* rec = record_log_.get();
    tier_hook_id_ = metrics_->AddCollectionHook(
        [cat, rec, archives, archived_chunks, archived_bytes, barrier] {
          archives->Set(static_cast<double>(cat->archive_count()));
          archived_chunks->Set(static_cast<double>(cat->total_blocks()));
          archived_bytes->Set(static_cast<double>(cat->total_bytes()));
          const uint64_t b = rec->retention_barrier();
          barrier->Set(b == kNullAddr ? 0.0 : static_cast<double>(b));
        });
  }
  if (options_.demote_interval_ms > 0) {
    demoter_ = std::thread([this] { DemoterMain(); });
  }
  return Status::Ok();
}

void Loom::DemoterMain() {
  std::unique_lock<std::mutex> lock(demote_mu_);
  while (!demote_stop_.load(std::memory_order_relaxed)) {
    demote_cv_.wait_for(lock, std::chrono::milliseconds(options_.demote_interval_ms), [this] {
      return demote_stop_.load(std::memory_order_relaxed);
    });
    if (demote_stop_.load(std::memory_order_relaxed)) {
      break;
    }
    const bool timed = options_.enable_latency_metrics;
    const uint64_t t0 = timed ? MetricsNowNanos() : 0;
    if (!DemoteOnce().ok()) {
      // Sticky failures would wedge tiering forever; the cursor did not
      // advance, so the next pass simply retries the same chunks.
      m_.tier_demote_failures->Increment();
    }
    if (timed) {
      m_.tier_demote_seconds->ObserveNanos(MetricsNowNanos() - t0);
    }
  }
}

Status Loom::DemoteNow() {
  if (catalog_ == nullptr) {
    return Status::Ok();
  }
  std::lock_guard<std::mutex> lock(demote_mu_);
  const bool timed = options_.enable_latency_metrics;
  const uint64_t t0 = timed ? MetricsNowNanos() : 0;
  Status st = DemoteOnce();
  if (!st.ok()) {
    m_.tier_demote_failures->Increment();
  }
  if (timed) {
    m_.tier_demote_seconds->ObserveNanos(MetricsNowNanos() - t0);
  }
  return st;
}

size_t Loom::ArchiveCount() const {
  return catalog_ != nullptr ? catalog_->archive_count() : 0;
}

Status Loom::DemoteOnce() {
  // Candidate window: chunks wholly below both the desired retention floor
  // (what retention would drop if the barrier let it) and the indexed
  // watermark (a candidate needs its finalized summary as the zone map).
  const uint64_t desired = record_log_->DesiredRetentionFloor();
  const uint64_t indexed = published_indexed_tail_.load(std::memory_order_acquire);
  const uint64_t limit = std::min(desired, indexed);
  const uint64_t barrier = record_log_->retention_barrier();
  if (limit == 0 || (barrier != kNullAddr && barrier >= limit)) {
    return Status::Ok();  // nothing new below the floor
  }

  // Walk chunk-log frames from the cursor, decoding summaries until one
  // reaches past the demotion limit or the batch fills. Frames are appended
  // in chunk-address order, so the walk and the record log stay in step.
  struct Demotable {
    ChunkSummary summary;
    uint64_t frame_end = 0;  // chunk-log address just past this frame
  };
  std::vector<Demotable> batch;
  const uint64_t chunk_tail = chunk_log_->queryable_tail();
  CachedLogReader reader(chunk_log_.get(), chunk_tail, kScanWindow);
  ChunkFrameIterator frames(
      [&reader](uint64_t addr, size_t len) { return reader.Fetch(addr, len); }, demote_cursor_,
      chunk_tail, chunk_log_->block_size());
  ChunkSummary summary;
  while (batch.size() < options_.demote_batch_chunks) {
    auto more = frames.Next(&summary);
    if (!more.ok()) {
      return more.status();
    }
    if (!more.value() || summary.chunk_addr + summary.chunk_len > limit) {
      break;
    }
    batch.push_back({std::move(summary), frames.addr()});
  }
  if (batch.empty()) {
    return Status::Ok();
  }

  // Stage the archive under a ".tmp" name; one block per demoted chunk, the
  // chunk's summary as its zone map, with the record-address column so
  // queries reproduce hot-log RecordViews bit for bit.
  char name[64];
  std::snprintf(name, sizeof(name), "tier-%016llx.loomarc",
                static_cast<unsigned long long>(batch.front().summary.chunk_addr));
  const std::string path = catalog_->dir() + "/" + name;
  auto writer = ArchiveWriter::Create(path);
  if (!writer.ok()) {
    return writer.status();
  }
  uint64_t demoted_records = 0;
  uint64_t demoted_bytes = 0;
  size_t blocks_appended = 0;
  QueryTrace scratch;  // demotion reads stay out of the query metrics
  std::vector<uint8_t> backing;
  struct RecMeta {
    uint32_t source_id;
    TimestampNanos ts;
    uint64_t addr;
    size_t offset;
    size_t len;
  };
  std::vector<RecMeta> metas;
  std::vector<ArchiveRecord> records;
  for (const Demotable& d : batch) {
    const ChunkSummary& s = d.summary;
    backing.clear();
    metas.clear();
    // Payloads are copied out of the scan window first (the span a callback
    // sees dies with the next fetch); spans are rebuilt once `backing` has
    // its final size.
    LOOM_RETURN_IF_ERROR(ScanRecordRangeInternal(
        s.chunk_addr, s.chunk_addr + s.chunk_len, /*filtered=*/false, 0, TimeRange{},
        [&](const RecordView& view) {
          metas.push_back(
              {view.source_id, view.ts, view.addr, backing.size(), view.payload.size()});
          backing.insert(backing.end(), view.payload.begin(), view.payload.end());
          return true;
        },
        &scratch));
    if (metas.empty()) {
      continue;  // padding-only chunk: nothing to archive
    }
    records.clear();
    records.reserve(metas.size());
    for (const RecMeta& m : metas) {
      records.push_back(
          {m.source_id, m.ts, m.addr, std::span<const uint8_t>(backing.data() + m.offset, m.len)});
    }
    LOOM_RETURN_IF_ERROR(writer.value().AppendBlock(records, /*with_addrs=*/true, &s));
    ++blocks_appended;
    demoted_records += metas.size();
    demoted_bytes += s.chunk_len;
  }
  if (blocks_appended > 0) {
    // Seal + durable rename, then serve it, and only then let retention
    // reclaim the hot copies: a crash anywhere in between loses no data.
    LOOM_RETURN_IF_ERROR(writer.value().Finish().status());
    LOOM_RETURN_IF_ERROR(catalog_->Register(path));
  } else {
    writer.value().Abort();  // all-padding batch: no archive needed
  }
  record_log_->SetRetentionBarrier(batch.back().summary.chunk_addr +
                                   batch.back().summary.chunk_len);
  record_log_->ApplyRetention();
  demote_cursor_ = batch.back().frame_end;
  m_.tier_demoted_chunks->Increment(blocks_appended);
  m_.tier_demoted_records->Increment(demoted_records);
  m_.tier_demoted_bytes->Increment(demoted_bytes);
  return Status::Ok();
}

// --- Query planner and executor ------------------------------------------------

// One unit of planned work. The planner emits candidates in delivery order.
struct Loom::Candidate {
  enum class Kind : uint8_t {
    kArchive,  // archived block `block` of `reader`; `summary` is its zone map
               // and, aliasing the reader's footer, keeps the reader alive
    kChunk,    // hot chunk whose summary frame sits at `addr` in the chunk log;
               // it loads when the executor reaches the chunk, unless the plan
               // already holds it in `summary` (chunk-log sweep, stage 2)
    kRange,    // records [addr, end) with no summary, always scanned: the
               // unindexed tail, or the forward scan without a chunk index
    kChain,    // the source's back-pointer chain from `addr` down to its
               // oldest record, or to the first one older than the range
  };
  Kind kind = Kind::kChunk;
  uint64_t addr = 0;
  uint64_t end = 0;
  std::shared_ptr<const ChunkSummary> summary = nullptr;
  const ArchiveReader* reader = nullptr;
  size_t block = 0;
};

struct Loom::QueryPlan {
  Snapshot snap;
  std::vector<Candidate> candidates;
};

// What the executor made of one candidate, handed to the operator before the
// next candidate runs.
struct Loom::Outcome {
  // A record kept for delivery after the scan, its payload copied out of
  // the scan window: only the archived blocks a newest-first walk reverses.
  struct Match {
    double value = 0.0;
    TimestampNanos ts = 0;
    uint64_t addr = 0;
    std::vector<uint8_t> payload;

    RecordView View(uint32_t source_id) const {
      return RecordView{source_id, ts, addr, std::span<const uint8_t>(payload)};
    }
  };
  // A summarized candidate that passed the filters; counted into the trace.
  bool considered = false;
  Zone zone = Zone::kScan;
  std::shared_ptr<const ChunkSummary> summary;
  uint64_t presence = 0;  // the source's records in the chunk, when folded
  std::vector<Match> matches;
  std::vector<double> values;          // index values of read records, log order
  std::vector<TimestampNanos> stamps;  // their arrival times, when the fold needs them
  uint64_t count = 0;
};

// An operator's policy: how its candidates classify, what each scanned
// record contributes, and how outcomes fold into the answer.
struct Loom::QueryOp {
  uint32_t source_id = 0;
  TimeRange t_range;
  uint32_t index_id = kPresenceIndexId;  // the index whose bins classify chunks
  std::optional<ValueFilter> values;     // value scans only
  bool walks_chain = false;  // RawScan: newest-first delivery along the chain,
                             // reading every chunk holding the source (never folds)
  bool rescan = false;       // percentile stage 2: every candidate is read, and
                             // the first pass already counted it

  // Per record of a scanned candidate that matches the source and the time
  // range. False stops the candidate.
  // (Policies keep the index function's std::optional result non-const:
  // GCC 12 copies a const one through memory, a store-forwarding stall per
  // record that cost percentile stage 2 about a tenth of its time.)
  virtual bool OnRecord(const Candidate& c, const RecordView& view, Outcome* o) = 0;
  // Per candidate, in plan order. False ends the query.
  virtual bool Consume(const Candidate& c, Outcome& o) = 0;

 protected:
  ~QueryOp() = default;  // operators live on their caller's stack
};

// The emit-matches policy of RawScan and IndexedScanValues: a match goes
// straight to the caller, except in an archived block that a newest-first
// walk reverses, whose matches are copied into the outcome for Consume to
// replay newest-first.
struct Loom::EmitOp : QueryOp {
  const RecordCallback* record_cb = nullptr;  // one of the two is set
  const ValueCallback* value_cb = nullptr;
  QueryTrace* trace = nullptr;
  bool stopped = false;

  bool Emit(const Candidate& c, double value, const RecordView& view, Outcome* o) {
    if (!Reversed(c)) {
      return Deliver(value, view);
    }
    o->matches.push_back({value, view.ts, view.addr, {view.payload.begin(), view.payload.end()}});
    return true;
  }
  bool Consume(const Candidate&, Outcome& o) final {
    // Only a reversed block buffers matches: replay them newest-first.
    for (auto m = o.matches.rbegin(); m != o.matches.rend() && !stopped; ++m) {
      Deliver(m->value, m->View(source_id));
    }
    return !stopped;
  }

 protected:
  ~EmitOp() = default;

 private:
  // A newest-first walk takes each archived block, which decodes
  // oldest-first, reversed.
  bool Reversed(const Candidate& c) const {
    return walks_chain && c.kind == Candidate::Kind::kArchive;
  }
  bool Deliver(double value, const RecordView& view) {
    ++trace->records_matched;
    stopped = value_cb != nullptr ? !(*value_cb)(value, view) : !(*record_cb)(view);
    return !stopped;
  }
};

Status Loom::Query(QueryOp& op, uint64_t floor, QueryTrace* trace) const {
  QueryPlan plan;
  LOOM_RETURN_IF_ERROR(Plan(op, floor, &plan, trace));
  return Execute(plan, op, trace);
}

Status Loom::Plan(const QueryOp& op, uint64_t floor, QueryPlan* plan, QueryTrace* trace) const {
  const SourceState* src = FindSource(op.source_id);
  if (src == nullptr) {
    return Status::NotFound("source not defined");
  }
  const PlanTimer plan_timer(trace);
  plan->snap = TakeSnapshot(src, floor);
  const Snapshot& snap = plan->snap;
  const TimeRange t_range = op.t_range;
  std::vector<Candidate>& out = plan->candidates;
  const bool ts_index = options_.enable_timestamp_index && snap.ts_tail > 0;
  // Archived blocks hold strictly older records than any hot candidate, so
  // planning them first keeps oldest-first operators in global time order:
  // folds stay bit-identical to what the same data produced before demotion.
  std::vector<Candidate> archived;
  PlanArchiveCandidates(snap.floor, t_range, &archived, trace);

  if (op.walks_chain || (!options_.enable_chunk_index && !ts_index)) {
    LOOM_RETURN_IF_ERROR(PlanChain(op, snap, &out));
    // Newest-first: the blocks follow the walk, newest block first.
    out.insert(out.end(), archived.rbegin(), archived.rend());
    return Status::Ok();
  }
  out = std::move(archived);

  if (!options_.enable_chunk_index) {
    // One forward range from the record the timestamp index places at or
    // before the range start; the scan ends once it passes t_range.end.
    TimestampIndexReader tsr(ts_log_.get(), snap.ts_tail);
    uint64_t start = 0;
    auto pos = tsr.LastEntryAtOrBefore(t_range.start == 0 ? 0 : t_range.start - 1);
    if (!pos.ok()) {
      return pos.status();
    }
    if (pos.value().has_value()) {
      auto e = tsr.ReadIndex(*pos.value());
      if (!e.ok()) {
        return e.status();
      }
      if (e.value().kind == TimestampIndexEntry::Kind::kRecord) {
        start = e.value().target_addr;
      }
    }
    out.push_back({Candidate::Kind::kRange, start, snap.record_tail});
    return Status::Ok();
  }

  // When the floor advanced since the last query, reclaim the cached
  // summaries of dropped chunks (query-thread work — ingest never touches
  // the cache).
  MaybeInvalidateCacheForRetention(snap.floor);

  if (!options_.enable_timestamp_index) {
    // No time index: sweep the whole chunk log and filter the summaries by
    // time (still skipping record data).
    CachedLogReader reader(chunk_log_.get(), snap.chunk_tail, kScanWindow);
    ChunkFrameIterator frames(
        [&reader](uint64_t addr, size_t len) { return reader.Fetch(addr, len); }, 0,
        snap.chunk_tail, chunk_log_->block_size());
    ChunkSummary s;
    for (;;) {
      auto more = frames.Next(&s);
      if (!more.ok()) {
        return more.status();
      }
      if (!more.value()) {
        break;
      }
      if (s.chunk_addr >= snap.floor && s.chunk_addr + s.chunk_len <= snap.indexed_tail &&
          s.max_ts >= t_range.start && s.min_ts <= t_range.end) {
        out.push_back({Candidate::Kind::kChunk, 0, 0,
                       std::make_shared<const ChunkSummary>(std::move(s))});
      }
    }
  } else if (ts_index && snap.chunk_tail > 0) {
    // The hot chunks come from timestamp-index entries alone; their summaries
    // load per candidate on the executor.
    //
    // Upper bound: binary search to the first entry after t_range.end, then a
    // bounded forward scan for the next chunk event — the chunk containing
    // t_range.end is finalized after it, and chunks are time-ordered and
    // non-overlapping, so that event (inclusive) bounds the candidate set. No
    // chunk event within the cap (or no entry past the range) means every
    // chunk event up to the snapshot tail stays in play.
    //
    // One windowed reader serves the bounded scan and the collection sweep:
    // timestamp entries are 32 bytes, so per-entry HybridLog::Read calls would
    // pay the snapshot-validation protocol ~2000x per window.
    TimestampIndexReader tsr(ts_log_.get(), snap.ts_tail);
    const uint64_t n = tsr.num_entries();
    CachedLogReader ts_reader(ts_log_.get(), snap.ts_tail, kScanWindow);
    const auto entry_bytes = [&](uint64_t i) {
      return ts_reader.Fetch(i * TimestampIndexEntry::kEncodedSize,
                             TimestampIndexEntry::kEncodedSize);
    };
    uint64_t hi = n;  // exclusive entry-index bound
    auto pos = tsr.FirstEntryAfter(t_range.end);
    if (!pos.ok()) {
      return pos.status();
    }
    if (pos.value().has_value()) {
      const uint64_t cap = std::min<uint64_t>(n, *pos.value() + kChunkEventScanCap);
      for (uint64_t i = *pos.value(); i < cap; ++i) {
        auto bytes = entry_bytes(i);
        if (!bytes.ok()) {
          return bytes.status();
        }
        if (TimestampIndexEntry::Decode(bytes.value().data()).kind ==
            TimestampIndexEntry::Kind::kChunk) {
          hi = i + 1;
          break;
        }
      }
    }
    // Lower bound: a chunk event's stamp is the finalize-time arrival clock,
    // which is >= the chunk's max record timestamp (entries are written in
    // monotone timestamp order), so chunk events before the first entry at or
    // after t_range.start can only reference chunks entirely before the range.
    uint64_t lo = 0;
    if (t_range.start > 0) {
      auto lower = tsr.FirstEntryAfter(t_range.start - 1);
      if (!lower.ok()) {
        return lower.status();
      }
      lo = lower.value().value_or(n);  // no entry in range: no chunk either
    }
    // Forward sweep [lo, hi): chunk-event targets are the summary addresses,
    // already oldest-first.
    for (uint64_t i = lo; i < hi; ++i) {
      auto bytes = entry_bytes(i);
      if (!bytes.ok()) {
        return bytes.status();
      }
      const TimestampIndexEntry e = TimestampIndexEntry::Decode(bytes.value().data());
      if (e.kind == TimestampIndexEntry::Kind::kChunk) {
        out.push_back({Candidate::Kind::kChunk, e.target_addr});
      }
    }
  }
  // The active (not yet summarized) region, always scanned for recency.
  out.push_back({Candidate::Kind::kRange, snap.indexed_tail, snap.record_tail});
  return Status::Ok();
}

Status Loom::PlanChain(const QueryOp& op, const Snapshot& snap,
                       std::vector<Candidate>* out) const {
  uint64_t start = snap.source_tail;
  if (options_.enable_timestamp_index && snap.ts_tail > 0) {
    TimestampIndexReader tsr(ts_log_.get(), snap.ts_tail);
    auto marker = tsr.FirstRecordMarkerAfter(op.source_id, op.t_range.end);
    if (!marker.ok()) {
      return marker.status();
    }
    if (marker.value().has_value()) {
      // All records after the marker's target have ts > t_range.end, so the
      // backward walk can start there instead of at the chain head.
      start = marker.value()->target_addr;
    }
  }
  if (start != kNullAddr) {
    out->push_back({Candidate::Kind::kChain, start});
  }
  return Status::Ok();
}

void Loom::PlanArchiveCandidates(uint64_t floor, TimeRange t_range, std::vector<Candidate>* out,
                                 QueryTrace* trace) const {
  if (catalog_ == nullptr || floor == 0) {
    return;
  }
  for (const std::shared_ptr<const ArchiveReader>& reader : catalog_->Snapshot()) {
    ++trace->tier_archives_consulted;
    for (size_t b = 0; b < reader->block_count(); ++b) {
      const ChunkSummary& s = reader->block(b).summary;
      if (s.chunk_addr + s.chunk_len > floor) {
        continue;  // still hot for this query: the hot tier serves the chunk
      }
      if (s.max_ts < t_range.start || s.min_ts > t_range.end) {
        continue;  // time-disjoint, like a filtered hot chunk
      }
      // The zone map lives in the reader's footer; the aliasing pointer keeps
      // the reader alive with it even if the catalog grows mid-query.
      out->push_back({Candidate::Kind::kArchive, 0, 0,
                      std::shared_ptr<const ChunkSummary>(reader, &s), reader.get(), b});
    }
  }
}

Status Loom::ScanArchiveBlockFor(const Candidate& cand, uint32_t source_id, TimeRange t_range,
                                 const std::function<bool(const RecordView&)>& fn,
                                 QueryTrace* trace) const {
  const uint64_t scan_t0 = trace->detailed ? MetricsNowNanos() : 0;
  uint64_t bytes = 0;
  Status st = cand.reader->ScanBlock(
      cand.block,
      [&](const ArchiveRecord& rec) -> bool {
        ++trace->records_examined;
        if (rec.source_id != source_id || !t_range.Contains(rec.ts)) {
          return true;
        }
        return fn(RecordView{rec.source_id, rec.ts, rec.addr, rec.payload});
      },
      &bytes);
  trace->bytes_read += bytes;
  trace->tier_bytes_read += bytes;
  if (trace->detailed) {
    trace->scan_nanos += MetricsNowNanos() - scan_t0;
  }
  return st;
}

Status Loom::Execute(const QueryPlan& plan, QueryOp& op, QueryTrace* trace) const {
  // Each outcome is consumed before the next candidate runs, so records
  // stream to the operator and memory stays bounded by one candidate. A
  // failed candidate still delivers what it read first.
  for (size_t c = 0; c < plan.candidates.size(); ++c) {
    const Candidate& cand = plan.candidates[c];
    Outcome o;
    const Status st = RunCandidate(plan, c, op, &o, trace);
    if (o.considered) {
      CountZone(trace, o.zone, cand.kind == Candidate::Kind::kArchive);
    }
    if (!op.Consume(cand, o)) {
      break;
    }
    LOOM_RETURN_IF_ERROR(st);
  }
  return Status::Ok();
}

Status Loom::RunCandidate(const QueryPlan& plan, size_t c, QueryOp& op, Outcome* o,
                          QueryTrace* trace) const {
  const Candidate& cand = plan.candidates[c];
  const Snapshot& snap = plan.snap;
  if (cand.kind == Candidate::Kind::kChain) {
    return WalkChain(cand, snap, op, o, trace);
  }
  uint64_t from = cand.addr;
  uint64_t to = std::min(cand.end, snap.record_tail);
  if (cand.kind == Candidate::Kind::kRange) {
    // Below the query's floor the archive tier answers (or the data
    // expired), even where the log has not reclaimed it yet.
    from = std::max(from, snap.floor);
  } else {
    // 1. Load and filter. The planner filtered archived blocks and preloaded
    // summaries; a loaded one must sit at or above the floor, below the
    // snapshot's indexed watermark, and overlap the time range.
    o->summary = cand.summary;
    if (o->summary == nullptr) {
      auto loaded = ReadSummary(cand.addr, snap.chunk_tail, trace);
      if (!loaded.ok()) {
        return loaded.status();
      }
      const ChunkSummary& s = *loaded.value();
      if (s.chunk_addr < snap.floor || s.chunk_addr + s.chunk_len > snap.indexed_tail ||
          s.max_ts < op.t_range.start || s.min_ts > op.t_range.end) {
        o->zone = Zone::kPrune;  // filtered: not a candidate
        return Status::Ok();
      }
      o->summary = std::move(loaded.value());
    }
    const ChunkSummary& s = *o->summary;
    // 2. Classify.
    if (!op.rescan) {
      o->considered = true;
      o->zone = ClassifyZone(s, op.source_id, op.index_id, op.t_range,
                             op.values.has_value() ? &*op.values : nullptr, &o->presence);
      if (o->zone == Zone::kFold && op.walks_chain) {
        o->zone = Zone::kScan;
      }
      if (o->zone != Zone::kScan) {
        return Status::Ok();
      }
    }
    from = s.chunk_addr;
    to = std::min<uint64_t>(s.chunk_addr + s.chunk_len, snap.record_tail);
  }
  // 3. Read the records.
  const auto on_record = [&](const RecordView& view) { return op.OnRecord(cand, view, o); };
  if (cand.kind == Candidate::Kind::kArchive) {
    return ScanArchiveBlockFor(cand, op.source_id, op.t_range, on_record, trace);
  }
  return ScanRecordRangeInternal(from, to, /*filtered=*/true, op.source_id, op.t_range, on_record,
                                 trace);
}

Status Loom::WalkChain(const Candidate& chain, const Snapshot& snap, QueryOp& op, Outcome* o,
                       QueryTrace* trace) const {
  const uint64_t scan_t0 = trace->detailed ? MetricsNowNanos() : 0;
  // Two windows: the payload fetches of the emission phase and the header
  // walk of the next batch alternate between nearby-but-distinct spans.
  CachedLogReader reader(record_log_.get(), snap.record_tail, kScanWindow, /*max_windows=*/2);
  // The walk batches headers, runs the vectorized time filter over the batch,
  // then emits matches in chain (newest-first) order with per-record
  // accounting: every header fetched is examined, payload bytes count only
  // for matches, and the first record with ts < t_range.start ends the walk
  // (it is examined, never delivered). The pinned floor keeps everything at
  // or above it readable for the whole walk.
  DecodedBatch batch;
  std::vector<uint64_t> mask;
  uint64_t addr = chain.addr;
  bool done = false;
  bool chain_end = false;  // the walk reached the start of the range
  Status st;
  while (!done && !chain_end && addr != kNullAddr) {
    batch.Clear();
    Status deferred;  // header read error: surfaces after the collected prefix
    while (batch.size() < kChainWalkBatch && addr != kNullAddr) {
      if (addr < snap.floor) {
        chain_end = true;  // the chain continues into dropped territory
        break;
      }
      auto head_bytes = reader.Fetch(addr, kRecordHeaderSize);
      if (!head_bytes.ok()) {
        deferred = head_bytes.status();
        break;
      }
      const RecordHeader header = RecordHeader::Decode(head_bytes.value().data());
      batch.addrs.push_back(addr);
      batch.source_ids.push_back(header.source_id);
      batch.payload_lens.push_back(header.payload_len);
      batch.timestamps.push_back(header.ts);
      addr = header.prev_addr;
      if (header.ts < op.t_range.start) {
        chain_end = true;
        break;
      }
    }
    const size_t n = batch.size();
    if (n > 0) {
      mask.assign(MaskWords(n), 0);
      kernels_->filter_source_time(batch.source_ids.data(), batch.timestamps.data(), n,
                                   op.source_id, op.t_range.start, op.t_range.end, mask.data());
    }
    for (size_t i = 0; i < n && !done; ++i) {
      ++trace->records_examined;
      trace->bytes_read += kRecordHeaderSize;
      if (((mask[i >> 6] >> (i & 63)) & 1) == 0) {
        continue;
      }
      auto payload = reader.Fetch(batch.addrs[i] + kRecordHeaderSize, batch.payload_lens[i]);
      if (!payload.ok()) {
        st = payload.status();
        done = true;
        break;
      }
      trace->bytes_read += batch.payload_lens[i];
      done = !op.OnRecord(chain,
                          RecordView{batch.source_ids[i], batch.timestamps[i], batch.addrs[i],
                                     payload.value()},
                          o);
    }
    // A header read error surfaces only after the records ahead of it were
    // delivered; if the operator stopped first, the record-by-record walk
    // would never have reached it.
    if (!deferred.ok()) {
      if (!done) {
        st = deferred;
      }
      break;
    }
  }
  if (trace->detailed) {
    trace->scan_nanos += MetricsNowNanos() - scan_t0;
  }
  return st;
}

// --- Query operators -------------------------------------------------------------
//
// Each public operator is RunOperator around a policy: a QueryOp saying how
// its candidates classify, what a scanned record contributes, and how
// outcomes fold into the answer.

template <typename R, typename Body>
R Loom::RunOperator(const char* op, Histogram* latency, QueryTrace* trace,
                    const Body& body) const {
  QueryTrace local;
  QueryTrace* t = trace != nullptr ? trace : &local;
  *t = QueryTrace{};
  t->op = op;
  t->detailed = trace != nullptr;
  const bool timed = t->detailed || options_.enable_latency_metrics;
  const uint64_t t0 = timed ? MetricsNowNanos() : 0;
  R result = [&] {
    const FloorPin pin(record_log_.get());
    return body(pin.floor(), t);
  }();
  if (timed) {
    t->total_nanos = MetricsNowNanos() - t0;
  }
  FoldTraceIntoMetrics(*t, latency);
  return result;
}

Status Loom::RawScan(uint32_t source_id, TimeRange t_range, const RecordCallback& cb,
                     QueryTrace* trace) const {
  // Newest-first: chain records as the walk meets them, then each archived
  // block's records reversed (blocks decode oldest-first).
  struct Op final : EmitOp {
    bool OnRecord(const Candidate& c, const RecordView& view, Outcome* o) override {
      return Emit(c, 0.0, view, o);
    }
  };
  return RunOperator<Status>(
      "raw_scan", m_.raw_scan_seconds, trace, [&](uint64_t floor, QueryTrace* t) {
        Op op;
        op.source_id = source_id;
        op.t_range = t_range;
        op.walks_chain = true;
        op.record_cb = &cb;
        op.trace = t;
        return Query(op, floor, t);
      });
}

Status Loom::IndexedScan(uint32_t source_id, uint32_t index_id, TimeRange t_range,
                         ValueRange v_range, const RecordCallback& cb,
                         QueryTrace* trace) const {
  return IndexedScanValues(source_id, index_id, t_range, v_range,
                           [&cb](double, const RecordView& view) { return cb(view); }, trace);
}

Status Loom::IndexedScanValues(uint32_t source_id, uint32_t index_id, TimeRange t_range,
                               ValueRange v_range, const ValueCallback& cb,
                               QueryTrace* trace) const {
  // The index function runs once per record of a scanned candidate; its value
  // is handed to the callback so composed queries (drill-downs, distributed
  // percentile) never re-evaluate it.
  struct Op final : EmitOp {
    IndexSnapshot idx;

    bool OnRecord(const Candidate& c, const RecordView& view, Outcome* o) override {
      std::optional<double> value = idx.func(view.payload);
      if (!value.has_value() || !values->range.Contains(*value)) {
        return true;
      }
      return Emit(c, *value, view, o);
    }
  };
  return RunOperator<Status>(
      "indexed_scan", m_.indexed_scan_seconds, trace,
      [&](uint64_t floor, QueryTrace* t) -> Status {
        auto idx = GetIndexSnapshot(source_id, index_id);
        if (!idx.ok()) {
          return idx.status();
        }
        Op op;
        op.source_id = source_id;
        op.t_range = t_range;
        op.index_id = index_id;
        const auto [first_bin, last_bin] = idx.value().spec.BinsOverlapping(v_range.lo, v_range.hi);
        op.values = ValueFilter{v_range, first_bin, last_bin};
        op.idx = std::move(idx.value());
        op.value_cb = &cb;
        op.trace = t;
        return Query(op, floor, t);
      });
}

Result<uint64_t> Loom::CountRecords(uint32_t source_id, TimeRange t_range,
                                    QueryTrace* trace) const {
  // Chunks the range covers whole are answered by the presence entry every
  // summary keeps per source: no user-defined index is needed.
  struct Op final : QueryOp {
    uint64_t count = 0;

    bool OnRecord(const Candidate&, const RecordView&, Outcome* o) override {
      ++o->count;
      return true;
    }
    bool Consume(const Candidate&, Outcome& o) override {
      count += o.zone == Zone::kFold ? o.presence : o.count;
      return true;
    }
  };
  return RunOperator<Result<uint64_t>>(
      "count_records", m_.count_seconds, trace,
      [&](uint64_t floor, QueryTrace* t) -> Result<uint64_t> {
        Op op;
        op.source_id = source_id;
        op.t_range = t_range;
        LOOM_RETURN_IF_ERROR(Query(op, floor, t));
        return op.count;
      });
}

// The fold-bins state of IndexedAggregate and IndexedHistogram.
struct Loom::BinAccumulation {
  QueryPlan plan;
  BinStats merged;
  std::vector<uint64_t> bin_counts;
  // Values from records that had to be read (bounded: a few chunks).
  std::vector<double> loose_values;
  // Candidates of `plan` folded from summary bins alone, in plan order, with
  // their summaries: percentile stage 2 rescans those whose target-bin
  // [min, max] cannot be placed against the answer without their records.
  struct Folded {
    const Candidate* cand = nullptr;
    std::shared_ptr<const ChunkSummary> summary;
  };
  std::vector<Folded> folded;
};

Status Loom::AccumulateBins(uint32_t source_id, uint32_t index_id, const IndexSnapshot& idx,
                            TimeRange t_range, uint64_t floor, BinAccumulation* acc,
                            QueryTrace* trace) const {
  // Outcomes fold in plan (= log) order, so partial aggregates combine in
  // exactly the serial sequence, double non-associativity included. Every
  // value the index function yields counts, NaN too, in every index mode:
  // NaN lands in the overflow bin, as it does in the summaries.
  struct Op final : QueryOp {
    const IndexSnapshot* idx = nullptr;
    const KernelOps* kernels = nullptr;
    BinAccumulation* acc = nullptr;
    std::vector<uint32_t> bins;

    bool OnRecord(const Candidate&, const RecordView& view, Outcome* o) override {
      std::optional<double> value = idx->func(view.payload);
      if (value.has_value()) {
        o->values.push_back(*value);
        o->stamps.push_back(view.ts);
      }
      return true;
    }
    bool Consume(const Candidate& c, Outcome& o) override {
      if (o.zone == Zone::kPrune) {
        return true;
      }
      if (o.zone == Zone::kFold) {
        // The bins fully describe the chunk's indexed values (§5.3).
        for (const ChunkSummary::Entry& e : o.summary->entries) {
          if (e.source_id == source_id && e.index_id == index_id && e.bin != kEvaluatedBin) {
            acc->merged.Merge(e.stats);
            acc->bin_counts[e.bin] += e.stats.count;
          }
        }
        acc->folded.push_back({&c, o.summary});
        return true;
      }
      // Classify the candidate's values in one kernel pass (bit-exact with
      // per-value BinOf), then fold them in log order.
      bins.resize(o.values.size());
      idx->spec.ClassifyBatch(*kernels, o.values.data(), o.values.size(), bins.data());
      for (size_t i = 0; i < o.values.size(); ++i) {
        acc->merged.Update(o.values[i], o.stamps[i]);
        acc->bin_counts[bins[i]]++;
      }
      acc->loose_values.insert(acc->loose_values.end(), o.values.begin(), o.values.end());
      return true;
    }
  };
  Op op;
  op.source_id = source_id;
  op.t_range = t_range;
  op.index_id = index_id;
  op.idx = &idx;
  op.kernels = kernels_;
  op.acc = acc;
  acc->bin_counts.assign(idx.spec.num_bins(), 0);
  LOOM_RETURN_IF_ERROR(Plan(op, floor, &acc->plan, trace));
  return Execute(acc->plan, op, trace);
}

Result<std::vector<uint64_t>> Loom::IndexedHistogram(uint32_t source_id, uint32_t index_id,
                                                     TimeRange t_range,
                                                     QueryTrace* trace) const {
  return RunOperator<Result<std::vector<uint64_t>>>(
      "indexed_histogram", m_.histogram_seconds, trace,
      [&](uint64_t floor, QueryTrace* t) -> Result<std::vector<uint64_t>> {
        auto idx = GetIndexSnapshot(source_id, index_id);
        if (!idx.ok()) {
          return idx.status();
        }
        BinAccumulation acc;
        LOOM_RETURN_IF_ERROR(
            AccumulateBins(source_id, index_id, idx.value(), t_range, floor, &acc, t));
        return std::move(acc.bin_counts);
      });
}

Result<double> Loom::IndexedAggregate(uint32_t source_id, uint32_t index_id, TimeRange t_range,
                                      AggregateMethod method, double percentile,
                                      QueryTrace* trace) const {
  return RunOperator<Result<double>>(
      "indexed_aggregate", m_.aggregate_seconds, trace,
      [&](uint64_t floor, QueryTrace* t) -> Result<double> {
        auto idx = GetIndexSnapshot(source_id, index_id);
        if (!idx.ok()) {
          return idx.status();
        }
        if (method == AggregateMethod::kPercentile && (percentile < 0.0 || percentile > 100.0)) {
          return Status::InvalidArgument("percentile must be in [0, 100]");
        }
        BinAccumulation acc;
        LOOM_RETURN_IF_ERROR(
            AccumulateBins(source_id, index_id, idx.value(), t_range, floor, &acc, t));
        const BinStats& merged = acc.merged;
        if (method == AggregateMethod::kCount) {
          return static_cast<double>(merged.count);
        }
        if (method == AggregateMethod::kSum) {
          return merged.sum;
        }
        if (merged.count == 0) {
          return Status::NotFound("no data in range");
        }
        switch (method) {
          case AggregateMethod::kMin:
            return merged.min;
          case AggregateMethod::kMax:
            return merged.max;
          case AggregateMethod::kMean:
            return merged.sum / static_cast<double>(merged.count);
          case AggregateMethod::kCount:
          case AggregateMethod::kSum:
          case AggregateMethod::kPercentile:
            break;
        }
        return Percentile(source_id, index_id, idx.value(), t_range, percentile, acc, t);
      });
}

Result<double> Loom::Percentile(uint32_t source_id, uint32_t index_id, const IndexSnapshot& idx,
                                TimeRange t_range, double percentile, BinAccumulation& acc,
                                QueryTrace* trace) const {
  // Holistic percentile: bins as a CDF (§4.3). Find the bin containing the
  // requested rank, then materialize only that bin's values.
  const HistogramSpec& spec = idx.spec;
  const std::vector<uint64_t>& bin_counts = acc.bin_counts;
  const uint64_t total = acc.merged.count;
  uint64_t rank = static_cast<uint64_t>(std::ceil(percentile / 100.0 * static_cast<double>(total)));
  rank = std::max<uint64_t>(1, std::min(rank, total));
  uint32_t target_bin = 0;
  uint64_t cumulative = 0;
  for (uint32_t b = 0; b < bin_counts.size(); ++b) {
    if (cumulative + bin_counts[b] >= rank) {
      target_bin = b;
      break;
    }
    cumulative += bin_counts[b];
  }
  const uint64_t local_rank = rank - cumulative;  // 1-based within the bin

  std::vector<double> bin_values;
  bin_values.reserve(bin_counts[target_bin]);
  {
    // One kernel pass over all loosely-scanned values instead of a
    // binary-search per value (bit-exact with BinOf).
    std::vector<uint32_t> loose_bins(acc.loose_values.size());
    spec.ClassifyBatch(*kernels_, acc.loose_values.data(), acc.loose_values.size(),
                       loose_bins.data());
    for (size_t i = 0; i < acc.loose_values.size(); ++i) {
      if (loose_bins[i] == target_bin) {
        bin_values.push_back(acc.loose_values[i]);
      }
    }
  }
  // Stage 2: a folded chunk's target-bin entry pins its values exactly when
  // it holds one value, or two distinct ones (min and max); otherwise it
  // bounds `count` values to [min, max]. Picking each interval's min (max)
  // gives the bracket L <= answer <= U, so an interval wholly below L only
  // counts toward the rank, one wholly above U drops out, and only the rest
  // are read: from the entry's listed values when it holds 3 to
  // kMaxListedValues, else by rescanning the chunk (DESIGN.md, "Bin-level
  // zone maps"). NaN lands in the overflow bin without moving min/max, so
  // that bin rescans every interval.
  struct Interval {
    const ChunkSummary::Entry* entry;
    const BinAccumulation::Folded* chunk;
  };
  std::vector<Interval> intervals;
  const bool bounded = target_bin + 1 < bin_counts.size();
  for (const BinAccumulation::Folded& fc : acc.folded) {
    const ChunkSummary::Entry* e = fc.summary->FindEntry(source_id, index_id, target_bin);
    if (e == nullptr) {
      continue;
    }
    if (bounded && e->stats.count == 1) {
      bin_values.push_back(e->stats.min);
    } else if (bounded && e->stats.count == 2 && e->stats.min < e->stats.max) {
      bin_values.push_back(e->stats.min);
      bin_values.push_back(e->stats.max);
    } else {
      intervals.push_back({e, &fc});
    }
  }
  // The local_rank-th smallest of the exact values plus each interval's min
  // (or max, with use_max), repeated `count` times.
  auto rank_bound = [&](bool use_max) {
    std::vector<std::pair<double, uint64_t>> weighted;
    weighted.reserve(bin_values.size() + intervals.size());
    for (double v : bin_values) {
      weighted.emplace_back(v, 1);
    }
    for (const Interval& iv : intervals) {
      const BinStats& st = iv.entry->stats;
      weighted.emplace_back(use_max ? st.max : st.min, st.count);
    }
    std::sort(weighted.begin(), weighted.end());
    uint64_t seen = 0;
    for (const auto& [v, n] : weighted) {
      seen += n;
      if (seen >= local_rank) {
        return v;
      }
    }
    return weighted.back().first;
  };
  uint64_t below = 0;  // values in intervals wholly below the answer
  QueryPlan stage2;
  stage2.snap = acc.plan.snap;
  std::vector<Candidate>& rescan = stage2.candidates;
  const auto add_rescan = [&](const BinAccumulation::Folded& fc) {
    rescan.push_back(*fc.cand);
    rescan.back().summary = fc.summary;
  };
  // A hot summary from the cache has no listed section; its frame, read from
  // the chunk log in address order, has.
  std::optional<CachedLogReader> frames;
  const auto append_listed = [&](const Interval& iv) -> Result<bool> {
    const ChunkSummary& summary = *iv.chunk->summary;
    const size_t exact = bin_values.size();
    summary.FindEntry(source_id, index_id, target_bin, &bin_values);
    if (bin_values.size() > exact || !summary.listed.empty() ||
        !ChunkSummary::ListsValues(*iv.entry) || iv.chunk->cand->summary != nullptr) {
      return bin_values.size() > exact;
    }
    if (!frames.has_value()) {
      frames.emplace(chunk_log_.get(), acc.plan.snap.chunk_tail, kScanWindow);
    }
    const uint64_t addr = iv.chunk->cand->addr;
    auto len = frames->Fetch(addr, 4);
    if (!len.ok()) {
      return len.status();
    }
    auto frame = frames->Fetch(addr + 4, LoadU32(len.value().data()));
    if (!frame.ok()) {
      return frame.status();
    }
    return summary.AppendListed(frame.value(), *iv.entry, &bin_values);
  };
  if (bounded && !intervals.empty()) {
    const double lower = rank_bound(false);  // L
    const double upper = rank_bound(true);   // U
    for (const Interval& iv : intervals) {
      const BinStats& st = iv.entry->stats;
      if (st.max < lower) {
        below += st.count;
      } else if (st.min <= upper) {
        auto listed = append_listed(iv);
        if (!listed.ok()) {
          return listed.status();
        }
        if (listed.value()) {  // all but min and max appended
          bin_values.push_back(st.min);
          bin_values.push_back(st.max);
        } else {
          add_rescan(*iv.chunk);
        }
      }
    }
  } else {
    for (const Interval& iv : intervals) {
      add_rescan(*iv.chunk);
    }
  }
  // Only rescanned chunks move from pruned to scanned, so the trace invariant
  // (pruned + scanned == considered) keeps holding, in the tier_* family too
  // for chunks whose records now live in the archive.
  const size_t rescan_archived = static_cast<size_t>(
      std::count_if(rescan.begin(), rescan.end(), [](const Candidate& c) {
        return c.kind == Candidate::Kind::kArchive;
      }));
  trace->chunks_pruned -= rescan.size();
  trace->chunks_summary_folded -= rescan.size();
  trace->chunks_scanned += rescan.size();
  trace->tier_chunks_pruned -= rescan_archived;
  trace->tier_chunks_summary_folded -= rescan_archived;
  trace->tier_chunks_scanned += rescan_archived;
  // Collect each rescanned chunk's values, classify them in one kernel pass
  // (order, and so nth_element's input, matches a per-record BinOf filter)
  // and keep the target bin's.
  struct Op final : QueryOp {
    const IndexSnapshot* idx = nullptr;
    const KernelOps* kernels = nullptr;
    uint32_t target_bin = 0;
    std::vector<double>* bin_values = nullptr;
    std::vector<uint32_t> bins;

    bool OnRecord(const Candidate&, const RecordView& view, Outcome* o) override {
      std::optional<double> value = idx->func(view.payload);
      if (value.has_value()) {
        o->values.push_back(*value);
      }
      return true;
    }
    bool Consume(const Candidate&, Outcome& o) override {
      bins.resize(o.values.size());
      idx->spec.ClassifyBatch(*kernels, o.values.data(), o.values.size(), bins.data());
      for (size_t v = 0; v < o.values.size(); ++v) {
        if (bins[v] == target_bin) {
          bin_values->push_back(o.values[v]);
        }
      }
      return true;
    }
  };
  Op op;
  op.source_id = source_id;
  op.t_range = t_range;
  op.rescan = true;
  op.idx = &idx;
  op.kernels = kernels_;
  op.target_bin = target_bin;
  op.bin_values = &bin_values;
  LOOM_RETURN_IF_ERROR(Execute(stage2, op, trace));
  // `below` values rank under the answer, and the bracket proves
  // below < local_rank, so the answer's rank among the rest is >= 1.
  const uint64_t rest_rank = local_rank - below;
  if (bin_values.size() < rest_rank) {
    return Status::Internal("percentile bin materialization mismatch");
  }
  std::nth_element(bin_values.begin(), bin_values.begin() + static_cast<long>(rest_rank - 1),
                   bin_values.end());
  return bin_values[rest_rank - 1];
}

Result<HistogramSpec> Loom::IndexSpec(uint32_t index_id) const {
  auto idx = GetIndexSnapshot(index_id);
  if (!idx.ok()) {
    return idx.status();
  }
  return idx.value().spec;
}

LoomStats Loom::stats() const {
  LoomStats s;
  s.records_ingested = m_.records_ingested->Value();
  s.bytes_ingested = m_.bytes_ingested->Value();
  s.chunks_finalized = m_.chunks_finalized->Value();
  s.ts_entries = m_.ts_entries->Value();
  s.record_log = record_log_->stats();
  s.chunk_index_log = chunk_log_->stats();
  s.ts_index_log = ts_log_->stats();
  if (summary_cache_ != nullptr) {
    s.summary_cache = summary_cache_->stats();
  }
  return s;
}

}  // namespace loom
