// Loom: efficient capture and querying of high-frequency telemetry.
//
// This is the public API of the engine (Figure 9 of the paper). A monitoring
// daemon embeds a `Loom` instance, defines sources and histogram indexes,
// pushes records on a single ingest thread, and serves queries from any
// number of reader threads concurrently with ingest.
//
// Threading contract:
//   * Schema operators (DefineSource/CloseSource/DefineIndex/CloseIndex) and
//     data ingest operators (Push/Sync) must be called from one thread — the
//     ingest thread.
//   * Query operators (RawScan/IndexedScan/IndexedAggregate) may be called
//     from any thread, concurrently with ingest. Queries never block ingest
//     (§4.4): they read lock-free snapshots and fall back to persistent
//     storage when the writer recycles an in-memory block mid-copy.
//   * Each query runs on its calling thread alone: the executor takes the
//     planner's candidate chunks one at a time, against one snapshot, and
//     callbacks run on that thread in candidate order. Memory stays bounded
//     by one candidate, the constant maximum footprint of §3. Index
//     functions must be thread-safe (pure functions of the payload): queries
//     on different threads evaluate them concurrently with each other and
//     with the ingest thread.
//
// Consistency (§4.5): a query observes exactly the records published before
// its snapshot was created. Durability is bounded by the in-memory blocks:
// data not yet flushed is lost if the process dies.

#ifndef SRC_CORE_LOOM_H_
#define SRC_CORE_LOOM_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/clock.h"
#include "src/common/cpu_features.h"
#include "src/common/metrics.h"
#include "src/common/status.h"
#include "src/core/kernels/kernels.h"
#include "src/core/query_trace.h"
#include "src/core/record_format.h"
#include "src/hybridlog/hybrid_log.h"
#include "src/index/chunk_summary.h"
#include "src/index/histogram.h"
#include "src/index/summary_cache.h"
#include "src/standing/standing_query.h"
#include "src/index/timestamp_index.h"
#include "src/tier/catalog.h"

namespace loom {

struct LoomOptions {
  // Directory holding the three log files (record.log, chunk.idx, ts.idx).
  std::string dir;

  // Record log chunk size: the unit of indexing (§4.2). Paper default 64 KiB.
  size_t chunk_size = 64 << 10;

  // In-memory block sizes per hybrid log. The paper uses 64 MiB blocks; the
  // defaults here are sized for laptop-scale runs. record_block_size is
  // rounded up to a multiple of chunk_size, ts_block_size to a multiple of
  // the 32-byte timestamp entry.
  size_t record_block_size = 4 << 20;
  size_t chunk_index_block_size = 1 << 20;
  size_t ts_index_block_size = 1 << 20;

  // A periodic timestamp index entry is written every `ts_marker_period`
  // records per source.
  uint32_t ts_marker_period = 64;

  // Record-log retention: keep at most this many bytes of raw records on
  // disk; older chunks are dropped and their disk space reclaimed (hole
  // punching). 0 retains everything. Queries reaching past the retention
  // floor return the retained suffix of the data. Index logs are small and
  // always retained in full.
  uint64_t record_retain_bytes = 0;

  // --- Tiered storage (cold archive tier) ---------------------------------

  // When set, retention demotes instead of deletes: a background tiering
  // service archives chunks below the desired retention floor into
  // crash-safe LOOMEXP1 archives (with per-block zone-map footers) under
  // this directory, and queries transparently federate over both tiers.
  // Requires enable_chunk_index (the zone maps are chunk summaries). Empty
  // (the default) keeps the lossy drop-on-retention behavior.
  std::string archive_dir;

  // Demotion cadence of the background tiering thread. 0 (the default)
  // disables the thread: demotion then runs only through explicit
  // DemoteNow() calls — the deterministic mode tests and replay tools use.
  uint64_t demote_interval_ms = 0;

  // At most this many chunks move into one archive per demotion pass.
  size_t demote_batch_chunks = 64;

  // Ablation switches (§6.4, Figure 16). Production leaves both on.
  bool enable_chunk_index = true;
  bool enable_timestamp_index = true;

  // Decoded chunk-summary cache byte budget (0 disables). Finalized summaries
  // are immutable and addressed by stable chunk-log offsets, so repeated
  // queries over overlapping ranges skip the per-summary log reads + decode.
  // Only query threads touch the cache (try-lock shards); ingest never does.
  size_t summary_cache_bytes = 8 << 20;

  // Kernel dispatch for the per-chunk decode/classify/filter hot loops (see
  // src/core/kernels/kernels.h). kAuto resolves the LOOM_SIMD environment
  // variable (scalar|avx2|neon|auto) first, then autodetects the widest set
  // the CPU supports. Every set is bit-exact with the scalar reference, so
  // this knob never changes results — only throughput. Forcing an
  // unavailable set silently degrades to scalar.
  SimdMode simd_mode = SimdMode::kAuto;

  // --- Write path ----------------------------------------------------------

  // Durability policy of the record log's flusher (see
  // src/hybridlog/hybrid_log.h): kNone syncs only at close, kGroup batches
  // fdatasync over many flushed blocks (bounding data-at-risk to the group
  // window below), kEveryBlock syncs each flush. Index logs always use
  // kNone — they are reconstructible from the record log.
  SyncPolicy sync_policy = SyncPolicy::kNone;

  // Group-commit window (sync_policy = kGroup): a sync is issued when this
  // many bytes have been flushed unsynced, or this much time has passed
  // since the oldest unsynced byte, whichever comes first.
  uint64_t group_commit_bytes = 1 << 20;
  uint64_t group_commit_interval_ms = 50;

  // Batched summary construction: per-record index values are staged in a
  // small per-index buffer and classified with the vectorized classify_bins
  // kernel in batches of up to this many values (flushed at every chunk seal
  // and index close, so summaries stay bit-identical to the per-record
  // scalar BinOf path). 0 disables staging.
  size_t summary_stage_records = 256;

  // Timestamp source; defaults to a process-wide monotonic clock.
  Clock* clock = nullptr;

  // Metrics land here when set (e.g. the daemon shares one registry across
  // engine, channels, and network front door); otherwise the engine creates
  // and owns a private registry, reachable via metrics().
  MetricsRegistry* metrics = nullptr;

  // Latency histograms need clock reads around each operation; counters are
  // always on (a relaxed atomic add each). Turning this off removes the
  // timer reads for overhead-critical replays; per-record Push additionally
  // samples its timer 1-in-64 so the ingest hot path never pays two clock
  // reads per record.
  bool enable_latency_metrics = true;

  // Validates and canonicalizes the options in place: rejects nonsensical
  // combinations (empty dir, chunk_size too small for a record, archive_dir
  // without the chunk index), bumps a zero ts_marker_period to 1, clamps
  // summary_stage_records, and applies the block-size round-ups.
  // Loom::Open calls this on its private copy; call it directly to pre-check
  // configuration (e.g. daemon config parsing).
  Status Validate();
};

// Legacy counter snapshot, now materialized from the metrics registry (the
// registry is the source of truth; see Loom::metrics() for the full picture
// including latency histograms).
struct LoomStats {
  uint64_t records_ingested = 0;
  uint64_t bytes_ingested = 0;  // payload bytes
  uint64_t chunks_finalized = 0;
  uint64_t ts_entries = 0;
  HybridLogStats record_log;
  HybridLogStats chunk_index_log;
  HybridLogStats ts_index_log;
  SummaryCacheStats summary_cache;
};

// Inclusive time range [start, end] in Loom-internal (arrival) timestamps.
struct TimeRange {
  TimestampNanos start = 0;
  TimestampNanos end = 0;

  bool Contains(TimestampNanos ts) const { return ts >= start && ts <= end; }
};

// Inclusive value range [lo, hi].
struct ValueRange {
  double lo = 0.0;
  double hi = 0.0;

  bool Contains(double v) const { return v >= lo && v <= hi; }
};

enum class AggregateMethod {
  kCount,
  kSum,
  kMin,
  kMax,
  kMean,
  kPercentile,  // requires percentile argument in [0, 100]
};

class Loom {
 public:
  // Extracts the indexed value from a record payload; nullopt skips the
  // record (it is still stored and raw-scannable, just not indexed). Must be
  // a thread-safe pure function of the payload: every querying thread
  // evaluates it, concurrently with ingest and with other queries.
  using IndexFunc = std::function<std::optional<double>(std::span<const uint8_t>)>;

  // Receives matching records. Return false to stop the scan early.
  using RecordCallback = std::function<bool(const RecordView&)>;

  static Result<std::unique_ptr<Loom>> Open(const LoomOptions& options);
  ~Loom();

  Loom(const Loom&) = delete;
  Loom& operator=(const Loom&) = delete;

  // --- Schema operators (ingest thread) ----------------------------------

  Status DefineSource(uint32_t source_id);
  Status CloseSource(uint32_t source_id);

  // Defines a histogram index over `source_id`. Only records pushed after
  // the definition are indexed (§5.3); earlier records remain raw-scannable
  // and are found by indexed operators via chunk presence entries, at scan
  // cost. Returns the new index id.
  Result<uint32_t> DefineIndex(uint32_t source_id, IndexFunc func, HistogramSpec spec);
  Status CloseIndex(uint32_t index_id);

  // --- Data ingest operators (ingest thread) ------------------------------

  // Appends one record. The payload is opaque bytes; Loom timestamps it with
  // the internal monotonic clock on arrival (§5.2). When `arrival_ts` is
  // non-null it receives the timestamp actually stamped on the record, so
  // callers binning events into windows (TraceSink) use the record's true
  // provenance instead of re-reading the clock after the append. Once a
  // chunk seal has failed, Push, PushBatch and Sync return that error.
  Status Push(uint32_t source_id, std::span<const uint8_t> payload,
              TimestampNanos* arrival_ts = nullptr);

  // Appends a batch of records for one source, amortizing the source lookup,
  // the clock read, and the publish fence across the batch. All records in
  // the batch carry the same arrival timestamp. Stops at the first failing
  // record (everything appended before it stays published).
  Status PushBatch(uint32_t source_id, std::span<const std::span<const uint8_t>> payloads);

  // Makes all records pushed so far visible to queriers. (Push already
  // publishes each record; Sync exists for API parity and forces the
  // publication fence.)
  Status Sync(uint32_t source_id);

  // --- Query operators (any thread) ---------------------------------------

  // Every query operator takes an optional `trace` out-parameter; when
  // non-null it receives the per-query execution trace (chunks considered /
  // pruned / scanned, records examined, cache hits, stage timings) — see
  // src/core/query_trace.h.

  // Scans records of `source_id` whose arrival time is in `t_range`, from
  // most to least recent (back-pointer chain order, §4.3).
  Status RawScan(uint32_t source_id, TimeRange t_range, const RecordCallback& cb,
                 QueryTrace* trace = nullptr) const;

  // Scans records of `source_id` in `t_range` whose indexed value (per
  // `index_id`) is in `v_range`, using the chunk index to skip chunks: a
  // chunk (or archived block) is read only when one of its bins overlapping
  // `v_range` has a [min, max] that overlaps `v_range` too, or when it holds
  // records that predate the index. Records are delivered in log
  // (oldest-first) order, except with both index layers off (the Fig. 16
  // ablation): that mode is the paper's backward chain walk, newest-first.
  Status IndexedScan(uint32_t source_id, uint32_t index_id, TimeRange t_range, ValueRange v_range,
                     const RecordCallback& cb, QueryTrace* trace = nullptr) const;

  // Aggregates the indexed values of `source_id` in `t_range`. Distributive
  // aggregates are served from chunk summaries where chunks are fully inside
  // the range; holistic percentile uses the summary bins as a CDF to find the
  // target bin (§4.3), then uses each summarized chunk's target-bin
  // [min, max] to bracket the answer and reads only the entries the bracket
  // cannot place: from the values the summary lists for entries of 3 to 16
  // values, else by rescanning the chunk (see DESIGN.md, "Bin-level zone
  // maps").
  Result<double> IndexedAggregate(uint32_t source_id, uint32_t index_id, TimeRange t_range,
                                  AggregateMethod method, double percentile = 0.0,
                                  QueryTrace* trace = nullptr) const;

  // Like IndexedScan, but also delivers the extracted index value, so
  // callers need not know the index function. Used by composed drill-down
  // queries and the distributed coordinator's two-phase percentile (§8).
  using ValueCallback = std::function<bool(double value, const RecordView& record)>;
  Status IndexedScanValues(uint32_t source_id, uint32_t index_id, TimeRange t_range,
                           ValueRange v_range, const ValueCallback& cb,
                           QueryTrace* trace = nullptr) const;

  // Counts records of `source_id` in `t_range` using the always-maintained
  // per-source presence statistics in chunk summaries — no user-defined
  // index required. Falls back to scanning in ablation modes.
  Result<uint64_t> CountRecords(uint32_t source_id, TimeRange t_range,
                                QueryTrace* trace = nullptr) const;

  // Returns the per-bin record counts of `index_id` over `t_range` (one
  // entry per histogram bin, including the outlier bins). Served from chunk
  // summaries plus partial-chunk scans; this is the "histogram" query class
  // from §3 and the building block for distributed percentile merging (§8).
  Result<std::vector<uint64_t>> IndexedHistogram(uint32_t source_id, uint32_t index_id,
                                                 TimeRange t_range,
                                                 QueryTrace* trace = nullptr) const;

  // --- Tiered storage (any thread) -----------------------------------------

  // Runs one demotion pass synchronously: chunks wholly below both the
  // desired retention floor and the indexed watermark are archived (at most
  // options().demote_batch_chunks of them), the retention barrier advances
  // past the durable archive, and the demoted hot bytes are reclaimed.
  // No-op without archive_dir. Passes are serialized internally, so this is
  // safe concurrently with the background demoter.
  Status DemoteNow();

  // Sealed archives currently served by the query tier.
  size_t ArchiveCount() const;

  // --- Standing queries (any thread) ---------------------------------------

  // Registers a continuous windowed aggregate over a defined index
  // (src/standing/). Evaluation happens on the seal path: each freshly
  // sealed ChunkSummary is folded into the open windows, and every window
  // the watermark passes is emitted with results bit-identical to the
  // one-shot IndexedAggregate/IndexedHistogram over the same range.
  // Requires enable_chunk_index; the index must cover spec.source_id.
  Result<uint64_t> RegisterStandingQuery(const StandingQuerySpec& spec);
  Status UnregisterStandingQuery(uint64_t query_id);

  // Live stream of window results and alert transitions (query_id 0 = all).
  std::shared_ptr<StandingSubscription> SubscribeStanding(uint64_t query_id = 0,
                                                          size_t capacity = 1024);

  // The standing-query engine itself (stats, watermark). Never null.
  StandingQueryEngine* standing() const { return standing_.get(); }

  // --- Introspection -------------------------------------------------------

  // The histogram spec of a defined index (copies; safe from any thread).
  Result<HistogramSpec> IndexSpec(uint32_t index_id) const;

  LoomStats stats() const;
  TimestampNanos Now() const { return clock_->NowNanos(); }
  const LoomOptions& options() const { return options_; }

  // The engine's metrics registry (shared with the owner when
  // LoomOptions.metrics was set). Never null.
  MetricsRegistry* metrics() const { return metrics_; }

 private:
  struct IndexState {
    uint32_t id = 0;
    uint32_t source_id = 0;
    bool open = false;
    IndexFunc func;
    HistogramSpec spec = HistogramSpec::ExactMatch(0);
    size_t builder_slot = 0;
    // Staged summary construction (summary_stage_records > 0): the first
    // stage_n extracted values wait here until a batch classify + builder
    // fold. Both buffers are sized to the stage capacity when the index is
    // defined, so staging a value is two stores with no growth check for the
    // compiler to outline. Ingest thread only; flushed at stage capacity,
    // chunk seal, and index/source close.
    std::vector<double> stage_values;
    std::vector<TimestampNanos> stage_ts;
    size_t stage_n = 0;
    uint64_t stage_evaluated = 0;
    bool stage_listed = false;  // member of staged_indexes_
  };

  struct SourceState {
    uint32_t id = 0;
    bool open = false;
    uint64_t record_count = 0;
    // Writer-side chain heads.
    uint64_t last_record_addr = kNullAddr;
    uint64_t last_marker_addr = kNullAddr;
    uint32_t records_since_marker = 0;
    size_t presence_slot = 0;
    // Indexes active on this source (writer side).
    std::vector<IndexState*> indexes;
    // Reader-visible chain head, published after the record log watermark.
    std::atomic<uint64_t> published_last_record{kNullAddr};
  };

  // Reader-side snapshot of an index definition.
  struct IndexSnapshot {
    uint32_t source_id = 0;
    IndexFunc func;
    HistogramSpec spec = HistogramSpec::ExactMatch(0);
  };

  // `options.metrics` is already resolved (never null) by Open(); when the
  // engine owns the registry, Open passes it in via `owned_metrics` so the
  // hybrid logs could register against it before construction.
  Loom(const LoomOptions& options, std::unique_ptr<MetricsRegistry> owned_metrics,
       std::unique_ptr<HybridLog> record_log, std::unique_ptr<HybridLog> chunk_log,
       std::unique_ptr<HybridLog> ts_log);

  // Write-path internals (ingest thread).
  Status AppendRecord(SourceState& src, std::span<const uint8_t> payload, TimestampNanos now);
  // Seals the active chunk on the ingest thread: materializes and encodes its
  // summary, appends the frame to the chunk log and the chunk event to the
  // ts log, and feeds standing queries. PublishAll then makes it visible in
  // the §5.4 order.
  Status FinalizeChunk(TimestampNanos now);
  Status MaybeWriteMarker(SourceState& src, TimestampNanos ts, uint64_t record_addr);
  void PublishAll(SourceState& src);
  // Classifies and folds an index's staged values into the builder (batch
  // kernel path); no-op when the stage is empty.
  void FlushIndexStage(IndexState& idx);
  // Flushes every index with staged data (called before each chunk seal).
  void FlushSummaryStages();

  // --- Query planner and executor (DESIGN.md, "Query executor") ---------
  //
  // Every operator takes the same path (§4.3). The planner emits the query's
  // candidates in delivery order: archived blocks with their zone maps,
  // hot chunks by summary address, and the unindexed tail. The executor
  // loads and filters each candidate, classifies it with ClassifyZone
  // (prune, fold or scan), reads records only to scan, and hands each
  // outcome in candidate order to the operator's policy, a QueryOp. The loop
  // runs on the calling thread, one candidate at a time.

  // Point-in-time view used by one query (§4.4 capture order), plus the
  // retention floor the query pinned for its lifetime: the archive tier
  // serves the chunks below `floor` and the hot tier the rest, so a
  // demotion pass landing mid-query can neither duplicate nor drop records.
  struct Snapshot {
    uint64_t source_tail = kNullAddr;  // chain head for the queried source
    uint64_t indexed_tail = 0;         // record log address below which chunks are summarized
    uint64_t ts_tail = 0;
    uint64_t chunk_tail = 0;
    uint64_t record_tail = 0;
    uint64_t floor = 0;
  };
  // Defined in loom.cc: a planned unit of work, the plan, what the executor
  // made of one candidate, an operator's policy, the emit-matches policy the
  // two scans share, and the fold-bins state of IndexedAggregate /
  // IndexedHistogram.
  struct Candidate;
  struct QueryPlan;
  struct Outcome;
  struct QueryOp;
  struct EmitOp;
  struct BinAccumulation;

  // The one wrapper of the public operators: installs a trace (a local one
  // when the caller passed none), pins the retention floor, times the call,
  // runs body(floor, trace) and folds the finished trace into the metrics.
  template <typename R, typename Body>
  R RunOperator(const char* op, Histogram* latency, QueryTrace* trace, const Body& body) const;

  Snapshot TakeSnapshot(const SourceState* src, uint64_t floor) const;
  // The index's reader-side definition; the second form also checks that
  // it covers `source_id`.
  Result<IndexSnapshot> GetIndexSnapshot(uint32_t index_id) const;
  Result<IndexSnapshot> GetIndexSnapshot(uint32_t source_id, uint32_t index_id) const;
  const SourceState* FindSource(uint32_t source_id) const;

  // Snapshots op.source_id at `floor` and emits its candidates. The Fig. 16
  // ablation modes are plan choices: without a timestamp index the hot chunks
  // come from a sweep of the chunk log, without a chunk index the plan is one
  // forward range, and with neither (or for RawScan) it walks the chain.
  Status Plan(const QueryOp& op, uint64_t floor, QueryPlan* plan, QueryTrace* trace) const;
  // The source's chain as one candidate, starting at the first record
  // marker past the range when the timestamp index has one.
  Status PlanChain(const QueryOp& op, const Snapshot& snap, std::vector<Candidate>* out) const;
  // Appends the archived blocks overlapping `t_range` whose chunks sit wholly
  // below `floor`, in demotion (= hot-log address, = time) order; the hot
  // tier serves the rest. Counts consulted archives into `trace`.
  void PlanArchiveCandidates(uint64_t floor, TimeRange t_range, std::vector<Candidate>* out,
                             QueryTrace* trace) const;
  // Plans `op` and executes the plan.
  Status Query(QueryOp& op, uint64_t floor, QueryTrace* trace) const;
  // Runs the plan's candidates one at a time and hands each outcome to
  // op.Consume in plan order, counting summarized candidates into the trace.
  // Memory stays bounded by one candidate.
  Status Execute(const QueryPlan& plan, QueryOp& op, QueryTrace* trace) const;
  // The per-candidate step: loads and filters a hot chunk's summary,
  // classifies the candidate, and reads its records only when the zone says
  // scan.
  Status RunCandidate(const QueryPlan& plan, size_t c, QueryOp& op, Outcome* out,
                      QueryTrace* trace) const;
  // Walks the chain newest-first, batching headers through the vectorized
  // time filter; the walk itself is data-dependent.
  Status WalkChain(const Candidate& chain, const Snapshot& snap, QueryOp& op, Outcome* out,
                   QueryTrace* trace) const;
  // The fold-bins pass shared by IndexedAggregate and IndexedHistogram.
  Status AccumulateBins(uint32_t source_id, uint32_t index_id, const IndexSnapshot& idx,
                        TimeRange t_range, uint64_t floor, BinAccumulation* acc,
                        QueryTrace* trace) const;
  // Holistic percentile over a non-empty accumulation: the bins as a CDF
  // name the target bin, then stage 2 rescans only the folded chunks whose
  // target-bin [min, max] cannot place the answer (DESIGN.md, "Bin-level
  // zone maps").
  Result<double> Percentile(uint32_t source_id, uint32_t index_id, const IndexSnapshot& idx,
                            TimeRange t_range, double percentile, BinAccumulation& acc,
                            QueryTrace* trace) const;
  // Decompresses one archived block and streams its records filtered by
  // (source_id, t_range), reproducing the original hot-log RecordViews from
  // the stored address column. Accounts examined records and compressed
  // bytes (bytes_read and tier_bytes_read) into `trace`.
  Status ScanArchiveBlockFor(const Candidate& cand, uint32_t source_id, TimeRange t_range,
                             const std::function<bool(const RecordView&)>& fn,
                             QueryTrace* trace) const;
  // Returns the summary frame at `addr`, from the decoded-summary cache when
  // possible, falling back to two log reads + decode (and then populating
  // the cache).
  Result<std::shared_ptr<const ChunkSummary>> ReadSummary(uint64_t addr, uint64_t chunk_tail,
                                                          QueryTrace* trace) const;
  // Lazily drops cached summaries for chunks the record log no longer
  // retains. Called from query threads when the floor advanced.
  void MaybeInvalidateCacheForRetention(uint64_t floor) const;

  // --- Tiered storage internals (archive_dir set) --------------------------

  // Opens the catalog (startup sweep included), pins the retention barrier
  // at 0 so nothing is dropped before it is archived, registers the tier
  // gauges, and starts the background demoter when demote_interval_ms > 0.
  Status InitTiering();
  void DemoterMain();
  // One demotion pass body. Caller holds demote_mu_.
  Status DemoteOnce();

  // Scans records in [from, to) of the record log, invoking `fn` for every
  // record that matches (source_id, t_range) when `filtered`, or for every
  // record (all sources) otherwise. `fn` returns false to stop. Decoding runs
  // chunk-at-a-time through the dispatched kernel set: the whole chunk span
  // is fetched through one CachedLogReader, batch-decoded into SoA arrays,
  // vector-filtered, and emitted in order (so early stops observe the exact
  // serial prefix); a filtered scan ends after the batch that passes
  // t_range.end (log order is arrival order). Records examined and bytes
  // decoded accumulate into `trace` (never null on internal paths) for every
  // record visited. The executor and demotion call it with their own
  // callables, so a record reaches them in one indirect call.
  template <typename Fn>
  Status ScanRecordRangeInternal(uint64_t from, uint64_t to, bool filtered, uint32_t source_id,
                                 TimeRange t_range, const Fn& fn, QueryTrace* trace) const;
  // ScanRecordRangeInternal, filtered, behind a std::function (the standing
  // engine's straddling-chunk rescan).
  Status ScanRecordRangeFor(uint64_t from, uint64_t to, uint32_t source_id, TimeRange t_range,
                            const std::function<bool(const RecordView&)>& fn,
                            QueryTrace* trace) const;

  const LoomOptions options_;
  Clock* clock_;
  std::unique_ptr<Clock> owned_clock_;

  // Metrics. `metrics_` points at the shared registry from LoomOptions or at
  // `owned_metrics_`. Declared before the logs: their flusher threads observe
  // registry histograms until joined in ~HybridLog, so the owned registry
  // must be destroyed after them (members destroy in reverse order).
  MetricsRegistry* metrics_ = nullptr;
  std::unique_ptr<MetricsRegistry> owned_metrics_;

  std::unique_ptr<HybridLog> record_log_;
  std::unique_ptr<HybridLog> chunk_log_;
  std::unique_ptr<HybridLog> ts_log_;

  TimestampIndexWriter ts_writer_;
  ChunkSummaryBuilder builder_;

  // Writer-side registries. Sources/indexes are never destroyed while the
  // engine lives (closed ones are marked), so readers can hold pointers.
  std::unordered_map<uint32_t, std::unique_ptr<SourceState>> sources_;
  std::unordered_map<uint32_t, std::unique_ptr<IndexState>> indexes_;
  uint32_t next_index_id_ = 1;

  // Reader-visible copies of index definitions, guarded by schema_mu_.
  mutable std::mutex schema_mu_;
  std::unordered_map<uint32_t, IndexSnapshot> index_snapshots_;

  // Record log address of the active (not yet summarized) chunk's start.
  std::atomic<uint64_t> published_indexed_tail_{0};

  // Vectorized per-chunk kernels, resolved once at Open from
  // options.simd_mode / LOOM_SIMD / CPU detection. Never null.
  const KernelOps* kernels_ = nullptr;

  // Tiered storage (null unless archive_dir is set). The demoter thread is
  // the only writer of archives; queries snapshot the catalog and read
  // sealed archives lock-free of it. demote_mu_ serializes demotion passes
  // (background thread and DemoteNow callers) and guards demote_cursor_.
  std::unique_ptr<ArchiveCatalog> catalog_;
  std::thread demoter_;
  std::atomic<bool> demote_stop_{false};
  std::condition_variable demote_cv_;
  mutable std::mutex demote_mu_;
  // Next chunk-log frame address to consider for demotion.
  uint64_t demote_cursor_ = 0;

  // Standing-query engine (null when enable_chunk_index is off — standing
  // evaluation folds ChunkSummaries, so without summaries there is nothing
  // to evaluate). Fed from the seal path, FinalizeChunk. Declared after the
  // logs: its rescan callback reads the record log.
  std::unique_ptr<StandingQueryEngine> standing_;

  // Decoded chunk-summary cache (null when disabled). Query threads only.
  std::unique_ptr<SummaryCache> summary_cache_;
  // Highest record-log retention floor already pushed to the cache.
  mutable std::atomic<uint64_t> cache_invalidated_floor_{0};

  uint64_t active_chunk_start_ = 0;

  // Staged summary construction (ingest thread only). staged_indexes_ lists
  // indexes whose stage may hold data since the last seal; stage_bins_ is the
  // classify output scratch, sized to summary_stage_records.
  std::vector<IndexState*> staged_indexes_;
  std::vector<uint32_t> stage_bins_;

  // First chunk seal that failed (ingest thread only). A failed seal leaves
  // the chunk's summary lost, so Push, PushBatch and Sync return this error
  // from then on rather than seal later chunks over the gap.
  Status seal_status_;

  // Individual metric pointers, registered once in the constructor; they
  // stay valid for the registry's lifetime.
  struct CoreMetrics {
    Counter* records_ingested = nullptr;
    Counter* bytes_ingested = nullptr;
    Counter* chunks_finalized = nullptr;
    Counter* ts_entries = nullptr;
    Counter* push_ops = nullptr;
    Counter* push_batch_ops = nullptr;
    Counter* sync_ops = nullptr;
    Histogram* push_seconds = nullptr;        // sampled 1-in-64
    Histogram* push_batch_seconds = nullptr;  // per batch
    Histogram* sync_seconds = nullptr;
    Histogram* finalize_seconds = nullptr;  // per chunk seal
    // Query-side, folded from finished QueryTraces.
    Counter* query_chunks_considered = nullptr;
    Counter* query_chunks_pruned = nullptr;
    Counter* query_chunks_scanned = nullptr;
    Counter* query_records_examined = nullptr;
    Counter* query_bytes_read = nullptr;
    Histogram* raw_scan_seconds = nullptr;
    Histogram* indexed_scan_seconds = nullptr;
    Histogram* aggregate_seconds = nullptr;
    Histogram* histogram_seconds = nullptr;
    Histogram* count_seconds = nullptr;
    // Tiered storage. Demotion counters tick per demoted chunk; the block
    // counters fold from finished QueryTraces (tier_* fields).
    Counter* tier_demoted_chunks = nullptr;
    Counter* tier_demoted_records = nullptr;
    Counter* tier_demoted_bytes = nullptr;
    Counter* tier_demote_failures = nullptr;
    Counter* tier_quarantined = nullptr;
    Counter* tier_blocks_considered = nullptr;
    Counter* tier_blocks_pruned = nullptr;
    Counter* tier_blocks_scanned = nullptr;
    Counter* tier_read_bytes = nullptr;
    Histogram* tier_demote_seconds = nullptr;  // per demotion pass
  };
  CoreMetrics m_;
  // Collection hooks refreshing the summary-cache, ingest and tier gauges;
  // removed in the destructor because a shared registry may outlive this
  // engine.
  uint64_t cache_hook_id_ = 0;
  uint64_t ingest_hook_id_ = 0;
  uint64_t tier_hook_id_ = 0;
  // Writer-local sampling counter for the 1-in-64 Push latency timer.
  uint64_t push_sample_tick_ = 0;

  // Registers all core metrics with `metrics_` and installs the cache hook.
  void RegisterMetrics();
  // Adds a finished trace's counters to the registry and observes
  // `total_nanos` into `op_hist` (when latency metrics are enabled).
  void FoldTraceIntoMetrics(const QueryTrace& trace, Histogram* op_hist) const;
};

}  // namespace loom

#endif  // SRC_CORE_LOOM_H_
