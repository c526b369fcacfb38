// Shared pieces of the Loom benchmark: the pre-built Redis input stream, the
// brute-force reference it is checked against, the query classes, the
// freshness prober, span tracing, process counters and the result report.
//
// Everything here calls the engine only through its public API (src/core,
// src/daemon, src/net), the same surface the daemon and the TCP sources use.

#ifndef PERFBENCH_SRC_HARNESS_H_
#define PERFBENCH_SRC_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/rng.h"
#include "src/core/loom.h"
#include "src/workload/case_studies.h"
#include "src/workload/records.h"

namespace perfbench {

using loom::TimestampNanos;

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string data_dir;    // engine directories are created below this
  std::string spans_path;  // traced runs write their spans here when set
};

// --- Time and process counters ---------------------------------------------

// steady_clock nanoseconds: the same epoch as the engine's default clock.
uint64_t NowNs();
uint64_t ProcessCpuNs();
uint64_t ThreadCpuNs();
double RssMb();
// Resident set after returning free heap pages to the system, so memory a
// later engine allocates shows up as growth instead of reusing freed pages.
double TrimmedRssMb();
void SleepUntilNs(uint64_t deadline_ns);

// Samples the resident set every 2 ms on its own thread and keeps the peak.
class RssSampler {
 public:
  RssSampler();
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  // Peak resident set (MiB) seen since construction.
  double PeakMb() const;

 private:
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> peak_kb_{0};
  std::thread thread_;
};

// --- Sample statistics ---------------------------------------------------------

// Nearest-rank percentile, p in (0, 100]: the ceil(p/100 * n)-th smallest
// value, the definition the engine's IndexedAggregate uses. NaN when empty.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);
// The largest / smallest value; NaN when empty, which Report::Metric flags.
double Max(const std::vector<double>& values);
double Min(const std::vector<double>& values);
// "v1,v2,..." with 5 significant digits each, for the info line.
std::string ListOf(const std::vector<double>& values);

// Samples of one quantity grouped by the time slice they were taken in. Load
// from outside the program (other tenants of a virtual machine's host) slows
// a machine down for seconds at a time; a run reports the value of its best
// slice, which that load does not reach (README.md, "Noise").
struct SlicedSamples {
  std::vector<std::vector<double>> slices;
  void Add(uint32_t slice, double value);
  void Merge(const SlicedSamples& other);
  size_t size() const;
  // Percentile p of each slice holding at least `min_n` samples.
  std::vector<double> PerSlice(double p, size_t min_n) const;
};

// Maps a time to its slice: `first` plus whole `slice_ns` periods since `start_ns`.
struct SliceClock {
  uint64_t start_ns = 0;
  uint64_t slice_ns = std::numeric_limits<uint64_t>::max();
  uint32_t first = 0;
  uint32_t At(uint64_t now_ns) const;
};

// --- Input stream ------------------------------------------------------------------

// The Redis case-study stream (all three phases, six planted incidents),
// generated once from the seed and cut, in arrival order, into same-source
// runs of at most kMaxBatch records: the batches PushBatch receives.
struct Stream {
  struct Batch {
    uint32_t source = 0;
    uint32_t first = 0;  // index of the first record
    uint32_t count = 0;
    TimestampNanos ts = 0;  // virtual arrival time of the whole batch
  };

  std::vector<uint32_t> source;  // per record, in batch order
  std::vector<std::span<const uint8_t>> payloads;
  std::vector<uint8_t> bytes;  // backing store of `payloads`
  std::vector<Batch> batches;
  uint64_t payload_bytes = 0;
  TimestampNanos phase_start[4] = {};
  TimestampNanos phase_end[4] = {};

  size_t size() const { return source.size(); }
  std::span<const std::span<const uint8_t>> BatchPayloads(const Batch& b) const {
    return std::span<const std::span<const uint8_t>>(payloads.data() + b.first, b.count);
  }
};

// Records per batch at most: the daemon's drain cap per channel visit.
inline constexpr uint32_t kMaxBatch = 128;

Stream BuildRedisStream(uint64_t seed, double scale);

// --- Schema ------------------------------------------------------------------

// The four Redis case-study indexes.
struct Indexes {
  uint32_t app_latency = 0;
  uint32_t syscall_latency = 0;
  uint32_t sendto_latency = 0;
  uint32_t packet_dport = 0;
};

struct IndexDef {
  uint32_t source = 0;
  loom::Loom::IndexFunc func;
  loom::HistogramSpec spec = loom::HistogramSpec::ExactMatch(0);
};
// In Indexes field order.
std::vector<IndexDef> RedisIndexDefs();
loom::Status DefineRedisSchema(loom::Loom* engine, Indexes* idx);

// --- Brute-force reference -------------------------------------------------------

// Answers every query class from the generated input by scanning it, using the
// arrival timestamps the engine stamps (each batch's virtual time).
class Reference {
 public:
  explicit Reference(const Stream& stream);

  uint64_t Count(uint32_t source, loom::TimeRange r) const;
  // Values of `index` (0..3, Indexes order) in range.
  std::vector<double> Values(int index, loom::TimeRange r) const;
  uint64_t CountAtLeast(int index, loom::TimeRange r, double lo) const;
  uint64_t CountEqual(int index, loom::TimeRange r, double v) const;

 private:
  struct Series {
    std::vector<TimestampNanos> ts;
    std::vector<double> values;
    std::pair<size_t, size_t> Range(loom::TimeRange r) const;
  };
  Series per_source_[4];  // index by source id 1..3 (values unused)
  Series per_index_[4];
};

// --- Queries ---------------------------------------------------------------------

enum class QueryClass { kAggregate = 0, kDrilldown = 1, kDump = 2 };
inline constexpr int kNumClasses = 3;
const char* ClassName(QueryClass c);

enum class QueryKind {
  kMaxApp,          // aggregate: IndexedAggregate max app latency
  kP9999App,        // aggregate: 99.99p app latency
  kP99Sendto,       // aggregate: 99p sendto latency
  kCountSource,     // aggregate: CountRecords(source)
  kSlowRequests,    // drilldown: 99.99p app latency, then IndexedScan >= it
  kSlowSendto,      // drilldown: IndexedScan sendto latency >= a fixed threshold
  kMangledPackets,  // drilldown: IndexedScan dport == 1234
  kPacketDump,      // dump: RawScan of packets
};
QueryClass ClassOf(QueryKind k);

// sendto latencies are lognormal around 5 us; ~0.02% of them reach this.
inline constexpr double kSlowSendtoUs = 60.0;

struct Query {
  QueryKind kind = QueryKind::kMaxApp;
  uint32_t source = loom::kAppSource;  // kCountSource only
  loom::TimeRange window;
};

// Sums of the QueryTrace fields the per-layer metrics use.
struct TraceTotals {
  uint64_t queries = 0;
  uint64_t considered = 0, pruned = 0, folded = 0, scanned = 0;
  uint64_t examined = 0, matched = 0;
  uint64_t plan_ns = 0, scan_ns = 0, merge_ns = 0;
  void Add(const loom::QueryTrace& t);
};

struct QueryOutcome {
  bool ok = false;
  double value = 0.0;   // aggregate answer, or the percentile a drilldown used
  uint64_t count = 0;   // records matched / counted
  uint64_t latency_ns = 0;
  bool invariant_ok = true;  // pruned + scanned == considered on every call
  TraceTotals trace;         // filled when traced
};

// The i-th question of a query sequence, window unset: classes rotate
// aggregate, drilldown, dump, and inside each class the kinds (and the
// source a count targets) rotate too, so every run asks each kind equally
// often and a class percentile never rests on a random kind mix.
Query RotatingQuery(uint64_t i);

// Fig. 12 questions over a stream's history: the i-th is RotatingQuery(i)
// over a window inside the phases where its source has data. Window lengths
// and positions follow additive recurrences (Weyl sequences) from seeded
// starting points, so every seed covers lengths and positions evenly and the
// latency mix of a run does not rest on where a few random windows fell.
class HistoryQueries {
 public:
  explicit HistoryQueries(uint64_t seed);
  Query At(uint64_t i, const Stream& s) const;

 private:
  double length_phase_;
  double position_phase_;
};

// Every kCheckEvery-th history question is compared with the reference.
inline constexpr uint64_t kCheckEvery = 4;

class Tracer;

// Runs one query. With `traced`, every engine call gets a QueryTrace and a span.
QueryOutcome RunQuery(const loom::Loom& engine, const Indexes& idx, const Query& q, bool traced,
                      Tracer* tracer, uint64_t request_id);

// True when `out` equals the brute-force answer.
bool MatchesReference(const Reference& ref, const Query& q, const QueryOutcome& out);

// Per-class latency samples plus traced totals.
struct ClassStats {
  SlicedSamples latency_ms[kNumClasses];
  TraceTotals traced[kNumClasses];
  double traced_ns[kNumClasses] = {};    // summed latency of traced queries
  double untraced_ns[kNumClasses] = {};  // summed latency of untraced queries
  uint64_t traced_n[kNumClasses] = {};
  uint64_t untraced_n[kNumClasses] = {};
  void Add(QueryKind k, const QueryOutcome& out, bool traced, uint32_t slice);
};

// --- Freshness ----------------------------------------------------------------------

// Once per period (at a seeded random point inside it, so its phase is
// independent of the sender's ticks), finds the newest visible app record
// with a newest-first RawScan stopped after one record, and records probe
// time minus the due time an open-loop sender stamped into it (ReservedDue).
class Prober {
 public:
  Prober(const loom::Loom* engine, uint64_t period_ns, uint64_t seed, SliceClock slices,
         bool traced, Tracer* tracer);
  ~Prober();
  Prober(const Prober&) = delete;
  Prober& operator=(const Prober&) = delete;

  void Stop();

  SlicedSamples freshness_ms;
  uint64_t probes = 0;
  uint64_t failures = 0;
  uint64_t cpu_ns = 0;

 private:
  void Main();
  const loom::Loom* engine_;
  uint64_t period_ns_;
  uint64_t seed_;
  SliceClock slices_;
  bool traced_;
  Tracer* tracer_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// AppRecord::reserved of an app record (its due time where writers put one).
uint64_t ReservedDue(const loom::RecordView& r);

// The engine's read-your-write path, on an engine nothing else is using.
// For `duration_ns`, back to back, RunTrickle stamps the current time into an
// app record's AppRecord::reserved, pushes the record (arrival time from
// `first_ts` on, past every query window, on the engine's ManualClock) and
// runs the newest-first RawScan a prober uses, which must return that
// record. Freshness is the scan's end minus the stamp. Each call is one
// slice; the calling thread is the engine's ingest thread meanwhile. A
// traced run traces the first kTracedTrickleWrites writes only.
//
// A closed loop on a quiet engine leaves the machine as little say in the
// tail as possible: a writer that sleeps between writes pays for waking up,
// and one beside a query client pays for the client's cache traffic. The
// workloads call it once on each of several freshly built engines, because
// one engine's p99 holds for its whole life but differs from the next
// engine's by up to a fifth.
struct TrickleSlices {
  std::vector<double> p50_ms, p99_ms;  // one entry per call
  uint64_t writes = 0;
  uint64_t failures = 0;
  std::vector<double> samples_ms;  // the current call's, reused
};
inline constexpr uint64_t kTracedTrickleWrites = 10'000;
void RunTrickle(loom::Loom* engine, loom::ManualClock* clock, TimestampNanos first_ts,
                uint64_t duration_ns, bool traced, Tracer* tracer, TrickleSlices* out);

// --- Tracing ------------------------------------------------------------------------

struct SpanRecord {
  uint64_t id, parent, request;
  const char* name;
  uint64_t start_ns, end_ns;
};

struct SpanBuffer {
  uint32_t thread = 0;
  std::vector<SpanRecord> records;
  std::vector<uint64_t> open;  // ids of the thread's open spans, innermost last
};

// Spans around every call the benchmark makes into the program, kept in
// per-thread memory and written when the run ends. Disabled tracers record
// nothing and cost one branch per span.
class Tracer {
 public:
  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Records [construction, destruction) under `name`; its parent is the
  // innermost open span of the same thread. A null tracer records nothing.
  class Span {
   public:
    Span(Tracer* tracer, const char* name, uint64_t request_id);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    SpanBuffer* buf_ = nullptr;
    size_t index_ = 0;
  };

  // Writes one CSV line per span: id,parent,request,thread,name,start_ns,end_ns.
  bool Write(const std::string& path) const;

 private:
  SpanBuffer* Local();

  const bool enabled_;
  const uint64_t generation_;  // distinguishes tracers that reuse an address
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;
};

// --- Engine directory lifetime --------------------------------------------------------

// The benchmark's logs are disposable. Truncating them before the engine
// closes drops their dirty page cache, so Close's fdatasync writes only the
// tail blocks instead of hundreds of megabytes. Freeing blocks that reached
// the disk is slow on thin-provisioned virtual disks (seconds per hundred
// megabytes, with the device saturated meanwhile), so engine directories are
// only removed once, after the measurements (see main.cc).
void DiscardLogs(const std::string& dir);
void RemoveDir(const std::string& dir);

// Sum of record.log, chunk.idx and ts.idx bytes appended (padding included).
uint64_t StoredBytes(const loom::LoomStats& s);

// --- Report ------------------------------------------------------------------------------

class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Info(const std::string& key, double value);
  void Info(const std::string& key, const std::string& value);

  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  // Records a failed operation or check; `what` goes to stderr.
  void Fail(const std::string& what);

  // Prints {"info": {...}} and then the result line.
  void Print() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;  // values are JSON
};

// Engine build facts every result carries.
void AddEngineInfo(const loom::Loom& engine, Report* report);

// Latency metrics <class>_p50_ms / <class>_p95_ms and their sample counts.
void AddQueryLatencyMetrics(const ClassStats& stats, Report* report);
// Per-class core / kernels / index metrics from traced queries.
void AddQueryLayerMetrics(const ClassStats& stats, Report* report);
// Fewest samples a slice needs for its percentile to count: queries of one
// class for p50 and p95, probes for p99 (ten beyond it).
inline constexpr size_t kMinSliceSamples = 100;
inline constexpr size_t kMinSliceProbes = 1000;
void AddFreshnessMetrics(const SlicedSamples& freshness_ms, Report* report);
// freshness_p50_ms / freshness_p99_ms of the trickle's best slice (the lowest).
void AddTrickleMetrics(const TrickleSlices& trickle, Report* report);
// Emits percentile p of `samples` under `name`: the best slice's (the lowest;
// only slices with at least `min_n` samples count, and when none does, all
// samples form one slice), with every slice's value in the info line.
void AddSlicedPercentile(const std::string& name, const SlicedSamples& samples, double p,
                         size_t min_n, Report* report);
// Mean traced over mean untraced query latency, minus 1, classes weighted equally.
double QueryTracingOverhead(const ClassStats& stats);

// Counter / gauge / histogram readings by name (0 when absent).
double CounterOr0(const loom::MetricsSnapshot& s, const std::string& name);
double GaugeOr0(const loom::MetricsSnapshot& s, const std::string& name);
loom::HistogramSnapshot HistOrEmpty(const loom::MetricsSnapshot& s, const std::string& name);

// The engine's public counters at one instant.
struct EngineSample {
  loom::LoomStats stats;
  loom::MetricsSnapshot metrics;
};
EngineSample SampleEngine(const loom::Loom& engine);

// Write-path, index and hybrid-log counters summed over measured phases
// (deltas between two samples of the same engine).
struct LayerTotals {
  double records = 0;
  double push_batch_ns = 0;
  double sync_ns = 0;
  double sync_calls = 0;
  double finalize_stall_ns = 0;
  loom::HistogramSnapshot finalize;  // per applied chunk seal, seconds
  double seal_depth_max = 0;
  double cache_hits = 0, cache_misses = 0, cache_evictions = 0;
  double index_bytes = 0;  // chunk.idx + ts.idx bytes appended
  double writer_stall_ns = 0, pad_bytes = 0, coalesced_writes = 0;
  double disk_reads = 0, memory_reads = 0, snapshot_fallbacks = 0;
  double prefetch_issued = 0, prefetch_hits = 0, prefetch_wasted = 0;
  void AddDelta(const EngineSample& before, const EngineSample& after);
};

// Emits the core write-path, index and hybridlog per-layer metrics;
// `queries` is the base of the per-query read counts.
void AddEngineLayerMetrics(const LayerTotals& t, double queries, Report* report);

// Emits the net and daemon per-layer metrics as 0 for workloads that call the
// engine directly, bypassing the TCP front door and the daemon.
void AddBypassedDaemonMetrics(Report* report);

// Tracks the largest value a registry gauge takes, sampling every 5 ms.
class GaugeMaxSampler {
 public:
  GaugeMaxSampler(const loom::Loom* engine, std::string gauge);
  ~GaugeMaxSampler();
  GaugeMaxSampler(const GaugeMaxSampler&) = delete;
  GaugeMaxSampler& operator=(const GaugeMaxSampler&) = delete;
  double Stop();

 private:
  const loom::Loom* engine_;
  std::string gauge_;
  std::atomic<bool> stop_{false};
  double max_ = 0.0;
  std::thread thread_;
};

int RunCapture(const RunOptions& opts);
int RunInvestigate(const RunOptions& opts);
int RunLive(const RunOptions& opts);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HARNESS_H_
