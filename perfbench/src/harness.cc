#include "perfbench/src/harness.h"

#include <fcntl.h>
#include <malloc.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

namespace perfbench {

using loom::kAppSource;
using loom::kPacketSource;
using loom::kSyscallSource;

// --- Time and process counters -------------------------------------------------

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

namespace {
uint64_t ClockNs(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ULL + static_cast<uint64_t>(ts.tv_nsec);
}
}  // namespace

uint64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }
uint64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }

double RssMb() {
  std::ifstream in("/proc/self/statm");
  uint64_t size = 0;
  uint64_t resident = 0;
  in >> size >> resident;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

double TrimmedRssMb() {
  malloc_trim(0);
  return RssMb();
}

void SleepUntilNs(uint64_t deadline_ns) {
  const uint64_t now = NowNs();
  if (deadline_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(deadline_ns - now));
  }
}

RssSampler::RssSampler() {
  peak_kb_.store(static_cast<uint64_t>(RssMb() * 1024.0));
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_relaxed)) {
      const uint64_t kb = static_cast<uint64_t>(RssMb() * 1024.0);
      if (kb > peak_kb_.load(std::memory_order_relaxed)) {
        peak_kb_.store(kb, std::memory_order_relaxed);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
}

RssSampler::~RssSampler() {
  stop_.store(true);
  thread_.join();
}

double RssSampler::PeakMb() const {
  return static_cast<double>(peak_kb_.load(std::memory_order_relaxed)) / 1024.0;
}

// --- Sample statistics -------------------------------------------------------------

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  const double n = static_cast<double>(values.size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, values.size());
  std::nth_element(values.begin(), values.begin() + static_cast<ptrdiff_t>(rank - 1),
                   values.end());
  return values[rank - 1];
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 50.0); }

double Max(const std::vector<double>& values) { return Percentile(values, 100.0); }

double Min(const std::vector<double>& values) {
  return values.empty() ? std::numeric_limits<double>::quiet_NaN()
                        : *std::min_element(values.begin(), values.end());
}

std::string ListOf(const std::vector<double>& values) {
  std::string list;
  for (double v : values) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.5g", list.empty() ? "" : ",", v);
    list += buf;
  }
  return list;
}

void SlicedSamples::Add(uint32_t slice, double value) {
  if (slices.size() <= slice) {
    slices.resize(slice + 1);
  }
  slices[slice].push_back(value);
}

void SlicedSamples::Merge(const SlicedSamples& other) {
  for (uint32_t i = 0; i < other.slices.size(); ++i) {
    for (double v : other.slices[i]) {
      Add(i, v);
    }
  }
}

size_t SlicedSamples::size() const {
  size_t n = 0;
  for (const auto& s : slices) {
    n += s.size();
  }
  return n;
}

std::vector<double> SlicedSamples::PerSlice(double p, size_t min_n) const {
  std::vector<double> out;
  for (const auto& s : slices) {
    if (!s.empty() && s.size() >= min_n) {
      out.push_back(Percentile(s, p));
    }
  }
  return out;
}

uint32_t SliceClock::At(uint64_t now_ns) const {
  return first + static_cast<uint32_t>((now_ns - std::min(now_ns, start_ns)) / slice_ns);
}

// --- Input stream -----------------------------------------------------------------------

Stream BuildRedisStream(uint64_t seed, double scale) {
  loom::RedisWorkloadConfig cfg;
  cfg.scale = scale;
  cfg.phase_seconds = 10.0;
  cfg.seed = seed;
  cfg.num_incidents = 6;
  loom::RedisWorkload gen(cfg);

  Stream s;
  for (int p = 1; p <= 3; ++p) {
    s.phase_start[p] = gen.PhaseStart(p);
    s.phase_end[p] = gen.PhaseEnd(p);
  }
  // Expected volume at this scale (Fig. 10a rates over three 10 s phases),
  // reserved up front so the payload store is not copied while it grows.
  const double records = scale * 10.0 *
                         (3 * loom::RedisWorkload::kAppRate +
                          2 * loom::RedisWorkload::kSyscallRate + loom::RedisWorkload::kPacketRate);
  s.source.reserve(static_cast<size_t>(records * 1.01) + 64);
  s.bytes.reserve(static_cast<size_t>(records * 82.0) + 4096);

  std::vector<size_t> offsets;  // per record, into s.bytes
  Stream::Batch batch;
  while (auto ev = gen.Next()) {
    if (batch.count == kMaxBatch || (batch.count > 0 && batch.source != ev->source_id)) {
      s.batches.push_back(batch);
      batch = Stream::Batch{};
    }
    if (batch.count == 0) {
      batch.source = ev->source_id;
      batch.first = static_cast<uint32_t>(s.source.size());
    }
    offsets.push_back(s.bytes.size());
    s.bytes.insert(s.bytes.end(), ev->payload.begin(), ev->payload.end());
    s.source.push_back(ev->source_id);
    s.payload_bytes += ev->payload.size();
    batch.ts = ev->ts;  // a batch arrives with its newest event
    ++batch.count;
  }
  if (batch.count > 0) {
    s.batches.push_back(batch);
  }

  s.payloads.reserve(s.source.size());
  for (size_t i = 0; i < s.source.size(); ++i) {
    const size_t end = i + 1 < offsets.size() ? offsets[i + 1] : s.bytes.size();
    s.payloads.emplace_back(s.bytes.data() + offsets[i], end - offsets[i]);
  }
  return s;
}

// --- Schema ----------------------------------------------------------------------------

std::vector<IndexDef> RedisIndexDefs() {
  // The case-study configuration the figure benches use: exponential latency
  // bins from 1 us to ~16 s, and 64 uniform bins over the port space.
  const loom::HistogramSpec latency = loom::HistogramSpec::Exponential(1.0, 2.0, 24).value();
  std::vector<IndexDef> defs(4);
  defs[0] = {kAppSource, [](std::span<const uint8_t> p) { return loom::AppLatencyUs(p); },
             latency};
  defs[1] = {kSyscallSource,
             [](std::span<const uint8_t> p) { return loom::SyscallLatencyUs(p); }, latency};
  defs[2] = {kSyscallSource,
             [](std::span<const uint8_t> p) {
               return loom::SyscallLatencyFor(loom::kSyscallSendto, p);
             },
             latency};
  defs[3] = {kPacketSource,
             [](std::span<const uint8_t> p) -> std::optional<double> {
               auto dport = loom::PacketDport(p);
               if (!dport.has_value()) {
                 return std::nullopt;
               }
               return static_cast<double>(*dport);
             },
             loom::HistogramSpec::Uniform(0.0, 65536.0, 64).value()};
  return defs;
}

loom::Status DefineRedisSchema(loom::Loom* engine, Indexes* idx) {
  for (uint32_t src : {kAppSource, kSyscallSource, kPacketSource}) {
    LOOM_RETURN_IF_ERROR(engine->DefineSource(src));
  }
  uint32_t* ids[4] = {&idx->app_latency, &idx->syscall_latency, &idx->sendto_latency,
                      &idx->packet_dport};
  std::vector<IndexDef> defs = RedisIndexDefs();
  for (size_t i = 0; i < defs.size(); ++i) {
    auto id = engine->DefineIndex(defs[i].source, defs[i].func, defs[i].spec);
    if (!id.ok()) {
      return id.status();
    }
    *ids[i] = id.value();
  }
  return loom::Status::Ok();
}

// --- Brute-force reference ---------------------------------------------------------------

Reference::Reference(const Stream& stream) {
  std::vector<IndexDef> defs = RedisIndexDefs();
  for (const Stream::Batch& b : stream.batches) {
    for (uint32_t i = b.first; i < b.first + b.count; ++i) {
      per_source_[b.source].ts.push_back(b.ts);
      for (size_t k = 0; k < defs.size(); ++k) {
        if (defs[k].source != b.source) {
          continue;
        }
        if (auto v = defs[k].func(stream.payloads[i]); v.has_value()) {
          per_index_[k].ts.push_back(b.ts);
          per_index_[k].values.push_back(*v);
        }
      }
    }
  }
}

std::pair<size_t, size_t> Reference::Series::Range(loom::TimeRange r) const {
  const auto lo = std::lower_bound(ts.begin(), ts.end(), r.start);
  const auto hi = std::upper_bound(ts.begin(), ts.end(), r.end);
  return {static_cast<size_t>(lo - ts.begin()), static_cast<size_t>(hi - ts.begin())};
}

uint64_t Reference::Count(uint32_t source, loom::TimeRange r) const {
  const auto [lo, hi] = per_source_[source].Range(r);
  return hi - lo;
}

std::vector<double> Reference::Values(int index, loom::TimeRange r) const {
  const Series& s = per_index_[index];
  const auto [lo, hi] = s.Range(r);
  return std::vector<double>(s.values.begin() + static_cast<ptrdiff_t>(lo),
                             s.values.begin() + static_cast<ptrdiff_t>(hi));
}

uint64_t Reference::CountAtLeast(int index, loom::TimeRange r, double lo_value) const {
  const std::vector<double> v = Values(index, r);
  return static_cast<uint64_t>(
      std::count_if(v.begin(), v.end(), [&](double x) { return x >= lo_value; }));
}

uint64_t Reference::CountEqual(int index, loom::TimeRange r, double value) const {
  const std::vector<double> v = Values(index, r);
  return static_cast<uint64_t>(std::count(v.begin(), v.end(), value));
}

// --- Queries ----------------------------------------------------------------------------------

const char* ClassName(QueryClass c) {
  switch (c) {
    case QueryClass::kAggregate:
      return "aggregate";
    case QueryClass::kDrilldown:
      return "drilldown";
    case QueryClass::kDump:
      return "dump";
  }
  return "?";
}

QueryClass ClassOf(QueryKind k) {
  switch (k) {
    case QueryKind::kMaxApp:
    case QueryKind::kP9999App:
    case QueryKind::kP99Sendto:
    case QueryKind::kCountSource:
      return QueryClass::kAggregate;
    case QueryKind::kSlowRequests:
    case QueryKind::kSlowSendto:
    case QueryKind::kMangledPackets:
      return QueryClass::kDrilldown;
    case QueryKind::kPacketDump:
      return QueryClass::kDump;
  }
  return QueryClass::kAggregate;
}

Query RotatingQuery(uint64_t i) {
  // Fixed rotations: each kind's share of its class is the same in every
  // stretch of a run (counts take two of the five aggregate turns).
  static constexpr QueryKind kAggregates[] = {QueryKind::kMaxApp, QueryKind::kP9999App,
                                              QueryKind::kP99Sendto, QueryKind::kCountSource,
                                              QueryKind::kCountSource};
  static constexpr QueryKind kDrilldowns[] = {QueryKind::kSlowRequests, QueryKind::kSlowSendto,
                                              QueryKind::kMangledPackets};
  Query q;
  const uint64_t j = i / kNumClasses;  // position within the class
  switch (static_cast<QueryClass>(i % kNumClasses)) {
    case QueryClass::kAggregate:
      q.kind = kAggregates[j % 5];
      q.source = static_cast<uint32_t>(1 + j % 3);
      break;
    case QueryClass::kDrilldown:
      q.kind = kDrilldowns[j % 3];
      break;
    case QueryClass::kDump:
      q.kind = QueryKind::kPacketDump;
      break;
  }
  return q;
}

HistoryQueries::HistoryQueries(uint64_t seed) {
  loom::Rng rng(seed);
  length_phase_ = rng.NextDouble();
  position_phase_ = rng.NextDouble();
}

Query HistoryQueries::At(uint64_t i, const Stream& s) const {
  // The R2 sequence's steps (inverse powers of the plastic number) keep the
  // (length, position) pairs of any stretch of questions evenly spread.
  constexpr double kLengthStep = 0.7548776662466927;
  constexpr double kPositionStep = 0.5698402909980532;
  const double k = static_cast<double>(i);
  const double length_frac = std::fmod(length_phase_ + k * kLengthStep, 1.0);
  const double position_frac = std::fmod(position_phase_ + k * kPositionStep, 1.0);

  Query q = RotatingQuery(i);
  uint32_t source = q.source;
  switch (q.kind) {
    case QueryKind::kCountSource:
      break;
    case QueryKind::kP99Sendto:
    case QueryKind::kSlowSendto:
      source = kSyscallSource;
      break;
    case QueryKind::kMangledPackets:
    case QueryKind::kPacketDump:
      source = kPacketSource;
      break;
    default:
      source = kAppSource;
  }
  // App data spans phases 1-3, syscalls 2-3, packets phase 3 only.
  const TimestampNanos lo = s.phase_start[source];
  const TimestampNanos hi = s.phase_end[3];
  const double len_s = q.kind == QueryKind::kPacketDump ? 0.5 + 0.5 * length_frac
                                                        : 0.25 + 1.75 * length_frac;
  const TimestampNanos len = static_cast<TimestampNanos>(len_s * 1e9);
  const TimestampNanos start =
      lo + static_cast<TimestampNanos>(position_frac * static_cast<double>(hi - lo - len));
  q.window = {start, start + len};
  return q;
}

void TraceTotals::Add(const loom::QueryTrace& t) {
  considered += t.chunks_considered;
  pruned += t.chunks_pruned;
  folded += t.chunks_summary_folded;
  scanned += t.chunks_scanned;
  examined += t.records_examined;
  matched += t.records_matched;
  plan_ns += t.plan_nanos;
  scan_ns += t.scan_nanos;
  merge_ns += t.merge_nanos;
}

QueryOutcome RunQuery(const loom::Loom& engine, const Indexes& idx, const Query& q, bool traced,
                      Tracer* tracer, uint64_t request_id) {
  QueryOutcome out;
  Tracer* t = traced ? tracer : nullptr;
  loom::QueryTrace traces[2];
  int calls = 0;
  auto next_trace = [&]() -> loom::QueryTrace* { return traced ? &traces[calls++] : nullptr; };
  constexpr double kTop = std::numeric_limits<double>::max();

  Tracer::Span query_span(t, ClassName(ClassOf(q.kind)), request_id);
  const uint64_t start = NowNs();
  auto aggregate = [&](uint32_t source, uint32_t index, loom::AggregateMethod m, double pct) {
    Tracer::Span span(t, "core.IndexedAggregate", request_id);
    auto r = engine.IndexedAggregate(source, index, q.window, m, pct, next_trace());
    out.ok = r.ok();
    if (r.ok()) {
      out.value = r.value();
    }
  };
  auto scan = [&](uint32_t source, uint32_t index, loom::ValueRange v) {
    Tracer::Span span(t, "core.IndexedScan", request_id);
    loom::Status st = engine.IndexedScan(
        source, index, q.window, v,
        [&](const loom::RecordView&) {
          ++out.count;
          return true;
        },
        next_trace());
    out.ok = st.ok();
  };

  switch (q.kind) {
    case QueryKind::kMaxApp:
      aggregate(kAppSource, idx.app_latency, loom::AggregateMethod::kMax, 0.0);
      break;
    case QueryKind::kP9999App:
      aggregate(kAppSource, idx.app_latency, loom::AggregateMethod::kPercentile, 99.99);
      break;
    case QueryKind::kP99Sendto:
      aggregate(kSyscallSource, idx.sendto_latency, loom::AggregateMethod::kPercentile, 99.0);
      break;
    case QueryKind::kCountSource: {
      Tracer::Span span(t, "core.CountRecords", request_id);
      auto r = engine.CountRecords(q.source, q.window, next_trace());
      out.ok = r.ok();
      if (r.ok()) {
        out.count = r.value();
      }
      break;
    }
    case QueryKind::kSlowRequests:
      aggregate(kAppSource, idx.app_latency, loom::AggregateMethod::kPercentile, 99.99);
      if (out.ok) {
        scan(kAppSource, idx.app_latency, {out.value, kTop});
      }
      break;
    case QueryKind::kSlowSendto:
      scan(kSyscallSource, idx.sendto_latency, {kSlowSendtoUs, kTop});
      break;
    case QueryKind::kMangledPackets:
      scan(kPacketSource, idx.packet_dport, {loom::kMangledPort, loom::kMangledPort});
      break;
    case QueryKind::kPacketDump: {
      Tracer::Span span(t, "core.RawScan", request_id);
      loom::Status st = engine.RawScan(
          kPacketSource, q.window,
          [&](const loom::RecordView&) {
            ++out.count;
            return true;
          },
          next_trace());
      out.ok = st.ok();
      break;
    }
  }
  out.latency_ns = NowNs() - start;
  for (int i = 0; i < calls; ++i) {
    const loom::QueryTrace& tr = traces[i];
    if (tr.chunks_pruned + tr.chunks_scanned != tr.chunks_considered) {
      out.invariant_ok = false;
    }
    out.trace.Add(tr);
  }
  out.trace.queries = 1;
  return out;
}

bool MatchesReference(const Reference& ref, const Query& q, const QueryOutcome& out) {
  if (!out.ok) {
    return false;
  }
  switch (q.kind) {
    case QueryKind::kMaxApp: {
      const std::vector<double> v = ref.Values(0, q.window);
      return !v.empty() && out.value == *std::max_element(v.begin(), v.end());
    }
    case QueryKind::kP9999App:
      return out.value == Percentile(ref.Values(0, q.window), 99.99);
    case QueryKind::kP99Sendto:
      return out.value == Percentile(ref.Values(2, q.window), 99.0);
    case QueryKind::kCountSource:
      return out.count == ref.Count(q.source, q.window);
    case QueryKind::kSlowRequests:
      return out.value == Percentile(ref.Values(0, q.window), 99.99) &&
             out.count == ref.CountAtLeast(0, q.window, out.value);
    case QueryKind::kSlowSendto:
      return out.count == ref.CountAtLeast(2, q.window, kSlowSendtoUs);
    case QueryKind::kMangledPackets:
      return out.count == ref.CountEqual(3, q.window, loom::kMangledPort);
    case QueryKind::kPacketDump:
      return out.count == ref.Count(kPacketSource, q.window);
  }
  return false;
}

void ClassStats::Add(QueryKind k, const QueryOutcome& out, bool traced_query, uint32_t slice) {
  const int c = static_cast<int>(ClassOf(k));
  latency_ms[c].Add(slice, static_cast<double>(out.latency_ns) / 1e6);
  if (traced_query) {
    TraceTotals& t = traced[c];
    t.queries += 1;
    t.considered += out.trace.considered;
    t.pruned += out.trace.pruned;
    t.folded += out.trace.folded;
    t.scanned += out.trace.scanned;
    t.examined += out.trace.examined;
    t.matched += out.trace.matched;
    t.plan_ns += out.trace.plan_ns;
    t.scan_ns += out.trace.scan_ns;
    t.merge_ns += out.trace.merge_ns;
    traced_ns[c] += static_cast<double>(out.latency_ns);
    traced_n[c] += 1;
  } else {
    untraced_ns[c] += static_cast<double>(out.latency_ns);
    untraced_n[c] += 1;
  }
}

// --- Freshness prober -----------------------------------------------------------------------

Prober::Prober(const loom::Loom* engine, uint64_t period_ns, uint64_t seed, SliceClock slices,
               bool traced, Tracer* tracer)
    : engine_(engine),
      period_ns_(period_ns),
      seed_(seed),
      slices_(slices),
      traced_(traced),
      tracer_(tracer) {
  thread_ = std::thread([this] { Main(); });
}

Prober::~Prober() { Stop(); }

void Prober::Stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) {
    thread_.join();
  }
}

void Prober::Main() {
  loom::Rng rng(seed_);
  uint64_t slot = NowNs();
  const loom::TimeRange all{0, std::numeric_limits<TimestampNanos>::max()};
  while (!stop_.load(std::memory_order_relaxed)) {
    const uint64_t due_probe = slot + rng.NextBounded(period_ns_);
    slot += period_ns_;
    SleepUntilNs(due_probe);
    loom::QueryTrace qt;
    uint64_t due = 0;
    loom::Status st;
    {
      Tracer::Span span(traced_ ? tracer_ : nullptr, "core.RawScan.probe", probes);
      st = engine_->RawScan(
          kAppSource, all,
          [&](const loom::RecordView& r) {
            due = ReservedDue(r);
            return false;
          },
          traced_ ? &qt : nullptr);
    }
    const uint64_t end = NowNs();
    ++probes;
    if (!st.ok()) {
      ++failures;
      continue;
    }
    if (qt.chunks_pruned + qt.chunks_scanned != qt.chunks_considered) {
      ++failures;
    }
    if (due != 0) {
      freshness_ms.Add(slices_.At(end), static_cast<double>(end - std::min(end, due)) / 1e6);
    }
  }
  cpu_ns = ThreadCpuNs();
}

uint64_t ReservedDue(const loom::RecordView& r) {
  const auto rec = loom::DecodeAs<loom::AppRecord>(r.payload);
  return rec.has_value() ? rec->reserved : 0;
}

void RunTrickle(loom::Loom* engine, loom::ManualClock* clock, TimestampNanos first_ts,
                uint64_t duration_ns, bool traced, Tracer* tracer, TrickleSlices* out) {
  loom::AppRecord rec;
  rec.latency_us = 1.0;
  const loom::TimeRange all{0, std::numeric_limits<TimestampNanos>::max()};
  const uint64_t start = NowNs();
  out->samples_ms.clear();
  for (uint64_t handed = start; handed < start + duration_ns; handed = NowNs()) {
    const bool traced_write = traced && out->writes < kTracedTrickleWrites;
    Tracer* t = traced_write ? tracer : nullptr;
    rec.seq = ++out->writes;
    rec.reserved = handed;
    clock->SetNanos(first_ts + (handed - start));
    const std::span<const uint8_t> payload(reinterpret_cast<const uint8_t*>(&rec), sizeof(rec));
    loom::Status st;
    {
      Tracer::Span span(t, "core.PushBatch.trickle", rec.seq);
      st = engine->PushBatch(kAppSource, std::span<const std::span<const uint8_t>>(&payload, 1));
    }
    loom::QueryTrace qt;
    uint64_t newest = 0;
    if (st.ok()) {
      Tracer::Span span(t, "core.RawScan.probe", rec.seq);
      st = engine->RawScan(
          kAppSource, all,
          [&](const loom::RecordView& r) {
            newest = ReservedDue(r);
            return false;
          },
          traced_write ? &qt : nullptr);
    }
    const uint64_t seen = NowNs();
    if (!st.ok() || newest != handed ||
        qt.chunks_pruned + qt.chunks_scanned != qt.chunks_considered) {
      ++out->failures;
      continue;
    }
    out->samples_ms.push_back(static_cast<double>(seen - handed) / 1e6);
  }
  if (!engine->Sync(kAppSource).ok()) {
    ++out->failures;
  }
  if (!out->samples_ms.empty()) {
    out->p50_ms.push_back(Percentile(out->samples_ms, 50.0));
    out->p99_ms.push_back(Percentile(out->samples_ms, 99.0));
  }
}

void AddTrickleMetrics(const TrickleSlices& trickle, Report* report) {
  report->Info("freshness_p50_ms_slices", ListOf(trickle.p50_ms));
  report->Info("freshness_p99_ms_slices", ListOf(trickle.p99_ms));
  report->Info("freshness_samples", static_cast<double>(trickle.writes - trickle.failures));
  if (trickle.p99_ms.empty()) {
    report->Fail("freshness: no samples");
  }
  report->Metric("freshness_p50_ms", Min(trickle.p50_ms), "ms");
  report->Metric("freshness_p99_ms", Min(trickle.p99_ms), "ms");
}

// --- Tracing ----------------------------------------------------------------------------------

namespace {
std::atomic<uint64_t> g_tracer_generation{1};
}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), generation_(g_tracer_generation.fetch_add(1)) {}

SpanBuffer* Tracer::Local() {
  // One buffer per (thread, tracer), found without a lock after first use.
  thread_local uint64_t cached_generation = 0;
  thread_local SpanBuffer* cached = nullptr;
  if (cached_generation == generation_) {
    return cached;
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto buf = std::make_unique<SpanBuffer>();
  buf->thread = static_cast<uint32_t>(buffers_.size());
  buf->records.reserve(1 << 14);
  cached = buf.get();
  cached_generation = generation_;
  buffers_.push_back(std::move(buf));
  return cached;
}

Tracer::Span::Span(Tracer* tracer, const char* name, uint64_t request_id) {
  if (tracer == nullptr || !tracer->enabled_) {
    return;
  }
  buf_ = tracer->Local();
  const uint64_t id = (static_cast<uint64_t>(buf_->thread + 1) << 40) | (buf_->records.size() + 1);
  const uint64_t parent = buf_->open.empty() ? 0 : buf_->open.back();
  index_ = buf_->records.size();
  buf_->records.push_back(SpanRecord{id, parent, request_id, name, NowNs(), 0});
  buf_->open.push_back(id);
}

Tracer::Span::~Span() {
  if (buf_ == nullptr) {
    return;
  }
  buf_->records[index_].end_ns = NowNs();
  buf_->open.pop_back();
}

bool Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "id,parent,request,thread,name,start_ns,end_ns\n");
  for (const auto& buf : buffers_) {
    for (const SpanRecord& r : buf->records) {
      std::fprintf(f, "%llu,%llu,%llu,%u,%s,%llu,%llu\n", static_cast<unsigned long long>(r.id),
                   static_cast<unsigned long long>(r.parent),
                   static_cast<unsigned long long>(r.request), buf->thread, r.name,
                   static_cast<unsigned long long>(r.start_ns),
                   static_cast<unsigned long long>(r.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

// --- Engine directory lifetime --------------------------------------------------------------

void DiscardLogs(const std::string& dir) {
  for (const char* name : {"record.log", "chunk.idx", "ts.idx"}) {
    const std::string path = dir + "/" + name;
    if (::truncate(path.c_str(), 0) != 0) {
      // Missing files are fine: the engine may not have created them.
    }
  }
}

void RemoveDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  // Commit the removal now: on filesystems mounted with `discard` the freed
  // blocks are trimmed at journal commit, which would otherwise land
  // seconds later, in the middle of the next run's measurements.
  const std::string parent = std::filesystem::path(dir).parent_path().string();
  const int fd = ::open(parent.empty() ? "." : parent.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::syncfs(fd);
    ::close(fd);
  }
}

uint64_t StoredBytes(const loom::LoomStats& s) {
  return s.record_log.bytes_appended + s.chunk_index_log.bytes_appended +
         s.ts_index_log.bytes_appended;
}

// --- Report -----------------------------------------------------------------------------------

namespace {
std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}
}  // namespace

void Report::Metric(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back({name, {value, unit}});
}

void Report::Info(const std::string& key, double value) {
  info_.push_back({key, std::isfinite(value) ? JsonNumber(value) : "null"});
}

void Report::Info(const std::string& key, const std::string& value) {
  info_.push_back({key, JsonString(value)});
}

void Report::Fail(const std::string& what) {
  failed += 1;
  correct = false;
  std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
}

void Report::Print() const {
  std::string info = "{\"info\": {";
  for (size_t i = 0; i < info_.size(); ++i) {
    info += (i == 0 ? "" : ", ") + JsonString(info_[i].first) + ": " + info_[i].second;
  }
  info += "}}";
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    line += (i == 0 ? "" : ", ") + JsonString(metrics_[i].first) +
            ": {\"value\": " + JsonNumber(metrics_[i].second.first) +
            ", \"unit\": " + JsonString(metrics_[i].second.second) + "}";
  }
  line += "}}";
  std::printf("%s\n%s\n", info.c_str(), line.c_str());
  std::fflush(stdout);
}

double CounterOr0(const loom::MetricsSnapshot& s, const std::string& name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0.0 : static_cast<double>(it->second);
}

double GaugeOr0(const loom::MetricsSnapshot& s, const std::string& name) {
  const auto it = s.gauges.find(name);
  return it == s.gauges.end() ? 0.0 : it->second;
}

loom::HistogramSnapshot HistOrEmpty(const loom::MetricsSnapshot& s, const std::string& name) {
  const auto it = s.histograms.find(name);
  return it == s.histograms.end() ? loom::HistogramSnapshot{} : it->second;
}

EngineSample SampleEngine(const loom::Loom& engine) {
  return EngineSample{engine.stats(), engine.metrics()->Snapshot()};
}

void LayerTotals::AddDelta(const EngineSample& a, const EngineSample& b) {
  auto counter = [&](const char* name) { return CounterOr0(b.metrics, name) - CounterOr0(a.metrics, name); };
  auto gauge = [&](const char* name) { return GaugeOr0(b.metrics, name) - GaugeOr0(a.metrics, name); };
  const loom::HistogramSnapshot pb0 = HistOrEmpty(a.metrics, "loom_core_push_batch_seconds");
  const loom::HistogramSnapshot pb1 = HistOrEmpty(b.metrics, "loom_core_push_batch_seconds");
  const loom::HistogramSnapshot sy0 = HistOrEmpty(a.metrics, "loom_core_sync_seconds");
  const loom::HistogramSnapshot sy1 = HistOrEmpty(b.metrics, "loom_core_sync_seconds");
  records += static_cast<double>(b.stats.records_ingested - a.stats.records_ingested);
  push_batch_ns += (pb1.sum - pb0.sum) * 1e9;
  sync_ns += (sy1.sum - sy0.sum) * 1e9;
  sync_calls += static_cast<double>(sy1.count - sy0.count);
  finalize_stall_ns += gauge("loom_ingest_finalize_stall_seconds_total") * 1e9;
  // Finalize latencies: the later sample's buckets minus the earlier's.
  loom::HistogramSnapshot f0 = HistOrEmpty(a.metrics, "loom_ingest_finalize_seconds");
  const loom::HistogramSnapshot f1 = HistOrEmpty(b.metrics, "loom_ingest_finalize_seconds");
  if (f0.counts.size() != f1.counts.size()) {
    f0.counts.assign(f1.counts.size(), 0);
    f0.count = 0;
    f0.sum = 0;
  }
  if (finalize.counts.empty()) {
    finalize.bounds = f1.bounds;
    finalize.counts.assign(f1.counts.size(), 0);
  }
  if (finalize.counts.size() == f1.counts.size()) {
    for (size_t i = 0; i < f1.counts.size(); ++i) {
      finalize.counts[i] += f1.counts[i] - f0.counts[i];
    }
    finalize.count += f1.count - f0.count;
    finalize.sum += f1.sum - f0.sum;
  }
  cache_hits += static_cast<double>(b.stats.summary_cache.hits - a.stats.summary_cache.hits);
  cache_misses += static_cast<double>(b.stats.summary_cache.misses - a.stats.summary_cache.misses);
  cache_evictions +=
      static_cast<double>(b.stats.summary_cache.evictions - a.stats.summary_cache.evictions);
  index_bytes += static_cast<double>(
      (b.stats.chunk_index_log.bytes_appended - a.stats.chunk_index_log.bytes_appended) +
      (b.stats.ts_index_log.bytes_appended - a.stats.ts_index_log.bytes_appended));
  const loom::HybridLogStats& r0 = a.stats.record_log;
  const loom::HybridLogStats& r1 = b.stats.record_log;
  writer_stall_ns += static_cast<double>(r1.writer_stall_nanos - r0.writer_stall_nanos);
  pad_bytes += static_cast<double>(r1.pad_bytes - r0.pad_bytes);
  disk_reads += static_cast<double>(r1.disk_reads - r0.disk_reads);
  memory_reads += static_cast<double>(r1.memory_reads - r0.memory_reads);
  snapshot_fallbacks += static_cast<double>(r1.snapshot_fallbacks - r0.snapshot_fallbacks);
  coalesced_writes += counter("loom_ingest_coalesced_writes_total");
  prefetch_issued += gauge("loom_query_prefetch_issued_total");
  prefetch_hits += gauge("loom_query_prefetch_hits_total");
  prefetch_wasted += gauge("loom_query_prefetch_wasted_total");
}

void AddEngineLayerMetrics(const LayerTotals& t, double queries, Report* report) {
  const double records = std::max(t.records, 1.0);
  const double q = std::max(queries, 1.0);
  report->Metric("core.push_batch_ns_per_record", t.push_batch_ns / records, "ns/record");
  report->Metric("core.sync_ms", t.sync_ns / std::max(t.sync_calls, 1.0) / 1e6, "ms");
  report->Metric("core.finalize_stall_ms", t.finalize_stall_ns / 1e6, "ms");
  report->Metric("core.finalize_us_p50", t.finalize.count == 0 ? 0.0 : t.finalize.Percentile(50) * 1e6,
                 "us");
  report->Metric("core.seal_queue_depth_max", t.seal_depth_max, "count");
  const double lookups = t.cache_hits + t.cache_misses;
  report->Metric("index.summary_cache_hit_ratio", lookups == 0 ? 0.0 : t.cache_hits / lookups,
                 "ratio");
  report->Info("index.summary_cache_lookups", lookups);
  report->Metric("index.summary_cache_evictions", t.cache_evictions, "count");
  report->Metric("index.bytes_per_record", t.index_bytes / records, "B/record");
  report->Metric("hybridlog.writer_stall_ms", t.writer_stall_ns / 1e6, "ms");
  report->Metric("hybridlog.pad_bytes_per_record", t.pad_bytes / records, "B/record");
  report->Metric("hybridlog.coalesced_writes", t.coalesced_writes, "count");
  report->Metric("hybridlog.disk_reads_per_query", t.disk_reads / q, "ratio");
  report->Metric("hybridlog.memory_reads_per_query", t.memory_reads / q, "ratio");
  report->Metric("hybridlog.snapshot_fallbacks", t.snapshot_fallbacks, "count");
  report->Metric("hybridlog.prefetch_hit_ratio",
                 t.prefetch_issued == 0 ? 0.0 : t.prefetch_hits / t.prefetch_issued, "ratio");
  report->Info("hybridlog.prefetch_issued", t.prefetch_issued);
  report->Metric("hybridlog.prefetch_wasted", t.prefetch_wasted, "count");
}

void AddBypassedDaemonMetrics(Report* report) {
  report->Metric("net.send_ns_per_record", 0.0, "ns/record");
  report->Metric("net.rejected", 0.0, "count");
  report->Metric("daemon.lag_records_p99", 0.0, "records");
  report->Metric("daemon.batch_records_mean", 0.0, "records");
  report->Metric("daemon.publish_retries", 0.0, "count");
  report->Metric("daemon.cpu_ns_per_record", 0.0, "ns/record");
}

GaugeMaxSampler::GaugeMaxSampler(const loom::Loom* engine, std::string gauge)
    : engine_(engine), gauge_(std::move(gauge)) {
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_relaxed)) {
      max_ = std::max(max_, GaugeOr0(engine_->metrics()->Snapshot(), gauge_));
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
}

GaugeMaxSampler::~GaugeMaxSampler() { Stop(); }

double GaugeMaxSampler::Stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) {
    thread_.join();
  }
  return max_;
}

void AddEngineInfo(const loom::Loom& engine, Report* report) {
  // run.py turns address-space randomisation off; record whether it is.
  unsigned long persona = 0;
  std::ifstream("/proc/self/personality") >> std::hex >> persona;
  report->Info("address_layout", (persona & 0x0040000) != 0 ? "fixed" : "randomized");
  const loom::MetricsSnapshot snap = engine.metrics()->Snapshot();
  const double kernel = GaugeOr0(snap, "loom_query_kernel_mode");
  report->Info("loom_query_kernel_mode", kernel == 1.0 ? "avx2" : kernel == 2.0 ? "neon" : "scalar");
  const double io = GaugeOr0(snap, "loom_ingest_io_backend_mode");
  const double fixed = GaugeOr0(snap, "loom_ingest_io_write_fixed_mode");
  report->Info("loom_ingest_io_backend_mode",
               io == 1.0 ? (fixed == 1.0 ? "io_uring_fixed" : "io_uring") : "sync");
}

void AddQueryLatencyMetrics(const ClassStats& stats, Report* report) {
  for (int c = 0; c < kNumClasses; ++c) {
    const std::string name = ClassName(static_cast<QueryClass>(c));
    AddSlicedPercentile(name + "_p50_ms", stats.latency_ms[c], 50.0, kMinSliceSamples, report);
    AddSlicedPercentile(name + "_p95_ms", stats.latency_ms[c], 95.0, kMinSliceSamples, report);
    report->Info(name + "_samples", static_cast<double>(stats.latency_ms[c].size()));
  }
}

void AddQueryLayerMetrics(const ClassStats& stats, Report* report) {
  for (int c = 0; c < kNumClasses; ++c) {
    const std::string name = ClassName(static_cast<QueryClass>(c));
    const TraceTotals& t = stats.traced[c];
    const double q = static_cast<double>(std::max<uint64_t>(t.queries, 1));
    const double considered = static_cast<double>(std::max<uint64_t>(t.considered, 1));
    // RawScan walks the back-pointer chain without planning, so the dump
    // class has no plan stage to report.
    if (c != static_cast<int>(QueryClass::kDump)) {
      report->Metric("core." + name + ".plan_us", static_cast<double>(t.plan_ns) / q / 1e3, "us");
    }
    report->Metric("core." + name + ".scan_us", static_cast<double>(t.scan_ns) / q / 1e3, "us");
    report->Metric("core." + name + ".chunks_considered", static_cast<double>(t.considered) / q,
                   "count");
    report->Metric("core." + name + ".records_examined_per_match",
                   static_cast<double>(t.examined) /
                       static_cast<double>(std::max<uint64_t>(t.matched, 1)),
                   "ratio");
    report->Metric("kernels." + name + ".scan_ns_per_record",
                   static_cast<double>(t.scan_ns) /
                       static_cast<double>(std::max<uint64_t>(t.examined, 1)),
                   "ns/record");
    report->Metric("index." + name + ".prune_ratio", static_cast<double>(t.pruned) / considered,
                   "ratio");
    report->Metric("index." + name + ".fold_ratio", static_cast<double>(t.folded) / considered,
                   "ratio");
    report->Info(name + "_traced_queries", static_cast<double>(t.queries));
    report->Info(name + "_merge_us", static_cast<double>(t.merge_ns) / q / 1e3);
  }
}

void AddFreshnessMetrics(const SlicedSamples& freshness_ms, Report* report) {
  AddSlicedPercentile("freshness_p50_ms", freshness_ms, 50.0, kMinSliceProbes, report);
  AddSlicedPercentile("freshness_p99_ms", freshness_ms, 99.0, kMinSliceProbes, report);
  report->Info("freshness_samples", static_cast<double>(freshness_ms.size()));
}

void AddSlicedPercentile(const std::string& name, const SlicedSamples& samples, double p,
                         size_t min_n, Report* report) {
  std::vector<double> per_slice = samples.PerSlice(p, min_n);
  if (per_slice.empty()) {
    SlicedSamples pooled;
    for (const auto& slice : samples.slices) {
      for (double v : slice) {
        pooled.Add(0, v);
      }
    }
    per_slice = pooled.PerSlice(p, 1);
  }
  report->Info(name + "_slices", ListOf(per_slice));
  if (per_slice.empty()) {
    report->Fail(name + ": no samples");
    report->Metric(name, 0.0, "ms");
    return;
  }
  report->Metric(name, *std::min_element(per_slice.begin(), per_slice.end()), "ms");
}

double QueryTracingOverhead(const ClassStats& stats) {
  double traced = 0;
  double untraced = 0;
  for (int c = 0; c < kNumClasses; ++c) {
    traced += stats.traced_ns[c] / static_cast<double>(std::max<uint64_t>(stats.traced_n[c], 1));
    untraced +=
        stats.untraced_ns[c] / static_cast<double>(std::max<uint64_t>(stats.untraced_n[c], 1));
  }
  return traced / untraced - 1.0;
}

}  // namespace perfbench
