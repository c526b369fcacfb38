// `investigate`: the query path, closed loop, one client, over history.
//
// A run builds kSetups engines in turn. For each, set-up generates a Redis
// stream large enough that the chunk summaries the queries touch exceed the
// default 8 MiB summary cache, pushes it on the generator's virtual timeline
// (a ManualClock set to each batch's time, as the figure benches do) and
// syncs. A seeded sequence of Fig. 12 questions, continuing from engine to
// engine, then runs over random windows, each inside the phases where its
// source has data, so every query must succeed; windows share little, so
// planning, summary reads and decode, the cache, record I/O, prefetch and the
// kernels carry the load while the ingest layers idle.
//
// Freshness needs something new to become visible, so after the queries
// RunTrickle appends app records after the engine's history and measures how
// soon a newest-first scan returns each. The trickle takes kTrickleShare of
// the run; the queries take the rest.
//
// One engine's latencies hold for its whole life but differ from the next
// engine's; measuring on every engine, with their history loads spread over
// the run, and taking each engine as one slice lets the best slice stand for
// the program rather than for one engine's memory layout or one stretch of
// the machine.

#include <optional>

#include "perfbench/src/harness.h"

namespace perfbench {
namespace {

// ~5.75 M records (~9 k chunks): their summaries overflow the 8 MiB cache.
constexpr double kInvestigateScale = 0.05;
// Each engine gets ~2.75 s of queries at 25 s (~450 per class): with 1 s
// slices (~150 per class) a run's best slice was often one whose query mix
// happened to be cheap, not one the machine left alone.
constexpr int kSetups = 8;
constexpr double kTrickleShare = 0.12;

}  // namespace

int RunInvestigate(const RunOptions& opts) {
  Report report;
  Tracer tracer(opts.trace);

  std::vector<double> setup_s, ingest_rps, ingest_cpu, open_ms, rss_mb;
  std::unique_ptr<Stream> stream;
  std::unique_ptr<Reference> ref;
  std::unique_ptr<loom::ManualClock> clock;
  std::unique_ptr<loom::Loom> engine;
  Indexes idx;
  LayerTotals layer;
  TrickleSlices trickle;
  ClassStats qstats;
  const HistoryQueries questions(opts.seed * 0x9e3779b97f4a7c15ULL + 11);
  std::vector<std::pair<Query, QueryOutcome>> to_check;
  uint64_t queries = 0;
  double bytes_ratio = 0;
  const uint64_t query_ns =
      static_cast<uint64_t>(opts.seconds * (1.0 - kTrickleShare) / kSetups * 1e9);
  const uint64_t trickle_ns = static_cast<uint64_t>(opts.seconds * kTrickleShare / kSetups * 1e9);

  for (int i = 0; i < kSetups; ++i) {
    // --- Set-up: generate, open, ingest the history on its virtual timeline. --
    // The first load is traced span by span; later ones add counters only.
    Tracer* t = opts.trace && i == 0 ? &tracer : nullptr;
    const std::string dir = opts.data_dir + "/investigate-" + std::to_string(i);
    ref.reset();
    stream.reset();
    const uint64_t t0 = NowNs();
    stream = std::make_unique<Stream>(BuildRedisStream(opts.seed, kInvestigateScale));
    ref = std::make_unique<Reference>(*stream);
    clock = std::make_unique<loom::ManualClock>(1);
    const double rss_base = TrimmedRssMb();
    loom::LoomOptions lo;
    lo.dir = dir;
    lo.clock = clock.get();
    const uint64_t o0 = NowNs();
    {
      Tracer::Span span(t, "core.Open", static_cast<uint64_t>(i));
      auto opened = loom::Loom::Open(lo);
      if (!opened.ok()) {
        report.Fail("Loom::Open: " + opened.status().ToString());
        break;
      }
      engine = std::move(opened.value());
    }
    const loom::Status schema = DefineRedisSchema(engine.get(), &idx);
    if (!schema.ok()) {
      report.Fail("schema: " + schema.ToString());
      break;
    }
    open_ms.push_back(static_cast<double>(NowNs() - o0) / 1e6);
    const EngineSample before = SampleEngine(*engine);
    std::optional<GaugeMaxSampler> depth;
    if (opts.trace) {
      depth.emplace(engine.get(), "loom_ingest_seal_shard_queue_depth_max");
    }
    const uint64_t cpu0 = ProcessCpuNs();
    const uint64_t i0 = NowNs();
    for (size_t b = 0; b < stream->batches.size(); ++b) {
      const Stream::Batch& batch = stream->batches[b];
      clock->SetNanos(batch.ts);
      Tracer::Span span(t, "core.PushBatch", b);
      const loom::Status st = engine->PushBatch(batch.source, stream->BatchPayloads(batch));
      if (!st.ok()) {
        report.Fail("PushBatch: " + st.ToString());
        break;
      }
    }
    for (uint32_t src : {loom::kAppSource, loom::kSyscallSource, loom::kPacketSource}) {
      Tracer::Span span(t, "core.Sync", src);
      const loom::Status st = engine->Sync(src);
      if (!st.ok()) {
        report.Fail("Sync: " + st.ToString());
      }
    }
    const uint64_t i1 = NowNs();
    const double n = static_cast<double>(stream->size());
    ingest_rps.push_back(n / (static_cast<double>(i1 - i0) / 1e9));
    ingest_cpu.push_back(static_cast<double>(ProcessCpuNs() - cpu0) / n);
    report.attempted += stream->batches.size() + 3;
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (i == 0) {
      AddEngineInfo(*engine, &report);
      bytes_ratio = static_cast<double>(StoredBytes(engine->stats())) /
                    static_cast<double>(stream->payload_bytes);
    }
    const Query all_mangled{QueryKind::kMangledPackets, loom::kPacketSource,
                            {stream->phase_start[3], stream->phase_end[3]}};
    {
      const QueryOutcome out = RunQuery(*engine, idx, all_mangled, false, nullptr, 0);
      ++report.attempted;
      if (!out.ok || out.count != 6 || !MatchesReference(*ref, all_mangled, out)) {
        report.Fail("planted mangled packets not all found");
      }
    }

    // --- Timed phase: the query client, then the trickle writer. ----------------
    {
      RssSampler rss;
      for (const uint64_t end = NowNs() + query_ns; NowNs() < end; ++queries) {
        const Query q = questions.At(queries, *stream);
        const bool traced = opts.trace && queries % 2 == 0;
        QueryOutcome out = RunQuery(*engine, idx, q, traced, &tracer, queries);
        qstats.Add(q.kind, out, traced, static_cast<uint32_t>(i));
        if (!out.ok || !out.invariant_ok) {
          report.Fail(std::string("investigate query ") + ClassName(ClassOf(q.kind)));
        } else if (queries % kCheckEvery == 0) {
          to_check.emplace_back(q, std::move(out));
        }
      }
      rss_mb.push_back(rss.PeakMb() - rss_base);
    }
    if (opts.trace) {
      layer.AddDelta(before, SampleEngine(*engine));
      layer.seal_depth_max = std::max(layer.seal_depth_max, depth->Stop());
    }
    RunTrickle(engine.get(), clock.get(), stream->phase_end[3] + loom::kNanosPerSecond, trickle_ns,
               opts.trace, &tracer, &trickle);
    Tracer::Span span(t, "core.Close", static_cast<uint64_t>(i));
    DiscardLogs(dir);
    engine.reset();
  }
  report.attempted += queries + trickle.writes;
  for (uint64_t f = 0; f < trickle.failures; ++f) {
    report.Fail("trickle write or freshness probe");
  }

  // --- Correctness: the checked subset (every engine holds the same history). --
  for (const auto& [q, out] : to_check) {
    if (!MatchesReference(*ref, q, out)) {
      report.Fail(std::string("investigate answer differs from reference: ") +
                  ClassName(ClassOf(q.kind)));
    }
  }
  report.Info("queries", static_cast<double>(queries));
  report.Info("checked_queries", static_cast<double>(to_check.size()));
  report.Info("history_records", static_cast<double>(stream->size()));
  report.Info("history_load_rps", ListOf(ingest_rps));
  report.Info("history_load_cpu_ns_per_record", ListOf(ingest_cpu));
  report.Info("engine_rss_mb_per_engine", ListOf(rss_mb));

  if (!opts.trace) {
    report.Metric("setup_s", Median(setup_s), "s");
    // The best history load, for the reason slices exist (SlicedSamples).
    report.Metric("ingest_rps", Max(ingest_rps), "records/s");
    report.Metric("ingest_cpu_ns_per_record", Min(ingest_cpu), "ns/record");
    report.Metric("bytes_stored_per_payload_byte", bytes_ratio, "ratio");
    AddQueryLatencyMetrics(qstats, &report);
    AddTrickleMetrics(trickle, &report);
    report.Metric("engine_rss_mb", Median(rss_mb), "MiB");
  } else {
    AddBypassedDaemonMetrics(&report);
    AddEngineLayerMetrics(layer, static_cast<double>(queries), &report);
    AddQueryLayerMetrics(qstats, &report);
    // No open-loop sender: the trickle is a closed loop.
    report.Metric("workload.sender_late_ms_max", 0.0, "ms");
    report.Metric("setup.open_ms", Median(open_ms), "ms");
    report.Metric("tracing.overhead_fraction", QueryTracingOverhead(qstats), "fraction");
  }
  if (opts.trace && !opts.spans_path.empty() && !tracer.Write(opts.spans_path)) {
    report.Fail("cannot write " + opts.spans_path);
  }
  report.Print();
  return report.correct ? 0 : 1;
}

}  // namespace perfbench
