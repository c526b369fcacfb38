// `capture`: the engine's write path, closed loop, one benchmark thread.
//
// The Redis case-study stream (all three phases, six planted incidents) is
// generated and cut into PushBatch-shaped batches during set-up. Each round
// opens a fresh engine with library defaults, pushes the whole stream and
// calls Sync for every source; that interval is the timed region, so
// deferred sealing and flushing are paid inside it. Untimed warm-up rounds
// fault in the allocator's memory; measured rounds then repeat for the
// whole run and every metric reports its best round (SlicedSamples). The
// only option set is the clock: a ManualClock on the generator's virtual
// timeline, so every answer over the captured log can be checked exactly.
//
// After its Sync, each measured round measures freshness on its engine with
// RunTrickle, then checks the log against the brute-force reference for
// kVerifyRoundNs: the whole-log answers once, in the first round (counts per
// source, max and 99.99p app latency, slow requests and sendto calls, the
// six mangled packets), then the Fig. 12 questions over windows spread
// across the history, continuing from round to round. Those verification
// queries are this workload's query latency samples. One engine's latencies
// hold for its whole life but differ from the next engine's, so measuring
// on every round's engine lets the best round stand for the program rather
// than for one engine's memory layout.

#include <optional>

#include "perfbench/src/harness.h"

namespace perfbench {
namespace {

// ~2.3 M records, ~184 MB of payload per round: ~0.2 s of ingest; with the
// trickle and the verification a round takes ~1.1 s, so a 25 s run has ~23.
// Each round's engine leaves its log tails on disk until the run ends.
constexpr double kCaptureScale = 0.02;
constexpr int kSetups = 3;
// Per measured round: ~40 k trickle writes, and ~400 verification queries
// of each class. With half as many per round, a run's best round was often
// one whose query mix happened to be cheap, not one the machine left alone.
constexpr uint64_t kTrickleRoundNs = 80'000'000;
constexpr uint64_t kVerifyRoundNs = 800'000'000;
constexpr int kWarmupRounds = 1;
constexpr int kMinRounds = 3;
// Traced runs trace the first measured rounds only: one round's spans are
// over a million PushBatch calls.
constexpr int kTracedRounds = 2;

std::vector<Query> WholeLogChecks(const Stream& s) {
  const loom::TimeRange history{0, s.phase_end[3]};
  std::vector<Query> qs;
  for (uint32_t src : {loom::kAppSource, loom::kSyscallSource, loom::kPacketSource}) {
    qs.push_back(Query{QueryKind::kCountSource, src, history});
  }
  for (QueryKind k : {QueryKind::kMaxApp, QueryKind::kP9999App, QueryKind::kSlowRequests,
                      QueryKind::kSlowSendto, QueryKind::kMangledPackets}) {
    qs.push_back(Query{k, loom::kAppSource, history});
  }
  return qs;
}

}  // namespace

int RunCapture(const RunOptions& opts) {
  Report report;
  Tracer tracer(opts.trace);

  // --- Set-up: generate and batch the stream, build the reference. ---------
  std::vector<double> setup_s;
  std::unique_ptr<Stream> stream;
  std::unique_ptr<Reference> ref;
  for (int i = 0; i < kSetups; ++i) {
    ref.reset();
    stream.reset();
    const uint64_t t0 = NowNs();
    stream = std::make_unique<Stream>(BuildRedisStream(opts.seed, kCaptureScale));
    ref = std::make_unique<Reference>(*stream);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  const double n_records = static_cast<double>(stream->size());
  const loom::TimeRange history{0, stream->phase_end[3]};
  if (ref->CountEqual(3, history, loom::kMangledPort) != 6) {
    report.Fail("generator did not plant 6 mangled packets");
  }

  // --- Rounds: warm-up, then measured rounds until the run's time is up. ----
  LayerTotals layer;
  std::vector<double> round_rps, round_cpu, bytes_ratio, open_ms;
  std::vector<double> traced_round_ns, untraced_round_ns;
  std::unique_ptr<loom::ManualClock> clock;  // declared first: outlives the engine
  std::unique_ptr<loom::Loom> engine;
  Indexes idx;
  std::string dir;
  double rss_base = 0;
  std::optional<RssSampler> rss;
  TrickleSlices trickle;
  // Touched before the base reading: the samples are not the engine's memory.
  trickle.samples_ms.resize(1 << 17);
  trickle.samples_ms.clear();
  ClassStats qstats;
  uint64_t queries = 0;
  auto verify = [&](const Query& q, bool check, uint32_t slice) {
    const bool traced = opts.trace && queries % 2 == 0;
    const QueryOutcome out = RunQuery(*engine, idx, q, traced, &tracer, queries++);
    qstats.Add(q.kind, out, traced, slice);
    ++report.attempted;
    if (!out.ok || !out.invariant_ok || (check && !MatchesReference(*ref, q, out))) {
      report.Fail(std::string("capture answer differs from reference: ") +
                  ClassName(ClassOf(q.kind)));
    }
  };
  const HistoryQueries questions(opts.seed * 0x9e3779b97f4a7c15ULL + 17);
  uint64_t question = 0;
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(opts.seconds * 1e9);
  for (int round = -kWarmupRounds;; ++round) {
    const bool warmup = round < 0;
    if (round == 0) {
      rss_base = TrimmedRssMb();
      rss.emplace();
    }
    const bool traced = opts.trace && round >= 0 && round < kTracedRounds;
    Tracer* t = traced ? &tracer : nullptr;
    dir = opts.data_dir + "/capture-" + std::to_string(round + kWarmupRounds);
    clock = std::make_unique<loom::ManualClock>(1);
    loom::LoomOptions lo;
    lo.dir = dir;
    lo.clock = clock.get();
    {
      const uint64_t o0 = NowNs();
      Tracer::Span span(t, "core.Open", static_cast<uint64_t>(round));
      auto opened = loom::Loom::Open(lo);
      if (!opened.ok()) {
        report.Fail("Loom::Open: " + opened.status().ToString());
        break;
      }
      engine = std::move(opened.value());
      const loom::Status st = DefineRedisSchema(engine.get(), &idx);
      if (!st.ok()) {
        report.Fail("schema: " + st.ToString());
        break;
      }
      open_ms.push_back(static_cast<double>(NowNs() - o0) / 1e6);
    }
    const EngineSample before = SampleEngine(*engine);
    std::optional<GaugeMaxSampler> depth;
    if (traced) {
      depth.emplace(engine.get(), "loom_ingest_seal_shard_queue_depth_max");
    }

    const uint64_t cpu0 = ProcessCpuNs();
    const uint64_t t0 = NowNs();
    bool ok = true;
    for (size_t b = 0; b < stream->batches.size() && ok; ++b) {
      const Stream::Batch& batch = stream->batches[b];
      clock->SetNanos(batch.ts);
      Tracer::Span span(t, "core.PushBatch", b);
      const loom::Status st = engine->PushBatch(batch.source, stream->BatchPayloads(batch));
      if (!st.ok()) {
        report.Fail("PushBatch: " + st.ToString());
        ok = false;
      }
    }
    for (uint32_t src : {loom::kAppSource, loom::kSyscallSource, loom::kPacketSource}) {
      Tracer::Span span(t, "core.Sync", src);
      const loom::Status st = engine->Sync(src);
      if (!st.ok()) {
        report.Fail("Sync: " + st.ToString());
        ok = false;
      }
    }
    const uint64_t t1 = NowNs();
    const uint64_t cpu1 = ProcessCpuNs();
    report.attempted += stream->batches.size() + 3;
    // Every round's log holds exactly what was pushed, per source.
    for (uint32_t src : {loom::kAppSource, loom::kSyscallSource, loom::kPacketSource}) {
      auto n = engine->CountRecords(src, history);
      ++report.attempted;
      if (!n.ok() || n.value() != ref->Count(src, history)) {
        report.Fail("CountRecords differs from records pushed for source " + std::to_string(src));
        ok = false;
      }
    }
    if (!ok) {
      break;
    }
    if (!warmup) {
      round_rps.push_back(n_records / (static_cast<double>(t1 - t0) / 1e9));
      round_cpu.push_back(static_cast<double>(cpu1 - cpu0) / n_records);
      (traced ? traced_round_ns : untraced_round_ns).push_back(static_cast<double>(t1 - t0));
      bytes_ratio.push_back(static_cast<double>(StoredBytes(engine->stats())) /
                            static_cast<double>(stream->payload_bytes));
    }
    if (traced) {
      layer.AddDelta(before, SampleEngine(*engine));
      layer.seal_depth_max = std::max(layer.seal_depth_max, depth->Stop());
    }
    if (!warmup) {
      RunTrickle(engine.get(), clock.get(), stream->phase_end[3] + loom::kNanosPerSecond,
                 kTrickleRoundNs, opts.trace, &tracer, &trickle);
      // Verification: one slice per round, so the best slice is also the
      // best of several engines.
      const uint32_t slice = static_cast<uint32_t>(round);
      const EngineSample before_queries = SampleEngine(*engine);
      if (round == 0) {
        AddEngineInfo(*engine, &report);
        for (const Query& q : WholeLogChecks(*stream)) {
          verify(q, true, slice);
        }
      }
      for (const uint64_t end = NowNs() + kVerifyRoundNs; NowNs() < end; ++question) {
        verify(questions.At(question, *stream), question % kCheckEvery == 0, slice);
      }
      if (opts.trace) {
        layer.AddDelta(before_queries, SampleEngine(*engine));
      }
    }
    Tracer::Span span(t, "core.Close", static_cast<uint64_t>(round));
    DiscardLogs(dir);
    engine.reset();
    if (!warmup && round + 1 >= kMinRounds && NowNs() >= deadline) {
      break;
    }
  }
  report.attempted += trickle.writes;
  for (uint64_t f = 0; f < trickle.failures; ++f) {
    report.Fail("trickle write or freshness probe");
  }
  const double rss_peak = rss.has_value() ? rss->PeakMb() : rss_base;
  if (opts.trace && !opts.spans_path.empty() && !tracer.Write(opts.spans_path)) {
    report.Fail("cannot write " + opts.spans_path);
  }

  report.Info("rounds", static_cast<double>(round_rps.size()));
  report.Info("round_rps", ListOf(round_rps));
  report.Info("round_cpu_ns_per_record", ListOf(round_cpu));
  report.Info("records_per_round", n_records);
  report.Info("verification_queries", static_cast<double>(queries));
  if (!opts.trace) {
    report.Metric("setup_s", Median(setup_s), "s");
    // The best round, for the reason slices exist (SlicedSamples).
    report.Metric("ingest_rps", Max(round_rps), "records/s");
    report.Metric("ingest_cpu_ns_per_record", Min(round_cpu), "ns/record");
    report.Metric("bytes_stored_per_payload_byte", Median(bytes_ratio), "ratio");
    AddQueryLatencyMetrics(qstats, &report);
    AddTrickleMetrics(trickle, &report);
    report.Metric("engine_rss_mb", rss_peak - rss_base, "MiB");
  } else {
    AddBypassedDaemonMetrics(&report);
    // Every verification query reads through the log.
    AddEngineLayerMetrics(layer, static_cast<double>(queries), &report);
    AddQueryLayerMetrics(qstats, &report);
    // No open-loop sender: the trickle is a closed loop.
    report.Metric("workload.sender_late_ms_max", 0.0, "ms");
    report.Metric("setup.open_ms", Median(open_ms), "ms");
    report.Metric("tracing.overhead_fraction",
                  Median(traced_round_ns) / Median(untraced_round_ns) - 1.0, "fraction");
  }
  report.Print();
  return report.correct ? 0 : 1;
}

}  // namespace perfbench
