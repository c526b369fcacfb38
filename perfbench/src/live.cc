// `live`: reads beside writes on the deployed path.
//
// One TCP connection streams the Redis phase-3 mix (app, syscall and packet
// records) through IngestClient -> IngestServer -> MonitoringDaemon -> engine
// as an open loop at a fixed 1 M records/s, flushing every 1 ms send tick.
// Beside it one query client runs a closed-loop dashboard over the newest
// window, sized so its summaries fit the default cache, and a prober measures
// freshness every half millisecond: each app record carries its due send time
// in AppRecord::reserved, and the prober reads it from the newest visible app
// record. Three load threads and one connection compete with sealing and
// flushing for the machine's cores. At 2 M records/s the daemon's slower
// handoff mode fell behind on a 4-vCPU machine and freshness measured a
// growing backlog (README.md, "Noise"); 1 M records/s keeps every sub-run
// ahead of the stream.
//
// A run is kSubRuns sub-runs, each on a fresh deployment, and reports its best
// slice across them (SlicedSamples), a slice being one second of a sub-run.
// How the daemon's handoff settles is fixed for a deployment's lifetime
// (README.md, "Noise"); several deployments per run average over it, and
// with whole sub-runs as slices the query latencies spread more (a best of
// six deployments instead of eighteen seconds).

#include <cstring>
#include <optional>

#include "perfbench/src/harness.h"
#include "src/daemon/monitoring_daemon.h"
#include "src/net/ingest_server.h"

namespace perfbench {
namespace {

// The phase-3 part of a stream at this scale is ~0.7 M records, sent in a loop.
constexpr double kMixScale = 0.01;
constexpr uint64_t kRecordsPerSecond = 1'000'000;
constexpr uint64_t kTickNs = 1'000'000;
constexpr uint64_t kPerTick = kRecordsPerSecond * kTickNs / 1'000'000'000;
constexpr uint64_t kNsPerRecord = 1'000'000'000 / kRecordsPerSecond;
// 1 s of the stream is ~2 k chunks; 5 s (~9 k chunks) overflowed the cache.
constexpr uint64_t kWindowNs = 1'000'000'000;
constexpr uint64_t kDumpWindowNs = 100'000'000;
// The dashboard starts once the stream has produced this much data. Its
// latencies count, and the prober starts, once the stream has filled a whole
// window: over a window still filling, queries read less and run up to twice
// as fast, so the best slice would always be one of those.
constexpr uint64_t kWarmupNs = 200'000'000;
// 2 kHz probing gives every 1 s slice its p99 from 2000 probes; short slices
// let a run find the stretches in which the machine is quiet.
constexpr uint64_t kProbePeriodNs = 500'000;
constexpr int kSubRuns = 6;
constexpr uint64_t kSliceNs = 1'000'000'000;

struct Deployment {
  std::unique_ptr<loom::MonitoringDaemon> daemon;
  std::unique_ptr<loom::IngestServer> server;
  std::unique_ptr<loom::IngestClient> client;
  Indexes idx;
};

loom::Status Deploy(const std::string& dir, Deployment* d, double* open_ms) {
  loom::DaemonOptions opts;
  opts.loom.dir = dir;
  const uint64_t t0 = NowNs();
  auto daemon = loom::MonitoringDaemon::Start(opts);
  if (!daemon.ok()) {
    return daemon.status();
  }
  *open_ms = static_cast<double>(NowNs() - t0) / 1e6;
  d->daemon = std::move(daemon.value());
  auto server = loom::IngestServer::Start(d->daemon.get(), 0);
  if (!server.ok()) {
    return server.status();
  }
  d->server = std::move(server.value());
  for (uint32_t src : {loom::kAppSource, loom::kSyscallSource, loom::kPacketSource}) {
    auto channel = d->daemon->AddSource(src);
    if (!channel.ok()) {
      return channel.status();
    }
    d->server->BindSource(src, channel.value());
  }
  uint32_t* ids[4] = {&d->idx.app_latency, &d->idx.syscall_latency, &d->idx.sendto_latency,
                      &d->idx.packet_dport};
  std::vector<IndexDef> defs = RedisIndexDefs();
  for (size_t i = 0; i < defs.size(); ++i) {
    auto id = d->daemon->AddIndex(defs[i].source, defs[i].func, defs[i].spec);
    if (!id.ok()) {
      return id.status();
    }
    *ids[i] = id.value();
  }
  auto client = loom::IngestClient::Connect("127.0.0.1", d->server->port());
  if (!client.ok()) {
    return client.status();
  }
  d->client = std::move(client.value());
  return loom::Status::Ok();
}

void Teardown(const std::string& dir, Deployment* d) {
  d->client.reset();
  d->server.reset();
  DiscardLogs(dir);
  d->daemon.reset();
}

// The i-th dashboard question, over the newest window ending at `now`.
Query DashboardQuery(uint64_t i, TimestampNanos now) {
  Query q = RotatingQuery(i);
  const uint64_t len = q.kind == QueryKind::kPacketDump ? kDumpWindowNs : kWindowNs;
  q.window = {now - std::min(now, len), now};
  return q;
}

// What the sub-runs add up to.
struct LiveTotals {
  std::vector<double> setup_s, open_ms, rss_mb, lag, cpu_per_record;
  SlicedSamples freshness_ms;
  ClassStats qstats;
  LayerTotals layer;
  double duration_s = 0, system_cpu_ns = 0;
  double batch_sum = 0, batch_count = 0, publish_retries = 0;
  uint64_t sent = 0, sent_bytes = 0, ingested_at_end = 0, stored_bytes = 0;
  uint64_t send_ns = 0, late_max_ns = 0, rejected = 0, queries = 0, probes = 0;
};

// One sub-run: set-up (generate the mix, deploy), the timed phase, the
// correctness checks, teardown. Failures go to `report`.
void SubRun(const RunOptions& opts, int n, Tracer* tracer, LiveTotals* total, Report* report) {
  Tracer* t = opts.trace ? tracer : nullptr;
  const std::string dir = opts.data_dir + "/live-" + std::to_string(n);

  // --- Set-up: the phase-3 mix and a deployed daemon with one connection. ---
  const uint64_t t0 = NowNs();
  const Stream mix = BuildRedisStream(opts.seed, kMixScale);
  size_t mix_first = 0;
  for (const Stream::Batch& b : mix.batches) {
    if (b.ts >= mix.phase_start[3]) {
      mix_first = b.first;
      break;
    }
  }
  const size_t mix_n = mix.size() - mix_first;
  auto mix_index = [&](uint64_t i) { return mix_first + static_cast<size_t>(i % mix_n); };
  const double rss_base = TrimmedRssMb();
  Deployment d;
  double open_ms = 0;
  const loom::Status deployed = Deploy(dir, &d, &open_ms);
  if (!deployed.ok()) {
    report->Fail("deploy: " + deployed.ToString());
    if (d.daemon != nullptr) {
      Teardown(dir, &d);
    }
    return;
  }
  total->open_ms.push_back(open_ms);
  total->setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  loom::Loom* engine = d.daemon->engine();
  if (n == 0) {
    AddEngineInfo(*engine, report);
  }

  // --- Timed phase. ------------------------------------------------------------------
  RssSampler rss;
  const EngineSample before = SampleEngine(*engine);
  std::optional<GaugeMaxSampler> depth;
  if (opts.trace) {
    depth.emplace(engine, "loom_ingest_seal_shard_queue_depth_max");
  }
  const uint64_t cpu0 = ProcessCpuNs();
  const uint64_t t_start = NowNs() + kTickNs;
  const uint64_t t_end = t_start + static_cast<uint64_t>(opts.seconds / kSubRuns * 1e9);
  // Queries start once the stream has warmed the deployment up; their
  // latencies count, and probes start, once it has filled a window.
  const uint64_t t_dashboard = t_start + std::min(kWarmupNs, (t_end - t_start) / 8);
  const uint64_t t_measure = t_start + std::min(kWindowNs, (t_end - t_start) / 4);
  // Sub-runs number their slices apart: n times the most one can hold.
  const uint32_t first_slice = static_cast<uint32_t>(n * ((t_end - t_start) / kSliceNs + 1));
  const SliceClock slices{t_measure, kSliceNs, first_slice};
  std::atomic<bool> stop_queries{false};

  // Sender: at each tick, every record due by then, then one Flush.
  uint64_t sent = 0, sent_bytes = 0, send_ns = 0, late_max_ns = 0, sender_cpu = 0;
  uint64_t send_failures = 0, mangled_sent = 0, ingested_at_end = 0;
  uint64_t sent_by_source[4] = {};
  std::thread sender([&] {
    loom::AppRecord app;
    for (uint64_t k = 1;; ++k) {
      const uint64_t tick = t_start + k * kTickNs;
      if (tick > t_end) {
        break;
      }
      SleepUntilNs(tick);
      const uint64_t s0 = NowNs();
      late_max_ns = std::max(late_max_ns, s0 - std::min(s0, tick));
      {
        Tracer::Span span(t, "net.SendTick", k);
        for (uint64_t i = (k - 1) * kPerTick; i < k * kPerTick; ++i) {
          const size_t r = mix_index(i);
          const uint32_t src = mix.source[r];
          std::span<const uint8_t> payload = mix.payloads[r];
          if (src == loom::kAppSource) {
            std::memcpy(&app, payload.data(), sizeof(app));
            app.reserved = t_start + i * kNsPerRecord;  // due send time
            payload = std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(&app), sizeof(app));
          } else if (src == loom::kPacketSource && loom::PacketDport(payload) == loom::kMangledPort) {
            ++mangled_sent;
          }
          if (!d.client->Send(src, payload).ok()) {
            ++send_failures;
          }
          ++sent_by_source[src];
          sent_bytes += payload.size();
        }
        if (!d.client->Flush().ok()) {
          ++send_failures;
        }
      }
      sent = k * kPerTick;
      send_ns += NowNs() - s0;
      total->lag.push_back(static_cast<double>(sent) -
                           static_cast<double>(d.daemon->records_ingested()));
    }
    ingested_at_end = d.daemon->records_ingested();
    sender_cpu = ThreadCpuNs();
  });

  ClassStats& qstats = total->qstats;
  uint64_t queries = 0, query_cpu = 0, query_failures = 0;
  std::thread dashboard([&] {
    SleepUntilNs(t_dashboard);
    while (!stop_queries.load(std::memory_order_relaxed)) {
      const Query q = DashboardQuery(queries, engine->Now());
      const uint64_t id = total->queries + queries;
      const bool traced = opts.trace && id % 2 == 0;
      const bool measured = NowNs() >= t_measure;
      const QueryOutcome out = RunQuery(*engine, d.idx, q, traced, tracer, id);
      if (measured) {
        qstats.Add(q.kind, out, traced, slices.At(NowNs()));
      }
      if (!out.ok || !out.invariant_ok) {
        ++query_failures;
      }
      ++queries;
    }
    query_cpu = ThreadCpuNs();
  });
  SleepUntilNs(t_measure);
  Prober prober(engine, kProbePeriodNs, opts.seed * 7919 + 3 + static_cast<uint64_t>(n),
                slices, opts.trace, tracer);

  sender.join();
  stop_queries.store(true);
  dashboard.join();
  prober.Stop();

  // Drain: everything sent must be stored.
  const uint64_t drain_deadline = NowNs() + 30'000'000'000ULL;
  while (d.daemon->records_ingested() < sent && NowNs() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  d.daemon->Flush();
  const uint64_t cpu1 = ProcessCpuNs();
  const uint64_t stored = d.daemon->records_ingested();
  const double load_cpu = static_cast<double>(sender_cpu + query_cpu + prober.cpu_ns);

  // --- Correctness: losses counted from outside, then per-source counts. ---
  report->attempted += queries + prober.probes + sent;
  for (uint64_t f = 0; f < query_failures + prober.failures + send_failures; ++f) {
    report->Fail("live query, probe or send");
  }
  const loom::IngestServerStats net = d.server->stats();
  if (stored < sent || net.rejected > 0) {
    report->failed += sent - std::min(sent, stored) + net.rejected;
    report->correct = false;
    std::fprintf(stderr, "perfbench: FAILED: %llu records sent but not stored, %llu rejected\n",
                 static_cast<unsigned long long>(sent - std::min(sent, stored)),
                 static_cast<unsigned long long>(net.rejected));
  }
  const loom::TimeRange all{0, std::numeric_limits<TimestampNanos>::max()};
  for (uint32_t src : {loom::kAppSource, loom::kSyscallSource, loom::kPacketSource}) {
    const QueryOutcome out =
        RunQuery(*engine, d.idx, Query{QueryKind::kCountSource, src, all}, false, nullptr, 0);
    ++report->attempted;
    if (!out.ok || out.count != sent_by_source[src]) {
      report->Fail("records sent differ from CountRecords for source " + std::to_string(src));
    }
  }
  {
    const QueryOutcome out = RunQuery(
        *engine, d.idx, Query{QueryKind::kMangledPackets, loom::kPacketSource, all}, false, nullptr, 0);
    ++report->attempted;
    if (!out.ok || out.count != mangled_sent) {
      report->Fail("mangled packets sent differ from those found");
    }
  }

  const EngineSample after = SampleEngine(*engine);
  const loom::HistogramSnapshot b0 = HistOrEmpty(before.metrics, "loom_daemon_batch_records");
  const loom::HistogramSnapshot b1 = HistOrEmpty(after.metrics, "loom_daemon_batch_records");
  auto delta = [&](const char* name) {
    return CounterOr0(after.metrics, name) - CounterOr0(before.metrics, name);
  };
  total->rss_mb.push_back(rss.PeakMb() - rss_base);
  total->freshness_ms.Merge(prober.freshness_ms);
  total->duration_s += static_cast<double>(t_end - t_start) / 1e9;
  total->system_cpu_ns += static_cast<double>(cpu1 - cpu0) - load_cpu;
  total->cpu_per_record.push_back((static_cast<double>(cpu1 - cpu0) - load_cpu) /
                                  static_cast<double>(std::max<uint64_t>(sent, 1)));
  total->batch_sum += b1.sum - b0.sum;
  total->batch_count += static_cast<double>(b1.count - b0.count);
  total->publish_retries +=
      delta("loom_daemon_offered_records_total") - delta("loom_daemon_accepted_records_total");
  total->sent += sent;
  total->sent_bytes += sent_bytes;
  total->ingested_at_end += ingested_at_end;
  total->stored_bytes += StoredBytes(after.stats);
  total->send_ns += send_ns;
  total->late_max_ns = std::max(total->late_max_ns, late_max_ns);
  total->rejected += net.rejected;
  total->queries += queries;
  total->probes += prober.probes;
  if (opts.trace) {
    total->layer.AddDelta(before, after);
    total->layer.seal_depth_max = std::max(total->layer.seal_depth_max, depth->Stop());
  }
  Teardown(dir, &d);
}

}  // namespace

int RunLive(const RunOptions& opts) {
  Report report;
  Tracer tracer(opts.trace);
  LiveTotals total;
  for (int n = 0; n < kSubRuns; ++n) {
    SubRun(opts, n, &tracer, &total, &report);
  }
  if (total.setup_s.empty()) {
    report.Print();
    return 1;
  }

  const double sent = static_cast<double>(std::max<uint64_t>(total.sent, 1));
  const double system_cpu_per_record = total.system_cpu_ns / sent;
  const double batch_mean = total.batch_sum / std::max(total.batch_count, 1.0);
  report.Info("sub_runs", static_cast<double>(total.setup_s.size()));
  report.Info("records_sent", static_cast<double>(total.sent));
  report.Info("queries", static_cast<double>(total.queries));
  report.Info("freshness_probes", static_cast<double>(total.probes));
  report.Info("rejected", static_cast<double>(total.rejected));
  report.Info("daemon_batch_records_mean", batch_mean);
  report.Info("sub_run_cpu_ns_per_record", ListOf(total.cpu_per_record));

  if (!opts.trace) {
    report.Metric("setup_s", Median(total.setup_s), "s");
    report.Metric("ingest_rps", static_cast<double>(total.ingested_at_end) / total.duration_s,
                  "records/s");
    // The best sub-run, for the reason slices exist (SlicedSamples).
    report.Metric("ingest_cpu_ns_per_record", Min(total.cpu_per_record), "ns/record");
    report.Metric("bytes_stored_per_payload_byte",
                  static_cast<double>(total.stored_bytes) /
                      static_cast<double>(std::max<uint64_t>(total.sent_bytes, 1)),
                  "ratio");
    AddQueryLatencyMetrics(total.qstats, &report);
    AddFreshnessMetrics(total.freshness_ms, &report);
    report.Metric("engine_rss_mb", Median(total.rss_mb), "MiB");
  } else {
    report.Metric("net.send_ns_per_record", static_cast<double>(total.send_ns) / sent,
                  "ns/record");
    report.Metric("net.rejected", static_cast<double>(total.rejected), "count");
    report.Metric("daemon.lag_records_p99", Percentile(total.lag, 99.0), "records");
    report.Metric("daemon.batch_records_mean", batch_mean, "records");
    report.Metric("daemon.publish_retries", total.publish_retries, "count");
    report.Metric("daemon.cpu_ns_per_record", system_cpu_per_record, "ns/record");
    AddEngineLayerMetrics(total.layer, static_cast<double>(total.queries + total.probes), &report);
    AddQueryLayerMetrics(total.qstats, &report);
    report.Metric("workload.sender_late_ms_max", static_cast<double>(total.late_max_ns) / 1e6,
                  "ms");
    report.Metric("setup.open_ms", Median(total.open_ms), "ms");
    report.Metric("tracing.overhead_fraction", QueryTracingOverhead(total.qstats), "fraction");
    if (!opts.spans_path.empty() && !tracer.Write(opts.spans_path)) {
      report.Fail("cannot write " + opts.spans_path);
    }
  }
  report.Print();
  return report.correct ? 0 : 1;
}

}  // namespace perfbench
