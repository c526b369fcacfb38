// Micro-benchmark for the morsel-driven parallel query executor.
//
// One deterministic dataset (seedable via --seed) is ingested into engines
// that differ only in LoomOptions::query_threads. The summary cache is
// disabled so every pass is cold: each candidate chunk pays the full summary
// read + decode, which is exactly the per-candidate work the executor fans
// out across pool workers. The same wide-range queries then run against every
// configuration:
//
//   aggregate   IndexedAggregate(kMean) over the whole timeline (the gated
//               query: summary-dominated, embarrassingly parallel)
//   histogram   IndexedHistogram over the whole timeline
//   p99         IndexedAggregate(kPercentile, 99) (adds the stage-2 bin scan)
//
// Expectation: with >= 4 hardware threads, 4 query threads run the cold
// aggregate >= 2.5x faster than the serial executor, and every configuration
// returns bit-identical results. On smaller machines the speedup gate is
// reported but not enforced (gate_applicable = false) — a 1-core container
// cannot demonstrate parallel speedup, only correctness and overhead.
//
// Two further sections cover the per-chunk kernel layer:
//
//   cold sweep  disk-resident scan-heavy queries (summary cache disabled, a
//               value scan that decodes every chunk plus the p99 stage-2
//               rescan) at 4 threads, comparing scalar kernels against the
//               auto-dispatched vector kernels. Gate: >= 1.5x on the scan
//               when hw >= 4, with the bit-identical checksum and the
//               pruned + scanned == considered trace invariant under BOTH
//               dispatches.
//   kernels     raw MB/s of decode_records / classify_bins /
//               filter_source_time, scalar vs the auto-dispatched
//               implementation on this machine.
//
// Results are written to BENCH_parallel_query.json.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/benchutil/bench_json.h"
#include "src/benchutil/table.h"
#include "src/common/file.h"
#include "src/common/rng.h"
#include "src/core/kernels/kernels.h"
#include "src/core/loom.h"
#include "src/core/record_format.h"
#include "src/workload/records.h"

namespace loom {
namespace {

constexpr uint64_t kTotalRecords = 400000;
constexpr int kRepeats = 5;
constexpr double kGateSpeedup = 2.5;
constexpr int kColdRepeats = 3;
constexpr double kColdGateSpeedup = 1.5;  // vector vs scalar kernels, cold scan at 4T

struct Dataset {
  std::vector<SyscallRecord> records;
  std::vector<TimestampNanos> stamps;
};

Dataset MakeDataset(uint64_t seed) {
  Dataset d;
  Rng rng(seed);
  TimestampNanos ts = 1;
  for (uint64_t i = 0; i < kTotalRecords; ++i) {
    SyscallRecord rec;
    rec.seq = i;
    rec.tid = 100 + rng.NextBounded(8);
    rec.syscall_id = kSyscallPread64;
    rec.latency_us = rng.NextLogNormal(40.0, 0.9);
    d.records.push_back(rec);
    d.stamps.push_back(ts);
    ts += 2500;  // 400k records/s of virtual time
  }
  return d;
}

struct Engine {
  std::unique_ptr<ManualClock> clock;
  std::unique_ptr<Loom> loom;
  uint32_t index_id = 0;
};

Engine BuildEngine(const std::string& dir, const Dataset& data, size_t query_threads,
                   SimdMode simd_mode = SimdMode::kAuto) {
  Engine e;
  e.clock = std::make_unique<ManualClock>(1);
  LoomOptions opts;
  opts.dir = dir;
  opts.clock = e.clock.get();
  opts.chunk_size = 16 << 10;  // small chunks -> many morsels per query
  opts.record_block_size = 1 << 20;
  opts.summary_cache_bytes = 0;  // every pass cold: workers pay the decode
  opts.query_threads = query_threads;
  opts.simd_mode = simd_mode;
  auto l = Loom::Open(opts);
  e.loom = std::move(*l);
  (void)e.loom->DefineSource(kSyscallSource);
  auto hist = HistogramSpec::Exponential(1.0, 2.0, 24).value();
  e.index_id = e.loom
                   ->DefineIndex(kSyscallSource,
                                 [](std::span<const uint8_t> p) {
                                   return SyscallLatencyFor(kSyscallPread64, p);
                                 },
                                 hist)
                   .value();
  for (size_t i = 0; i < data.records.size(); ++i) {
    e.clock->SetNanos(data.stamps[i]);
    std::span<const uint8_t> payload(reinterpret_cast<const uint8_t*>(&data.records[i]),
                                     sizeof(SyscallRecord));
    (void)e.loom->Push(kSyscallSource, payload);
  }
  return e;
}

struct PassResult {
  double aggregate_seconds = 0.0;  // the gated query, min over repeats
  double histogram_seconds = 0.0;
  double p99_seconds = 0.0;
  double checksum = 0.0;  // folds every query result; must match across configs
};

PassResult RunQueries(const Engine& e, const TimeRange& range) {
  PassResult r;
  r.aggregate_seconds = 1e30;
  r.histogram_seconds = 1e30;
  r.p99_seconds = 1e30;
  for (int rep = 0; rep < kRepeats; ++rep) {
    double checksum = 0.0;
    {
      WallTimer t;
      checksum += e.loom->IndexedAggregate(kSyscallSource, e.index_id, range,
                                           AggregateMethod::kMean)
                      .value_or(0);
      checksum += e.loom->IndexedAggregate(kSyscallSource, e.index_id, range,
                                           AggregateMethod::kSum)
                      .value_or(0);
      r.aggregate_seconds = std::min(r.aggregate_seconds, t.Seconds());
    }
    {
      WallTimer t;
      auto bins = e.loom->IndexedHistogram(kSyscallSource, e.index_id, range);
      if (bins.ok()) {
        for (size_t b = 0; b < bins.value().size(); ++b) {
          checksum += static_cast<double>(bins.value()[b]) * static_cast<double>(b + 1);
        }
      }
      r.histogram_seconds = std::min(r.histogram_seconds, t.Seconds());
    }
    {
      WallTimer t;
      checksum += e.loom->IndexedAggregate(kSyscallSource, e.index_id, range,
                                           AggregateMethod::kPercentile, 99.0)
                      .value_or(0);
      r.p99_seconds = std::min(r.p99_seconds, t.Seconds());
    }
    r.checksum = checksum;
  }
  return r;
}

// --- Cold-cache disk-resident sweep -----------------------------------------

struct ColdResult {
  double scan_seconds = 1e30;  // the gated query: decodes every chunk
  double p99_seconds = 1e30;   // stage-2 rescan path
  double checksum = 0.0;
  bool trace_ok = true;  // pruned + scanned == considered on every query
};

ColdResult RunColdQueries(const Engine& e, const TimeRange& range) {
  ColdResult r;
  for (int rep = 0; rep < kColdRepeats; ++rep) {
    double checksum = 0.0;
    {
      QueryTrace trace;
      WallTimer t;
      double sum = 0.0;
      uint64_t n = 0;
      (void)e.loom->IndexedScanValues(kSyscallSource, e.index_id, range, {0.0, 1e18},
                                      [&](double v, const RecordView&) {
                                        sum += v;
                                        ++n;
                                        return true;
                                      },
                                      &trace);
      r.scan_seconds = std::min(r.scan_seconds, t.Seconds());
      checksum += sum + static_cast<double>(n);
      r.trace_ok = r.trace_ok &&
                   trace.chunks_pruned + trace.chunks_scanned == trace.chunks_considered;
    }
    {
      QueryTrace trace;
      WallTimer t;
      checksum += e.loom
                      ->IndexedAggregate(kSyscallSource, e.index_id, range,
                                         AggregateMethod::kPercentile, 99.0, &trace)
                      .value_or(0);
      r.p99_seconds = std::min(r.p99_seconds, t.Seconds());
      r.trace_ok = r.trace_ok &&
                   trace.chunks_pruned + trace.chunks_scanned == trace.chunks_considered;
    }
    r.checksum = checksum;
  }
  return r;
}

// --- Kernel microbench -------------------------------------------------------

// Synthesizes one chunk-formatted buffer of 48-byte-payload records and
// reports decode throughput over it (payload bytes included in MB/s).
double DecodeMbps(const KernelOps* ops, const std::vector<uint8_t>& buf, size_t chunk_size) {
  DecodedBatch batch;
  // Warm up + calibrate: aim for ~100 ms of work.
  WallTimer cal;
  batch.Clear();
  (void)ops->decode_records(buf.data(), buf.size(), 0, chunk_size, &batch);
  const double once = std::max(1e-7, cal.Seconds());
  const int iters = std::max(1, static_cast<int>(0.1 / once));
  WallTimer t;
  for (int i = 0; i < iters; ++i) {
    batch.Clear();
    (void)ops->decode_records(buf.data(), buf.size(), 0, chunk_size, &batch);
  }
  return static_cast<double>(buf.size()) * iters / t.Seconds() / 1e6;
}

double ClassifyMbps(const KernelOps* ops, const std::vector<double>& values,
                    const HistogramSpec& spec, std::vector<uint32_t>* bins) {
  WallTimer cal;
  spec.ClassifyBatch(*ops, values.data(), values.size(), bins->data());
  const double once = std::max(1e-7, cal.Seconds());
  const int iters = std::max(1, static_cast<int>(0.1 / once));
  WallTimer t;
  for (int i = 0; i < iters; ++i) {
    spec.ClassifyBatch(*ops, values.data(), values.size(), bins->data());
  }
  return static_cast<double>(values.size() * sizeof(double)) * iters / t.Seconds() / 1e6;
}

double FilterMbps(const KernelOps* ops, const std::vector<uint32_t>& sids,
                  const std::vector<uint64_t>& ts, std::vector<uint64_t>* mask) {
  const size_t n = sids.size();
  WallTimer cal;
  ops->filter_source_time(sids.data(), ts.data(), n, 1, 1000, 1u << 30, mask->data());
  const double once = std::max(1e-7, cal.Seconds());
  const int iters = std::max(1, static_cast<int>(0.1 / once));
  WallTimer t;
  for (int i = 0; i < iters; ++i) {
    ops->filter_source_time(sids.data(), ts.data(), n, 1, 1000, 1u << 30, mask->data());
  }
  return static_cast<double>(n * (sizeof(uint32_t) + sizeof(uint64_t))) * iters / t.Seconds() /
         1e6;
}

}  // namespace
}  // namespace loom

int main(int argc, char** argv) {
  using namespace loom;
  PrintBanner("Micro", "Morsel-driven parallel query executor: speedup vs query_threads",
              "with >= 4 hardware threads, 4 query threads should run the cold wide-range "
              "aggregate >= 2.5x faster than serial, with bit-identical results everywhere");

  const uint64_t seed = ParseBenchSeed(argc, argv, 777);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  Dataset data = MakeDataset(seed);
  const TimeRange range{1, data.stamps.back() + 1};
  printf("Dataset: %s records (seed %llu), chunk size 16 KiB, %u hardware thread(s)\n\n",
         FormatCount(data.records.size()).c_str(), static_cast<unsigned long long>(seed), hw);

  const std::vector<size_t> configs = {0, 1, 2, 4, 8};
  TempDir dir;

  TablePrinter table({"query_threads", "effective", "aggregate", "histogram", "p99",
                      "agg speedup", "checksum"});
  std::vector<PassResult> results;
  std::vector<size_t> effective_threads;
  double serial_aggregate = 0.0;
  std::unique_ptr<Loom> metrics_engine;  // keep the 4-thread engine's registry
  for (size_t t : configs) {
    // Validate() clamps query_threads to 4x the hardware concurrency; report
    // the thread count the engine actually ran with.
    const size_t effective = std::min<size_t>(t, static_cast<size_t>(hw) * 4);
    Engine e = BuildEngine(dir.FilePath("t" + std::to_string(t)), data, t);
    PassResult r = RunQueries(e, range);
    if (t == 0) {
      serial_aggregate = r.aggregate_seconds;
    }
    const double speedup = serial_aggregate / std::max(1e-9, r.aggregate_seconds);
    table.AddRow({t == 0 ? "0 (serial)" : std::to_string(t), std::to_string(effective),
                  FormatSeconds(r.aggregate_seconds), FormatSeconds(r.histogram_seconds),
                  FormatSeconds(r.p99_seconds), FormatDouble(speedup, 2) + "x",
                  FormatDouble(r.checksum, 3)});
    results.push_back(r);
    effective_threads.push_back(effective);
    if (t == 4) {
      metrics_engine = std::move(e.loom);
    }
  }
  table.Print();

  bool results_match = true;
  for (const PassResult& r : results) {
    results_match = results_match && r.checksum == results[0].checksum;
  }
  double speedup_at_4 = 0.0;
  for (size_t i = 0; i < configs.size(); ++i) {
    if (configs[i] == 4) {
      speedup_at_4 = serial_aggregate / std::max(1e-9, results[i].aggregate_seconds);
    }
  }
  const bool gate_applicable = hw >= 4;
  const bool gate_met = speedup_at_4 >= kGateSpeedup;
  printf("\nResults match across configurations: %s\n", results_match ? "yes" : "NO");
  printf("Aggregate speedup at 4 threads: %.2fx (target >= %.1fx, %s on %u-core machine)\n",
         speedup_at_4, kGateSpeedup, gate_applicable ? "enforced" : "not enforced", hw);

  JsonWriter json;
  json.Field("seed", seed);
  json.Field("records", kTotalRecords);
  json.Field("chunk_size_bytes", 16 << 10);
  json.Field("repeats", kRepeats);
  json.Field("hardware_threads", static_cast<uint64_t>(hw));
  json.BeginArray("threads_requested");
  for (size_t t : configs) {
    json.ArrayValue(static_cast<double>(t));
  }
  json.EndArray();
  json.BeginArray("threads_effective");
  for (size_t t : effective_threads) {
    json.ArrayValue(static_cast<double>(t));
  }
  json.EndArray();
  json.BeginArray("aggregate_seconds");
  for (const PassResult& r : results) {
    json.ArrayValue(r.aggregate_seconds);
  }
  json.EndArray();
  json.BeginArray("histogram_seconds");
  for (const PassResult& r : results) {
    json.ArrayValue(r.histogram_seconds);
  }
  json.EndArray();
  json.BeginArray("p99_seconds");
  for (const PassResult& r : results) {
    json.ArrayValue(r.p99_seconds);
  }
  json.EndArray();
  json.BeginArray("aggregate_speedup");
  for (const PassResult& r : results) {
    json.ArrayValue(serial_aggregate / std::max(1e-9, r.aggregate_seconds));
  }
  json.EndArray();
  json.Field("speedup_at_4_threads", speedup_at_4);
  json.Field("gate_threshold", kGateSpeedup);
  json.Field("gate_applicable", gate_applicable);
  json.Field("gate_met", gate_met);
  json.Field("results_match", results_match);

  // --- Cold-cache disk-resident sweep: scalar vs auto-dispatched kernels ----
  printf("\nCold-cache disk-resident sweep (4 query threads, scan-heavy):\n");
  Engine baseline = BuildEngine(dir.FilePath("cold_base"), data, 4, SimdMode::kScalar);
  Engine tuned = BuildEngine(dir.FilePath("cold_tuned"), data, 4, SimdMode::kAuto);
  ColdResult cold_base = RunColdQueries(baseline, range);
  ColdResult cold_tuned = RunColdQueries(tuned, range);
  const double cold_speedup =
      cold_base.scan_seconds / std::max(1e-9, cold_tuned.scan_seconds);
  const double cold_p99_speedup =
      cold_base.p99_seconds / std::max(1e-9, cold_tuned.p99_seconds);
  const bool cold_match = cold_base.checksum == cold_tuned.checksum;
  const bool cold_trace_ok = cold_base.trace_ok && cold_tuned.trace_ok;
  TablePrinter cold_table({"kernels", "scan", "p99", "checksum"});
  cold_table.AddRow({"scalar", FormatSeconds(cold_base.scan_seconds),
                     FormatSeconds(cold_base.p99_seconds), FormatDouble(cold_base.checksum, 3)});
  cold_table.AddRow({SelectKernels(SimdMode::kAuto)->name, FormatSeconds(cold_tuned.scan_seconds),
                     FormatSeconds(cold_tuned.p99_seconds),
                     FormatDouble(cold_tuned.checksum, 3)});
  cold_table.Print();
  const bool cold_gate_met = cold_speedup >= kColdGateSpeedup;
  printf("Cold scan speedup: %.2fx (target >= %.1fx, %s), p99: %.2fx\n", cold_speedup,
         kColdGateSpeedup, gate_applicable ? "enforced" : "not enforced", cold_p99_speedup);
  printf("Checksums identical: %s; trace invariant under both dispatches: %s\n",
         cold_match ? "yes" : "NO", cold_trace_ok ? "yes" : "NO");

  json.Field("cold_repeats", static_cast<uint64_t>(kColdRepeats));
  json.Field("cold_baseline_scan_seconds", cold_base.scan_seconds);
  json.Field("cold_tuned_scan_seconds", cold_tuned.scan_seconds);
  json.Field("cold_baseline_p99_seconds", cold_base.p99_seconds);
  json.Field("cold_tuned_p99_seconds", cold_tuned.p99_seconds);
  json.Field("cold_scan_speedup", cold_speedup);
  json.Field("cold_p99_speedup", cold_p99_speedup);
  json.Field("cold_gate_threshold", kColdGateSpeedup);
  json.Field("cold_gate_applicable", gate_applicable);
  json.Field("cold_gate_met", cold_gate_met);
  json.Field("cold_results_match", cold_match);
  json.Field("cold_trace_invariant_ok", cold_trace_ok);

  // --- Kernel microbench: scalar vs auto-dispatched MB/s -------------------
  const KernelOps* scalar_ops = SelectKernels(SimdMode::kScalar);
  const KernelOps* auto_ops = SelectKernels(SimdMode::kAuto);
  {
    const size_t chunk_size = 16 << 10;
    const size_t num_chunks = 256;  // 4 MiB of chunk-formatted records
    std::vector<uint8_t> buf;
    buf.reserve(chunk_size * num_chunks);
    Rng rng(seed ^ 0x5eed);
    for (size_t c = 0; c < num_chunks; ++c) {
      const size_t chunk_start = buf.size();
      while (buf.size() + kRecordHeaderSize + 48 <= chunk_start + chunk_size) {
        RecordHeader h;
        h.source_id = 1;
        h.payload_len = 48;
        h.ts = 1000 + rng.NextBounded(1u << 20);
        h.prev_addr = kNullAddr;
        uint8_t head[kRecordHeaderSize];
        h.EncodeTo(head);
        buf.insert(buf.end(), head, head + kRecordHeaderSize);
        buf.resize(buf.size() + 48, static_cast<uint8_t>(c));
      }
      buf.resize(chunk_start + chunk_size, 0xFF);
    }
    const size_t n = 1 << 16;
    std::vector<double> values(n);
    std::vector<uint32_t> sids(n);
    std::vector<uint64_t> ts(n);
    for (size_t i = 0; i < n; ++i) {
      values[i] = rng.NextLogNormal(40.0, 0.9);
      sids[i] = static_cast<uint32_t>(1 + rng.NextBounded(2));
      ts[i] = rng.NextBounded(1u << 31);
    }
    std::vector<uint32_t> bins(n);
    std::vector<uint64_t> mask(MaskWords(n));
    const HistogramSpec spec = HistogramSpec::Exponential(1.0, 2.0, 24).value();

    TablePrinter ktable({"kernel", "scalar MB/s", std::string(auto_ops->name) + " MB/s"});
    const double dec_scalar = DecodeMbps(scalar_ops, buf, chunk_size);
    const double dec_auto = DecodeMbps(auto_ops, buf, chunk_size);
    const double cls_scalar = ClassifyMbps(scalar_ops, values, spec, &bins);
    const double cls_auto = ClassifyMbps(auto_ops, values, spec, &bins);
    const double flt_scalar = FilterMbps(scalar_ops, sids, ts, &mask);
    const double flt_auto = FilterMbps(auto_ops, sids, ts, &mask);
    printf("\nKernel throughput (dispatch: %s):\n", auto_ops->name);
    ktable.AddRow({"decode_records", FormatDouble(dec_scalar, 0), FormatDouble(dec_auto, 0)});
    ktable.AddRow({"classify_bins", FormatDouble(cls_scalar, 0), FormatDouble(cls_auto, 0)});
    ktable.AddRow(
        {"filter_source_time", FormatDouble(flt_scalar, 0), FormatDouble(flt_auto, 0)});
    ktable.Print();

    json.Field("kernel_dispatch", std::string(auto_ops->name));
    json.Field("decode_scalar_mbps", dec_scalar);
    json.Field("decode_simd_mbps", dec_auto);
    json.Field("classify_scalar_mbps", cls_scalar);
    json.Field("classify_simd_mbps", cls_auto);
    json.Field("filter_scalar_mbps", flt_scalar);
    json.Field("filter_simd_mbps", flt_auto);
  }

  if (metrics_engine != nullptr) {
    json.MetricsSection("metrics", metrics_engine->metrics()->Snapshot());
  }
  (void)json.WriteFile("BENCH_parallel_query.json");

  const bool ok = results_match && cold_match && cold_trace_ok &&
                  ((gate_met && cold_gate_met) || !gate_applicable);
  printf("%s\n", ok ? "OK" : "BELOW TARGET");
  return ok ? 0 : 1;
}
