// Micro: the full write path vs the pre-staging baseline, plus the
// group-commit durability tax.
//
// The baseline configuration reproduces the original engine's write path:
// index values are classified one record at a time with the scalar BinOf
// path. The full configuration turns on batched SIMD summary classification,
// so the two differ only in summary staging. Both seal each chunk on the
// ingest thread, and in both the record-log flusher writes each full block
// with one pwrite. The workload is multi-source (8 interleaved sources, the
// daemon's shape). The final rows repeat the full configuration under
// group-commit and every-block durability to price the fdatasync policies.
// Every configuration must produce bit-identical query results (checksummed
// below); only throughput may move.
//
// Gate (enforced only when the host has >= 4 hardware threads — ingest and
// the flusher issuing fdatasync need real cores to overlap):
//   * sync_policy=group within 10% of the same config with sync_policy=none.
// All throughput includes the Sync() of every source.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/benchutil/bench_json.h"
#include "src/benchutil/table.h"
#include "src/common/file.h"
#include "src/common/rng.h"
#include "src/core/loom.h"

namespace loom {
namespace {

constexpr size_t kRecordSize = 64;      // 2 indexed doubles + opaque tail
constexpr uint64_t kRecords = 600'000;  // ~37 MiB per configuration
constexpr size_t kBatch = 128;          // daemon-sized PushBatch spans
constexpr uint32_t kSources = 8;        // interleaved telemetry sources
constexpr double kGateGroup = 0.9;      // group commit vs no-sync floor

// One ingest configuration of the sweep.
struct Config {
  const char* name;
  size_t stage_records;
  SyncPolicy sync;
};

// Fingerprint of the full query surface over one ingested engine: per-source
// count/sum/min/max plus the raw histogram bins, and the planner trace
// invariant. Two engines that ingested the same stream must compare equal.
struct Fingerprint {
  std::vector<double> aggregates;
  std::vector<uint64_t> bins;
  bool trace_ok = true;

  bool operator==(const Fingerprint& other) const {
    if (aggregates.size() != other.aggregates.size() || bins != other.bins) {
      return false;
    }
    for (size_t i = 0; i < aggregates.size(); ++i) {
      // Bit comparison, not epsilon: the write-path knobs claim bit-identity.
      if (std::memcmp(&aggregates[i], &other.aggregates[i], sizeof(double)) != 0) {
        return false;
      }
    }
    return true;
  }
};

struct RunResult {
  double records_per_second = 0;
  double mib_per_second = 0;
  double seconds = 0;
  Fingerprint fp;
  MetricsSnapshot metrics;
  bool ok = false;
};

// Deterministic value stream: record i carries 2 doubles in [0, 1000) with
// different phases so the two indexes land in different bins.
void FillPayload(uint64_t i, std::vector<uint8_t>* payload) {
  for (int f = 0; f < 2; ++f) {
    const double v =
        static_cast<double>((i * (37 + 11 * static_cast<uint64_t>(f)) + 13 * f) % 1000) + 0.25;
    std::memcpy(payload->data() + 8 * f, &v, sizeof(v));
  }
}

double FieldOf(std::span<const uint8_t> p, int f) {
  double v;
  std::memcpy(&v, p.data() + 8 * f, sizeof(v));
  return v;
}

RunResult RunConfig(const std::string& dir, const Config& cfg, uint64_t seed) {
  RunResult out;
  LoomOptions opts;
  opts.dir = dir;
  opts.chunk_size = 32 << 10;  // many seals -> finalize traffic dominates
  opts.record_block_size = 1 << 20;
  opts.enable_latency_metrics = false;
  opts.summary_stage_records = cfg.stage_records;
  opts.sync_policy = cfg.sync;
  auto engine = Loom::Open(opts);
  if (!engine.ok()) {
    fprintf(stderr, "loom open failed: %s\n", engine.status().ToString().c_str());
    return out;
  }
  Loom& loom = **engine;
  auto spec = HistogramSpec::Uniform(0, 1000, 128).value();
  std::vector<std::vector<uint32_t>> indexes(kSources + 1);
  for (uint32_t s = 1; s <= kSources; ++s) {
    (void)loom.DefineSource(s);
    for (int f = 0; f < 2; ++f) {
      indexes[s].push_back(
          loom.DefineIndex(s, [f](std::span<const uint8_t> p) { return FieldOf(p, f); }, spec)
              .value());
    }
  }

  // Pre-fill the batch payload buffers; the ingest loop rewrites only the
  // two indexed doubles per record so generation cost stays negligible.
  std::vector<std::vector<uint8_t>> payloads(kBatch);
  Rng rng(seed);
  for (auto& p : payloads) {
    p.resize(kRecordSize);
    for (size_t b = 16; b < kRecordSize; ++b) {
      p[b] = static_cast<uint8_t>(rng.Next64());
    }
  }
  std::vector<std::span<const uint8_t>> batch(kBatch);
  for (size_t j = 0; j < kBatch; ++j) {
    batch[j] = std::span<const uint8_t>(payloads[j]);
  }

  // Multi-source interleave at batch granularity: batch b goes to source
  // (b % kSources) + 1, the daemon's round-robin drain shape.
  WallTimer timer;
  uint64_t pushed = 0;
  uint64_t batch_idx = 0;
  while (pushed < kRecords) {
    const size_t n = static_cast<size_t>(std::min<uint64_t>(kRecords - pushed, kBatch));
    for (size_t j = 0; j < n; ++j) {
      FillPayload(pushed + j, &payloads[j]);
    }
    const uint32_t source = static_cast<uint32_t>(batch_idx++ % kSources) + 1;
    (void)loom.PushBatch(source, std::span<const std::span<const uint8_t>>(batch.data(), n));
    pushed += n;
  }
  // Sustained throughput includes the Sync of every source.
  for (uint32_t s = 1; s <= kSources; ++s) {
    (void)loom.Sync(s);
  }
  out.seconds = timer.Seconds();
  out.records_per_second = static_cast<double>(kRecords) / out.seconds;
  out.mib_per_second =
      static_cast<double>(kRecords * kRecordSize) / out.seconds / (1 << 20);

  for (uint32_t s = 1; s <= kSources; ++s) {
    for (uint32_t idx : indexes[s]) {
      for (auto method : {AggregateMethod::kCount, AggregateMethod::kSum, AggregateMethod::kMin,
                          AggregateMethod::kMax}) {
        QueryTrace trace;
        auto r = loom.IndexedAggregate(s, idx, {0, ~0ULL}, method, 0.0, &trace);
        if (!r.ok()) {
          fprintf(stderr, "aggregate failed: %s\n", r.status().ToString().c_str());
          return out;
        }
        out.fp.aggregates.push_back(r.value());
        if (trace.chunks_pruned + trace.chunks_scanned != trace.chunks_considered) {
          out.fp.trace_ok = false;
        }
      }
      auto h = loom.IndexedHistogram(s, idx, {0, ~0ULL});
      if (!h.ok()) {
        fprintf(stderr, "histogram failed: %s\n", h.status().ToString().c_str());
        return out;
      }
      out.fp.bins.insert(out.fp.bins.end(), h.value().begin(), h.value().end());
    }
  }
  out.metrics = loom.metrics()->Snapshot();
  out.ok = true;
  return out;
}

}  // namespace
}  // namespace loom

int main(int argc, char** argv) {
  using namespace loom;
  PrintBanner("Ingest pipeline micro",
              "Baseline write path vs the full write path and its durability policies, on an "
              "8-source interleaved workload",
              "group commit within 10% of no-sync; bit-identical query results throughout");

  const uint64_t seed = ParseBenchSeed(argc, argv, 1);
  const unsigned hw = std::thread::hardware_concurrency();
  // Baseline first: scalar per-record BinOf, no fdatasync until Close.
  const Config configs[] = {
      {"baseline", 0, SyncPolicy::kNone},
      {"full", 256, SyncPolicy::kNone},
      {"full-group", 256, SyncPolicy::kGroup},
      {"full-everyblk", 256, SyncPolicy::kEveryBlock},
  };

  TempDir dir;
  TablePrinter table({"config", "sync", "records/s", "MiB/s", "vs baseline", "identical"});
  JsonWriter json;
  json.Field("seed", seed);
  json.Field("hardware_threads", static_cast<uint64_t>(hw));
  json.Field("records", kRecords);
  json.Field("record_size", static_cast<uint64_t>(kRecordSize));
  json.Field("sources", static_cast<uint64_t>(kSources));

  RunResult baseline;
  double full_rate = 0, group_rate = 0;
  MetricsSnapshot full_metrics;
  bool all_identical = true;
  bool all_trace_ok = true;
  bool all_ran = true;
  int cell = 0;
  for (const Config& cfg : configs) {
    RunResult r = RunConfig(dir.FilePath("cfg" + std::to_string(cell++)), cfg, seed);
    all_ran = all_ran && r.ok;
    const bool is_baseline = &cfg == &configs[0];
    const double speedup = is_baseline || baseline.records_per_second <= 0
                               ? 1.0
                               : r.records_per_second / baseline.records_per_second;
    const bool identical = is_baseline || (r.ok && r.fp == baseline.fp);
    all_identical = all_identical && identical;
    all_trace_ok = all_trace_ok && r.fp.trace_ok;
    if (std::strcmp(cfg.name, "full") == 0) {
      full_rate = r.records_per_second;
      full_metrics = r.metrics;
    } else if (std::strcmp(cfg.name, "full-group") == 0) {
      group_rate = r.records_per_second;
    }
    table.AddRow({cfg.name, SyncPolicyName(cfg.sync), FormatRate(r.records_per_second),
                  FormatDouble(r.mib_per_second, 1), FormatDouble(speedup, 2) + "x",
                  is_baseline ? "-" : (identical ? "yes" : "NO")});
    json.BeginObject(cfg.name);
    json.Field("sync_policy", std::string(SyncPolicyName(cfg.sync)));
    json.Field("records_per_second", r.records_per_second);
    json.Field("mib_per_second", r.mib_per_second);
    json.Field("speedup_vs_baseline", speedup);
    json.Field("results_identical", identical);
    json.Field("trace_invariant_ok", r.fp.trace_ok);
    json.EndObject();
    if (is_baseline) {
      baseline = std::move(r);
    }
  }
  table.Print();

  const bool gate_applicable = hw >= 4;
  const bool gate_group = full_rate > 0 && group_rate >= kGateGroup * full_rate;
  printf("\nFull write path: %.2fx baseline\n",
         baseline.records_per_second > 0 ? full_rate / baseline.records_per_second : 0);
  printf("Group commit: %.1f%% of full no-sync (gate %.0f%% %s; %u hardware threads)\n",
         full_rate > 0 ? 100 * group_rate / full_rate : 0, 100 * kGateGroup,
         gate_applicable ? (gate_group ? "met" : "MISSED") : "not enforced", hw);
  printf("Query results %s across all configurations; trace invariant %s.\n",
         all_identical ? "bit-identical" : "DIVERGED",
         all_trace_ok ? "held" : "VIOLATED");

  json.Field("full_speedup_vs_baseline",
             baseline.records_per_second > 0 ? full_rate / baseline.records_per_second : 0);
  json.Field("group_commit_fraction_of_none", full_rate > 0 ? group_rate / full_rate : 0);
  json.Field("gate_applicable", gate_applicable);
  json.Field("gate_group_met", gate_group);
  json.Field("all_results_identical", all_identical);
  json.Field("all_trace_invariants_ok", all_trace_ok);
  // Self-telemetry of the full engine: finalize latency, flush queue depth,
  // writer stalls, and the group-commit counters.
  json.MetricsSection("metrics", full_metrics);
  (void)json.WriteFile("BENCH_ingest_pipeline.json");

  const bool ok = all_ran && all_identical && all_trace_ok && (gate_group || !gate_applicable);
  printf("%s\n", ok ? "OK" : "BELOW TARGET");
  return ok ? 0 : 1;
}
