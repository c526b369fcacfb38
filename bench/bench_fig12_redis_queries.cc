// Figure 12: query latencies on the Redis workload, phases 1-3.
//
// All three systems ingest the identical workload stream; the TSDB uses its
// idealized bulk-load path (the paper's "InfluxDB-idealized" with infinitely
// fast ingest), FishStore uses its PSF chains, and Loom uses its layered
// indexes. Queries per phase follow Fig. 10a:
//   P1  Slow Requests            99.99p latency, then fetch records above it
//   P2  Slow sendto Executions   99.99p sendto latency, then fetch records
//   P3  Maximum Latency Request  max application latency
//   P3  TCP Packet Dump          packets +/-5 s around the slowest request
//
// Paper expectation: Loom 1.5-10x faster than FishStore and 14-97x faster
// than InfluxDB-idealized in P1/P2; in P3 Loom wins by 2-46x (FishStore) and
// 7-11x (InfluxDB-idealized).

#include <algorithm>
#include <cmath>

#include "bench/bench_common.h"
#include "src/benchutil/table.h"
#include "src/common/file.h"

namespace loom {
namespace {

double Percentile(std::vector<double>& values, double pct) {
  if (values.empty()) {
    return 0.0;
  }
  size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * static_cast<double>(values.size())));
  rank = std::max<size_t>(1, std::min(rank, values.size()));
  std::nth_element(values.begin(), values.begin() + static_cast<long>(rank - 1), values.end());
  return values[rank - 1];
}

struct QueryResult {
  double seconds = 0.0;
  uint64_t rows = 0;
  double value = 0.0;  // aggregate result where applicable
};

template <typename Fn>
QueryResult Timed(Fn&& fn) {
  QueryResult r;
  WallTimer timer;
  fn(r);
  r.seconds = timer.Seconds();
  return r;
}

}  // namespace
}  // namespace loom

int main(int argc, char** argv) {
  using namespace loom;
  PrintBanner("Figure 12", "Redis workload query latencies (P1-P3)",
              "Loom fastest on every query; FishStore next (chains help but no time index); "
              "InfluxDB-idealized slowest on percentile-driven queries");

  RedisWorkloadConfig config;
  config.scale = 0.008;  // ~0.9M records total
  config.phase_seconds = 10.0;
  config.seed = ParseBenchSeed(argc, argv, config.seed);
  printf("Workload seed: %llu\n", static_cast<unsigned long long>(config.seed));
  RedisWorkload gen(config);
  const TimeRange p1{gen.PhaseStart(1), gen.PhaseEnd(1)};
  const TimeRange p2{gen.PhaseStart(2), gen.PhaseEnd(2)};
  const TimeRange p3{gen.PhaseStart(3), gen.PhaseEnd(3)};
  Replay replay = Replay::Record(gen);
  printf("Workload: %s records (app %s, syscall %s, packets %s)\n",
         FormatCount(replay.events.size()).c_str(), FormatCount(gen.app_records()).c_str(),
         FormatCount(gen.syscall_records()).c_str(), FormatCount(gen.packet_records()).c_str());

  TempDir dir;

  // --- Ingest into the three systems -------------------------------------
  ManualClock loom_clock(1);
  LoomIndexes idx;
  auto l = MakeCaseStudyLoom(dir.FilePath("loom"), &loom_clock, &idx, /*redis=*/true);
  const double loom_ingest = ReplayIntoLoom(replay, l.get(), &loom_clock);

  ManualClock fs_clock(1);
  FishStorePsfs psfs;
  auto fs = MakeCaseStudyFishStore(dir.FilePath("fs"), &fs_clock, &psfs, /*redis=*/true);
  const double fs_ingest = ReplayIntoFishStore(replay, fs.get(), &fs_clock);

  TsdbOptions tsdb_opts;
  tsdb_opts.dir = dir.FilePath("tsdb");
  auto tsdb = Tsdb::Open(tsdb_opts);
  WallTimer tsdb_timer;
  (void)(*tsdb)->BulkLoad(ToTsdbPoints(replay));
  const double tsdb_ingest = tsdb_timer.Seconds();
  printf("Ingest wall time: loom %s, fishstore %s, tsdb(bulk) %s\n\n",
         FormatSeconds(loom_ingest).c_str(), FormatSeconds(fs_ingest).c_str(),
         FormatSeconds(tsdb_ingest).c_str());

  const uint32_t kAppSeries = kAppSource * 1000;
  const uint32_t kSendtoSeries = kSyscallSource * 1000 + kSyscallSendto;

  TablePrinter table({"phase", "query", "Loom", "FishStore", "InfluxDB-idealized",
                      "Loom rows", "cache hit%", "speedup vs FS", "speedup vs TSDB"});

  struct Spec {
    const char* phase;
    const char* name;
    QueryResult loom, fish, tsdb;
    double cache_hit_rate = 0.0;  // summary-cache hit rate during the Loom query
  };
  std::vector<Spec> specs;

  // Runs a Loom query under Timed() and attributes the summary-cache
  // hit/miss delta to it (the benchmark is single-threaded, so the delta is
  // exact).
  auto timed_loom = [&](double* hit_rate, auto&& fn) {
    const SummaryCacheStats before = l->stats().summary_cache;
    QueryResult r = Timed(fn);
    const SummaryCacheStats after = l->stats().summary_cache;
    const uint64_t hits = after.hits - before.hits;
    const uint64_t misses = after.misses - before.misses;
    *hit_rate = hits + misses == 0
                    ? 0.0
                    : static_cast<double>(hits) / static_cast<double>(hits + misses);
    return r;
  };

  // ---- P1 / P2: data-dependent range scans (99.99p then fetch) ------------
  struct PercentileScanCase {
    const char* phase;
    const char* name;
    TimeRange range;
    uint32_t loom_source;
    uint32_t loom_index;
    bool fish_by_syscall;  // else by source
    uint64_t fish_value;
    uint32_t tsdb_series;
  };
  const std::vector<PercentileScanCase> cases = {
      {"P1", "Slow Requests (99.99p scan)", p1, kAppSource, idx.app_latency, false, kAppSource,
       kAppSeries},
      {"P2", "Slow Requests (99.99p scan)", p2, kAppSource, idx.app_latency, false, kAppSource,
       kAppSeries},
      {"P2", "Slow sendto Executions", p2, kSyscallSource, idx.sendto_latency, true,
       kSyscallSendto, kSendtoSeries},
  };

  for (const auto& c : cases) {
    Spec spec{c.phase, c.name, {}, {}, {}};
    spec.loom = timed_loom(&spec.cache_hit_rate, [&](QueryResult& r) {
      auto pct = l->IndexedAggregate(c.loom_source, c.loom_index, c.range,
                                     AggregateMethod::kPercentile, 99.99);
      if (!pct.ok()) {
        return;
      }
      r.value = pct.value();
      (void)l->IndexedScan(c.loom_source, c.loom_index, c.range, {pct.value(), 1e15},
                           [&](const RecordView&) {
                             ++r.rows;
                             return true;
                           });
    });
    spec.fish = Timed([&](QueryResult& r) {
      // Pass 1: walk the PSF chain to collect latencies in range.
      const uint32_t psf = c.fish_by_syscall ? psfs.by_syscall : psfs.by_source;
      const uint64_t chain_value = c.fish_value;
      std::vector<double> latencies;
      (void)fs->PsfScan(psf, chain_value, [&](const FishStore::Record& rec) {
        if (rec.ts < c.range.start) {
          return false;
        }
        if (rec.ts > c.range.end) {
          return true;
        }
        auto v = c.fish_by_syscall ? SyscallLatencyUs(rec.payload) : AppLatencyUs(rec.payload);
        if (v.has_value()) {
          latencies.push_back(*v);
        }
        return true;
      });
      const double pct = Percentile(latencies, 99.99);
      r.value = pct;
      // Pass 2: fetch qualifying records.
      (void)fs->PsfScan(psf, chain_value, [&](const FishStore::Record& rec) {
        if (rec.ts < c.range.start) {
          return false;
        }
        if (rec.ts > c.range.end) {
          return true;
        }
        auto v = c.fish_by_syscall ? SyscallLatencyUs(rec.payload) : AppLatencyUs(rec.payload);
        if (v.has_value() && *v >= pct) {
          ++r.rows;
        }
        return true;
      });
    });
    spec.tsdb = Timed([&](QueryResult& r) {
      auto pct = (*tsdb)->QueryPercentile(c.tsdb_series, c.range.start, c.range.end, 99.99);
      if (!pct.ok()) {
        return;
      }
      r.value = pct.value();
      (void)(*tsdb)->QueryRange(c.tsdb_series, c.range.start, c.range.end,
                                [&](const TsdbPoint& p) {
                                  if (p.value >= pct.value()) {
                                    ++r.rows;
                                  }
                                  return true;
                                });
    });
    specs.push_back(spec);
  }

  // ---- P3: Maximum Latency Request ---------------------------------------
  {
    Spec spec{"P3", "Maximum Latency Request", {}, {}, {}};
    spec.loom = timed_loom(&spec.cache_hit_rate, [&](QueryResult& r) {
      auto max = l->IndexedAggregate(kAppSource, idx.app_latency, p3, AggregateMethod::kMax);
      if (max.ok()) {
        r.value = max.value();
        r.rows = 1;
      }
    });
    spec.fish = Timed([&](QueryResult& r) {
      double max = 0;
      (void)fs->PsfScan(psfs.by_source, kAppSource, [&](const FishStore::Record& rec) {
        if (rec.ts < p3.start) {
          return false;
        }
        if (rec.ts > p3.end) {
          return true;
        }
        auto v = AppLatencyUs(rec.payload);
        if (v.has_value() && *v > max) {
          max = *v;
        }
        return true;
      });
      r.value = max;
      r.rows = 1;
    });
    spec.tsdb = Timed([&](QueryResult& r) {
      auto max = (*tsdb)->QueryMax(kAppSeries, p3.start, p3.end);
      if (max.ok()) {
        r.value = max.value();
        r.rows = 1;
      }
    });
    specs.push_back(spec);
  }

  // ---- P3: TCP Packet Dump (+/-5 s around the slowest request) -------------
  {
    // The window comes from Loom's own max query (cheap); all systems dump
    // the same window.
    TimestampNanos slow_ts = (p3.start + p3.end) / 2;
    double max_latency = 0;
    (void)l->IndexedScan(kAppSource, idx.app_latency, p3, {50'000.0, 1e15},
                         [&](const RecordView& r) {
                           auto v = AppLatencyUs(r.payload);
                           if (v.has_value() && *v > max_latency) {
                             max_latency = *v;
                             slow_ts = r.ts;
                           }
                           return true;
                         });
    const TimeRange window{slow_ts - 5 * kNanosPerSecond, slow_ts + 5 * kNanosPerSecond};

    Spec spec{"P3", "TCP Packet Dump (10 s window)", {}, {}, {}};
    spec.loom = timed_loom(&spec.cache_hit_rate, [&](QueryResult& r) {
      (void)l->RawScan(kPacketSource, window, [&](const RecordView&) {
        ++r.rows;
        return true;
      });
    });
    spec.fish = Timed([&](QueryResult& r) {
      // No time index: scan the whole interleaved log.
      (void)fs->FullScan([&](const FishStore::Record& rec) {
        if (rec.source_id == kPacketSource && rec.ts >= window.start && rec.ts <= window.end) {
          ++r.rows;
        }
        return true;
      });
    });
    spec.tsdb = Timed([&](QueryResult& r) {
      for (uint32_t series : {kPacketSource * 1000, kPacketSource * 1000 + 1}) {
        (void)(*tsdb)->QueryRange(series, window.start, window.end, [&](const TsdbPoint&) {
          ++r.rows;
          return true;
        });
      }
    });
    specs.push_back(spec);
  }

  for (const Spec& s : specs) {
    table.AddRow({s.phase, s.name, FormatSeconds(s.loom.seconds),
                  FormatSeconds(s.fish.seconds), FormatSeconds(s.tsdb.seconds),
                  FormatCount(s.loom.rows), FormatDouble(s.cache_hit_rate * 100.0, 0) + "%",
                  FormatDouble(s.fish.seconds / std::max(1e-9, s.loom.seconds), 1) + "x",
                  FormatDouble(s.tsdb.seconds / std::max(1e-9, s.loom.seconds), 1) + "x"});
  }
  table.Print();
  const SummaryCacheStats cache = l->stats().summary_cache;
  printf("\nLoom summary cache: %llu hits / %llu misses (%.0f%% hit rate), %llu entries, "
         "%.1f MiB resident\n",
         static_cast<unsigned long long>(cache.hits),
         static_cast<unsigned long long>(cache.misses), cache.HitRate() * 100.0,
         static_cast<unsigned long long>(cache.entries),
         static_cast<double>(cache.bytes_used) / (1 << 20));
  return 0;
}
