// Figure 13: aggregation query latencies on the RocksDB workload, phases 1-3.
//
//   P1  Application Max Latency / Application Tail Latency (99.99p), 100% of data
//   P2  pread64 Max Latency / pread64 Tail Latency, ~3% of data
//   P3  Page Cache Count (mm_filemap_add_to_page_cache), ~0.5% of data
//
// Paper expectation: Loom answers max/percentile largely from chunk
// summaries (7-160x faster than InfluxDB-idealized, 8-17x faster than
// FishStore in P1/P2); in P3 every system benefits from its index.

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
  double value = 0.0;
};

template <typename Fn>
QueryResult Timed(Fn&& fn) {
  QueryResult r;
  WallTimer timer;
  r.value = fn();
  r.seconds = timer.Seconds();
  return r;
}

}  // namespace
}  // namespace loom

int main(int argc, char** argv) {
  using namespace loom;
  PrintBanner("Figure 13", "RocksDB workload aggregation query latencies (P1-P3)",
              "Loom serves max and tail-percentile queries mostly from chunk summaries; "
              "FishStore must scan chains; the TSDB is slowest on percentiles (no index "
              "support) but competitive on narrow subsets via its tag index");

  RocksdbWorkloadConfig config;
  config.scale = 0.01;  // ~2M records total
  config.phase_seconds = 10.0;
  config.seed = ParseBenchSeed(argc, argv, config.seed);
  printf("Workload seed: %llu\n", static_cast<unsigned long long>(config.seed));
  RocksdbWorkload gen(config);
  const TimeRange p1{gen.PhaseStart(1), gen.PhaseEnd(1)};
  const TimeRange p2{gen.PhaseStart(2), gen.PhaseEnd(2)};
  const TimeRange p3{gen.PhaseStart(3), gen.PhaseEnd(3)};
  Replay replay = Replay::Record(gen);
  printf("Workload: %s records (req %s, syscall %s, pagecache %s)\n",
         FormatCount(replay.events.size()).c_str(), FormatCount(gen.req_records()).c_str(),
         FormatCount(gen.syscall_records()).c_str(),
         FormatCount(gen.pagecache_records()).c_str());

  TempDir dir;
  ManualClock loom_clock(1);
  LoomIndexes idx;
  auto l = MakeCaseStudyLoom(dir.FilePath("loom"), &loom_clock, &idx, /*redis=*/false);
  const double loom_ingest = ReplayIntoLoom(replay, l.get(), &loom_clock);

  ManualClock fs_clock(1);
  FishStorePsfs psfs;
  auto fs = MakeCaseStudyFishStore(dir.FilePath("fs"), &fs_clock, &psfs, /*redis=*/false);
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
  const uint32_t kPreadSeries = kSyscallSource * 1000 + kSyscallPread64;
  const uint32_t kPcSeries = kPageCacheSource * 1000 + 1;  // event_type 1

  // FishStore helper: aggregate over a chain within a time range.
  auto fish_chain_values = [&](uint32_t psf, uint64_t value, const TimeRange& range,
                               bool pread_only) {
    std::vector<double> values;
    (void)fs->PsfScan(psf, value, [&](const FishStore::Record& rec) {
      if (rec.ts < range.start) {
        return false;
      }
      if (rec.ts > range.end) {
        return true;
      }
      std::optional<double> v = pread_only ? SyscallLatencyFor(kSyscallPread64, rec.payload)
                                           : AppLatencyUs(rec.payload);
      if (v.has_value()) {
        values.push_back(*v);
      }
      return true;
    });
    return values;
  };

  struct Spec {
    const char* phase;
    const char* name;
    QueryResult loom, fish, tsdb;
  };
  std::vector<Spec> specs;

  // Wraps a Loom query and records its summary-cache hit rate (stats delta;
  // exact because the bench is single-threaded). One entry per spec below —
  // braced-init-lists evaluate left to right, so indices line up.
  std::vector<double> loom_hit_rates;
  auto timed_loom = [&](auto&& fn) {
    const SummaryCacheStats before = l->stats().summary_cache;
    QueryResult r = Timed(fn);
    const SummaryCacheStats after = l->stats().summary_cache;
    const uint64_t hits = after.hits - before.hits;
    const uint64_t misses = after.misses - before.misses;
    loom_hit_rates.push_back(hits + misses == 0 ? 0.0
                                                : static_cast<double>(hits) /
                                                      static_cast<double>(hits + misses));
    return r;
  };

  // ---- P1: application max / tail ------------------------------------------
  specs.push_back({"P1", "Application Max Latency",
                   timed_loom([&] {
                     return l->IndexedAggregate(kAppSource, idx.app_latency, p1,
                                                AggregateMethod::kMax)
                         .value_or(0);
                   }),
                   Timed([&] {
                     auto values = fish_chain_values(psfs.by_source, kAppSource, p1, false);
                     return values.empty() ? 0.0
                                           : *std::max_element(values.begin(), values.end());
                   }),
                   Timed([&] {
                     return (*tsdb)->QueryMax(kAppSeries, p1.start, p1.end).value_or(0);
                   })});

  specs.push_back({"P1", "Application Tail Latency (99.99p)",
                   timed_loom([&] {
                     return l->IndexedAggregate(kAppSource, idx.app_latency, p1,
                                                AggregateMethod::kPercentile, 99.99)
                         .value_or(0);
                   }),
                   Timed([&] {
                     auto values = fish_chain_values(psfs.by_source, kAppSource, p1, false);
                     return Percentile(values, 99.99);
                   }),
                   Timed([&] {
                     return (*tsdb)
                         ->QueryPercentile(kAppSeries, p1.start, p1.end, 99.99)
                         .value_or(0);
                   })});

  // ---- P2: pread64 max / tail (~3% of data) ---------------------------------
  specs.push_back({"P2", "pread64 Max Latency",
                   timed_loom([&] {
                     return l->IndexedAggregate(kSyscallSource, idx.pread64_latency, p2,
                                                AggregateMethod::kMax)
                         .value_or(0);
                   }),
                   Timed([&] {
                     auto values =
                         fish_chain_values(psfs.by_syscall, kSyscallPread64, p2, true);
                     return values.empty() ? 0.0
                                           : *std::max_element(values.begin(), values.end());
                   }),
                   Timed([&] {
                     return (*tsdb)->QueryMax(kPreadSeries, p2.start, p2.end).value_or(0);
                   })});

  specs.push_back({"P2", "pread64 Tail Latency (99.99p)",
                   timed_loom([&] {
                     return l->IndexedAggregate(kSyscallSource, idx.pread64_latency, p2,
                                                AggregateMethod::kPercentile, 99.99)
                         .value_or(0);
                   }),
                   Timed([&] {
                     auto values =
                         fish_chain_values(psfs.by_syscall, kSyscallPread64, p2, true);
                     return Percentile(values, 99.99);
                   }),
                   Timed([&] {
                     return (*tsdb)
                         ->QueryPercentile(kPreadSeries, p2.start, p2.end, 99.99)
                         .value_or(0);
                   })});

  // ---- P3: page cache count (~0.5% of data) ----------------------------------
  specs.push_back({"P3", "Page Cache Count",
                   timed_loom([&] {
                     return l->IndexedAggregate(kPageCacheSource, idx.pagecache_event, p3,
                                                AggregateMethod::kCount)
                         .value_or(0);
                   }),
                   Timed([&] {
                     uint64_t count = 0;
                     (void)fs->PsfScan(psfs.by_pc_event, 1, [&](const FishStore::Record& rec) {
                       if (rec.ts < p3.start) {
                         return false;
                       }
                       if (rec.ts <= p3.end) {
                         ++count;
                       }
                       return true;
                     });
                     return static_cast<double>(count);
                   }),
                   Timed([&] {
                     return (*tsdb)->QueryCount(kPcSeries, p3.start, p3.end).value_or(0);
                   })});

  TablePrinter table({"phase", "query", "Loom", "FishStore", "InfluxDB-idealized",
                      "speedup vs FS", "speedup vs TSDB", "cache hit%", "results agree"});
  for (size_t i = 0; i < specs.size(); ++i) {
    const Spec& s = specs[i];
    const bool agree = std::abs(s.loom.value - s.fish.value) < 1e-6 * (1 + std::abs(s.loom.value)) &&
                       std::abs(s.loom.value - s.tsdb.value) < 1e-6 * (1 + std::abs(s.loom.value));
    table.AddRow({s.phase, s.name, FormatSeconds(s.loom.seconds),
                  FormatSeconds(s.fish.seconds), FormatSeconds(s.tsdb.seconds),
                  FormatDouble(s.fish.seconds / std::max(1e-9, s.loom.seconds), 1) + "x",
                  FormatDouble(s.tsdb.seconds / std::max(1e-9, s.loom.seconds), 1) + "x",
                  FormatDouble(loom_hit_rates[i] * 100.0, 0) + "%",
                  agree ? "yes" : "NO"});
  }
  table.Print();

  const SummaryCacheStats cache = l->stats().summary_cache;
  printf("\nLoom summary cache: %llu hits, %llu misses (%.0f%% hit rate), %llu entries, %.1f MiB resident\n",
         static_cast<unsigned long long>(cache.hits),
         static_cast<unsigned long long>(cache.misses), cache.HitRate() * 100.0,
         static_cast<unsigned long long>(cache.entries),
         static_cast<double>(cache.bytes_used) / (1 << 20));
  return 0;
}
