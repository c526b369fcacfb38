// Monitoring-daemon deployment shape (paper §3, Figure 4): one ingest thread
// pushes live telemetry with the real monotonic clock while a separate
// querying client issues interactive queries concurrently. Demonstrates the
// coordination-avoiding read path: queries never block ingest (§4.4).
//
//   $ ./examples/daemon_sim

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "src/common/file.h"
#include "src/common/rng.h"
#include "src/core/loom.h"
#include "src/workload/records.h"

int main() {
  using namespace loom;

  TempDir dir;
  LoomOptions options;
  options.dir = dir.FilePath("loom");
  auto loom = Loom::Open(options).value();

  (void)loom->DefineSource(kAppSource);
  auto hist = HistogramSpec::Exponential(1.0, 2.0, 24).value();
  uint32_t index =
      loom->DefineIndex(kAppSource, [](std::span<const uint8_t> p) { return AppLatencyUs(p); },
                        hist)
          .value();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> pushed{0};

  // The monitoring daemon's ingest loop: sources push records as they arrive,
  // batched per wave so the source lookup and publish happen once per batch.
  std::thread ingest([&] {
    Rng rng(7);
    std::array<AppRecord, 512> recs;
    std::array<std::span<const uint8_t>, 512> payloads;
    while (!stop.load(std::memory_order_acquire)) {
      for (size_t i = 0; i < recs.size(); ++i) {
        recs[i].seq = pushed.fetch_add(1, std::memory_order_relaxed);
        recs[i].latency_us = rng.NextLogNormal(100.0, 0.7);
        payloads[i] = std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(&recs[i]),
                                               sizeof(AppRecord));
      }
      (void)loom->PushBatch(kAppSource, payloads);
      // Mimic an arrival process rather than a tight producer loop.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  // The querying client: every 500 ms, ask for the last half second's
  // p99 latency and outlier count — while ingest keeps running.
  for (int round = 1; round <= 6; ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    const TimestampNanos now = loom->Now();
    const TimeRange last_half_second{now - 500 * kNanosPerMilli, now};

    const auto q0 = std::chrono::steady_clock::now();
    double p99 = loom->IndexedAggregate(kAppSource, index, last_half_second,
                                        AggregateMethod::kPercentile, 99.0)
                     .value_or(0);
    uint64_t outliers = 0;
    (void)loom->IndexedScan(kAppSource, index, last_half_second, {p99, 1e12},
                            [&](const RecordView&) {
                              ++outliers;
                              return true;
                            });
    double count = loom->IndexedAggregate(kAppSource, index, last_half_second,
                                          AggregateMethod::kCount)
                       .value_or(0);
    const double query_ms = std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
                                std::chrono::steady_clock::now() - q0)
                                .count();
    printf("round %d: %8.0f records in window | p99 = %7.1f us | %5llu outliers | "
           "query took %.2f ms (concurrent with ingest)\n",
           round, count, p99, static_cast<unsigned long long>(outliers), query_ms);
  }

  stop.store(true, std::memory_order_release);
  ingest.join();

  LoomStats stats = loom->stats();
  printf("\ningested %llu records live; snapshot fallbacks to disk during queries: %llu\n",
         static_cast<unsigned long long>(stats.records_ingested),
         static_cast<unsigned long long>(stats.record_log.snapshot_fallbacks));
  printf("summary cache: %llu hits / %llu misses (%.0f%% hit rate), %llu decoded summaries "
         "resident\n",
         static_cast<unsigned long long>(stats.summary_cache.hits),
         static_cast<unsigned long long>(stats.summary_cache.misses),
         stats.summary_cache.HitRate() * 100.0,
         static_cast<unsigned long long>(stats.summary_cache.entries));
  return 0;
}
