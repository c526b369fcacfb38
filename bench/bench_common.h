// Shared setup code for the figure-reproduction benches: standard index /
// PSF / series configurations for the case-study workloads, and ingest
// drivers that replay a workload's virtual timeline into each system.

#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "src/common/clock.h"
#include "src/core/loom.h"
#include "src/fishstore/fishstore.h"
#include "src/tsdb/tsdb.h"
#include "src/workload/case_studies.h"
#include "src/workload/records.h"

namespace loom {

// Parses `--seed=N` (or `--seed N`) from a bench's argv so harness runs can
// pin the workload-generator seed explicitly; every bench records the seed it
// actually used in its BENCH_*.json, making any run reproducible bit-for-bit.
inline uint64_t ParseBenchSeed(int argc, char** argv, uint64_t default_seed) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--seed=", 7) == 0) {
      return std::strtoull(arg + 7, nullptr, 10);
    }
    if (std::strcmp(arg, "--seed") == 0 && i + 1 < argc) {
      return std::strtoull(argv[i + 1], nullptr, 10);
    }
  }
  return default_seed;
}

// A pre-generated workload event stream (so ingest measurements exclude
// generation cost and every system sees identical data).
struct Replay {
  struct Event {
    uint32_t source_id;
    TimestampNanos ts;
    uint32_t offset;  // into payload_bytes
    uint32_t len;
  };
  std::vector<Event> events;
  std::vector<uint8_t> payload_bytes;

  std::span<const uint8_t> PayloadOf(const Event& e) const {
    return std::span<const uint8_t>(payload_bytes.data() + e.offset, e.len);
  }

  template <typename Gen>
  static Replay Record(Gen& gen) {
    Replay r;
    while (auto ev = gen.Next()) {
      Event e;
      e.source_id = ev->source_id;
      e.ts = ev->ts;
      e.offset = static_cast<uint32_t>(r.payload_bytes.size());
      e.len = static_cast<uint32_t>(ev->payload.size());
      r.payload_bytes.insert(r.payload_bytes.end(), ev->payload.begin(), ev->payload.end());
      r.events.push_back(e);
    }
    return r;
  }
};

// --- Loom setup ----------------------------------------------------------------

struct LoomIndexes {
  uint32_t app_latency = 0;
  uint32_t syscall_latency = 0;
  uint32_t sendto_latency = 0;
  uint32_t pread64_latency = 0;
  uint32_t packet_dport = 0;
  uint32_t pagecache_event = 0;
};

// Standard Loom instance for the case studies: one source per telemetry
// stream, exponential latency histograms, and an exact-match dport index.
inline std::unique_ptr<Loom> MakeCaseStudyLoom(const std::string& dir, ManualClock* clock,
                                               LoomIndexes* idx, bool redis) {
  LoomOptions opts;
  opts.dir = dir;
  opts.clock = clock;
  auto loom = Loom::Open(opts);
  if (!loom.ok()) {
    return nullptr;
  }
  std::unique_ptr<Loom> l = std::move(loom.value());
  (void)l->DefineSource(kAppSource);
  (void)l->DefineSource(kSyscallSource);
  (void)l->DefineSource(redis ? kPacketSource : kPageCacheSource);

  auto latency_hist = HistogramSpec::Exponential(1.0, 2.0, 24).value();  // 1us .. ~16s
  idx->app_latency = l->DefineIndex(
                          kAppSource,
                          [](std::span<const uint8_t> p) { return AppLatencyUs(p); },
                          latency_hist)
                         .value();
  idx->syscall_latency = l->DefineIndex(
                              kSyscallSource,
                              [](std::span<const uint8_t> p) { return SyscallLatencyUs(p); },
                              latency_hist)
                             .value();
  if (redis) {
    idx->sendto_latency =
        l->DefineIndex(
             kSyscallSource,
             [](std::span<const uint8_t> p) {
               return SyscallLatencyFor(kSyscallSendto, p);
             },
             latency_hist)
            .value();
    // Exact-match index on the packet destination port (finds mangled ports).
    idx->packet_dport = l->DefineIndex(
                             kPacketSource,
                             [](std::span<const uint8_t> p) -> std::optional<double> {
                               auto dport = PacketDport(p);
                               if (!dport.has_value()) {
                                 return std::nullopt;
                               }
                               return static_cast<double>(*dport);
                             },
                             HistogramSpec::Uniform(0.0, 65536.0, 64).value())
                            .value();
  } else {
    idx->pread64_latency =
        l->DefineIndex(
             kSyscallSource,
             [](std::span<const uint8_t> p) {
               return SyscallLatencyFor(kSyscallPread64, p);
             },
             latency_hist)
            .value();
    idx->pagecache_event = l->DefineIndex(
                                kPageCacheSource,
                                [](std::span<const uint8_t> p) -> std::optional<double> {
                                  auto rec = DecodeAs<PageCacheRecord>(p);
                                  if (!rec.has_value()) {
                                    return std::nullopt;
                                  }
                                  return static_cast<double>(rec->event_type);
                                },
                                HistogramSpec::Uniform(0.0, 16.0, 16).value())
                               .value();
  }
  return l;
}

// Replays a recorded stream into Loom on the virtual timeline. Returns wall
// seconds spent.
inline double ReplayIntoLoom(const Replay& replay, Loom* l, ManualClock* clock) {
  const auto start = std::chrono::steady_clock::now();
  for (const Replay::Event& e : replay.events) {
    clock->SetNanos(e.ts);
    (void)l->Push(e.source_id, replay.PayloadOf(e));
  }
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// --- FishStore setup -----------------------------------------------------------

struct FishStorePsfs {
  uint32_t by_source = 0;
  uint32_t by_syscall = 0;  // property = syscall id
  uint32_t by_dport = 0;    // Redis only
  uint32_t by_pc_event = 0; // RocksDB only
};

inline std::unique_ptr<FishStore> MakeCaseStudyFishStore(const std::string& dir,
                                                         ManualClock* clock, FishStorePsfs* psfs,
                                                         bool redis) {
  FishStoreOptions opts;
  opts.dir = dir;
  opts.clock = clock;
  auto store = FishStore::Open(opts);
  if (!store.ok()) {
    return nullptr;
  }
  std::unique_ptr<FishStore> fs = std::move(store.value());
  psfs->by_source = fs->RegisterPsf([](uint32_t source, std::span<const uint8_t>) {
                        return std::optional<uint64_t>(source);
                      }).value();
  psfs->by_syscall = fs->RegisterPsf(
                           [](uint32_t source,
                              std::span<const uint8_t> p) -> std::optional<uint64_t> {
                             if (source != kSyscallSource) {
                               return std::nullopt;
                             }
                             auto id = SyscallId(p);
                             if (!id.has_value()) {
                               return std::nullopt;
                             }
                             return *id;
                           })
                          .value();
  if (redis) {
    psfs->by_dport = fs->RegisterPsf(
                           [](uint32_t source,
                              std::span<const uint8_t> p) -> std::optional<uint64_t> {
                             if (source != kPacketSource) {
                               return std::nullopt;
                             }
                             auto dport = PacketDport(p);
                             if (!dport.has_value()) {
                               return std::nullopt;
                             }
                             return *dport;
                           })
                         .value();
  } else {
    psfs->by_pc_event = fs->RegisterPsf(
                              [](uint32_t source,
                                 std::span<const uint8_t> p) -> std::optional<uint64_t> {
                                if (source != kPageCacheSource) {
                                  return std::nullopt;
                                }
                                auto rec = DecodeAs<PageCacheRecord>(p);
                                if (!rec.has_value()) {
                                  return std::nullopt;
                                }
                                return rec->event_type;
                              })
                            .value();
  }
  return fs;
}

inline double ReplayIntoFishStore(const Replay& replay, FishStore* fs, ManualClock* clock) {
  const auto start = std::chrono::steady_clock::now();
  for (const Replay::Event& e : replay.events) {
    clock->SetNanos(e.ts);
    (void)fs->Push(e.source_id, replay.PayloadOf(e));
  }
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// --- TSDB setup -----------------------------------------------------------------

// Series mapping: the TSDB "measurement + tags" identity. Latency streams get
// one series per (source, syscall id); packets per (source, dport bucket);
// page cache per (source, event type). This is what the paper's "tag index"
// leverages.
inline uint32_t TsdbSeriesOf(uint32_t source_id, std::span<const uint8_t> payload) {
  switch (source_id) {
    case kSyscallSource: {
      auto id = SyscallId(payload);
      return source_id * 1000 + (id.has_value() ? *id : 0);
    }
    case kPacketSource: {
      auto dport = PacketDport(payload);
      return source_id * 1000 + (dport.has_value() && *dport == kMangledPort ? 1 : 0);
    }
    case kPageCacheSource: {
      auto rec = DecodeAs<PageCacheRecord>(payload);
      return source_id * 1000 + (rec.has_value() ? rec->event_type : 0);
    }
    default:
      return source_id * 1000;
  }
}

inline double TsdbValueOf(uint32_t source_id, std::span<const uint8_t> payload) {
  switch (source_id) {
    case kAppSource:
      return AppLatencyUs(payload).value_or(0.0);
    case kSyscallSource:
      return SyscallLatencyUs(payload).value_or(0.0);
    case kPacketSource: {
      auto dport = PacketDport(payload);
      return dport.has_value() ? static_cast<double>(*dport) : 0.0;
    }
    default:
      return 1.0;
  }
}

inline TsdbPoint ToTsdbPoint(uint32_t source_id, TimestampNanos ts,
                             std::span<const uint8_t> payload) {
  TsdbPoint p;
  p.series_id = TsdbSeriesOf(source_id, payload);
  p.ts = ts;
  p.value = TsdbValueOf(source_id, payload);
  p.blob_len = static_cast<uint32_t>(std::min(payload.size(), TsdbPoint::kBlobSize));
  std::memcpy(p.blob.data(), payload.data(), p.blob_len);
  return p;
}

inline std::vector<TsdbPoint> ToTsdbPoints(const Replay& replay) {
  std::vector<TsdbPoint> points;
  points.reserve(replay.events.size());
  for (const Replay::Event& e : replay.events) {
    points.push_back(ToTsdbPoint(e.source_id, e.ts, replay.PayloadOf(e)));
  }
  return points;
}

}  // namespace loom

#endif  // BENCH_BENCH_COMMON_H_
