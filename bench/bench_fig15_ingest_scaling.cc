// Figure 15: ingest throughput vs record size across storage data
// structures: Loom's hybrid log, FishStore's log (0 PSFs), the LSM KV store
// (RocksDB-like, WAL off), and the append-mode B+tree (LMDB-like).
//
// Paper expectation: the hybrid log wins at small records (writing small
// records is CPU-bound, and logs have the least per-record work); the gap
// narrows as records grow and byte throughput starts to dominate; the
// B+tree never matches the log; the LSM pays merge CPU.

#include <string>

#include "bench/bench_common.h"
#include "src/benchutil/bench_json.h"
#include "src/benchutil/table.h"
#include "src/btreestore/btree_store.h"
#include "src/common/file.h"
#include "src/common/rng.h"
#include "src/core/loom.h"
#include "src/fishstore/fishstore.h"
#include "src/hybridlog/hybrid_log.h"
#include "src/lsmstore/lsm_store.h"

namespace loom {
namespace {

constexpr uint64_t kTotalBytes = 96ULL << 20;  // data volume per (structure, size) cell

struct CellResult {
  double records_per_second;
  double mib_per_second;
};

CellResult Finish(uint64_t records, size_t record_size, double seconds) {
  CellResult r;
  r.records_per_second = static_cast<double>(records) / seconds;
  r.mib_per_second = static_cast<double>(records * record_size) / seconds / (1 << 20);
  return r;
}

std::vector<uint8_t> MakePayload(size_t size, Rng& rng) {
  std::vector<uint8_t> payload(size);
  for (auto& b : payload) {
    b = static_cast<uint8_t>(rng.Next64());
  }
  return payload;
}

CellResult RunHybridLog(const std::string& file_path, size_t record_size, uint64_t records,
                        uint64_t seed) {
  HybridLogOptions opts;
  opts.block_size = 16 << 20;
  auto log = HybridLog::Create(file_path, opts);
  if (!log.ok()) {
    fprintf(stderr, "hybrid log open failed: %s\n", log.status().ToString().c_str());
    return {};
  }
  Rng rng(seed);
  auto payload = MakePayload(record_size, rng);
  WallTimer timer;
  for (uint64_t i = 0; i < records; ++i) {
    (void)(*log)->Append(payload);
    (*log)->Publish();
  }
  (void)(*log)->Close();
  return Finish(records, record_size, timer.Seconds());
}

// The full Loom engine (record log + chunk index + timestamp index), fed
// through PushBatch in daemon-sized batches of 128. Shows what the engine
// keeps of the raw hybrid-log ceiling once indexing rides along, and what
// batching the source lookup / clock read / publish fence buys.
CellResult RunLoomEngine(const std::string& dir, size_t record_size, uint64_t records,
                         uint64_t seed, MetricsSnapshot* metrics_out) {
  LoomOptions opts;
  opts.dir = dir;
  opts.record_block_size = 16 << 20;
  auto engine = Loom::Open(opts);
  if (!engine.ok()) {
    fprintf(stderr, "loom open failed: %s\n", engine.status().ToString().c_str());
    return {};
  }
  (void)(*engine)->DefineSource(1);
  Rng rng(seed);
  auto payload = MakePayload(record_size, rng);
  constexpr size_t kBatch = 128;
  std::vector<std::span<const uint8_t>> batch(kBatch,
                                              std::span<const uint8_t>(payload));
  WallTimer timer;
  uint64_t remaining = records;
  while (remaining > 0) {
    const size_t n = static_cast<size_t>(std::min<uint64_t>(remaining, kBatch));
    (void)(*engine)->PushBatch(1, std::span<const std::span<const uint8_t>>(batch.data(), n));
    remaining -= n;
  }
  (void)(*engine)->Sync(1);
  CellResult result = Finish(records, record_size, timer.Seconds());
  if (metrics_out != nullptr) {
    *metrics_out = (*engine)->metrics()->Snapshot();
  }
  return result;
}

CellResult RunFishStore(const std::string& dir, size_t record_size, uint64_t records,
                        uint64_t seed) {
  FishStoreOptions opts;
  opts.dir = dir;
  auto store = FishStore::Open(opts);
  Rng rng(seed);
  auto payload = MakePayload(record_size, rng);
  WallTimer timer;
  for (uint64_t i = 0; i < records; ++i) {
    (void)(*store)->Push(1, payload);
  }
  return Finish(records, record_size, timer.Seconds());
}

CellResult RunLsm(const std::string& dir, size_t record_size, uint64_t records,
                  uint64_t seed) {
  LsmOptions opts;
  opts.dir = dir;
  auto store = LsmStore::Open(opts);
  Rng rng(seed);
  auto payload = MakePayload(record_size, rng);
  char key[32];
  WallTimer timer;
  for (uint64_t i = 0; i < records; ++i) {
    snprintf(key, sizeof(key), "%016llx", static_cast<unsigned long long>(i));
    (void)(*store)->Put(key, payload);
  }
  (void)(*store)->Flush();
  return Finish(records, record_size, timer.Seconds());
}

CellResult RunBTree(const std::string& dir, size_t record_size, uint64_t records,
                    uint64_t seed) {
  BTreeOptions opts;
  auto value_size = record_size > 12 ? record_size - 12 : 1;  // key+len overhead parity
  opts.dir = dir;
  auto store = BTreeStore::Open(opts);
  Rng rng(seed);
  auto payload = MakePayload(value_size, rng);
  WallTimer timer;
  for (uint64_t i = 0; i < records; ++i) {
    (void)(*store)->Append(i + 1, payload);
  }
  (void)(*store)->Flush();
  return Finish(records, record_size, timer.Seconds());
}

}  // namespace
}  // namespace loom

int main(int argc, char** argv) {
  using namespace loom;
  PrintBanner("Figure 15", "Data-structure ingest throughput vs record size (8 B - 1 KiB)",
              "hybrid log fastest at 8/64 B (small writes are CPU-bound); FishStore and the "
              "LSM close the gap at 256-1024 B; the B+tree trails throughout");

  // Payload-content seed; each structure derives its own stream from it.
  const uint64_t seed = ParseBenchSeed(argc, argv, 1);
  TempDir dir;
  TablePrinter table({"record size", "hybrid log (Loom)", "Loom engine (batched)",
                      "FishStore log", "LSM (RocksDB-like)", "B+tree (LMDB-like)",
                      "hybrid log MiB/s"});
  JsonWriter json;
  json.Field("seed", seed);
  MetricsSnapshot engine_metrics;
  int cell = 0;
  for (size_t size : {size_t{8}, size_t{64}, size_t{256}, size_t{1024}}) {
    // Volume capped so small-record cells stay tractable on one core.
    const uint64_t records = std::min<uint64_t>(kTotalBytes / size, 4'000'000);
    auto hybrid =
        RunHybridLog(dir.FilePath("hybrid-" + std::to_string(cell) + ".log"), size, records,
                     seed);
    auto engine =
        RunLoomEngine(dir.FilePath("e" + std::to_string(cell)), size, records, seed + 1,
                      &engine_metrics);
    auto fish = RunFishStore(dir.FilePath("f" + std::to_string(cell)), size, records, seed + 2);
    auto lsm = RunLsm(dir.FilePath("l" + std::to_string(cell)), size, records / 4, seed + 3);
    auto btree = RunBTree(dir.FilePath("b" + std::to_string(cell)), size, records / 2, seed + 4);
    table.AddRow({std::to_string(size) + " B", FormatRate(hybrid.records_per_second),
                  FormatRate(engine.records_per_second), FormatRate(fish.records_per_second),
                  FormatRate(lsm.records_per_second), FormatRate(btree.records_per_second),
                  FormatDouble(hybrid.mib_per_second, 0) + " MiB/s"});
    json.BeginObject("record_size_" + std::to_string(size));
    json.Field("records", records);
    json.Field("hybrid_log_records_per_second", hybrid.records_per_second);
    json.Field("loom_engine_records_per_second", engine.records_per_second);
    json.Field("fishstore_records_per_second", fish.records_per_second);
    json.Field("lsm_records_per_second", lsm.records_per_second);
    json.Field("btree_records_per_second", btree.records_per_second);
    json.Field("hybrid_log_mib_per_second", hybrid.mib_per_second);
    json.EndObject();
    ++cell;
  }
  table.Print();
  printf("\nNote: all structures run with one ingest thread on one core (the paper scales "
         "FishStore to 3 and RocksDB to 8 cores to match Loom's single-core throughput).\n");
  // Self-telemetry of the last (1 KiB) engine cell: the push-batch latency
  // histogram and flush counters that produced the row above.
  json.MetricsSection("metrics", engine_metrics);
  (void)json.WriteFile("BENCH_fig15_ingest.json");
  return 0;
}
