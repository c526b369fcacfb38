// loom_cli — a command-line front-end for Loom captures (§3: engineers use a
// CLI/dashboard to instantiate query operators with parameters).
//
// Subcommands:
//   capture   generate a case-study workload and capture it into a directory
//             --workload redis|rocksdb  --scale S  --dir DIR
//   sources   list sources in a capture
//             --dir DIR
//   bounds    print the capture's time bounds
//             --dir DIR
//   count     count a source's records
//             --dir DIR --source N [--start T] [--end T]
//   scan      raw-scan a source, newest record first
//             --dir DIR --source N [--start T] [--end T] [--limit K]
//   agg       aggregate an indexed value
//             --dir DIR --source N --extract NAME --method M [--pct P]
//             [--start T] [--end T] [--index ID]
//   topk      largest indexed values
//             --dir DIR --source N --extract NAME --k K [--start T] [--end T]
//             [--index ID]
//   watch     subscribe to a live daemon's standing-query event stream
//             --host H --port P [--query ID] [--limit K]
//             [--register "NAME SRC IDX AGG WINDOW_NS [KIND THRESH FOR]"]
//             (--register first REGisters a standing query on the daemon and
//             subscribes to it; flag value is the REG argument list)
//
// --extract names a well-known field extractor:
//   app_latency | syscall_latency | pread64_latency | packet_dport | value8
// (value8 reads the first 8 payload bytes as a double.) --index defaults to
// the id capture gave the source's index: 1 for source 1, 2 otherwise.
//
// A numeric flag must parse whole and fit its field: ids and timestamps are
// unsigned integers of their field's width (--port 16 bits, --source and
// --index 32), --pct lies in [0, 100] and --scale in [1e-6, 1]. Every error
// exits 1 with a status-prefixed message; an unknown subcommand exits 2.
//
// Capture directories are the engine's log directory. The post-mortem
// subcommands open it with Loom::OpenReadOnly and run the engine's own query
// operators, so no live engine is needed and no file changes.

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <type_traits>

#include "src/core/loom.h"
#include "src/net/ingest_server.h"
#include "src/query/drilldown.h"
#include "src/workload/case_studies.h"
#include "src/workload/records.h"

namespace loom {
namespace {

// The capture geometry the CLI always uses; a read-only open must repeat it
// (a production tool would store a manifest next to the logs).
constexpr size_t kChunkSize = 64 << 10;
constexpr size_t kChunkIdxBlock = 1 << 20;

// The histogram of both indexes capture defines.
HistogramSpec LatencySpec() { return HistogramSpec::Exponential(1.0, 2.0, 24).value(); }

struct Args {
  std::string command;
  std::map<std::string, std::string> flags;

  std::string Get(const std::string& key, const std::string& fallback = "") const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }

  // Stores flag `key`, an unsigned integer that fits T, in *out (`fallback`
  // when the flag is absent).
  template <typename T>
  Status GetInt(const std::string& key, T* out, std::type_identity_t<T> fallback) const {
    auto it = flags.find(key);
    if (it == flags.end()) {
      *out = fallback;
      return Status::Ok();
    }
    const std::string& s = it->second;
    const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
    if (ec != std::errc() || end != s.data() + s.size()) {
      return Status::InvalidArgument("--" + key + " " + s + ": want an integer in [0, " +
                                     std::to_string(std::numeric_limits<T>::max()) + "]");
    }
    return Status::Ok();
  }

  // Stores flag `key`, a number in [lo, hi], in *out (`fallback` when the
  // flag is absent). NaN lies in no range.
  Status GetDouble(const std::string& key, double* out, double fallback, double lo,
                   double hi) const {
    auto it = flags.find(key);
    if (it == flags.end()) {
      *out = fallback;
      return Status::Ok();
    }
    const std::string& s = it->second;
    const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
    if (ec != std::errc() || end != s.data() + s.size() || !(*out >= lo && *out <= hi)) {
      char want[64];
      std::snprintf(want, sizeof(want), ": want a number in [%g, %g]", lo, hi);
      return Status::InvalidArgument("--" + key + " " + s + want);
    }
    return Status::Ok();
  }
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  if (argc >= 2) {
    args.command = argv[1];
  }
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) == 0) {
      args.flags[key.substr(2)] = argv[i + 1];
    }
  }
  return args;
}

Loom::IndexFunc ExtractorByName(const std::string& name) {
  if (name == "app_latency") {
    return [](std::span<const uint8_t> p) { return AppLatencyUs(p); };
  }
  if (name == "syscall_latency") {
    return [](std::span<const uint8_t> p) { return SyscallLatencyUs(p); };
  }
  if (name == "pread64_latency") {
    return [](std::span<const uint8_t> p) { return SyscallLatencyFor(kSyscallPread64, p); };
  }
  if (name == "packet_dport") {
    return [](std::span<const uint8_t> p) -> std::optional<double> {
      auto d = PacketDport(p);
      if (!d.has_value()) {
        return std::nullopt;
      }
      return static_cast<double>(*d);
    };
  }
  if (name == "value8") {
    return [](std::span<const uint8_t> p) -> std::optional<double> {
      if (p.size() < sizeof(double)) {
        return std::nullopt;
      }
      double v;
      std::memcpy(&v, p.data(), sizeof(v));
      return v;
    };
  }
  return nullptr;
}

Status CmdCapture(const Args& args) {
  const std::string dir = args.Get("dir");
  if (dir.empty()) {
    return Status::InvalidArgument("capture requires --dir");
  }
  const std::string workload = args.Get("workload", "redis");
  if (workload != "redis" && workload != "rocksdb") {
    return Status::InvalidArgument("unknown --workload (redis|rocksdb)");
  }
  double scale = 0;
  LOOM_RETURN_IF_ERROR(args.GetDouble("scale", &scale, 0.005, 1e-6, 1.0));

  ManualClock clock(1);
  LoomOptions opts;
  opts.dir = dir;
  opts.chunk_size = kChunkSize;
  opts.chunk_index_block_size = kChunkIdxBlock;
  opts.clock = &clock;
  auto loom = Loom::Open(opts);
  if (!loom.ok()) {
    return loom.status();
  }
  Loom* l = loom->get();

  uint64_t n = 0;
  if (workload == "redis") {
    RedisWorkloadConfig config;
    config.scale = scale;
    RedisWorkload gen(config);
    (void)l->DefineSource(kAppSource);
    (void)l->DefineSource(kSyscallSource);
    (void)l->DefineSource(kPacketSource);
    (void)l->DefineIndex(kAppSource, ExtractorByName("app_latency"), LatencySpec());
    (void)l->DefineIndex(kSyscallSource, ExtractorByName("syscall_latency"), LatencySpec());
    while (auto ev = gen.Next()) {
      clock.SetNanos(ev->ts);
      (void)l->Push(ev->source_id, ev->payload);
      ++n;
    }
  } else {
    RocksdbWorkloadConfig config;
    config.scale = scale;
    RocksdbWorkload gen(config);
    (void)l->DefineSource(kAppSource);
    (void)l->DefineSource(kSyscallSource);
    (void)l->DefineSource(kPageCacheSource);
    (void)l->DefineIndex(kAppSource, ExtractorByName("app_latency"), LatencySpec());
    (void)l->DefineIndex(kSyscallSource, ExtractorByName("pread64_latency"), LatencySpec());
    while (auto ev = gen.Next()) {
      clock.SetNanos(ev->ts);
      (void)l->Push(ev->source_id, ev->payload);
      ++n;
    }
  }
  printf("captured %llu records into %s\n", static_cast<unsigned long long>(n), dir.c_str());
  printf("sources: 1=app 2=syscall %s\n", workload == "redis" ? "3=packets" : "4=pagecache");
  return Status::Ok();
}

Result<std::unique_ptr<Loom>> OpenCapture(const Args& args) {
  LoomOptions opts;
  opts.dir = args.Get("dir");
  if (opts.dir.empty()) {
    return Status::InvalidArgument("missing --dir");
  }
  opts.chunk_size = kChunkSize;
  opts.chunk_index_block_size = kChunkIdxBlock;
  return Loom::OpenReadOnly(opts);
}

// The flags the query subcommands share.
struct QueryFlags {
  uint32_t source = 0;
  TimeRange range;
};

Status ParseQueryFlags(const Args& args, QueryFlags* q) {
  LOOM_RETURN_IF_ERROR(args.GetInt("source", &q->source, 1));
  LOOM_RETURN_IF_ERROR(args.GetInt("start", &q->range.start, 0));
  return args.GetInt("end", &q->range.end, ~0ULL);
}

// Attaches the index --extract and --index name over the queried source.
Status AttachIndex(Loom* loom, const Args& args, const QueryFlags& q, uint32_t* index_id) {
  const std::string extract = args.Get("extract", "value8");
  Loom::IndexFunc func = ExtractorByName(extract);
  if (!func) {
    return Status::InvalidArgument("unknown --extract " + extract);
  }
  LOOM_RETURN_IF_ERROR(args.GetInt("index", index_id, q.source == kAppSource ? 1 : 2));
  return loom->AttachIndex(*index_id, q.source, std::move(func), LatencySpec());
}

Status CmdSources(const Args& args) {
  auto loom = OpenCapture(args);
  if (!loom.ok()) {
    return loom.status();
  }
  for (uint32_t s : (*loom)->Sources()) {
    printf("source %u\n", s);
  }
  return Status::Ok();
}

Status CmdBounds(const Args& args) {
  auto loom = OpenCapture(args);
  if (!loom.ok()) {
    return loom.status();
  }
  TimeRange bounds{~0ULL, 0};
  for (uint32_t s : (*loom)->Sources()) {
    LOOM_RETURN_IF_ERROR((*loom)->RawScan(s, {0, ~0ULL}, [&](const RecordView& r) {
      bounds.start = std::min(bounds.start, r.ts);
      bounds.end = std::max(bounds.end, r.ts);
      return true;
    }));
  }
  if (bounds.start > bounds.end) {
    return Status::NotFound("capture is empty");
  }
  printf("start %llu\nend   %llu\nspan  %.3f s\n",
         static_cast<unsigned long long>(bounds.start),
         static_cast<unsigned long long>(bounds.end),
         static_cast<double>(bounds.end - bounds.start) / 1e9);
  return Status::Ok();
}

Status CmdCount(const Args& args) {
  QueryFlags q;
  LOOM_RETURN_IF_ERROR(ParseQueryFlags(args, &q));
  auto loom = OpenCapture(args);
  if (!loom.ok()) {
    return loom.status();
  }
  auto count = (*loom)->CountRecords(q.source, q.range);
  if (!count.ok()) {
    return count.status();
  }
  printf("count = %llu\n", static_cast<unsigned long long>(count.value()));
  return Status::Ok();
}

Status CmdScan(const Args& args) {
  QueryFlags q;
  LOOM_RETURN_IF_ERROR(ParseQueryFlags(args, &q));
  uint64_t limit = 0;
  LOOM_RETURN_IF_ERROR(args.GetInt("limit", &limit, 20));
  auto loom = OpenCapture(args);
  if (!loom.ok()) {
    return loom.status();
  }
  uint64_t shown = 0;
  LOOM_RETURN_IF_ERROR((*loom)->RawScan(q.source, q.range, [&](const RecordView& r) {
    if (shown == limit) {
      return false;  // --limit 0
    }
    printf("t=%-14llu addr=%-10llu len=%zu\n", static_cast<unsigned long long>(r.ts),
           static_cast<unsigned long long>(r.addr), r.payload.size());
    return ++shown < limit;
  }));
  printf("(%llu records shown, limit %llu)\n", static_cast<unsigned long long>(shown),
         static_cast<unsigned long long>(limit));
  return Status::Ok();
}

Status CmdAgg(const Args& args) {
  QueryFlags q;
  LOOM_RETURN_IF_ERROR(ParseQueryFlags(args, &q));
  double pct = 0;
  LOOM_RETURN_IF_ERROR(args.GetDouble("pct", &pct, 99.0, 0.0, 100.0));
  static const std::map<std::string, AggregateMethod> kMethods = {
      {"count", AggregateMethod::kCount}, {"sum", AggregateMethod::kSum},
      {"min", AggregateMethod::kMin},     {"max", AggregateMethod::kMax},
      {"mean", AggregateMethod::kMean},   {"pct", AggregateMethod::kPercentile}};
  const std::string method = args.Get("method", "count");
  auto m = kMethods.find(method);
  if (m == kMethods.end()) {
    return Status::InvalidArgument("unknown --method (count|sum|min|max|mean|pct)");
  }
  auto loom = OpenCapture(args);
  if (!loom.ok()) {
    return loom.status();
  }
  uint32_t index_id = 0;
  LOOM_RETURN_IF_ERROR(AttachIndex(loom->get(), args, q, &index_id));
  auto result = (*loom)->IndexedAggregate(q.source, index_id, q.range, m->second, pct);
  if (!result.ok()) {
    return result.status();
  }
  if (m->second == AggregateMethod::kPercentile) {
    printf("p%.4g = %.6g\n", pct, result.value());
  } else {
    printf("%s = %.6g\n", method.c_str(), result.value());
  }
  return Status::Ok();
}

Status CmdTopK(const Args& args) {
  QueryFlags q;
  LOOM_RETURN_IF_ERROR(ParseQueryFlags(args, &q));
  size_t k = 0;
  LOOM_RETURN_IF_ERROR(args.GetInt("k", &k, 10));
  auto loom = OpenCapture(args);
  if (!loom.ok()) {
    return loom.status();
  }
  uint32_t index_id = 0;
  LOOM_RETURN_IF_ERROR(AttachIndex(loom->get(), args, q, &index_id));
  auto hits = DrillDown(loom->get()).TopK(q.source, index_id, q.range, k);
  if (!hits.ok()) {
    return hits.status();
  }
  for (const RecordHit& hit : hits.value()) {
    printf("value=%-14.6g t=%llu\n", hit.value, static_cast<unsigned long long>(hit.ts));
  }
  return Status::Ok();
}

Status CmdWatch(const Args& args) {
  const std::string host = args.Get("host", "127.0.0.1");
  uint16_t port = 0;
  LOOM_RETURN_IF_ERROR(args.GetInt("port", &port, 0));
  if (port == 0) {
    return Status::InvalidArgument("watch requires --port");
  }
  uint64_t query_id = 0;
  LOOM_RETURN_IF_ERROR(args.GetInt("query", &query_id, 0));
  uint64_t limit = 0;  // 0 = stream forever
  LOOM_RETURN_IF_ERROR(args.GetInt("limit", &limit, 0));
  const std::string reg = args.Get("register");

  if (!reg.empty()) {
    // Register first on a dedicated connection (REG closes after replying),
    // then subscribe to the id it returned.
    auto client = WatchClient::Connect(host, port);
    if (!client.ok()) {
      return client.status();
    }
    LOOM_RETURN_IF_ERROR((*client)->SendLine("REG " + reg));
    auto reply = (*client)->ReadLine();
    if (!reply.ok()) {
      return reply.status();
    }
    if (reply.value().rfind("OK ", 0) != 0) {
      return Status::FailedPrecondition("registration failed: " + reply.value());
    }
    query_id = strtoull(reply.value().c_str() + 3, nullptr, 10);
    printf("registered standing query %llu\n", static_cast<unsigned long long>(query_id));
  }

  auto client = WatchClient::Connect(host, port);
  if (!client.ok()) {
    return client.status();
  }
  LOOM_RETURN_IF_ERROR((*client)->SendLine("SUB " + std::to_string(query_id)));
  auto reply = (*client)->ReadLine();
  if (!reply.ok()) {
    return reply.status();
  }
  if (reply.value() != "OK") {
    return Status::FailedPrecondition("subscribe failed: " + reply.value());
  }
  uint64_t shown = 0;
  for (;;) {
    auto line = (*client)->ReadLine();
    if (!line.ok()) {
      break;  // daemon went away; everything already printed
    }
    printf("%s\n", line.value().c_str());
    fflush(stdout);
    if (limit != 0 && ++shown >= limit) {
      break;
    }
  }
  return Status::Ok();
}

}  // namespace
}  // namespace loom

int main(int argc, char** argv) {
  using namespace loom;
  static const std::map<std::string, Status (*)(const Args&)> kCommands = {
      {"capture", CmdCapture}, {"sources", CmdSources}, {"bounds", CmdBounds},
      {"scan", CmdScan},       {"count", CmdCount},     {"agg", CmdAgg},
      {"topk", CmdTopK},       {"watch", CmdWatch}};
  const Args args = ParseArgs(argc, argv);
  auto command = kCommands.find(args.command);
  if (command == kCommands.end()) {
    fprintf(stderr,
            "usage: loom_cli <capture|sources|bounds|scan|count|agg|topk|watch> [--flag value "
            "...]\nsee the header comment of tools/loom_cli.cc for full flag lists\n");
    return 2;
  }
  const Status st = command->second(args);
  if (!st.ok()) {
    fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}
