// Per-query execution trace.
//
// Every query operator accepts an optional `QueryTrace*`; when supplied, the
// engine fills it with what the query actually did — how many chunk
// summaries it considered, how many the chunk index pruned (including those
// answered purely from summary bins, which never touch record data), how
// many chunks it scanned, record/byte volumes, summary-cache hits, and stage
// timings. Callers log it, return it to users, or assert on it in tests.
//
// Invariant: chunks_pruned + chunks_scanned == chunks_considered. A chunk is
// "considered" when its summary was examined against the query, "pruned"
// when the summary alone settled it (out of range, no matching bins, or
// folded directly into the aggregate), and "scanned" when its record data
// had to be read.
//
// The invariant holds ACROSS TIERS: archived blocks consulted through the
// tier catalog count into the same chunks_* totals (an archive block is one
// demoted chunk, classified by its zone map exactly like a hot summary), and
// additionally into the tier_* counters below — which obey the same
// tier_chunks_pruned + tier_chunks_scanned == tier_chunks_considered
// equation, so the hot-only share is recoverable by subtraction.
//
// The engine also folds each finished trace into the metrics registry
// (loom_query_* counters and per-operator latency histograms), so the
// aggregate picture is available from the daemon's exposition endpoint even
// when no caller asks for traces.

#ifndef SRC_CORE_QUERY_TRACE_H_
#define SRC_CORE_QUERY_TRACE_H_

#include <cstdint>
#include <string>

namespace loom {

struct QueryTrace {
  const char* op = "";

  uint64_t chunks_considered = 0;
  uint64_t chunks_pruned = 0;          // settled by the summary; no record reads
  uint64_t chunks_summary_folded = 0;  // subset of pruned: bins folded into result
  uint64_t chunks_scanned = 0;

  uint64_t records_examined = 0;  // records decoded during scans / chain walks
  uint64_t records_matched = 0;   // records delivered to the caller
  uint64_t bytes_read = 0;        // record-log bytes decoded

  uint64_t cache_hits = 0;    // decoded-summary cache
  uint64_t cache_misses = 0;

  // Archive tier (all zero when no archived data was consulted). These are
  // subsets of the chunks_* / bytes totals above, not additions to them:
  // tier_bytes_read counts compressed archive bytes fetched, included in
  // bytes_read.
  uint64_t tier_archives_consulted = 0;     // archives whose zone maps were read
  uint64_t tier_chunks_considered = 0;      // archived blocks examined
  uint64_t tier_chunks_pruned = 0;          // settled by the zone map alone
  uint64_t tier_chunks_summary_folded = 0;  // subset of tier pruned
  uint64_t tier_chunks_scanned = 0;         // blocks decompressed + decoded
  uint64_t tier_bytes_read = 0;

  // Stage timings (nanoseconds). plan = snapshot + candidate collection;
  // scan = record-range scans and chain walks. Only measured when the caller
  // passed a trace (detailed = true); total_nanos additionally feeds the
  // per-operator histogram whenever latency metrics are enabled. merge_nanos
  // is always 0 (a query runs its candidates one at a time on the calling
  // thread, so there are no partials to combine); perfbench still reads it.
  uint64_t plan_nanos = 0;
  uint64_t scan_nanos = 0;
  uint64_t merge_nanos = 0;
  uint64_t total_nanos = 0;

  // Set by the engine when the caller asked for this trace; gates the
  // per-stage clock reads so internal bookkeeping stays cheap.
  bool detailed = false;

  std::string ToString() const {
    std::string s;
    s.reserve(256);
    s += "QueryTrace{op=";
    s += op;
    s += " chunks=" + std::to_string(chunks_considered) +
         " pruned=" + std::to_string(chunks_pruned) +
         " folded=" + std::to_string(chunks_summary_folded) +
         " scanned=" + std::to_string(chunks_scanned) +
         " records=" + std::to_string(records_examined) +
         " matched=" + std::to_string(records_matched) +
         " bytes=" + std::to_string(bytes_read) +
         " cache_hit=" + std::to_string(cache_hits) + "/" +
         std::to_string(cache_hits + cache_misses);
    if (tier_archives_consulted > 0 || tier_chunks_considered > 0) {
      s += " tier_archives=" + std::to_string(tier_archives_consulted) +
           " tier_chunks=" + std::to_string(tier_chunks_considered) +
           " tier_pruned=" + std::to_string(tier_chunks_pruned) +
           " tier_folded=" + std::to_string(tier_chunks_summary_folded) +
           " tier_scanned=" + std::to_string(tier_chunks_scanned) +
           " tier_bytes=" + std::to_string(tier_bytes_read);
    }
    s += " plan_us=" + std::to_string(plan_nanos / 1000) +
         " scan_us=" + std::to_string(scan_nanos / 1000) +
         " total_us=" + std::to_string(total_nanos / 1000) + "}";
    return s;
  }
};

}  // namespace loom

#endif  // SRC_CORE_QUERY_TRACE_H_
