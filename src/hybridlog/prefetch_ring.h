// Chunk prefetch ring: overlaps log I/O for chunk c+k with decode of chunk c.
//
// A percentile query's stage-2 rescan knows its exact list of chunks to read
// (decoded summaries in hand, every listed chunk is scanned), so the I/O
// schedule is known up front. A single background thread walks that list a
// bounded distance (`depth`) ahead of the consumers and copies each chunk's
// bytes into an owned buffer. Candidate lists are not submitted: summaries
// prune or fold most candidates, and reading those ahead cost more CPU than
// the overlap saved (DESIGN.md "Prefetch ring"). Consumers call Take(i) — never blocking — and either get the
// prefetched buffer (hit: decode starts without touching the log) or nothing
// (miss: the consumer falls back to its CachedLogReader and the ring skips
// that index).
//
// Semantics that keep the ring an *optimization*, never a correctness layer:
//   - Take(i) advancing the consumption cursor is the only back-pressure;
//     the worker never reads past cursor + depth, bounding resident bytes to
//     depth * chunk_size per job.
//   - A read below the retention floor fails inside HybridLog::Read; the
//     slot is marked failed and Take(i) reports a miss. Callers re-check the
//     floor before trusting a buffer (see DESIGN.md "Prefetch ring").
//   - Buffers prefetched but never taken (early-stop queries, consumers that
//     overtake the worker) are counted as wasted when the job retires.
//
// One prefetcher instance lives on the Loom engine; jobs are per-query and
// processed FIFO. The worker thread starts lazily on the first Submit.

#ifndef SRC_HYBRIDLOG_PREFETCH_RING_H_
#define SRC_HYBRIDLOG_PREFETCH_RING_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "src/hybridlog/hybrid_log.h"

namespace loom {

class ChunkPrefetcher {
 public:
  struct Range {
    uint64_t addr = 0;
    uint32_t len = 0;
  };

  // Cumulative counters across all jobs, read by the metrics hook.
  struct Stats {
    uint64_t issued = 0;  // ranges the worker actually read into the ring
    uint64_t hits = 0;    // Take() calls served from a prefetched buffer
    uint64_t wasted = 0;  // prefetched buffers that were never taken
    uint64_t depth = 0;   // configured read-ahead depth of the latest job
  };

  ChunkPrefetcher() = default;
  ~ChunkPrefetcher();
  ChunkPrefetcher(const ChunkPrefetcher&) = delete;
  ChunkPrefetcher& operator=(const ChunkPrefetcher&) = delete;

  class Job {
   public:
    ~Job();  // retires the job: pending slots become wasted
    Job(const Job&) = delete;
    Job& operator=(const Job&) = delete;

    // Non-blocking. Returns the prefetched bytes of ranges[i] if the ring
    // already read them, otherwise nullopt (caller reads via its own path).
    // Each index is taken at most once; callers may take out of order from
    // multiple threads. Advances the read-ahead window either way.
    std::optional<std::vector<uint8_t>> Take(size_t i);

   private:
    friend class ChunkPrefetcher;
    struct State;
    explicit Job(std::shared_ptr<State> state) : state_(std::move(state)) {}
    std::shared_ptr<State> state_;
  };

  // Queues a prefetch job over `ranges` of `log` with the given read-ahead
  // depth (clamped to >= 1). `log` must outlive the returned Job. Returns
  // null when `ranges` is empty.
  std::unique_ptr<Job> Submit(const HybridLog* log, std::vector<Range> ranges,
                              size_t depth);

  Stats stats() const;

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Job::State>> queue_;
  Stats stats_;
  std::thread worker_;
  bool worker_started_ = false;
  bool stop_ = false;
};

}  // namespace loom

#endif  // SRC_HYBRIDLOG_PREFETCH_RING_H_
