// Shared worker pool for morsel-driven parallel query execution.
//
// One pool is owned by a `Loom` engine (LoomOptions::query_threads > 0) and
// shared by every query. Threads start lazily on the first parallel query, so
// a serial deployment never pays for idle workers. A query partitions its
// candidate chunks into morsels, enqueues participation tickets, and the
// *calling* thread works alongside the pool — with zero pool threads the
// caller simply runs every morsel itself, which is also the degraded path
// while workers are busy with other queries.
//
// Workers produce morsel results out of order, bounded to a soft window
// ahead of consumption; the caller consumes results strictly in morsel order
// (the query executor uses this to fold outcomes and deliver callbacks in the
// exact serial order).
//
// Morsel functions must not throw, and must not issue parallel queries
// themselves — operators check OnWorkerThread() and fall back to serial
// execution inside a worker, so a user callback or index function that
// re-enters the engine cannot deadlock the pool.

#ifndef SRC_CORE_QUERY_THREAD_POOL_H_
#define SRC_CORE_QUERY_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace loom {

class QueryThreadPool {
 public:
  struct RunStats {
    size_t morsels = 0;
    // Distinct threads (pool workers + the caller) that ran >= 1 morsel.
    size_t workers_used = 0;
    bool cancelled = false;
  };

  explicit QueryThreadPool(size_t num_threads);
  ~QueryThreadPool();

  QueryThreadPool(const QueryThreadPool&) = delete;
  QueryThreadPool& operator=(const QueryThreadPool&) = delete;

  size_t num_threads() const { return num_threads_; }
  bool started() const;

  // Unclaimed participation tickets across in-flight runs (approximate; for
  // the loom_query_parallel_pool_queue_depth gauge).
  size_t QueueDepthApprox() const;

  // True when the calling thread is a worker of any QueryThreadPool in this
  // process. Query operators refuse nested parallelism based on this.
  static bool OnWorkerThread();

  // Runs fn(i) for every morsel i in [0, n) and invokes consume(0),
  // consume(1), ... strictly in order on the calling thread, each after fn(i)
  // finished. The caller participates; `fn` may run concurrently with itself
  // for distinct i. Production runs at most `window` morsels ahead of
  // consumption (0 = unbounded), bounding buffered results. consume(i)
  // returning false cancels all not-yet-started morsels and returns early
  // (stats.cancelled = true).
  RunStats RunOrdered(size_t n, size_t window, const std::function<void(size_t)>& fn,
                      const std::function<bool(size_t)>& consume);

 private:
  struct RunState;

  void EnsureStarted();
  void WorkerMain();
  // Claims and runs morsels of `state` until none remain (or cancelled).
  // Returns true if this thread ran at least one morsel.
  static bool WorkBody(RunState& state);

  const size_t num_threads_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  // Participation tickets: a worker pops one and joins that run. A run
  // enqueues min(num_threads, morsels) tickets.
  std::deque<std::shared_ptr<RunState>> queue_;
  std::vector<std::thread> threads_;
  bool started_ = false;
  bool stopping_ = false;
};

}  // namespace loom

#endif  // SRC_CORE_QUERY_THREAD_POOL_H_
