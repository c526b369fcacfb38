#include "src/core/query_thread_pool.h"

#include <algorithm>

namespace loom {

namespace {
thread_local bool t_on_worker_thread = false;
}  // namespace

// Shared state of one RunOrdered invocation. Workers and the caller claim
// morsels via `next`; completion is tracked per morsel (`done`) so the caller
// can consume strictly in order while production runs ahead, bounded by
// `window`. The caller marks the run `finished` before returning; a worker
// whose ticket outlived the run sees that and walks away, and the caller
// waits for `active` to drain so no worker ever touches freed caller state.
struct QueryThreadPool::RunState {
  size_t n = 0;
  size_t window = 0;  // 0 = unbounded
  const std::function<void(size_t)>* fn = nullptr;

  std::atomic<size_t> next{0};      // first unclaimed morsel
  std::atomic<size_t> consumed{0};  // morsels consumed by the caller
  std::atomic<bool> cancelled{false};
  std::unique_ptr<std::atomic<uint8_t>[]> done;
  std::atomic<size_t> workers_used{0};

  std::mutex mu;
  std::condition_variable cv;
  bool finished = false;  // guarded by mu
  size_t active = 0;      // threads inside WorkBody, guarded by mu

  bool WindowBlocked(size_t i) const {
    return window != 0 && i >= consumed.load(std::memory_order_acquire) + window;
  }
};

QueryThreadPool::QueryThreadPool(size_t num_threads) : num_threads_(num_threads) {}

QueryThreadPool::~QueryThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) {
    t.join();
  }
}

bool QueryThreadPool::started() const {
  std::lock_guard<std::mutex> lock(mu_);
  return started_;
}

size_t QueryThreadPool::QueueDepthApprox() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

bool QueryThreadPool::OnWorkerThread() { return t_on_worker_thread; }

void QueryThreadPool::EnsureStarted() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_ || num_threads_ == 0) {
    return;
  }
  started_ = true;
  threads_.reserve(num_threads_);
  for (size_t i = 0; i < num_threads_; ++i) {
    threads_.emplace_back([this] { WorkerMain(); });
  }
}

void QueryThreadPool::WorkerMain() {
  t_on_worker_thread = true;
  for (;;) {
    std::shared_ptr<RunState> state;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (stopping_) {
        return;
      }
      state = std::move(queue_.front());
      queue_.pop_front();
    }
    {
      std::lock_guard<std::mutex> lock(state->mu);
      if (state->finished) {
        continue;  // late ticket: the run already completed
      }
      ++state->active;
    }
    const bool worked = WorkBody(*state);
    if (worked) {
      state->workers_used.fetch_add(1, std::memory_order_relaxed);
    }
    {
      std::lock_guard<std::mutex> lock(state->mu);
      --state->active;
    }
    state->cv.notify_all();
  }
}

bool QueryThreadPool::WorkBody(RunState& state) {
  bool worked = false;
  for (;;) {
    if (state.cancelled.load(std::memory_order_relaxed)) {
      break;
    }
    size_t i = state.next.load(std::memory_order_relaxed);
    if (i >= state.n) {
      break;
    }
    if (state.WindowBlocked(i)) {
      // Production ran `window` morsels ahead of the consumer; park until
      // consumption advances (or the run ends).
      std::unique_lock<std::mutex> lock(state.mu);
      state.cv.wait(lock, [&] {
        return state.finished || state.cancelled.load(std::memory_order_relaxed) ||
               state.next.load(std::memory_order_relaxed) >= state.n ||
               !state.WindowBlocked(state.next.load(std::memory_order_relaxed));
      });
      continue;
    }
    i = state.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= state.n) {
      break;
    }
    (*state.fn)(i);
    worked = true;
    state.done[i].store(1, std::memory_order_release);
    // Lock/unlock before notifying so a consumer between its predicate check
    // and the wait cannot miss this completion.
    { std::lock_guard<std::mutex> lock(state.mu); }
    state.cv.notify_all();
  }
  return worked;
}

QueryThreadPool::RunStats QueryThreadPool::RunOrdered(size_t n, size_t window,
                                                      const std::function<void(size_t)>& fn,
                                                      const std::function<bool(size_t)>& consume) {
  RunStats stats;
  stats.morsels = n;
  if (n == 0) {
    return stats;
  }
  auto state = std::make_shared<RunState>();
  state->n = n;
  state->window = window;
  state->fn = &fn;
  state->done = std::make_unique<std::atomic<uint8_t>[]>(n);
  for (size_t i = 0; i < n; ++i) {
    state->done[i].store(0, std::memory_order_relaxed);
  }

  EnsureStarted();
  const size_t tickets = std::min(num_threads_, n > 1 ? n - 1 : 0);
  if (tickets > 0) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (size_t t = 0; t < tickets; ++t) {
        queue_.push_back(state);
      }
    }
    cv_.notify_all();
  }

  // The caller produces alongside the workers and consumes in order. While
  // morsel i is unfinished the caller either claims more work or — when
  // nothing is claimable — waits; a wait can only happen once morsel i has
  // been claimed by some thread, so it always terminates.
  bool caller_worked = false;
  for (size_t i = 0; i < n && !state->cancelled.load(std::memory_order_relaxed); ++i) {
    while (!state->done[i].load(std::memory_order_acquire)) {
      size_t j = state->next.load(std::memory_order_relaxed);
      if (j < n && !state->WindowBlocked(j)) {
        j = state->next.fetch_add(1, std::memory_order_relaxed);
        if (j < n) {
          fn(j);
          caller_worked = true;
          state->done[j].store(1, std::memory_order_release);
          state->cv.notify_all();
          continue;
        }
      }
      std::unique_lock<std::mutex> lock(state->mu);
      state->cv.wait(lock, [&] { return state->done[i].load(std::memory_order_acquire) != 0; });
    }
    if (!consume(i)) {
      state->cancelled.store(true, std::memory_order_relaxed);
      stats.cancelled = true;
    }
    state->consumed.store(i + 1, std::memory_order_release);
    if (window != 0 || stats.cancelled) {
      // Wake window-parked producers (or, on cancel, everyone).
      { std::lock_guard<std::mutex> lock(state->mu); }
      state->cv.notify_all();
    }
  }

  // Drop unclaimed tickets for this run, then wait for active workers to
  // leave before the caller-owned fn/consume state goes out of scope.
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = queue_.begin(); it != queue_.end();) {
      it = (*it == state) ? queue_.erase(it) : std::next(it);
    }
  }
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->finished = true;
    state->cv.notify_all();
    state->cv.wait(lock, [&] { return state->active == 0; });
  }
  if (caller_worked) {
    state->workers_used.fetch_add(1, std::memory_order_relaxed);
  }
  stats.workers_used = state->workers_used.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace loom
