// Parks one consumer thread until a producer has work for it.
//
// The consumer announces that it is parking, takes one last look for work,
// and only then waits; a producer publishes its work and then checks the
// announcement (a seq_cst fence on each side orders the two). So either the
// consumer's last look sees the work, or the producer sees the consumer
// parked and wakes it. A producer pays a fence and a load when the consumer
// is running, and takes the mutex only to wake a parked one, so a thread with
// nothing to do costs no CPU and no wake-ups.
//
// Any number of threads may call WakeIfParked() and Wake(); one thread at a
// time calls Park().

#ifndef SRC_COMMON_WAKER_H_
#define SRC_COMMON_WAKER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>

namespace loom {

class Waker {
 public:
  Waker() = default;
  Waker(const Waker&) = delete;
  Waker& operator=(const Waker&) = delete;

  // Parks the calling thread until a Wake() or a WakeIfParked() that follows
  // the announcement, or until `timeout` (when set) passes, unless
  // `has_work()` already returns true once parking is announced. May return
  // early once after a wake that came while the thread was running, so
  // callers recheck their condition in a loop.
  template <typename HasWork>
  void Park(const HasWork& has_work,
            std::optional<std::chrono::nanoseconds> timeout = std::nullopt) {
    parked_.store(true, std::memory_order_relaxed);
    // Pairs with the fence in WakeIfParked.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (!has_work()) {
      std::unique_lock<std::mutex> lock(mu_);
      if (timeout.has_value()) {
        cv_.wait_for(lock, *timeout, [this] { return wake_; });
      } else {
        cv_.wait(lock, [this] { return wake_; });
      }
      wake_ = false;
    }
    parked_.store(false, std::memory_order_relaxed);
  }

  // After publishing work: wakes the thread only if it announced that it is
  // parking.
  void WakeIfParked() {
    // Pairs with the fence in Park: either this load sees the thread parked,
    // or the thread's last look sees the work published before this fence.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (parked_.load(std::memory_order_relaxed)) {
      Wake();
    }
  }

  // Unconditional: for stop requests and callers that wait for the thread.
  void Wake() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      wake_ = true;
    }
    cv_.notify_one();
  }

 private:
  std::atomic<bool> parked_{false};
  std::mutex mu_;
  std::condition_variable cv_;
  bool wake_ = false;  // guarded by mu_
};

}  // namespace loom

#endif  // SRC_COMMON_WAKER_H_
