#include "src/hybridlog/prefetch_ring.h"

#include <algorithm>
#include <span>

namespace loom {

// All fields are guarded by the owning prefetcher's mu_. Slot lifecycle:
//   kEmpty --worker picks--> kLoading --read ok--> kReady --Take--> kDone (hit)
//   kEmpty --Take (consumer got there first)--> kDone (miss; never loaded)
//   kLoading --Take--> kMissed --read completes--> kDone (wasted)
//   kLoading --read fails--> kDone (miss on a later Take)
//   kReady --job retires untaken--> kDone (wasted)
struct ChunkPrefetcher::Job::State {
  enum class Slot : uint8_t { kEmpty, kLoading, kMissed, kReady, kDone };

  ChunkPrefetcher* owner = nullptr;
  const HybridLog* log = nullptr;
  std::vector<Range> ranges;
  size_t depth = 1;
  std::vector<Slot> slots;
  std::vector<std::vector<uint8_t>> bufs;
  size_t cursor = 0;     // read-ahead window base: max(i)+1 over Take calls
  size_t scan_hint = 0;  // lowest index that may still be kEmpty
  bool cancelled = false;
};

ChunkPrefetcher::~ChunkPrefetcher() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (worker_started_) {
    worker_.join();
  }
}

std::unique_ptr<ChunkPrefetcher::Job> ChunkPrefetcher::Submit(
    const HybridLog* log, std::vector<Range> ranges, size_t depth) {
  if (ranges.empty()) {
    return nullptr;
  }
  auto state = std::make_shared<Job::State>();
  state->owner = this;
  state->log = log;
  state->depth = std::max<size_t>(1, depth);
  state->slots.assign(ranges.size(), Job::State::Slot::kEmpty);
  state->bufs.resize(ranges.size());
  state->ranges = std::move(ranges);
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.depth = state->depth;
    queue_.push_back(state);
    if (!worker_started_) {
      worker_started_ = true;
      worker_ = std::thread([this] { WorkerLoop(); });
    }
  }
  cv_.notify_all();
  return std::unique_ptr<Job>(new Job(std::move(state)));
}

ChunkPrefetcher::Job::~Job() {
  if (!state_) {
    return;
  }
  ChunkPrefetcher* owner = state_->owner;
  {
    std::lock_guard<std::mutex> lock(owner->mu_);
    state_->cancelled = true;
    for (size_t i = 0; i < state_->slots.size(); ++i) {
      if (state_->slots[i] == State::Slot::kReady) {
        state_->slots[i] = State::Slot::kDone;
        state_->bufs[i] = {};
        ++owner->stats_.wasted;
      }
    }
    auto it = std::find(owner->queue_.begin(), owner->queue_.end(), state_);
    if (it != owner->queue_.end()) {
      owner->queue_.erase(it);
    }
  }
  owner->cv_.notify_all();
}

std::optional<std::vector<uint8_t>> ChunkPrefetcher::Job::Take(size_t i) {
  State& s = *state_;
  std::optional<std::vector<uint8_t>> out;
  {
    std::lock_guard<std::mutex> lock(s.owner->mu_);
    if (i >= s.slots.size()) {
      return std::nullopt;
    }
    s.cursor = std::max(s.cursor, i + 1);
    switch (s.slots[i]) {
      case State::Slot::kReady:
        s.slots[i] = State::Slot::kDone;
        out = std::move(s.bufs[i]);
        s.bufs[i] = {};
        ++s.owner->stats_.hits;
        break;
      case State::Slot::kEmpty:
        // Consumer overtook the ring: don't bother loading this one.
        s.slots[i] = State::Slot::kDone;
        break;
      case State::Slot::kLoading:
        // In flight but not here yet; the read becomes wasted on completion.
        s.slots[i] = State::Slot::kMissed;
        break;
      default:
        break;
    }
  }
  // The cursor moved, so the read-ahead window may have new room.
  s.owner->cv_.notify_all();
  return out;
}

void ChunkPrefetcher::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    std::shared_ptr<Job::State> job;
    size_t idx = 0;
    while (!job) {
      if (stop_) {
        return;
      }
      for (const auto& js : queue_) {
        while (js->scan_hint < js->slots.size() &&
               js->slots[js->scan_hint] != Job::State::Slot::kEmpty) {
          ++js->scan_hint;
        }
        const size_t hi = std::min(js->slots.size(), js->cursor + js->depth);
        if (js->scan_hint < hi) {
          job = js;
          idx = js->scan_hint;
          break;
        }
      }
      if (!job) {
        cv_.wait(lock);
      }
    }
    job->slots[idx] = Job::State::Slot::kLoading;
    const Range r = job->ranges[idx];
    const HybridLog* log = job->log;
    lock.unlock();
    std::vector<uint8_t> buf(r.len);
    const Status st = log->Read(r.addr, std::span<uint8_t>(buf.data(), buf.size()));
    lock.lock();
    ++stats_.issued;
    if (!st.ok()) {
      // Below the retention floor or past a truncation: the consumer's own
      // read path owns error handling; this slot just reports a miss.
      job->slots[idx] = Job::State::Slot::kDone;
    } else if (job->cancelled || job->slots[idx] == Job::State::Slot::kMissed) {
      job->slots[idx] = Job::State::Slot::kDone;
      ++stats_.wasted;
    } else {
      job->slots[idx] = Job::State::Slot::kReady;
      job->bufs[idx] = std::move(buf);
    }
  }
}

ChunkPrefetcher::Stats ChunkPrefetcher::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace loom
