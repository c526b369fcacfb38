#include "src/hybridlog/cached_reader.h"

#include <algorithm>

namespace loom {

int CachedLogReader::FindWindow(uint64_t addr, size_t len) const {
  for (size_t i = 0; i < windows_.size(); ++i) {
    const Window& w = windows_[i];
    if (w.len != 0 && addr >= w.addr && addr + len <= w.addr + w.len) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

int CachedLogReader::VictimSlot() {
  for (size_t i = 0; i < windows_.size(); ++i) {
    if (windows_[i].len == 0) {
      return static_cast<int>(i);
    }
  }
  if (windows_.size() < max_windows_) {
    windows_.emplace_back();
    return static_cast<int>(windows_.size() - 1);
  }
  size_t victim = 0;
  for (size_t i = 1; i < windows_.size(); ++i) {
    if (windows_[i].last_use < windows_[victim].last_use) {
      victim = i;
    }
  }
  return static_cast<int>(victim);
}

Status CachedLogReader::LoadWindow(int w, uint64_t addr, size_t len) {
  // Load the aligned window containing `addr`; extend if the request spans
  // window boundaries (records never span chunks, but callers may use
  // windows smaller than a chunk). The window must not dip below the
  // retention floor, where reads fail.
  const uint64_t aligned = addr - (addr % window_);
  Window& win = windows_[static_cast<size_t>(w)];
  win.len = 0;
  for (;;) {
    const uint64_t start = std::max(aligned, std::min(log_->retained_floor(), addr));
    const uint64_t end =
        std::min<uint64_t>(limit_, std::max<uint64_t>(start + window_, addr + len));
    win.buf.resize(static_cast<size_t>(end - start));
    Status st = log_->Read(start, std::span<uint8_t>(win.buf.data(), win.buf.size()));
    if (st.ok()) {
      win.addr = start;
      win.len = win.buf.size();
      win.last_use = ++use_tick_;
      return Status::Ok();
    }
    // Retention may advance between sampling the floor and the read, leaving
    // the window's start below the new floor. Retry from the new floor while
    // the requested bytes themselves are still retained; otherwise the read
    // really reached reclaimed data.
    const uint64_t floor = log_->retained_floor();
    if (st.code() != StatusCode::kOutOfRange || floor <= start || addr < floor) {
      return st;
    }
  }
}

Result<std::span<const uint8_t>> CachedLogReader::Fetch(uint64_t addr, size_t len) {
  ++fetches_;
  if (addr + len > limit_) {
    return Status::OutOfRange("fetch past snapshot tail");
  }
  int w = FindWindow(addr, len);
  if (w < 0) {
    ++window_loads_;
    w = VictimSlot();
    LOOM_RETURN_IF_ERROR(LoadWindow(w, addr, len));
  }
  Window& win = windows_[static_cast<size_t>(w)];
  win.last_use = ++use_tick_;
  return std::span<const uint8_t>(win.buf.data() + (addr - win.addr), len);
}

}  // namespace loom
