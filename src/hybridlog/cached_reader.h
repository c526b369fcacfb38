// Chunk-granular read cache for query scans.
//
// Query operators walk record chains and scan chunks; both access patterns
// are spatially local. This helper reads the hybrid log in aligned windows
// and serves repeated nearby reads from resident buffers, so a chain walk
// costs roughly one log read per window instead of two per record. Buffers
// are scan-local (one reader per operator invocation), keeping query memory
// bounded and constant as §3 requires.
//
// A reader may hold up to `max_windows` resident windows (default 1), evicted
// least-recently-used, so a walk that alternates between two regions keeps
// both resident.

#ifndef SRC_HYBRIDLOG_CACHED_READER_H_
#define SRC_HYBRIDLOG_CACHED_READER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/status.h"
#include "src/hybridlog/hybrid_log.h"

namespace loom {

class CachedLogReader {
 public:
  // `limit` is the snapshot tail: reads never go beyond it. `window` is any
  // positive size (a power of two is not required); window loads start at
  // multiples of it. `max_windows` >= 1 bounds resident buffers.
  CachedLogReader(const HybridLog* log, uint64_t limit, size_t window,
                  size_t max_windows = 1)
      : log_(log), limit_(limit), window_(window),
        max_windows_(max_windows == 0 ? 1 : max_windows) {}

  // Returns a view of [addr, addr+len) valid until the next Fetch call.
  // Fails with OutOfRange only when those bytes are past `limit` or below the
  // retention floor, not when retention merely reclaims the start of the
  // window being loaded around them.
  Result<std::span<const uint8_t>> Fetch(uint64_t addr, size_t len);

  uint64_t limit() const { return limit_; }

  // Fetch calls served, and how many of them had to load a window from the
  // log (the rest were satisfied from resident buffers).
  uint64_t fetches() const { return fetches_; }
  uint64_t window_loads() const { return window_loads_; }

 private:
  struct Window {
    std::vector<uint8_t> buf;
    uint64_t addr = 0;
    size_t len = 0;       // 0 = empty slot
    uint64_t last_use = 0;
  };

  // Index of the resident window covering [addr, addr+len), or -1.
  int FindWindow(uint64_t addr, size_t len) const;
  // Slot to load into: an empty slot, a new slot below max_windows_, or the
  // least-recently-used one.
  int VictimSlot();
  // Loads the aligned window containing [addr, addr+len) into slot `w`.
  Status LoadWindow(int w, uint64_t addr, size_t len);

  const HybridLog* log_;
  uint64_t limit_;
  size_t window_;
  size_t max_windows_;
  std::vector<Window> windows_;
  uint64_t use_tick_ = 0;
  uint64_t fetches_ = 0;
  uint64_t window_loads_ = 0;
};

}  // namespace loom

#endif  // SRC_HYBRIDLOG_CACHED_READER_H_
