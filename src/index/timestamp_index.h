// Timestamp index: a coarse, append-only timeline of events (§4.2).
//
// Loom appends fixed-size entries for (i) periodic per-source record arrivals
// and (ii) chunk finalizations. Entries are written in monotonically
// increasing timestamp order into their own hybrid log, so a reader can
// binary-search by time in O(log n) and then follow per-source / per-kind
// back-pointer chains.
//
// Entries are exactly 32 bytes and the hybrid log block size is kept a
// multiple of 32 by the engine, so no entry ever spans a block and the log is
// a dense array of entries addressable by index.

#ifndef SRC_INDEX_TIMESTAMP_INDEX_H_
#define SRC_INDEX_TIMESTAMP_INDEX_H_

#include <cstdint>
#include <optional>

#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/hybridlog/hybrid_log.h"

namespace loom {

struct TimestampIndexEntry {
  enum class Kind : uint8_t {
    kRecord = 1,  // periodic per-source record marker; target = record address
    kChunk = 2,   // chunk finalization; target = chunk summary address
  };

  Kind kind = Kind::kRecord;
  uint32_t source_id = 0;  // meaningful for kRecord
  TimestampNanos ts = 0;
  uint64_t target_addr = 0;
  uint64_t prev_addr = kNullAddr;  // previous entry of same source / same kind

  static constexpr size_t kEncodedSize = 32;

  void EncodeTo(uint8_t* dst) const;
  static TimestampIndexEntry Decode(const uint8_t* src);
};

// Writer-side helper owning the chaining state. The entries live in a hybrid
// log owned by the engine; this class tracks per-kind chain heads.
class TimestampIndexWriter {
 public:
  explicit TimestampIndexWriter(HybridLog* log) : log_(log) {}

  // Appends a periodic record marker. `prev` is the previous marker address
  // for the same source (kNullAddr if none). Returns the entry address.
  Result<uint64_t> AppendRecordMarker(uint32_t source_id, TimestampNanos ts, uint64_t record_addr,
                                      uint64_t prev);

  // Appends a chunk finalization event, chained to the previous chunk event.
  Result<uint64_t> AppendChunkEvent(TimestampNanos ts, uint64_t summary_addr);

  uint64_t last_chunk_event_addr() const { return last_chunk_event_; }

 private:
  HybridLog* log_;
  uint64_t last_chunk_event_ = kNullAddr;
};

// Reader-side view over a snapshot of the timestamp index.
class TimestampIndexReader {
 public:
  // `tail` is the snapshot boundary (from HybridLog::queryable_tail at
  // snapshot creation); only entries below it are visible.
  TimestampIndexReader(const HybridLog* log, uint64_t tail) : log_(log), tail_(tail) {}

  uint64_t num_entries() const { return tail_ / TimestampIndexEntry::kEncodedSize; }

  Result<TimestampIndexEntry> ReadAt(uint64_t addr) const;
  Result<TimestampIndexEntry> ReadIndex(uint64_t i) const {
    return ReadAt(i * TimestampIndexEntry::kEncodedSize);
  }

  // Index of the last entry with ts <= `ts`, or nullopt if none.
  Result<std::optional<uint64_t>> LastEntryAtOrBefore(TimestampNanos ts) const;

  // Index of the first entry with ts > `ts`, or nullopt if none.
  Result<std::optional<uint64_t>> FirstEntryAfter(TimestampNanos ts) const;

  // Earliest record marker for `source_id` with ts > `ts` (used to bound
  // backward record-chain walks). Scans forward from the binary-search
  // position.
  Result<std::optional<TimestampIndexEntry>> FirstRecordMarkerAfter(uint32_t source_id,
                                                                    TimestampNanos ts) const;

 private:
  const HybridLog* log_;
  uint64_t tail_;
};

}  // namespace loom

#endif  // SRC_INDEX_TIMESTAMP_INDEX_H_
