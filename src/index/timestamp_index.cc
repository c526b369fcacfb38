#include "src/index/timestamp_index.h"

#include "src/common/codec.h"

namespace loom {

void TimestampIndexEntry::EncodeTo(uint8_t* dst) const {
  dst[0] = static_cast<uint8_t>(kind);
  dst[1] = 0;
  dst[2] = 0;
  dst[3] = 0;
  StoreU32(dst + 4, source_id);
  StoreU64(dst + 8, ts);
  StoreU64(dst + 16, target_addr);
  StoreU64(dst + 24, prev_addr);
}

TimestampIndexEntry TimestampIndexEntry::Decode(const uint8_t* src) {
  TimestampIndexEntry e;
  e.kind = static_cast<Kind>(src[0]);
  e.source_id = LoadU32(src + 4);
  e.ts = LoadU64(src + 8);
  e.target_addr = LoadU64(src + 16);
  e.prev_addr = LoadU64(src + 24);
  return e;
}

Result<uint64_t> TimestampIndexWriter::AppendRecordMarker(uint32_t source_id, TimestampNanos ts,
                                                          uint64_t record_addr, uint64_t prev) {
  TimestampIndexEntry e;
  e.kind = TimestampIndexEntry::Kind::kRecord;
  e.source_id = source_id;
  e.ts = ts;
  e.target_addr = record_addr;
  e.prev_addr = prev;
  auto reserved = log_->AppendReserve(TimestampIndexEntry::kEncodedSize);
  if (!reserved.ok()) {
    return reserved.status();
  }
  e.EncodeTo(reserved.value().second);
  return reserved.value().first;
}

Result<uint64_t> TimestampIndexWriter::AppendChunkEvent(TimestampNanos ts, uint64_t summary_addr) {
  TimestampIndexEntry e;
  e.kind = TimestampIndexEntry::Kind::kChunk;
  e.source_id = 0;
  e.ts = ts;
  e.target_addr = summary_addr;
  e.prev_addr = last_chunk_event_;
  auto reserved = log_->AppendReserve(TimestampIndexEntry::kEncodedSize);
  if (!reserved.ok()) {
    return reserved.status();
  }
  e.EncodeTo(reserved.value().second);
  last_chunk_event_ = reserved.value().first;
  return reserved.value().first;
}

Result<TimestampIndexEntry> TimestampIndexReader::ReadAt(uint64_t addr) const {
  uint8_t buf[TimestampIndexEntry::kEncodedSize];
  Status st = log_->Read(addr, std::span<uint8_t>(buf, sizeof(buf)));
  if (!st.ok()) {
    return st;
  }
  return TimestampIndexEntry::Decode(buf);
}

Result<std::optional<uint64_t>> TimestampIndexReader::LastEntryAtOrBefore(
    TimestampNanos ts) const {
  uint64_t lo = 0;
  uint64_t hi = num_entries();  // exclusive
  if (hi == 0) {
    return std::optional<uint64_t>(std::nullopt);
  }
  // Invariant: entries[0..lo) have ts <= `ts` candidates; classic binary
  // search over the monotone entry timestamps.
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo) / 2;
    auto e = ReadIndex(mid);
    if (!e.ok()) {
      return e.status();
    }
    if (e.value().ts <= ts) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == 0) {
    return std::optional<uint64_t>(std::nullopt);
  }
  return std::optional<uint64_t>(lo - 1);
}

Result<std::optional<uint64_t>> TimestampIndexReader::FirstEntryAfter(TimestampNanos ts) const {
  auto last = LastEntryAtOrBefore(ts);
  if (!last.ok()) {
    return last.status();
  }
  const uint64_t first = last.value().has_value() ? *last.value() + 1 : 0;
  if (first >= num_entries()) {
    return std::optional<uint64_t>(std::nullopt);
  }
  return std::optional<uint64_t>(first);
}

Result<std::optional<TimestampIndexEntry>> TimestampIndexReader::FirstRecordMarkerAfter(
    uint32_t source_id, TimestampNanos ts) const {
  auto pos = FirstEntryAfter(ts);
  if (!pos.ok()) {
    return pos.status();
  }
  if (!pos.value().has_value()) {
    return std::optional<TimestampIndexEntry>(std::nullopt);
  }
  const uint64_t n = num_entries();
  for (uint64_t i = *pos.value(); i < n; ++i) {
    auto e = ReadIndex(i);
    if (!e.ok()) {
      return e.status();
    }
    if (e.value().kind == TimestampIndexEntry::Kind::kRecord &&
        e.value().source_id == source_id) {
      return std::optional<TimestampIndexEntry>(e.value());
    }
  }
  return std::optional<TimestampIndexEntry>(std::nullopt);
}

}  // namespace loom
