#include "src/index/chunk_summary.h"

#include <algorithm>

#include "src/common/codec.h"

namespace loom {

namespace {

// Fixed encoded sizes.
constexpr size_t kHeaderSize = 8 + 4 + 4 + 8 + 8;       // addr, len, n_entries, min_ts, max_ts
constexpr size_t kEntrySize = 4 + 4 + 4 + 8 + 8 + 8 + 8 + 8 + 8;  // key + BinStats

void EncodeEntry(std::vector<uint8_t>& out, const ChunkSummary::Entry& e) {
  PutU32(out, e.source_id);
  PutU32(out, e.index_id);
  PutU32(out, e.bin);
  PutU64(out, e.stats.count);
  PutF64(out, e.stats.sum);
  PutF64(out, e.stats.min);
  PutF64(out, e.stats.max);
  PutU64(out, e.stats.min_ts);
  PutU64(out, e.stats.max_ts);
}

ChunkSummary::Entry DecodeEntry(std::span<const uint8_t> bytes, size_t off) {
  ChunkSummary::Entry e;
  e.source_id = GetU32(bytes, off);
  e.index_id = GetU32(bytes, off + 4);
  e.bin = GetU32(bytes, off + 8);
  e.stats.count = GetU64(bytes, off + 12);
  e.stats.sum = GetF64(bytes, off + 20);
  e.stats.min = GetF64(bytes, off + 28);
  e.stats.max = GetF64(bytes, off + 36);
  e.stats.min_ts = GetU64(bytes, off + 44);
  e.stats.max_ts = GetU64(bytes, off + 52);
  return e;
}

}  // namespace

size_t ChunkSummary::EncodedSize() const { return kHeaderSize + entries.size() * kEntrySize; }

void ChunkSummary::EncodeTo(std::vector<uint8_t>& out) const {
  out.reserve(out.size() + EncodedSize());
  PutU64(out, chunk_addr);
  PutU32(out, chunk_len);
  PutU32(out, static_cast<uint32_t>(entries.size()));
  PutU64(out, min_ts);
  PutU64(out, max_ts);
  for (const Entry& e : entries) {
    EncodeEntry(out, e);
  }
}

Result<ChunkSummary> ChunkSummary::Decode(std::span<const uint8_t> bytes) {
  if (bytes.size() < kHeaderSize) {
    return Status::DataLoss("chunk summary truncated header");
  }
  ChunkSummary s;
  s.chunk_addr = GetU64(bytes, 0);
  s.chunk_len = GetU32(bytes, 8);
  const uint32_t n = GetU32(bytes, 12);
  s.min_ts = GetU64(bytes, 16);
  s.max_ts = GetU64(bytes, 24);
  if (bytes.size() < kHeaderSize + static_cast<size_t>(n) * kEntrySize) {
    return Status::DataLoss("chunk summary truncated entries");
  }
  s.entries.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    s.entries.push_back(DecodeEntry(bytes, kHeaderSize + static_cast<size_t>(i) * kEntrySize));
  }
  return s;
}

Result<bool> ChunkFrameIterator::Next(ChunkSummary* out) {
  while (addr_ + 4 <= limit_) {
    auto len_bytes = fetch_(addr_, 4);
    if (!len_bytes.ok()) {
      return len_bytes.status();
    }
    const uint32_t len = LoadU32(len_bytes.value().data());
    if (len == kChunkPadFrame) {
      addr_ = addr_ - addr_ % block_size_ + block_size_;
      continue;
    }
    if (addr_ + 4 + len > limit_) {
      return false;
    }
    auto body = fetch_(addr_ + 4, len);
    if (!body.ok()) {
      return body.status();
    }
    auto summary = ChunkSummary::Decode(body.value());
    if (!summary.ok()) {
      return summary.status();
    }
    *out = std::move(summary.value());
    addr_ += 4 + len;
    return true;
  }
  return false;
}

size_t ChunkSummaryBuilder::RegisterSlot(uint32_t source_id, uint32_t index_id,
                                         uint32_t num_bins) {
  // Reuse a dead slot if available.
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (!slots_[i].active && !slots_[i].dirty) {
      slots_[i] = Slot{};
      slots_[i].source_id = source_id;
      slots_[i].index_id = index_id;
      slots_[i].active = true;
      slots_[i].bins.assign(num_bins, BinStats{});
      return i;
    }
  }
  Slot slot;
  slot.source_id = source_id;
  slot.index_id = index_id;
  slot.active = true;
  slot.bins.assign(num_bins, BinStats{});
  slots_.push_back(std::move(slot));
  return slots_.size() - 1;
}

void ChunkSummaryBuilder::UnregisterSlot(size_t slot) { slots_[slot].active = false; }

void ChunkSummaryBuilder::Update(size_t slot, uint32_t bin, double value, TimestampNanos ts) {
  Slot& s = slots_[slot];
  s.bins[bin].Update(value, ts);
  MarkDirty(slot);
}

void ChunkSummaryBuilder::UpdateBatch(size_t slot, const uint32_t* bins, const double* values,
                                      const TimestampNanos* ts, size_t n) {
  if (n == 0) {
    return;
  }
  Slot& s = slots_[slot];
  for (size_t i = 0; i < n; ++i) {
    s.bins[bins[i]].Update(values[i], ts[i]);
  }
  MarkDirty(slot);
}

void ChunkSummaryBuilder::NoteEvaluated(size_t slot) {
  ++slots_[slot].evaluated;
  MarkDirty(slot);
}

void ChunkSummaryBuilder::NoteEvaluatedBatch(size_t slot, uint64_t n) {
  if (n == 0) {
    return;
  }
  slots_[slot].evaluated += n;
  MarkDirty(slot);
}

void ChunkSummaryBuilder::UpdatePresence(size_t presence_slot, TimestampNanos ts) {
  Slot& s = slots_[presence_slot];
  BinStats& b = s.bins[0];
  ++b.count;
  if (ts < b.min_ts) {
    b.min_ts = ts;
  }
  if (ts > b.max_ts) {
    b.max_ts = ts;
  }
  MarkDirty(presence_slot);
  ++total_records_;
  if (ts < chunk_min_ts_) {
    chunk_min_ts_ = ts;
  }
  if (ts > chunk_max_ts_) {
    chunk_max_ts_ = ts;
  }
}

ChunkSummary ChunkSummaryBuilder::Finalize(uint64_t chunk_addr, uint32_t chunk_len) {
  ChunkSummary summary;
  summary.chunk_addr = chunk_addr;
  summary.chunk_len = chunk_len;
  summary.min_ts = total_records_ == 0 ? 0 : chunk_min_ts_;
  summary.max_ts = chunk_max_ts_;
  std::sort(dirty_slots_.begin(), dirty_slots_.end());
  for (size_t slot_idx : dirty_slots_) {
    Slot& slot = slots_[slot_idx];
    if (slot.evaluated > 0) {
      ChunkSummary::Entry e;
      e.source_id = slot.source_id;
      e.index_id = slot.index_id;
      e.bin = kEvaluatedBin;
      e.stats.count = slot.evaluated;
      summary.entries.push_back(e);
    }
    for (uint32_t bin = 0; bin < slot.bins.size(); ++bin) {
      BinStats& stats = slot.bins[bin];
      if (stats.count == 0) {
        continue;  // never updated this chunk, so already zero
      }
      ChunkSummary::Entry e;
      e.source_id = slot.source_id;
      e.index_id = slot.index_id;
      e.bin = bin;
      e.stats = stats;
      summary.entries.push_back(e);
      stats = BinStats{};
    }
    slot.evaluated = 0;
    slot.dirty = false;
  }
  dirty_slots_.clear();
  total_records_ = 0;
  chunk_min_ts_ = std::numeric_limits<TimestampNanos>::max();
  chunk_max_ts_ = 0;
  return summary;
}

}  // namespace loom
