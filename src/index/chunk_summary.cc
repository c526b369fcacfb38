#include "src/index/chunk_summary.h"

#include <algorithm>
#include <bit>

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

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

bool SameBits(double a, double b) { return Bits(a) == Bits(b); }

// Appends a listing entry's values to a listed section: the width, then each
// value's low bytes, as many as the lowest byte in which any of them differs
// from `min` needs. Values of one bin share sign and, in power-of-two bins,
// exponent, so there a value takes 7 bytes or fewer.
void PackValues(double min, std::span<const double> values, std::vector<uint8_t>& out) {
  uint64_t diff = 0;
  for (double v : values) {
    diff |= Bits(v) ^ Bits(min);
  }
  const size_t width = diff == 0 ? 0 : 8 - static_cast<size_t>(std::countl_zero(diff)) / 8;
  size_t at = out.size();
  out.resize(at + 1 + values.size() * width);
  out[at++] = static_cast<uint8_t>(width);
  for (double v : values) {
    const uint64_t bits = Bits(v);
    for (size_t b = 0; b < width; ++b) {
      out[at++] = static_cast<uint8_t>(bits >> (8 * b));
    }
  }
}

// Bytes entry `e` takes in a listed section whose width byte is `width`.
size_t PackedSize(const ChunkSummary::Entry& e, size_t width) {
  return 1 + static_cast<size_t>(e.stats.count - 2) * width;
}

// Appends the values `target` (one of `entries`) lists in `section`, the
// listed bytes after the value count. False when `target` lists none or the
// section is too short for the entries.
bool AppendListedIn(std::span<const uint8_t> section,
                    const std::vector<ChunkSummary::Entry>& entries,
                    const ChunkSummary::Entry& target, std::vector<double>* values) {
  if (section.empty() || !ChunkSummary::ListsValues(target)) {
    return false;
  }
  size_t at = 0;  // offset of the next listing entry
  for (const ChunkSummary::Entry& e : entries) {
    if (!ChunkSummary::ListsValues(e)) {
      continue;
    }
    if (at >= section.size() || section[at] > 8 ||
        section.size() - at < PackedSize(e, section[at])) {
      return false;
    }
    if (&e != &target) {
      at += PackedSize(e, section[at]);
      continue;
    }
    const size_t width = section[at];
    const uint64_t high =
        width == 8 ? 0 : Bits(e.stats.min) & ~((uint64_t{1} << (8 * width)) - 1);
    const uint8_t* p = section.data() + at + 1;
    for (uint64_t v = 0; v < e.stats.count - 2; ++v) {
      uint64_t bits = high;
      for (size_t b = 0; b < width; ++b) {
        bits |= static_cast<uint64_t>(*p++) << (8 * b);
      }
      values->push_back(std::bit_cast<double>(bits));
    }
    return true;
  }
  return false;
}

}  // namespace

const ChunkSummary::Entry* ChunkSummary::FindEntry(uint32_t source_id, uint32_t index_id,
                                                   uint32_t bin,
                                                   std::vector<double>* values) const {
  for (const Entry& e : entries) {
    if (e.source_id == source_id && e.index_id == index_id && e.bin == bin) {
      if (values != nullptr) {
        AppendListedIn(listed, entries, e, values);
      }
      return &e;
    }
  }
  return nullptr;
}

bool ChunkSummary::AppendListed(std::span<const uint8_t> frame, const Entry& e,
                                std::vector<double>* values) const {
  // The section starts after the entries and the value count.
  const size_t start = kHeaderSize + entries.size() * kEntrySize + 4;
  return frame.size() > start && AppendListedIn(frame.subspan(start), entries, e, values);
}

size_t ChunkSummary::EncodedSize() const {
  return kHeaderSize + entries.size() * kEntrySize + (listed.empty() ? 0 : 4 + listed.size());
}

void ChunkSummary::EncodeTo(std::vector<uint8_t>& out) const {
  out.reserve(out.size() + EncodedSize());
  PutU64(out, chunk_addr);
  PutU32(out, chunk_len);
  PutU32(out, static_cast<uint32_t>(entries.size()));
  PutU64(out, min_ts);
  PutU64(out, max_ts);
  uint64_t values = 0;
  for (const Entry& e : entries) {
    EncodeEntry(out, e);
    if (ListsValues(e)) {
      values += e.stats.count - 2;
    }
  }
  if (!listed.empty()) {
    PutU32(out, static_cast<uint32_t>(values));
    out.insert(out.end(), listed.begin(), listed.end());
  }
}

Result<ChunkSummary> ChunkSummary::Decode(std::span<const uint8_t> bytes, bool keep_listed) {
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
  uint64_t values = 0;  // values the listing entries list
  for (uint32_t i = 0; i < n; ++i) {
    s.entries.push_back(DecodeEntry(bytes, kHeaderSize + static_cast<size_t>(i) * kEntrySize));
    if (ListsValues(s.entries.back())) {
      values += s.entries.back().stats.count - 2;
    }
  }
  // Frames written before the listed section end here; later sections, if
  // any, follow it and are ignored.
  size_t pos = kHeaderSize + static_cast<size_t>(n) * kEntrySize;
  if (bytes.size() == pos) {
    return s;
  }
  if (bytes.size() - pos < 4) {
    return Status::DataLoss("chunk summary truncated listed values");
  }
  if (GetU32(bytes, pos) != values) {
    return Status::DataLoss("chunk summary listed values disagree with entry counts");
  }
  pos += 4;
  const size_t start = pos;
  for (const Entry& e : s.entries) {
    if (!ListsValues(e)) {
      continue;
    }
    if (pos == bytes.size()) {
      return Status::DataLoss("chunk summary truncated listed values");
    }
    const size_t width = bytes[pos];
    if (width > 8) {
      return Status::DataLoss("chunk summary listed value width out of range");
    }
    if (bytes.size() - pos < PackedSize(e, width)) {
      return Status::DataLoss("chunk summary truncated listed values");
    }
    pos += PackedSize(e, width);
  }
  if (keep_listed) {
    s.listed.assign(bytes.begin() + static_cast<std::ptrdiff_t>(start),
                    bytes.begin() + static_cast<std::ptrdiff_t>(pos));
  }
  return s;
}

Result<bool> ChunkFrameIterator::Next(ChunkSummary* out) {
  while (addr_ + 4 <= limit_) {
    // A frame never starts in a block remainder too short for its length
    // word: the writer padded that remainder.
    const uint64_t block_end = addr_ - addr_ % block_size_ + block_size_;
    if (block_end - addr_ < 4) {
      addr_ = block_end;
      continue;
    }
    auto len_bytes = fetch_(addr_, 4);
    if (!len_bytes.ok()) {
      return len_bytes.status();
    }
    const uint32_t len = LoadU32(len_bytes.value().data());
    if (len == kChunkPadFrame) {
      addr_ = block_end;
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
      slots_[i].cursors.assign(num_bins, ListCursor{});
      return i;
    }
  }
  Slot slot;
  slot.source_id = source_id;
  slot.index_id = index_id;
  slot.active = true;
  slot.bins.assign(num_bins, BinStats{});
  slot.cursors.assign(num_bins, ListCursor{});
  slots_.push_back(std::move(slot));
  return slots_.size() - 1;
}

void ChunkSummaryBuilder::UnregisterSlot(size_t slot) { slots_[slot].active = false; }

void ChunkSummaryBuilder::Update(size_t slot, uint32_t bin, double value, TimestampNanos ts) {
  Slot& s = slots_[slot];
  s.bins[bin].Update(value, ts);
  s.values.push_back({value, bin});
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
    s.values.push_back({values[i], bins[i]});
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
    const size_t first_entry = summary.entries.size();
    unpacked_.clear();
    for (uint32_t bin = 0; bin < slot.bins.size(); ++bin) {
      const BinStats& stats = slot.bins[bin];
      if (stats.count == 0) {
        continue;  // never updated this chunk, so already zero
      }
      ChunkSummary::Entry e;
      e.source_id = slot.source_id;
      e.index_id = slot.index_id;
      e.bin = bin;
      e.stats = stats;
      summary.entries.push_back(e);
      if (ChunkSummary::ListsValues(e)) {
        slot.cursors[bin].next = static_cast<uint32_t>(unpacked_.size());
        unpacked_.resize(unpacked_.size() + stats.count - 2);
      }
    }
    if (!unpacked_.empty()) {
      for (const BinnedValue& v : slot.values) {
        ListCursor& c = slot.cursors[v.bin];
        if (c.next == kNotListed) {
          continue;
        }
        const BinStats& stats = slot.bins[v.bin];
        if (!c.min_skipped && SameBits(v.value, stats.min)) {
          c.min_skipped = true;
        } else if (!c.max_skipped && SameBits(v.value, stats.max)) {
          c.max_skipped = true;
        } else {
          unpacked_[c.next++] = v.value;
        }
      }
      // The slot's listing entries hold consecutive runs of unpacked_.
      size_t at = 0;
      for (size_t i = first_entry; i < summary.entries.size(); ++i) {
        const ChunkSummary::Entry& e = summary.entries[i];
        if (ChunkSummary::ListsValues(e)) {
          const size_t n = e.stats.count - 2;
          PackValues(e.stats.min, std::span<const double>(unpacked_).subspan(at, n),
                     summary.listed);
          at += n;
        }
      }
    }
    // Zero-fill the bins this chunk used, and their cursors.
    for (size_t i = first_entry; i < summary.entries.size(); ++i) {
      const uint32_t bin = summary.entries[i].bin;
      slot.bins[bin] = BinStats{};
      slot.cursors[bin] = ListCursor{};
    }
    slot.values.clear();
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
