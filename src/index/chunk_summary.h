// Chunk summaries: sparse per-chunk statistics (§4.2, Figure 8).
//
// While a chunk of the record log accumulates records, Loom incrementally
// updates a summary: for every (source, index, histogram bin) with at least
// one record in the chunk, the summary stores count/sum/min/max and the
// timestamp range, and lists the values between min and max when the bin
// holds 3 to 16 of them. When the chunk fills, the finalized summary is
// appended to the chunk index log and only then becomes visible to queries.
//
// A summary also carries one "presence" entry per source that contributed
// records to the chunk (index id kPresenceIndexId), so queries can detect
// chunks holding records of a source that predates an index definition and
// fall back to scanning them (§5.3).

#ifndef SRC_INDEX_CHUNK_SUMMARY_H_
#define SRC_INDEX_CHUNK_SUMMARY_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "src/common/clock.h"
#include "src/common/status.h"

namespace loom {

// Sentinel index id for per-source presence entries.
inline constexpr uint32_t kPresenceIndexId = 0xFFFFFFFFu;

// Sentinel bin for an index's per-chunk "evaluated" pseudo-entry: its count
// is the number of source records the index function ran on (whether or not
// it produced a value). Comparing it with the presence count tells queries
// whether a chunk holds records that predate the index definition (§5.3) and
// therefore must be scanned.
inline constexpr uint32_t kEvaluatedBin = 0xFFFFFFFEu;

// A bin entry holding kMinListedValues..kMaxListedValues values, min < max,
// also lists its values but one min and one max, so percentile stage 2
// settles it without reading the chunk. One value, or two distinct ones, are
// already pinned by min and max; the cap bounds the bytes a dense bin costs
// (DESIGN.md, "Bin-level zone maps").
inline constexpr uint64_t kMinListedValues = 3;
inline constexpr uint64_t kMaxListedValues = 16;

// Aggregate statistics over the records of one bin within one chunk.
struct BinStats {
  uint64_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  TimestampNanos min_ts = std::numeric_limits<TimestampNanos>::max();
  TimestampNanos max_ts = 0;

  void Update(double value, TimestampNanos ts) {
    ++count;
    sum += value;
    if (value < min) {
      min = value;
    }
    if (value > max) {
      max = value;
    }
    if (ts < min_ts) {
      min_ts = ts;
    }
    if (ts > max_ts) {
      max_ts = ts;
    }
  }

  void Merge(const BinStats& other) {
    count += other.count;
    sum += other.sum;
    if (other.min < min) {
      min = other.min;
    }
    if (other.max > max) {
      max = other.max;
    }
    if (other.min_ts < min_ts) {
      min_ts = other.min_ts;
    }
    if (other.max_ts > max_ts) {
      max_ts = other.max_ts;
    }
  }
};

// One decoded chunk summary.
struct ChunkSummary {
  struct Entry {
    uint32_t source_id = 0;
    uint32_t index_id = 0;  // kPresenceIndexId for presence entries
    uint32_t bin = 0;
    BinStats stats;
  };

  uint64_t chunk_addr = 0;    // record log address of the chunk's first byte
  uint32_t chunk_len = 0;     // chunk size in bytes
  TimestampNanos min_ts = 0;  // over all records in the chunk
  TimestampNanos max_ts = 0;
  std::vector<Entry> entries;
  // The listed values, packed as the frame stores them: for every entry that
  // ListsValues, in `entries` order, a width w <= 8, then its count - 2
  // values other than the first (in log order) bit-equal to stats.min and
  // the first bit-equal to stats.max, in log order, each as its low w bytes
  // (the high 8 - w bytes are stats.min's). With min and max they are the
  // entry's values exactly, NaN and signed zeros included. Only percentile
  // stage 2 reads them, so they stay packed until FindEntry unpacks one
  // entry's. Empty in frames written before the section existed (no entry
  // lists values then), and in summaries decoded without it.
  std::vector<uint8_t> listed;

  // Whether `e` is a bin entry whose values `listed` holds (when non-empty).
  // min < max makes min and max two of its values (NaN moves neither).
  static bool ListsValues(const Entry& e) {
    return e.index_id != kPresenceIndexId && e.bin != kEvaluatedBin &&
           e.stats.count >= kMinListedValues && e.stats.count <= kMaxListedValues &&
           e.stats.min < e.stats.max;
  }

  // The entry of (source_id, index_id, bin), or nullptr. When `values` is
  // given and the entry lists values, appends them (all but min and max).
  const Entry* FindEntry(uint32_t source_id, uint32_t index_id, uint32_t bin,
                         std::vector<double>* values = nullptr) const;

  // Appends the values `e` (one of `entries`) lists, read from `frame`, this
  // summary's encoded frame body, for a summary decoded without its listed
  // section. False when the frame has none or it does not fit the entries.
  bool AppendListed(std::span<const uint8_t> frame, const Entry& e,
                    std::vector<double>* values) const;

  // Serializes into `out` (appending). Layout is explicit little-endian:
  // a header, the entries, then, when `listed` is non-empty, the number of
  // listed values and `listed`.
  void EncodeTo(std::vector<uint8_t>& out) const;

  // Fails with DataLoss on a truncated frame, or a listed section whose
  // value count disagrees with the listing entries' counts or whose widths
  // exceed 8. With `keep_listed` false the section is checked but not kept:
  // the summary cache holds summaries without it, so queries that only fold
  // or prune do not pay for its bytes, and percentile stage 2 reads it from
  // the frame (AppendListed).
  static Result<ChunkSummary> Decode(std::span<const uint8_t> bytes, bool keep_listed = true);

  // Encoded byte size for this summary.
  size_t EncodedSize() const;
};

// Reads the frames of a chunk index log in log order. A frame is
// `u32 len | ChunkSummary` (len bytes); a length of kChunkPadFrame, or a
// block remainder shorter than the length word, is block padding, and the
// next frame starts at the next block boundary. `fetch`
// returns the log bytes [addr, addr + len), so one walker serves a live log
// (through a windowed reader) and an in-memory copy alike.
inline constexpr uint32_t kChunkPadFrame = 0xFFFFFFFFu;

class ChunkFrameIterator {
 public:
  using Fetch = std::function<Result<std::span<const uint8_t>>(uint64_t addr, size_t len)>;

  ChunkFrameIterator(Fetch fetch, uint64_t addr, uint64_t limit, size_t block_size)
      : fetch_(std::move(fetch)), addr_(addr), limit_(limit), block_size_(block_size) {}

  // Decodes the next frame that ends at or below `limit` into *out. Returns
  // false once no whole frame remains.
  Result<bool> Next(ChunkSummary* out);

  // Address just past the last frame Next returned.
  uint64_t addr() const { return addr_; }

 private:
  Fetch fetch_;
  uint64_t addr_;
  uint64_t limit_;
  size_t block_size_;
};

// Accumulates the active chunk's summary on the write path. One builder per
// Loom instance; reset after each chunk finalization. Accumulation slots are
// registered per (source, index) so the per-record update is an array index,
// never a hash lookup.
class ChunkSummaryBuilder {
 public:
  // Registers an accumulation slot with `num_bins` bins (including outlier
  // bins). Returns a slot handle used by Update().
  size_t RegisterSlot(uint32_t source_id, uint32_t index_id, uint32_t num_bins);

  // Drops a slot (index closed). Pending stats for the active chunk are kept
  // until the next Finalize.
  void UnregisterSlot(size_t slot);

  // Records an indexed value for the active chunk.
  void Update(size_t slot, uint32_t bin, double value, TimestampNanos ts);

  // Batch variant of Update: folds n pre-classified (bin, value, ts) triples
  // into the slot in array order. Because BinStats accumulate per (slot, bin)
  // and the per-bin visit order equals record order either way, the finalized
  // summary is bit-identical (double addition order included) to n scalar
  // Update calls. The staged ingest path classifies `bins` with the
  // vectorized classify_bins kernel before calling this.
  void UpdateBatch(size_t slot, const uint32_t* bins, const double* values,
                   const TimestampNanos* ts, size_t n);

  // Notes that the index function ran on a record of this slot's source
  // (call once per record per index, whether or not a value was produced).
  void NoteEvaluated(size_t slot);

  // Batch variant of NoteEvaluated (n records at once).
  void NoteEvaluatedBatch(size_t slot, uint64_t n);

  // Records the presence of a (possibly unindexed) source record.
  void UpdatePresence(size_t presence_slot, TimestampNanos ts);

  bool empty() const { return total_records_ == 0; }
  uint64_t total_records() const { return total_records_; }

  // Produces the summary for [chunk_addr, chunk_addr + chunk_len) and resets
  // all accumulation state for the next chunk. Walks the dirty slots in
  // ascending slot order (so encodings are deterministic) and zero-fills
  // their bins in place; the slots keep their registration and storage.
  // Each slot's listing bins collect their values in one pass over the
  // slot's values, in log order, and are packed into `listed`.
  ChunkSummary Finalize(uint64_t chunk_addr, uint32_t chunk_len);

 private:
  struct BinnedValue {
    double value;
    uint32_t bin;
  };
  static constexpr uint32_t kNotListed = 0xFFFFFFFFu;
  // Where a listing bin's next value goes in `unpacked_`, and whether its
  // min and max have been passed over yet.
  struct ListCursor {
    uint32_t next = kNotListed;
    bool min_skipped = false;
    bool max_skipped = false;
  };

  struct Slot {
    uint32_t source_id = 0;
    uint32_t index_id = 0;
    bool active = false;
    bool dirty = false;  // any data in the current chunk
    uint64_t evaluated = 0;
    std::vector<BinStats> bins;
    // The active chunk's indexed values, appended in log order.
    std::vector<BinnedValue> values;
    // Finalize scratch, per bin; `next` is kNotListed between seals.
    std::vector<ListCursor> cursors;
  };

  std::vector<Slot> slots_;
  std::vector<size_t> dirty_slots_;
  // Finalize scratch: one slot's listed values before packing.
  std::vector<double> unpacked_;
  uint64_t total_records_ = 0;
  TimestampNanos chunk_min_ts_ = std::numeric_limits<TimestampNanos>::max();
  TimestampNanos chunk_max_ts_ = 0;

  void MarkDirty(size_t slot) {
    if (!slots_[slot].dirty) {
      slots_[slot].dirty = true;
      dirty_slots_.push_back(slot);
    }
  }
};

}  // namespace loom

#endif  // SRC_INDEX_CHUNK_SUMMARY_H_
