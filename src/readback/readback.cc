#include "src/readback/readback.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "src/common/codec.h"
#include "src/common/file.h"
#include "src/core/record_format.h"
#include "src/index/timestamp_index.h"

namespace loom {

namespace {

Result<std::vector<uint8_t>> ReadWholeFile(const std::string& path) {
  auto file = File::OpenReadOnly(path);
  if (!file.ok()) {
    return file.status();
  }
  auto size = file->Size();
  if (!size.ok()) {
    return size.status();
  }
  std::vector<uint8_t> bytes(size.value());
  if (!bytes.empty()) {
    Status st = file->PReadAll(0, bytes);
    if (!st.ok()) {
      return st;
    }
  }
  return bytes;
}

}  // namespace

Result<std::unique_ptr<ReadbackSession>> ReadbackSession::Open(const std::string& dir,
                                                               size_t chunk_size,
                                                               size_t chunk_index_block_size) {
  auto record_log = ReadWholeFile(dir + "/record.log");
  if (!record_log.ok()) {
    return record_log.status();
  }
  auto chunk_log = ReadWholeFile(dir + "/chunk.idx");
  if (!chunk_log.ok()) {
    return chunk_log.status();
  }
  auto ts_log = ReadWholeFile(dir + "/ts.idx");
  if (!ts_log.ok()) {
    return ts_log.status();
  }
  return std::unique_ptr<ReadbackSession>(
      new ReadbackSession(std::move(record_log.value()), std::move(chunk_log.value()),
                          std::move(ts_log.value()), chunk_size, chunk_index_block_size));
}

ReadbackSession::ReadbackSession(std::vector<uint8_t> record_log, std::vector<uint8_t> chunk_log,
                                 std::vector<uint8_t> ts_log, size_t chunk_size,
                                 size_t chunk_index_block_size)
    : record_log_(std::move(record_log)),
      chunk_log_(std::move(chunk_log)),
      ts_log_(std::move(ts_log)),
      chunk_size_(chunk_size),
      chunk_index_block_size_(chunk_index_block_size) {}

ReadbackSession::~ReadbackSession() = default;

Status ReadbackSession::RegisterIndex(uint32_t index_id, uint32_t source_id, Loom::IndexFunc func,
                                      HistogramSpec spec) {
  if (!func) {
    return Status::InvalidArgument("index function must be callable");
  }
  auto [it, inserted] =
      indexes_.emplace(index_id, IndexInfo{source_id, std::move(func), std::move(spec)});
  (void)it;
  if (!inserted) {
    return Status::AlreadyExists("index already registered");
  }
  return Status::Ok();
}

Status ReadbackSession::ScanRecords(uint64_t from, uint64_t to,
                                    const std::function<bool(const RecordView&)>& fn) const {
  const uint64_t limit = std::min<uint64_t>(to, record_log_.size());
  uint64_t addr = from;
  while (addr + kRecordHeaderSize <= limit) {
    const uint64_t chunk_end =
        std::min<uint64_t>(limit, addr - (addr % chunk_size_) + chunk_size_);
    if (chunk_end - addr < kRecordHeaderSize) {
      addr = chunk_end;
      continue;
    }
    const uint32_t sid = LoadU32(record_log_.data() + addr);
    if (sid == kPadSourceId) {
      addr = addr - (addr % chunk_size_) + chunk_size_;
      continue;
    }
    const RecordHeader header = RecordHeader::Decode(record_log_.data() + addr);
    if (addr + kRecordHeaderSize + header.payload_len > limit) {
      break;
    }
    RecordView view;
    view.source_id = header.source_id;
    view.ts = header.ts;
    view.addr = addr;
    view.payload = std::span<const uint8_t>(record_log_.data() + addr + kRecordHeaderSize,
                                            header.payload_len);
    if (!fn(view)) {
      return Status::Ok();
    }
    addr += kRecordHeaderSize + header.payload_len;
  }
  return Status::Ok();
}

Result<uint64_t> ReadbackSession::RangeStartAddr(TimestampNanos start) const {
  // Binary search the timestamp index for the last entry strictly before
  // `start`; records before its target are all earlier than `start`.
  const uint64_t n = ts_log_.size() / TimestampIndexEntry::kEncodedSize;
  if (n == 0 || start == 0) {
    return uint64_t{0};
  }
  uint64_t lo = 0;
  uint64_t hi = n;
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo) / 2;
    const TimestampIndexEntry e =
        TimestampIndexEntry::Decode(ts_log_.data() + mid * TimestampIndexEntry::kEncodedSize);
    if (e.ts < start) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  // Walk back to the nearest record-kind entry.
  for (uint64_t i = lo; i > 0; --i) {
    const TimestampIndexEntry e =
        TimestampIndexEntry::Decode(ts_log_.data() + (i - 1) * TimestampIndexEntry::kEncodedSize);
    if (e.kind == TimestampIndexEntry::Kind::kRecord) {
      return e.target_addr;
    }
  }
  return uint64_t{0};
}

Status ReadbackSession::RawScan(uint32_t source_id, TimeRange t_range,
                                const Loom::RecordCallback& cb) const {
  auto start = RangeStartAddr(t_range.start);
  if (!start.ok()) {
    return start.status();
  }
  return ScanRecords(start.value(), record_log_.size(), [&](const RecordView& r) {
    if (r.ts > t_range.end) {
      return false;
    }
    if (r.source_id != source_id || r.ts < t_range.start) {
      return true;
    }
    return cb(r);
  });
}

Status ReadbackSession::SummariesOverlapping(TimeRange t_range,
                                             std::vector<ChunkSummary>& out) const {
  out.clear();
  ChunkFrameIterator frames(
      [this](uint64_t addr, size_t len) -> Result<std::span<const uint8_t>> {
        return std::span<const uint8_t>(chunk_log_.data() + addr, len);
      },
      0, chunk_log_.size(), chunk_index_block_size_);
  ChunkSummary summary;
  for (;;) {
    auto more = frames.Next(&summary);
    if (!more.ok()) {
      return more.status();
    }
    if (!more.value()) {
      return Status::Ok();
    }
    if (summary.max_ts >= t_range.start && summary.min_ts <= t_range.end) {
      out.push_back(std::move(summary));
    }
  }
}

Status ReadbackSession::IndexedScan(uint32_t source_id, uint32_t index_id, TimeRange t_range,
                                    ValueRange v_range, const Loom::RecordCallback& cb) const {
  auto it = indexes_.find(index_id);
  if (it == indexes_.end()) {
    return Status::NotFound("index not registered for readback");
  }
  if (it->second.source_id != source_id) {
    return Status::InvalidArgument("index does not cover source");
  }
  const HistogramSpec& spec = it->second.spec;
  const Loom::IndexFunc& func = it->second.func;
  const auto [first_bin, last_bin] = spec.BinsOverlapping(v_range.lo, v_range.hi);

  std::vector<ChunkSummary> summaries;
  LOOM_RETURN_IF_ERROR(SummariesOverlapping(t_range, summaries));

  bool stopped = false;
  auto emit = [&](const RecordView& view) -> bool {
    if (view.source_id != source_id || !t_range.Contains(view.ts)) {
      return true;
    }
    std::optional<double> value = func(view.payload);
    if (!value.has_value() || !v_range.Contains(*value)) {
      return true;
    }
    if (!cb(view)) {
      stopped = true;
      return false;
    }
    return true;
  };

  uint64_t indexed_end = 0;
  for (const ChunkSummary& s : summaries) {
    indexed_end = std::max<uint64_t>(indexed_end, s.chunk_addr + s.chunk_len);
    bool has_presence = false;
    uint64_t presence = 0;
    uint64_t evaluated = 0;
    bool bin_match = false;
    for (const ChunkSummary::Entry& e : s.entries) {
      if (e.source_id != source_id) {
        continue;
      }
      if (e.index_id == kPresenceIndexId) {
        has_presence = true;
        presence = e.stats.count;
      } else if (e.index_id == index_id) {
        if (e.bin == kEvaluatedBin) {
          evaluated = e.stats.count;
        } else if (e.bin >= first_bin && e.bin <= last_bin) {
          bin_match = true;
        }
      }
    }
    if (!has_presence || (!bin_match && evaluated >= presence)) {
      continue;
    }
    LOOM_RETURN_IF_ERROR(ScanRecords(
        s.chunk_addr, std::min<uint64_t>(s.chunk_addr + s.chunk_len, record_log_.size()), emit));
    if (stopped) {
      return Status::Ok();
    }
  }
  // Unsummarized tail: the active chunk at shutdown. Summaries outside the
  // time range may cover later chunks, so bound by the *global* last
  // summarized chunk, found cheaply by scanning all summaries' extents.
  std::vector<ChunkSummary> all;
  LOOM_RETURN_IF_ERROR(SummariesOverlapping({0, ~0ULL}, all));
  uint64_t summarized_end = 0;
  for (const ChunkSummary& s : all) {
    summarized_end = std::max<uint64_t>(summarized_end, s.chunk_addr + s.chunk_len);
  }
  return ScanRecords(summarized_end, record_log_.size(), emit);
}

Result<double> ReadbackSession::IndexedAggregate(uint32_t source_id, uint32_t index_id,
                                                 TimeRange t_range, AggregateMethod method,
                                                 double percentile) const {
  auto it = indexes_.find(index_id);
  if (it == indexes_.end()) {
    return Status::NotFound("index not registered for readback");
  }
  const Loom::IndexFunc& func = it->second.func;
  // Readback is offline: a straightforward scan-based aggregate keeps this
  // path simple while remaining exact (the live engine holds the
  // summary-merging fast path).
  std::vector<double> values;
  LOOM_RETURN_IF_ERROR(IndexedScan(source_id, index_id, t_range,
                                   {-std::numeric_limits<double>::max(),
                                    std::numeric_limits<double>::max()},
                                   [&](const RecordView& r) {
                                     std::optional<double> v = func(r.payload);
                                     if (v.has_value()) {
                                       values.push_back(*v);
                                     }
                                     return true;
                                   }));
  switch (method) {
    case AggregateMethod::kCount:
      return static_cast<double>(values.size());
    case AggregateMethod::kSum: {
      double sum = 0;
      for (double v : values) {
        sum += v;
      }
      return sum;
    }
    case AggregateMethod::kMin:
      if (values.empty()) {
        return Status::NotFound("no data in range");
      }
      return *std::min_element(values.begin(), values.end());
    case AggregateMethod::kMax:
      if (values.empty()) {
        return Status::NotFound("no data in range");
      }
      return *std::max_element(values.begin(), values.end());
    case AggregateMethod::kMean: {
      if (values.empty()) {
        return Status::NotFound("no data in range");
      }
      double sum = 0;
      for (double v : values) {
        sum += v;
      }
      return sum / static_cast<double>(values.size());
    }
    case AggregateMethod::kPercentile: {
      if (percentile < 0.0 || percentile > 100.0) {
        return Status::InvalidArgument("percentile must be in [0, 100]");
      }
      if (values.empty()) {
        return Status::NotFound("no data in range");
      }
      size_t rank = static_cast<size_t>(
          std::ceil(percentile / 100.0 * static_cast<double>(values.size())));
      rank = std::max<size_t>(1, std::min(rank, values.size()));
      std::nth_element(values.begin(), values.begin() + static_cast<long>(rank - 1),
                       values.end());
      return values[rank - 1];
    }
  }
  return Status::Internal("unreachable");
}

Result<std::vector<uint32_t>> ReadbackSession::ListSources() const {
  std::set<uint32_t> sources;
  std::vector<ChunkSummary> all;
  LOOM_RETURN_IF_ERROR(SummariesOverlapping({0, ~0ULL}, all));
  uint64_t summarized_end = 0;
  for (const ChunkSummary& s : all) {
    summarized_end = std::max<uint64_t>(summarized_end, s.chunk_addr + s.chunk_len);
    for (const ChunkSummary::Entry& e : s.entries) {
      if (e.index_id == kPresenceIndexId) {
        sources.insert(e.source_id);
      }
    }
  }
  LOOM_RETURN_IF_ERROR(ScanRecords(summarized_end, record_log_.size(), [&](const RecordView& r) {
    sources.insert(r.source_id);
    return true;
  }));
  return std::vector<uint32_t>(sources.begin(), sources.end());
}

Result<TimeRange> ReadbackSession::CaptureBounds() const {
  TimeRange bounds{~0ULL, 0};
  LOOM_RETURN_IF_ERROR(ScanRecords(0, record_log_.size(), [&](const RecordView& r) {
    bounds.start = std::min(bounds.start, r.ts);
    bounds.end = std::max(bounds.end, r.ts);
    return true;
  }));
  if (bounds.end == 0 && bounds.start == ~0ULL) {
    return Status::NotFound("capture is empty");
  }
  return bounds;
}

}  // namespace loom
