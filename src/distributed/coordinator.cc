#include "src/distributed/coordinator.h"

#include <algorithm>
#include <cmath>

namespace loom {

Result<double> LoomCoordinator::Aggregate(uint32_t source_id, uint32_t index_id,
                                          TimeRange t_range, AggregateMethod method) const {
  if (method == AggregateMethod::kPercentile) {
    return Status::InvalidArgument("use Percentile() for holistic aggregates");
  }
  double count = 0;
  double sum = 0;
  bool found = false;
  double min = 0;
  double max = 0;
  for (const LoomNode& node : nodes_) {
    auto c = node.engine->IndexedAggregate(source_id, index_id, t_range, AggregateMethod::kCount);
    if (!c.ok()) {
      return c.status();
    }
    count += c.value();
    if (c.value() == 0) {
      continue;
    }
    auto s = node.engine->IndexedAggregate(source_id, index_id, t_range, AggregateMethod::kSum);
    auto lo = node.engine->IndexedAggregate(source_id, index_id, t_range, AggregateMethod::kMin);
    auto hi = node.engine->IndexedAggregate(source_id, index_id, t_range, AggregateMethod::kMax);
    if (!s.ok() || !lo.ok() || !hi.ok()) {
      return s.ok() ? (lo.ok() ? hi.status() : lo.status()) : s.status();
    }
    sum += s.value();
    if (!found || lo.value() < min) {
      min = lo.value();
    }
    if (!found || hi.value() > max) {
      max = hi.value();
    }
    found = true;
  }
  switch (method) {
    case AggregateMethod::kCount:
      return count;
    case AggregateMethod::kSum:
      return sum;
    case AggregateMethod::kMin:
      if (!found) {
        return Status::NotFound("no data in range on any node");
      }
      return min;
    case AggregateMethod::kMax:
      if (!found) {
        return Status::NotFound("no data in range on any node");
      }
      return max;
    case AggregateMethod::kMean:
      if (count == 0) {
        return Status::NotFound("no data in range on any node");
      }
      return sum / count;
    case AggregateMethod::kPercentile:
      break;
  }
  return Status::Internal("unreachable");
}

Result<std::vector<uint64_t>> LoomCoordinator::Histogram(uint32_t source_id, uint32_t index_id,
                                                         TimeRange t_range) const {
  std::vector<uint64_t> merged;
  for (const LoomNode& node : nodes_) {
    auto bins = node.engine->IndexedHistogram(source_id, index_id, t_range);
    if (!bins.ok()) {
      return bins.status();
    }
    if (merged.empty()) {
      merged.assign(bins.value().size(), 0);
    }
    if (bins.value().size() != merged.size()) {
      return Status::FailedPrecondition("nodes disagree on histogram shape");
    }
    for (size_t i = 0; i < merged.size(); ++i) {
      merged[i] += bins.value()[i];
    }
  }
  return merged;
}

Result<double> LoomCoordinator::Percentile(uint32_t source_id, uint32_t index_id,
                                           const HistogramSpec& spec, TimeRange t_range,
                                           double percentile) const {
  if (!(percentile >= 0.0 && percentile <= 100.0)) {  // NaN too
    return Status::InvalidArgument("percentile must be in [0, 100]");
  }
  // Phase 1: merge per-node bin counts into the global CDF.
  auto merged = Histogram(source_id, index_id, t_range);
  if (!merged.ok()) {
    return merged.status();
  }
  const std::vector<uint64_t>& bins = merged.value();
  if (bins.size() != spec.num_bins()) {
    return Status::FailedPrecondition("spec does not match node index shape");
  }
  uint64_t total = 0;
  for (uint64_t b : bins) {
    total += b;
  }
  if (total == 0) {
    return Status::NotFound("no data in range on any node");
  }
  uint64_t rank =
      static_cast<uint64_t>(std::ceil(percentile / 100.0 * static_cast<double>(total)));
  rank = std::max<uint64_t>(1, std::min(rank, total));
  uint32_t target_bin = 0;
  uint64_t cumulative = 0;
  for (uint32_t b = 0; b < bins.size(); ++b) {
    if (cumulative + bins[b] >= rank) {
      target_bin = b;
      break;
    }
    cumulative += bins[b];
  }
  const uint64_t local_rank = rank - cumulative;

  // Phase 2: fetch only the target bin's values from every node. The bin's
  // value interval comes from the shared spec ([lo, hi) half-open; the scan
  // range is inclusive, so shave the upper bound).
  const double bin_lo = spec.BinLo(target_bin);
  const double bin_hi = spec.BinHi(target_bin);
  const ValueRange bin_range{
      bin_lo == -std::numeric_limits<double>::infinity() ? -std::numeric_limits<double>::max()
                                                         : bin_lo,
      bin_hi == std::numeric_limits<double>::infinity()
          ? std::numeric_limits<double>::max()
          : std::nextafter(bin_hi, -std::numeric_limits<double>::infinity())};
  std::vector<double> values;
  values.reserve(bins[target_bin]);
  for (const LoomNode& node : nodes_) {
    Status st = node.engine->IndexedScanValues(source_id, index_id, t_range, bin_range,
                                               [&](double value, const RecordView&) {
                                                 values.push_back(value);
                                                 return true;
                                               });
    if (!st.ok()) {
      return st;
    }
  }
  if (values.size() < local_rank) {
    return Status::Internal("distributed percentile bin mismatch");
  }
  std::nth_element(values.begin(), values.begin() + static_cast<long>(local_rank - 1),
                   values.end());
  return values[local_rank - 1];
}

Status LoomCoordinator::Scan(uint32_t source_id, uint32_t index_id, TimeRange t_range,
                             ValueRange v_range, const NodeRecordCallback& cb) const {
  // Gather per node, then merge by timestamp. Memory is bounded by the
  // result size (as with any merge of unbounded per-node streams, a
  // networked implementation would paginate).
  std::vector<NodeRecord> all;
  for (const LoomNode& node : nodes_) {
    Status st = node.engine->IndexedScan(
        source_id, index_id, t_range, v_range, [&](const RecordView& r) {
          NodeRecord rec;
          rec.node_id = node.node_id;
          rec.source_id = r.source_id;
          rec.ts = r.ts;
          rec.payload.assign(r.payload.begin(), r.payload.end());
          all.push_back(std::move(rec));
          return true;
        });
    if (!st.ok()) {
      return st;
    }
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const NodeRecord& a, const NodeRecord& b) { return a.ts < b.ts; });
  for (const NodeRecord& rec : all) {
    if (!cb(rec)) {
      break;
    }
  }
  return Status::Ok();
}

Status LoomCoordinator::Correlate(
    uint32_t anchor_source, uint32_t anchor_index, TimeRange t_range, ValueRange anchor_values,
    uint32_t target_source, TimestampNanos window,
    const std::function<bool(const NodeRecord&, const NodeRecord&)>& cb) const {
  std::vector<NodeRecord> anchors;
  LOOM_RETURN_IF_ERROR(Scan(anchor_source, anchor_index, t_range, anchor_values,
                            [&](const NodeRecord& rec) {
                              anchors.push_back(rec);
                              return true;
                            }));
  for (const NodeRecord& anchor : anchors) {
    const TimeRange vicinity{anchor.ts > window ? anchor.ts - window : 0, anchor.ts + window};
    bool stop = false;
    for (const LoomNode& node : nodes_) {
      Status st = node.engine->RawScan(target_source, vicinity, [&](const RecordView& r) {
        NodeRecord rec;
        rec.node_id = node.node_id;
        rec.source_id = r.source_id;
        rec.ts = r.ts;
        rec.payload.assign(r.payload.begin(), r.payload.end());
        if (!cb(anchor, rec)) {
          stop = true;
          return false;
        }
        return true;
      });
      if (!st.ok()) {
        return st;
      }
      if (stop) {
        return Status::Ok();
      }
    }
  }
  return Status::Ok();
}

SummaryCacheStats LoomCoordinator::AggregateCacheStats() const {
  SummaryCacheStats total;
  for (const LoomNode& node : nodes_) {
    const SummaryCacheStats s = node.engine->stats().summary_cache;
    total.hits += s.hits;
    total.misses += s.misses;
    total.evictions += s.evictions;
    total.invalidated += s.invalidated;
    total.contention_fallbacks += s.contention_fallbacks;
    total.bytes_used += s.bytes_used;
    total.entries += s.entries;
  }
  return total;
}

MetricsSnapshot LoomCoordinator::AggregateMetrics() const {
  MetricsSnapshot merged;
  std::vector<const MetricsRegistry*> seen;
  for (const LoomNode& node : nodes_) {
    const MetricsRegistry* reg = node.engine->metrics();
    // Test fleets sometimes hand several engines one shared registry; merging
    // it once per engine would multiply every counter.
    bool duplicate = false;
    for (const MetricsRegistry* s : seen) {
      if (s == reg) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) {
      continue;
    }
    seen.push_back(reg);
    merged.MergeFrom(reg->Snapshot());
  }
  return merged;
}

}  // namespace loom
