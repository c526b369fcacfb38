// Runtime-dispatched vectorized kernels for the per-chunk query hot path.
//
// PR 3 made query fan-out chunk-granular; the per-chunk pipeline
// (load -> decode -> filter -> classify -> scan) is now the dominant query
// cost. This layer lifts its three inner loops out of src/core/loom.cc into
// batch kernels with AVX2 and NEON implementations next to a bit-exact
// scalar reference:
//
//   decode_records      record-header decode over a sealed chunk span
//                       (record_format.h framing, 0xFF padding skip)
//   classify_bins       histogram bin classification (HistogramSpec::BinOf)
//   filter_source_time  source-id + arrival-timestamp predicate -> bitmask
//   filter_value_range  inclusive value-range predicate -> bitmask
//
// Dispatch contract (see DESIGN.md "SIMD kernels"):
//   * One KernelOps table is selected per engine at Loom::Open and never
//     changes; SelectKernels never returns null (unavailable modes fall back
//     to scalar).
//   * Every implementation is bit-exact against the scalar reference: same
//     bins (NaN included), same mask bits, same decoded fields, for any
//     input. The fuzz suite (tests/kernels_test.cc) and the golden query
//     suite (tests/loom_query_golden_test.cc) enforce this.
//   * No alignment requirements: kernels use unaligned loads and never read
//     past the end of an input array (tails run through a scalar epilogue).
//
// The record-offset walk inside decode_records is inherently serial (the
// next header position depends on the previous record's payload length);
// vector implementations accelerate the field extraction over the discovered
// offsets, not the walk itself.

#ifndef SRC_CORE_KERNELS_KERNELS_H_
#define SRC_CORE_KERNELS_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/cpu_features.h"

namespace loom {

// Decoded record headers of one chunk span, structure-of-arrays so the
// filter/classify kernels stream over dense vectors. Reused across chunks
// (Clear keeps capacity).
struct DecodedBatch {
  std::vector<uint64_t> addrs;         // absolute record-log address
  std::vector<uint32_t> source_ids;
  std::vector<uint32_t> payload_lens;  // payload bytes (header excluded)
  std::vector<uint64_t> timestamps;    // arrival TimestampNanos

  size_t size() const { return addrs.size(); }

  void Clear() {
    addrs.clear();
    source_ids.clear();
    payload_lens.clear();
    timestamps.clear();
  }
};

// Number of 64-bit words a record bitmask for `n` records needs.
inline constexpr size_t MaskWords(size_t n) { return (n + 63) / 64; }

// One implementation of the kernel set. All function pointers are non-null.
struct KernelOps {
  // "scalar" | "avx2" | "neon" — for traces, bench JSON, and tests.
  const char* name;

  // Decodes record headers from `buf` (a copy of record-log bytes
  // [base_addr, base_addr + len)), appending to *out. Honors the chunk
  // framing: a 0xFF-padded region (source_id kPadSourceId) or a sub-header
  // tail skips to the next chunk_size boundary (boundaries are positions in
  // absolute addresses, not buffer offsets). Stops before a record whose
  // header or payload would extend past `len`. Returns the buffer offset
  // where decoding stopped.
  size_t (*decode_records)(const uint8_t* buf, size_t len, uint64_t base_addr,
                           size_t chunk_size, DecodedBatch* out);

  // bins[i] = the HistogramSpec bin of values[i] given `edges` (strictly
  // increasing, num_edges >= 2): count of edges <= value, except NaN which
  // lands in the overflow bin (num_edges), matching HistogramSpec::BinOf.
  void (*classify_bins)(const double* values, size_t n, const double* edges,
                        size_t num_edges, uint32_t* bins);

  // mask bit i = source_ids[i] == source && start <= timestamps[i] <= end
  // (unsigned 64-bit compares). Writes MaskWords(n) words; tail bits zero.
  void (*filter_source_time)(const uint32_t* source_ids, const uint64_t* timestamps,
                             size_t n, uint32_t source, uint64_t start, uint64_t end,
                             uint64_t* mask);

  // mask bit i = lo <= values[i] <= hi (IEEE ordered compares: NaN never
  // matches, mirroring ValueRange::Contains). Writes MaskWords(n) words;
  // tail bits zero.
  void (*filter_value_range)(const double* values, size_t n, double lo, double hi,
                             uint64_t* mask);
};

// The bit-exact reference. Always available.
const KernelOps* ScalarKernels();

// Vector implementations; null when the build target or executing CPU cannot
// run them.
const KernelOps* Avx2Kernels();
const KernelOps* NeonKernels();

// Resolves `mode` to an executable implementation: kAuto picks the best the
// CPU supports; a forced mode that is unavailable falls back to scalar.
// Never null. (The LOOM_SIMD env override is applied by the caller — see
// SimdModeFromEnv — so an engine's explicit LoomOptions::simd_mode is not
// silently overridden.)
const KernelOps* SelectKernels(SimdMode mode);

}  // namespace loom

#endif  // SRC_CORE_KERNELS_KERNELS_H_
