// Hybrid log: an append-only log spanning main memory and persistent storage.
//
// This is the storage substrate from §4.1 of the paper. A single writer
// appends into a fixed-size in-memory block; when the block fills, it is
// handed to a background flusher thread over an SPSC queue, which writes it to
// the file with one pwrite, and the writer switches to the next block (double
// buffering by default). The flusher parks while the queue is empty, and the
// writer parks while it waits for a slot, so an idle log costs no CPU. Every
// byte has a stable 64-bit address equal to its physical offset in the
// backing file, so record lookup is O(1) and the whole log can be read back
// from disk after the in-memory blocks are recycled.
//
// Concurrency model (§4.4 / §5.5):
//   * Exactly one writer thread calls Append/Publish/Close.
//   * Any number of reader threads call Read concurrently with the writer.
//   * Readers never block the writer. In-memory reads are validated with a
//     per-slot version (seqlock style): if the block was recycled during the
//     copy, the reader falls back to the persisted file, which is guaranteed
//     to contain the block by the time its slot version changes.
//   * Readers may only read below the published watermark (`queryable_tail`),
//     which the writer advances with Publish() (a release store).
//
// Appends never span blocks: if a record does not fit in the active block's
// remainder, the remainder is filled with 0xFF padding and the append lands at
// the start of the next block. Callers that scan ranges sequentially skip
// padding via their own framing (see record/index codecs).

#ifndef SRC_HYBRIDLOG_HYBRID_LOG_H_
#define SRC_HYBRIDLOG_HYBRID_LOG_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/common/file.h"
#include "src/common/metrics.h"
#include "src/common/spsc_queue.h"
#include "src/common/status.h"
#include "src/common/waker.h"

namespace loom {

// Address value meaning "no such address" (end of a back-pointer chain).
inline constexpr uint64_t kNullAddr = ~0ULL;

// When flushed bytes become *durable* (fdatasync), between the two historical
// endpoints (§4.5: nothing until Close vs a sync after every block):
//   kNone       durability only at Close(); data-at-risk = everything since
//               open (the paper's default — bounded by design, not by fsync).
//   kGroup      group commit: the flusher batches fdatasync across block
//               flushes and issues one when either `group_commit_bytes` of
//               unsynced data accumulate or `group_commit_interval_ms` passed
//               since the oldest unsynced byte (checked on each flush, and
//               by the one timer the idle flusher parks with, so a stalled
//               ingest still drains to disk). Data-at-risk is bounded by the
//               configured window at a small fraction of every-block cost.
//   kEveryBlock fdatasync after every block flush; minimum risk, maximum
//               write amplification.
enum class SyncPolicy : uint8_t { kNone, kGroup, kEveryBlock };

// Parses "none" / "group" / "every_block" (exact, lower-case) — nullopt
// otherwise — and the lower-case name of a policy, for config and bench JSON.
std::optional<SyncPolicy> ParseSyncPolicy(std::string_view s);
const char* SyncPolicyName(SyncPolicy policy);

struct HybridLogOptions {
  // Size of each in-memory staging block. The paper uses 64 MiB; tests use
  // much smaller blocks to exercise flush/recycle paths cheaply.
  size_t block_size = 1 << 20;
  // Number of in-memory blocks (>= 2). Two gives the paper's double buffering.
  size_t num_blocks = 2;
  // Durability policy for flushed bytes (see SyncPolicy above). Off by
  // default (§4.5: durability is bounded by the in-memory blocks by design).
  // The group thresholds apply only under kGroup.
  SyncPolicy sync_policy = SyncPolicy::kNone;
  uint64_t group_commit_bytes = 1 << 20;
  uint64_t group_commit_interval_ms = 50;
  // Retention: keep at most this many bytes of log addressable; older data
  // is dropped (the file range is hole-punched where the filesystem supports
  // it, so disk space is reclaimed). 0 = retain everything. Retention is
  // applied at block granularity after flushes.
  uint64_t retain_bytes = 0;
  // When set, the log registers its metrics (block flush latency, writer
  // stall time, read-path counters) under `metrics_prefix`, e.g.
  // "loom_hybridlog_record". The registry must outlive the log.
  MetricsRegistry* metrics = nullptr;
  std::string metrics_prefix;
  // Optional externally-registered counters for group commits (sync_policy =
  // kGroup): submissions and the bytes each one made durable. The engine
  // registers these under its loom_ingest_* family and points the record log
  // at them.
  Counter* group_commits_metric = nullptr;
  Counter* group_commit_bytes_metric = nullptr;
};

struct HybridLogStats {
  uint64_t bytes_appended = 0;
  uint64_t appends = 0;
  uint64_t pad_bytes = 0;
  uint64_t blocks_flushed = 0;
  // Nanoseconds the writer spent waiting for the flusher to free a block.
  uint64_t writer_stall_nanos = 0;
  // Reads that lost the seqlock race and retried from disk.
  uint64_t snapshot_fallbacks = 0;
  uint64_t disk_reads = 0;
  uint64_t memory_reads = 0;
  uint64_t retained_floor = 0;  // see HybridLog::retained_floor()
};

class HybridLog {
 public:
  // The byte value used to pad block remainders. Framing layers treat a
  // leading 0xFFFFFFFF length/id as "skip to the next block boundary".
  static constexpr uint8_t kPadByte = 0xFF;

  static Result<std::unique_ptr<HybridLog>> Create(const std::string& file_path,
                                                   const HybridLogOptions& options);

  // Opens the log a closed writer left in `file_path`, for reading only (the
  // post-mortem case, §4.5): the whole file counts as published and flushed,
  // so every read goes to the file. The log allocates no block slots and
  // starts no flusher, and Append fails. Only block_size and the metrics
  // fields of `options` apply.
  static Result<std::unique_ptr<HybridLog>> OpenReadOnly(const std::string& file_path,
                                                         const HybridLogOptions& options);

  ~HybridLog();

  HybridLog(const HybridLog&) = delete;
  HybridLog& operator=(const HybridLog&) = delete;

  // --- Writer-thread API -----------------------------------------------

  // Appends `data` (size must be in (0, block_size]) and returns its address.
  // Cheap in the common case: a bounds check and a memcpy into the block.
  // Once a failed block write leaves no slot to recycle, it returns that
  // write's error, and so does every later call; Close() still writes the
  // blocks the ring holds.
  Result<uint64_t> Append(std::span<const uint8_t> data);

  // Reserves `len` bytes and returns a pointer the caller fills in before the
  // next Publish(). Avoids a staging copy for encoders that write in place.
  Result<std::pair<uint64_t, uint8_t*>> AppendReserve(size_t len);

  // Makes everything appended so far visible to readers.
  void Publish();

  // Total bytes appended (including padding). Exact from the writer thread;
  // other threads (stats scrapes) get a relaxed snapshot.
  uint64_t tail() const { return tail_.load(std::memory_order_relaxed); }

  // Stops the flusher, then writes what it did not flush to disk: the active
  // block's published prefix, and every full block from the first one whose
  // flush write failed. Called automatically by the destructor. After Close() all
  // published data is readable from disk; Append must not be called again.
  Status Close();

  // --- Any-thread API ----------------------------------------------------

  // Highest address readers may read (exclusive).
  uint64_t queryable_tail() const { return queryable_tail_.load(std::memory_order_acquire); }

  // Reads out.size() bytes at `addr`, from memory snapshots where possible
  // and from the backing file otherwise. The range may span blocks. Fails
  // with OutOfRange if it extends past queryable_tail().
  Status Read(uint64_t addr, std::span<uint8_t> out) const;

  // Bytes durably handed to the backing file.
  uint64_t flushed_tail() const { return flushed_bytes_.load(std::memory_order_acquire); }

  // Bytes known durable (covered by an fdatasync). Advances per flush under
  // kEveryBlock, per group commit under kGroup, and only at Close under
  // kNone. flushed_tail() - durable_tail() is the current data-at-risk.
  uint64_t durable_tail() const { return synced_bytes_.load(std::memory_order_acquire); }

  // Group commits issued so far (sync_policy = kGroup only).
  uint64_t group_commits() const { return group_commits_.load(std::memory_order_relaxed); }

  // Lowest readable address. 0 unless retention dropped older data; reads
  // below this fail with OutOfRange.
  uint64_t retained_floor() const { return retained_floor_.load(std::memory_order_acquire); }

  // --- Tiered retention (any thread) -------------------------------------
  // Retention never drops bytes at or above `barrier`: the applied floor is
  // min(computed floor, barrier rounded down to a block). kNullAddr (the
  // default) leaves retention unrestricted. The tiering service starts the
  // barrier at 0 (drop nothing) and advances it only past chunks that are
  // durably archived, so retention turns from deletion into demotion.
  void SetRetentionBarrier(uint64_t barrier) {
    retention_barrier_.store(barrier, std::memory_order_release);
  }
  uint64_t retention_barrier() const {
    return retention_barrier_.load(std::memory_order_acquire);
  }
  // The floor retention would pick from the flushed tail and retain_bytes
  // alone (block aligned), ignoring the barrier — i.e. how far the tiering
  // service should demote.
  uint64_t DesiredRetentionFloor() const;
  // Applies retention (clamped by the barrier) immediately instead of at the
  // next block flush. The tiering service calls this right after advancing
  // the barrier so demoted chunks are reclaimed without waiting for ingest.
  void ApplyRetention();

  // --- Reader floor pins (any thread) ------------------------------------
  // Pins a floor and returns it: the one retention is headed for (the
  // retained window's start, clamped to the barrier), never below the
  // applied floor. Until the matching UnpinFloor, retention never advances
  // past the lowest pinned floor (like the barrier), so a reader may split
  // its work at its floor and read everything at or above it. Later pins sit
  // at or above earlier ones, so while readers overlap the lowest pin keeps
  // rising and the floor lags by at most the oldest running reader.
  // Retention a pin held back is applied by the flusher (its next block, or
  // at once when the unpin wakes it), never on the reader's thread. Free
  // when retain_bytes == 0: the floor never moves then.
  uint64_t PinFloor();
  void UnpinFloor(uint64_t floor);

  HybridLogStats stats() const;

  // Full blocks queued for (or being) flushed. Approximate; safe from any
  // thread — the engine's flush-queue depth gauge reads this.
  size_t FlushQueueDepthApprox() const { return flush_queue_.SizeApprox(); }

  // Total nanoseconds the writer stalled waiting for the flusher, readable
  // from any thread (the backpressure gauge hook samples it).
  uint64_t writer_stall_nanos() const {
    return writer_stall_nanos_.load(std::memory_order_relaxed);
  }

  size_t block_size() const { return options_.block_size; }
  // Fraction of the published log currently resident in memory.
  double MemoryResidentFraction() const;

 private:
  // Registers the metrics only; Create then allocates the block slots and
  // starts the flusher.
  HybridLog(File file, const HybridLogOptions& options);

  void FlusherMain();
  // The floor retention picks for `tail_now` when no pin holds it: the
  // retained window's start (block aligned), clamped to the barrier.
  uint64_t UnpinnedFloor(uint64_t tail_now) const;
  // Shared floor-advance body of the flusher retention steps and
  // ApplyRetention: clamps UnpinnedFloor to the lowest pin, then
  // monotonically advances the floor and punches the dropped range.
  void AdvanceRetention(uint64_t tail_now);
  // Ensures the slot for `block_no` is free to be (re)used by the writer,
  // parking until the flusher has written the slot's block. Fails with the
  // write error when that block's write (or an earlier one) failed.
  Status RecycleSlot(uint64_t block_no);
  // Hands the current active block to the flusher and activates `block_no`.
  // After a failure, fails again without queueing anything.
  Status RotateTo(uint64_t block_no);
  Status ReadWithinBlock(uint64_t addr, std::span<uint8_t> out) const;

  const HybridLogOptions options_;
  File file_;

  // Block slot `i` holds block number slot_version_[i]; readers use the
  // version to detect recycles (seqlock validation).
  std::vector<std::unique_ptr<uint8_t[]>> slots_;
  std::unique_ptr<std::atomic<uint64_t>[]> slot_version_;

  // Writer-local state. tail_ is written by the single appender only, but
  // stats()/tail() may sample it from any thread (the engine's metrics hooks
  // and concurrent-ingest tests do), so it is a relaxed atomic rather than a
  // plain counter.
  std::atomic<uint64_t> tail_{0};  // next append address
  uint64_t active_block_ = 0;      // block number being written
  bool closed_ = false;
  Status append_error_;  // set by the rotation RecycleSlot failed; Append returns it

  std::atomic<uint64_t> queryable_tail_{0};
  std::atomic<uint64_t> flushed_bytes_{0};
  // Durability watermark + group-commit count (see durable_tail()).
  std::atomic<uint64_t> synced_bytes_{0};
  std::atomic<uint64_t> group_commits_{0};
  std::atomic<uint64_t> flushed_block_count_{0};
  std::atomic<uint64_t> retained_floor_{0};
  // Tiered retention: the floor never passes the barrier (kNullAddr = no
  // limit). retention_mu_ serializes floor advancement between the flusher
  // and ApplyRetention callers, and guards the pins: the floor never passes
  // the lowest pinned one either. It is held for a few loads and stores only
  // (the hole punch runs outside it), so pinning readers barely wait on it.
  // retention_held_ records that a pin held the floor back; the UnpinFloor
  // that clears it raises retention_pending_ and wakes the flusher.
  std::atomic<uint64_t> retention_barrier_{kNullAddr};
  std::mutex retention_mu_;
  std::vector<uint64_t> pinned_floors_;  // one per running reader; no allocation once warm
  bool retention_held_ = false;
  std::atomic<bool> retention_pending_{false};

  // Flush pipeline: block numbers travel writer -> flusher; kStopSentinel
  // terminates the flusher. Each end parks on its own waker: the flusher on
  // an empty queue (woken per queued block, by an unpin that leaves
  // retention pending, and by Close), the writer on a slot whose block is
  // not yet flushed (woken per flushed block, and by a failed write).
  static constexpr uint64_t kStopSentinel = ~0ULL;
  SpscQueue<uint64_t> flush_queue_;
  Waker flusher_waker_;
  Waker writer_waker_;
  // Set once a block write fails, after write_error_ holds its error. From
  // then on no block counts as flushed: the failed block and every later one
  // stay in their slots, the writer fails its append rather than recycle a
  // slot whose bytes never reached the file, and Close() rewrites them.
  std::atomic<bool> write_failed_{false};
  Status write_error_;
  std::thread flusher_;

  // Stats. Single-writer counters, but stats() may sample them from any
  // thread, so all are relaxed atomics. The stall total likewise feeds the
  // metrics collection hook from scrape threads.
  std::atomic<uint64_t> appends_{0};
  std::atomic<uint64_t> pad_bytes_{0};
  std::atomic<uint64_t> writer_stall_nanos_{0};
  mutable std::atomic<uint64_t> snapshot_fallbacks_{0};
  mutable std::atomic<uint64_t> disk_reads_{0};
  mutable std::atomic<uint64_t> memory_reads_{0};

  // Registry-backed metrics (all null when options.metrics is unset). These
  // are per-block or per-fallback events, so the clock reads and relaxed
  // adds never sit on the per-record append path.
  Histogram* flush_seconds_ = nullptr;         // per-block PWriteAll (+sync)
  Histogram* writer_stall_seconds_ = nullptr;  // per stall episode in RecycleSlot
  Counter* blocks_flushed_metric_ = nullptr;
  Counter* disk_reads_metric_ = nullptr;
  Counter* memory_reads_metric_ = nullptr;
  Counter* snapshot_fallbacks_metric_ = nullptr;
};

}  // namespace loom

#endif  // SRC_HYBRIDLOG_HYBRID_LOG_H_
