// Thin RAII wrapper over POSIX file descriptors with positional I/O.
//
// The hybrid log persists blocks with pwrite and serves historical reads with
// pread, so concurrent readers never share a file offset with the flusher.

#ifndef SRC_COMMON_FILE_H_
#define SRC_COMMON_FILE_H_

#include <cstdint>
#include <span>
#include <string>

#include "src/common/status.h"

namespace loom {

class File {
 public:
  File() = default;
  ~File();

  File(const File&) = delete;
  File& operator=(const File&) = delete;
  File(File&& other) noexcept;
  File& operator=(File&& other) noexcept;

  // Opens (creating and truncating) a read/write file.
  static Result<File> CreateTruncate(const std::string& path);
  // Opens an existing file read-only.
  static Result<File> OpenReadOnly(const std::string& path);

  bool is_open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

  // Writes all of `data` at `offset`. Retries short writes.
  Status PWriteAll(uint64_t offset, std::span<const uint8_t> data);
  // Reads exactly `out.size()` bytes at `offset`. Fails on short read.
  Status PReadAll(uint64_t offset, std::span<uint8_t> out) const;

  Result<uint64_t> Size() const;
  Status Sync();
  // Deallocates [offset, offset+len) so the filesystem reclaims the space;
  // the logical file size is unchanged and reads of the range return zeros.
  // Returns Unavailable where the filesystem does not support hole punching.
  Status PunchHole(uint64_t offset, uint64_t len);
  void Close();

  // Atomically replaces `to` with `from` (rename(2)). Both paths must be on
  // the same filesystem. The archive writers use this for crash-safe
  // publication: write + fdatasync a ".tmp" sibling, rename onto the final
  // path, then SyncDirectory the parent so the rename itself is durable.
  static Status RenameFile(const std::string& from, const std::string& to);
  // Unlinks `path`. Missing files are not an error (idempotent cleanup).
  static Status RemoveFile(const std::string& path);
  // fsyncs the directory at `dir` so recently created/renamed entries in it
  // survive a crash.
  static Status SyncDirectory(const std::string& dir);

 private:
  File(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}

  int fd_ = -1;
  std::string path_;
};

// Creates a unique temporary directory (under $TMPDIR or /tmp) and removes it
// recursively on destruction. Used by tests and benches for log files.
class TempDir {
 public:
  TempDir();
  ~TempDir();

  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }
  std::string FilePath(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

}  // namespace loom

#endif  // SRC_COMMON_FILE_H_
