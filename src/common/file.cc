#include "src/common/file.h"

#include <errno.h>
#include <fcntl.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/stat.h>
#include <unistd.h>

#include <filesystem>
#include <utility>
#include <vector>

namespace loom {

namespace {

std::string ErrnoMessage(const std::string& op, const std::string& path) {
  return op + " " + path + ": " + strerror(errno);
}

}  // namespace

File::~File() { Close(); }

File::File(File&& other) noexcept : fd_(other.fd_), path_(std::move(other.path_)) {
  other.fd_ = -1;
}

File& File::operator=(File&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    other.fd_ = -1;
  }
  return *this;
}

Result<File> File::CreateTruncate(const std::string& path) {
  int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_RDWR | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IoError(ErrnoMessage("open", path));
  }
  return File(fd, path);
}

Result<File> File::OpenReadOnly(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError(ErrnoMessage("open", path));
  }
  return File(fd, path);
}

Status File::PWriteAll(uint64_t offset, std::span<const uint8_t> data) {
  if (fd_ < 0) {
    return Status::FailedPrecondition("PWriteAll on closed file");
  }
  size_t written = 0;
  while (written < data.size()) {
    ssize_t n = ::pwrite(fd_, data.data() + written, data.size() - written,
                         static_cast<off_t>(offset + written));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Status::IoError(ErrnoMessage("pwrite", path_));
    }
    written += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Status File::PReadAll(uint64_t offset, std::span<uint8_t> out) const {
  if (fd_ < 0) {
    return Status::FailedPrecondition("PReadAll on closed file");
  }
  size_t done = 0;
  while (done < out.size()) {
    ssize_t n =
        ::pread(fd_, out.data() + done, out.size() - done, static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Status::IoError(ErrnoMessage("pread", path_));
    }
    if (n == 0) {
      return Status::OutOfRange("short read past EOF in " + path_);
    }
    done += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Result<uint64_t> File::Size() const {
  if (fd_ < 0) {
    return Status::FailedPrecondition("Size on closed file");
  }
  struct stat st;
  if (::fstat(fd_, &st) != 0) {
    return Status::IoError(ErrnoMessage("fstat", path_));
  }
  return static_cast<uint64_t>(st.st_size);
}

Status File::PunchHole(uint64_t offset, uint64_t len) {
  if (fd_ < 0) {
    return Status::FailedPrecondition("PunchHole on closed file");
  }
#ifdef FALLOC_FL_PUNCH_HOLE
  if (::fallocate(fd_, FALLOC_FL_PUNCH_HOLE | FALLOC_FL_KEEP_SIZE, static_cast<off_t>(offset),
                  static_cast<off_t>(len)) != 0) {
    return Status::Unavailable(ErrnoMessage("fallocate", path_));
  }
  return Status::Ok();
#else
  (void)offset;
  (void)len;
  return Status::Unavailable("hole punching unsupported on this platform");
#endif
}

Status File::Sync() {
  if (fd_ < 0) {
    return Status::FailedPrecondition("Sync on closed file");
  }
  if (::fdatasync(fd_) != 0) {
    return Status::IoError(ErrnoMessage("fdatasync", path_));
  }
  return Status::Ok();
}

Status File::RenameFile(const std::string& from, const std::string& to) {
  if (::rename(from.c_str(), to.c_str()) != 0) {
    return Status::IoError(ErrnoMessage("rename", from + " -> " + to));
  }
  return Status::Ok();
}

Status File::RemoveFile(const std::string& path) {
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return Status::IoError(ErrnoMessage("unlink", path));
  }
  return Status::Ok();
}

Status File::SyncDirectory(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError(ErrnoMessage("open dir", dir));
  }
  Status st;
  if (::fsync(fd) != 0) {
    st = Status::IoError(ErrnoMessage("fsync dir", dir));
  }
  ::close(fd);
  return st;
}

void File::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

TempDir::TempDir() {
  const char* base = getenv("TMPDIR");
  std::string tmpl = std::string(base != nullptr ? base : "/tmp") + "/loom.XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  char* dir = ::mkdtemp(buf.data());
  if (dir == nullptr) {
    // Fall back to cwd so callers still get a usable path; tests will surface
    // the failure via subsequent file errors.
    path_ = "./loom-tmp";
    std::filesystem::create_directories(path_);
    return;
  }
  path_ = dir;
}

TempDir::~TempDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

}  // namespace loom
