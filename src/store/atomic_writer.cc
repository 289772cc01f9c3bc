#include "store/atomic_writer.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "util/fault_injector.h"

namespace rdfalign::store {

namespace {

std::string ErrnoText(int err) {
  return std::string(std::strerror(err));
}

/// Parent directory of `path` ("." for a bare filename).
std::string DirOf(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

int WriteWithFaults(int fd, const void* data, size_t n) {
  const FaultAction a = FaultInjector::Hit("store.write");
  switch (a.kind) {
    case FaultAction::kNone:
      break;
    case FaultAction::kError:
      errno = a.error_errno;
      return -1;
    case FaultAction::kEintr:
      errno = EINTR;
      return -1;
    case FaultAction::kShort:
      n = n > 0 ? 1 : 0;
      break;
  }
  return static_cast<int>(::write(fd, data, n));
}

}  // namespace

/// A std::streambuf over a file descriptor with an internal buffer. The
/// first syscall failure is latched into `error_errno` and every later
/// operation fails fast; the owning stream's failbit fires through the
/// usual overflow/sync return codes.
class AtomicFileWriter::FdStreamBuf : public std::streambuf {
 public:
  static constexpr size_t kBufBytes = 1 << 16;

  explicit FdStreamBuf(int fd) : fd_(fd), buf_(kBufBytes) {
    setp(buf_.data(), buf_.data() + buf_.size());
  }

  int error_errno() const { return error_errno_; }
  int fd() const { return fd_; }

  bool FlushBuffer() {
    if (error_errno_ != 0) return false;
    const char* p = pbase();
    size_t left = static_cast<size_t>(pptr() - pbase());
    while (left > 0) {
      const int n = WriteWithFaults(fd_, p, left);
      if (n < 0) {
        if (errno == EINTR) continue;
        error_errno_ = errno != 0 ? errno : EIO;
        return false;
      }
      p += n;
      left -= static_cast<size_t>(n);
    }
    setp(buf_.data(), buf_.data() + buf_.size());
    return true;
  }

 protected:
  int overflow(int ch) override {
    if (!FlushBuffer()) return traits_type::eof();
    if (ch != traits_type::eof()) {
      *pptr() = static_cast<char>(ch);
      pbump(1);
    }
    return ch == traits_type::eof() ? 0 : ch;
  }

  std::streamsize xsputn(const char* s, std::streamsize count) override {
    // Large writes bypass the buffer once it would spill.
    std::streamsize done = 0;
    while (done < count) {
      const std::streamsize room = epptr() - pptr();
      if (room == 0) {
        if (!FlushBuffer()) return done;
        continue;
      }
      const std::streamsize take = std::min(room, count - done);
      std::memcpy(pptr(), s + done, static_cast<size_t>(take));
      pbump(static_cast<int>(take));
      done += take;
    }
    return done;
  }

  int sync() override { return FlushBuffer() ? 0 : -1; }

 private:
  int fd_;
  std::vector<char> buf_;
  int error_errno_ = 0;
};

AtomicFileWriter::AtomicFileWriter(std::string path, std::string kind)
    : path_(std::move(path)), kind_(std::move(kind)) {
  temp_path_ = path_ + ".tmp." + std::to_string(::getpid());
}

AtomicFileWriter::~AtomicFileWriter() {
  if (!committed_) Abort();
}

Status AtomicFileWriter::Open() {
  CleanupStaleTemps(path_);
  const FaultAction a = FaultInjector::Hit("store.open");
  int fd = -1;
  if (a.kind == FaultAction::kError) {
    errno = a.error_errno;
  } else {
    fd = ::open(temp_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  }
  if (fd < 0) {
    return Status::IOError("cannot open file for writing: " + path_ + ": " +
                           ErrnoText(errno));
  }
  if (FaultInjector::Hit("store.alloc").kind == FaultAction::kError) {
    ::close(fd);
    ::unlink(temp_path_.c_str());
    return Status::IOError("cannot allocate write buffer for " + kind_ +
                           ": " + path_);
  }
  buf_ = std::make_unique<FdStreamBuf>(fd);
  stream_ = std::make_unique<std::ostream>(buf_.get());
  return Status::OK();
}

Status AtomicFileWriter::status() const {
  if (buf_ == nullptr) return Status::OK();
  if (buf_->error_errno() != 0) {
    return Status::IOError("error writing " + kind_ + ": " + path_ + ": " +
                           ErrnoText(buf_->error_errno()));
  }
  return Status::OK();
}

Status AtomicFileWriter::Commit() {
  if (buf_ == nullptr) {
    return Status::Internal("AtomicFileWriter::Commit before Open: " + path_);
  }
  stream_->flush();
  Status st = status();
  if (!st.ok()) {
    Abort();
    return st;
  }

  // fsync the temp file: its bytes must be durable BEFORE the rename can
  // publish them — otherwise a crash after the rename could expose a
  // complete-looking file with unwritten pages.
  const FaultAction fsync_fault = FaultInjector::Hit("store.fsync");
  int rc;
  if (fsync_fault.kind == FaultAction::kError) {
    errno = fsync_fault.error_errno;
    rc = -1;
  } else {
    do {
      rc = ::fsync(buf_->fd());
    } while (rc != 0 && errno == EINTR);
  }
  if (rc != 0) {
    const int err = errno;
    Abort();
    return Status::IOError("fsync failed for " + kind_ + ": " + path_ +
                           ": " + ErrnoText(err));
  }
  if (::close(buf_->fd()) != 0 && errno != EINTR) {
    const int err = errno;
    buf_.reset();  // fd already gone; do not close it again in Abort
    stream_.reset();
    ::unlink(temp_path_.c_str());
    return Status::IOError("close failed for " + kind_ + ": " + path_ +
                           ": " + ErrnoText(err));
  }
  // The fd is closed; drop the buffer so Abort (if rename fails) only
  // unlinks.
  buf_.reset();
  stream_.reset();

  const FaultAction rename_fault = FaultInjector::Hit("store.rename");
  if (rename_fault.kind == FaultAction::kError) {
    errno = rename_fault.error_errno;
    rc = -1;
  } else {
    rc = ::rename(temp_path_.c_str(), path_.c_str());
  }
  if (rc != 0) {
    const int err = errno;
    ::unlink(temp_path_.c_str());
    return Status::IOError("rename failed for " + kind_ + ": " + path_ +
                           ": " + ErrnoText(err));
  }
  committed_ = true;

  // fsync the directory so the rename itself survives a crash. A failure
  // here is reported but the new file is already in place (rename done);
  // the caller may retry the save.
  const std::string dir = DirOf(path_);
  const FaultAction dir_fault = FaultInjector::Hit("store.dirsync");
  int dfd = -1;
  if (dir_fault.kind == FaultAction::kError) {
    errno = dir_fault.error_errno;
  } else {
    dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  }
  if (dfd < 0) {
    return Status::IOError("cannot fsync directory of " + kind_ + ": " +
                           path_ + ": " + ErrnoText(errno));
  }
  do {
    rc = ::fsync(dfd);
  } while (rc != 0 && errno == EINTR);
  const int err = errno;
  ::close(dfd);
  if (rc != 0) {
    return Status::IOError("cannot fsync directory of " + kind_ + ": " +
                           path_ + ": " + ErrnoText(err));
  }
  return Status::OK();
}

void AtomicFileWriter::Abort() {
  if (buf_ != nullptr) {
    ::close(buf_->fd());
    buf_.reset();
    stream_.reset();
  }
  if (!committed_) ::unlink(temp_path_.c_str());
}

size_t CleanupStaleTemps(const std::string& target) {
  namespace fs = std::filesystem;
  const std::string dir = DirOf(target);
  const std::string base =
      target.substr(target.find_last_of('/') + 1) + ".tmp.";
  size_t removed = 0;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.rfind(base, 0) != 0) continue;
    const std::string pid_text = name.substr(base.size());
    char* endp = nullptr;
    errno = 0;
    const long pid = std::strtol(pid_text.c_str(), &endp, 10);
    const bool parsable = !pid_text.empty() && *endp == '\0' &&
                          errno != ERANGE && pid > 0;
    if (parsable) {
      if (pid == static_cast<long>(::getpid())) continue;  // our own temp
      // A live pid may still be writing; leave its temp alone.
      if (::kill(static_cast<pid_t>(pid), 0) == 0 || errno == EPERM) {
        continue;
      }
    }
    if (::unlink(it->path().c_str()) == 0) ++removed;
  }
  return removed;
}

Status AtomicWriteStream(const std::string& path, const char* kind,
                         const std::function<Status(std::ostream&)>& write) {
  AtomicFileWriter writer(path, kind);
  RDFALIGN_RETURN_IF_ERROR(writer.Open());
  Status st = write(writer.stream());
  if (!st.ok()) {
    Status io = writer.status();
    return io.ok() ? st : io;
  }
  return writer.Commit();
}

Status AtomicWriteFile(const std::string& path, const void* data,
                       size_t size, const char* kind) {
  return AtomicWriteStream(path, kind, [&](std::ostream& out) {
    out.write(static_cast<const char*>(data),
              static_cast<std::streamsize>(size));
    return Status::OK();
  });
}

}  // namespace rdfalign::store
