#include "support/wire.h"

#include <algorithm>
#include <cstring>

#include "support/hash.h"

#if defined(__unix__) || (defined(__APPLE__) && defined(__MACH__))
#define SPT_WIRE_POSIX 1
#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace spt::support::wire {
namespace {

void appendRaw(std::string& out, const void* data, std::size_t n) {
  out.append(static_cast<const char*>(data), n);
}

std::uint64_t frameChecksum(std::uint8_t kind, std::uint64_t length,
                            const char* payload) {
  std::uint64_t checksum = kFnvOffsetBasis;
  checksum = fnv1a(checksum, &kind, sizeof kind);
  checksum = fnv1a(checksum, &length, sizeof length);
  checksum = fnv1a(checksum, payload, static_cast<std::size_t>(length));
  return checksum;
}

}  // namespace

std::string encodeFrame(const char magic[4], std::uint32_t version,
                        std::uint8_t kind, const std::string& payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size() + kFrameTrailerBytes);
  appendRaw(out, magic, 4);
  appendRaw(out, &version, sizeof version);
  appendRaw(out, &kind, sizeof kind);
  const std::uint64_t length = payload.size();
  appendRaw(out, &length, sizeof length);
  out.append(payload);
  const std::uint64_t checksum =
      frameChecksum(kind, length, payload.data());
  appendRaw(out, &checksum, sizeof checksum);
  return out;
}

namespace {

std::string versionError(const FrameFormat& format, std::uint32_t v) {
  std::string out = "unsupported frame version " + std::to_string(v) +
                    " (expected " + std::to_string(format.min_version);
  if (format.max_version != format.min_version) {
    out += " to " + std::to_string(format.max_version);
  }
  return out + ")";
}

std::string kindError(std::uint8_t k, std::uint32_t v) {
  return "frame kind " + std::to_string(k) + " is not valid in frame version " +
         std::to_string(v);
}

}  // namespace

FrameScan scanFrame(const FrameFormat& format, const std::string& buf,
                    std::size_t* frame_bytes, std::string* error) {
  const auto corrupt = [&](std::string why) {
    if (error) *error = std::move(why);
    return FrameScan::kCorrupt;
  };
  // Reject a garbage stream on the first bytes that can prove it garbage,
  // rather than waiting for a length that will never arrive.
  const std::size_t magic_avail = std::min<std::size_t>(buf.size(), 4);
  if (std::memcmp(buf.data(), format.magic, magic_avail) != 0) {
    return corrupt("bad frame magic");
  }
  if (buf.size() < 4 + 4) return FrameScan::kNeedMore;
  std::uint32_t v = 0;
  std::memcpy(&v, buf.data() + 4, sizeof v);
  if (v < format.min_version || v > format.max_version) {
    return corrupt(versionError(format, v));
  }
  if (buf.size() < 4 + 4 + 1) return FrameScan::kNeedMore;
  const std::uint8_t k = static_cast<std::uint8_t>(buf[4 + 4]);
  if (k < format.min_kind || k > format.max_kind) {
    return corrupt(kindError(k, v));
  }
  if (buf.size() < kFrameHeaderBytes) return FrameScan::kNeedMore;
  std::uint64_t length = 0;
  std::memcpy(&length, buf.data() + 4 + 4 + 1, sizeof length);
  if (length > kMaxFramePayloadBytes) {
    return corrupt("frame length " + std::to_string(length) +
                   " exceeds the payload cap");
  }
  const std::size_t total = kFrameHeaderBytes +
                            static_cast<std::size_t>(length) +
                            kFrameTrailerBytes;
  if (buf.size() < total) return FrameScan::kNeedMore;
  if (frame_bytes) *frame_bytes = total;
  return FrameScan::kFrame;
}

bool decodeFrame(const FrameFormat& format, const std::string& frame,
                 std::uint32_t* version, std::uint8_t* kind,
                 std::string* payload, std::string* error) {
  const auto fail = [&](std::string why) {
    if (error) *error = std::move(why);
    return false;
  };
  if (frame.size() < kFrameHeaderBytes + kFrameTrailerBytes) {
    return fail("frame too short");
  }
  if (std::memcmp(frame.data(), format.magic, 4) != 0) {
    return fail("bad frame magic");
  }
  std::uint32_t v = 0;
  std::memcpy(&v, frame.data() + 4, sizeof v);
  if (v < format.min_version || v > format.max_version) {
    return fail(versionError(format, v));
  }
  const std::uint8_t k = static_cast<std::uint8_t>(frame[4 + 4]);
  if (k < format.min_kind || k > format.max_kind) return fail(kindError(k, v));
  std::uint64_t length = 0;
  std::memcpy(&length, frame.data() + 4 + 4 + 1, sizeof length);
  if (length > kMaxFramePayloadBytes) {
    return fail("frame length exceeds the payload cap");
  }
  if (frame.size() != kFrameHeaderBytes + length + kFrameTrailerBytes) {
    return fail("frame length field " + std::to_string(length) +
                " does not match the buffered bytes");
  }
  std::uint64_t stored = 0;
  std::memcpy(&stored, frame.data() + kFrameHeaderBytes + length,
              sizeof stored);
  const std::uint64_t checksum =
      frameChecksum(k, length, frame.data() + kFrameHeaderBytes);
  if (stored != checksum) return fail("frame checksum mismatch");
  if (version) *version = v;
  if (kind) *kind = k;
  if (payload) payload->assign(frame, kFrameHeaderBytes,
                               static_cast<std::size_t>(length));
  return true;
}

FrameScan takeFrame(const FrameFormat& format, std::string* buf,
                    std::uint8_t* kind, std::string* payload,
                    std::string* error) {
  std::size_t frame_bytes = 0;
  const FrameScan scan = scanFrame(format, *buf, &frame_bytes, error);
  if (scan != FrameScan::kFrame) return scan;
  if (!decodeFrame(format, buf->substr(0, frame_bytes), nullptr, kind,
                   payload, error)) {
    return FrameScan::kCorrupt;
  }
  buf->erase(0, frame_bytes);
  return FrameScan::kFrame;
}

#if SPT_WIRE_POSIX

struct ScopedIgnoreSigpipe::Saved {
  struct sigaction action {};
  bool ok = false;
};

ScopedIgnoreSigpipe::ScopedIgnoreSigpipe() : saved_(std::make_unique<Saved>()) {
  struct sigaction ignore {};
  ignore.sa_handler = SIG_IGN;
  sigemptyset(&ignore.sa_mask);
  saved_->ok = ::sigaction(SIGPIPE, &ignore, &saved_->action) == 0;
}

ScopedIgnoreSigpipe::~ScopedIgnoreSigpipe() {
  if (saved_->ok) ::sigaction(SIGPIPE, &saved_->action, nullptr);
}

bool socketsSupported() { return true; }

int listenUnix(const std::string& path, int backlog, std::string* error) {
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    if (error) *error = "socket path too long: " + path;
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error) *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  // A leftover socket file would fail the bind with EADDRINUSE whether
  // its owner is alive or was SIGKILLed, so probe it with a connect: a
  // refused connection means nobody is accepting — a stale file from an
  // unclean crash — and is safe to unlink; an accepted connection means a
  // live service owns the path and this start must refuse rather than
  // steal it. Only a real socket is ever unlinked: a regular file at the
  // path also refuses the connect, and deleting a user's file because it
  // shares a name with our socket would be unforgivable.
  struct stat st;
  if (::lstat(path.c_str(), &st) == 0) {
    if (!S_ISSOCK(st.st_mode)) {
      if (error) {
        *error = "socket path " + path + " exists and is not a socket";
      }
      ::close(fd);
      return -1;
    }
    const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (probe >= 0) {
      int rc;
      do {
        rc = ::connect(probe, reinterpret_cast<const sockaddr*>(&addr),
                       sizeof addr);
      } while (rc != 0 && errno == EINTR);
      const int connect_errno = errno;
      ::close(probe);
      if (rc == 0) {
        if (error) {
          *error = "socket path " + path +
                   " is owned by a live service; refusing to replace it";
        }
        ::close(fd);
        return -1;
      }
      if (connect_errno != ECONNREFUSED && connect_errno != ENOENT) {
        if (error) {
          *error = "probe connect " + path + ": " +
                   std::strerror(connect_errno);
        }
        ::close(fd);
        return -1;
      }
    }
    ::unlink(path.c_str());
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    if (error) {
      *error = "bind " + path + ": " + std::strerror(errno);
    }
    ::close(fd);
    return -1;
  }
  if (::listen(fd, backlog) != 0) {
    if (error) {
      *error = "listen " + path + ": " + std::strerror(errno);
    }
    ::close(fd);
    ::unlink(path.c_str());
    return -1;
  }
  return fd;
}

int connectUnix(const std::string& path, std::string* error) {
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    if (error) *error = "socket path too long: " + path;
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error) *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof addr);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    if (error) {
      *error = "connect " + path + ": " + std::strerror(errno) +
               (errno == ENOENT || errno == ECONNREFUSED
                    ? " (is the service running?)"
                    : "");
    }
    ::close(fd);
    return -1;
  }
  return fd;
}

bool setNonBlocking(int fd, bool enable) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  const int want = enable ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  return ::fcntl(fd, F_SETFL, want) == 0;
}

bool writeAllFd(int fd, const char* data, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd, data + off, n - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(w);
  }
  return true;
}

int readSomeFd(int fd, std::string* buf, std::size_t max_bytes) {
  char chunk[65536];
  const std::size_t want = std::min(max_bytes, sizeof chunk);
  ssize_t n;
  do {
    n = ::read(fd, chunk, want);
  } while (n < 0 && errno == EINTR);
  if (n > 0) {
    buf->append(chunk, static_cast<std::size_t>(n));
    return static_cast<int>(n);
  }
  if (n == 0) return 0;
  if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;
  return -2;
}

#else  // !SPT_WIRE_POSIX

struct ScopedIgnoreSigpipe::Saved {};
ScopedIgnoreSigpipe::ScopedIgnoreSigpipe() = default;
ScopedIgnoreSigpipe::~ScopedIgnoreSigpipe() = default;

bool socketsSupported() { return false; }
int listenUnix(const std::string&, int, std::string* error) {
  if (error) *error = "unix sockets are not supported on this platform";
  return -1;
}
int connectUnix(const std::string&, std::string* error) {
  if (error) *error = "unix sockets are not supported on this platform";
  return -1;
}
bool setNonBlocking(int, bool) { return false; }
bool writeAllFd(int, const char*, std::size_t) { return false; }
int readSomeFd(int, std::string*, std::size_t) { return -2; }

#endif  // SPT_WIRE_POSIX

}  // namespace spt::support::wire
