// Byte-stream plumbing shared by the program's framed protocols.
//
// The supervisor's SPTW pipes, the sweep service's SPTS socket, the
// durable log's SPTL records and the profile cache's entries all speak
// the same frame discipline — magic | u32 version | u8 kind | u64 length
// | payload | u64 FNV-1a(kind, length, payload) — so the framing lives
// here once, parameterized by a FrameFormat: the 4-byte magic and the
// version/kind window a given protocol accepts.
//
// The Unix-domain socket and pipe helpers are the minimal set a
// single-threaded poll() event loop needs: listen/connect/accept with
// errno turned into diagnostics, EINTR-tolerant read/write wrappers, and
// a scoped SIGPIPE guard so a write to a vanished peer reports EPIPE as a
// clean false instead of killing the process.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

namespace spt::support::wire {

/// Frame layout constants: 4 magic + 4 version + 1 kind + 8 length.
inline constexpr std::size_t kFrameHeaderBytes = 4 + 4 + 1 + 8;
inline constexpr std::size_t kFrameTrailerBytes = 8;
inline constexpr std::uint64_t kMaxFramePayloadBytes = 1ull << 28;

/// One protocol's frames: its magic and the versions and kinds its
/// scanner and decoder accept (both bounds inclusive).
struct FrameFormat {
  char magic[4];
  std::uint32_t min_version;
  std::uint32_t max_version;
  std::uint8_t min_kind;
  std::uint8_t max_kind;
};

/// Encodes one frame under the given 4-byte magic.
std::string encodeFrame(const char magic[4], std::uint32_t version,
                        std::uint8_t kind, const std::string& payload);

/// Incremental scan state for a byte stream of frames.
enum class FrameScan {
  kNeedMore,  // valid but incomplete frame prefix
  kFrame,     // buf[0..*frame_bytes) is one complete frame
  kCorrupt,   // can never become a valid frame (magic/length)
};

/// Scans the front of `buf` for one complete frame without copying. A
/// stream is corrupt as soon as its first bytes prove it: a wrong magic
/// byte, a version or kind outside `format`, or an oversized length.
/// Corruption inside the payload (checksum) is only detectable by
/// decodeFrame on the completed slice.
FrameScan scanFrame(const FrameFormat& format, const std::string& buf,
                    std::size_t* frame_bytes, std::string* error);

/// Decodes one complete frame (as delimited by scanFrame): validates
/// magic, version and kind against `format`, length and checksum.
/// Returns false with a reason otherwise.
bool decodeFrame(const FrameFormat& format, const std::string& frame,
                 std::uint32_t* version, std::uint8_t* kind,
                 std::string* payload, std::string* error);

/// Takes one frame off the front of a stream buffer: scans `*buf`, and
/// when a complete frame is there decodes it and erases it from `*buf`.
/// kNeedMore and kCorrupt leave `*buf` as it was; kCorrupt sets `error`
/// (bad header, length or checksum).
FrameScan takeFrame(const FrameFormat& format, std::string* buf,
                    std::uint8_t* kind, std::string* payload,
                    std::string* error);

// ---- Unix-domain sockets and pipes (POSIX only) ---------------------------

/// SIG_IGN for SIGPIPE for the guard's lifetime: a write to a pipe or
/// socket whose reader is gone fails with EPIPE instead of killing the
/// process. Restores the previous disposition on scope exit (a no-op where
/// there are no POSIX signals).
class ScopedIgnoreSigpipe {
 public:
  ScopedIgnoreSigpipe();
  ~ScopedIgnoreSigpipe();
  ScopedIgnoreSigpipe(const ScopedIgnoreSigpipe&) = delete;
  ScopedIgnoreSigpipe& operator=(const ScopedIgnoreSigpipe&) = delete;

 private:
  struct Saved;
  std::unique_ptr<Saved> saved_;
};

/// True when this platform has AF_UNIX sockets (same platforms where
/// Supervisor::isolationSupported()).
bool socketsSupported();

/// Binds and listens on `path`. An existing socket file is probed with a
/// connect first: refused (ECONNREFUSED — the stale leftover of a crashed
/// service) is unlinked and replaced; accepted (a live service owns the
/// path) refuses to start; a non-socket file at the path is never
/// touched. Returns the listening fd, or -1 with `error` set.
int listenUnix(const std::string& path, int backlog, std::string* error);

/// Connects to a listening Unix socket. Returns the fd, or -1 with
/// `error` set (ENOENT / ECONNREFUSED read as "service not running").
int connectUnix(const std::string& path, std::string* error);

/// O_NONBLOCK on/off; false on fcntl failure.
bool setNonBlocking(int fd, bool enable);

/// Writes all `n` bytes to a blocking fd, retrying on EINTR. Requires
/// SIGPIPE ignored (ScopedIgnoreSigpipe); a peer hangup surfaces as false,
/// not a signal.
bool writeAllFd(int fd, const char* data, std::size_t n);

/// Reads up to `max_bytes` from `fd`, appending to `*buf`, retrying on
/// EINTR. Returns bytes read (> 0), 0 on EOF, -1 on EAGAIN/EWOULDBLOCK
/// (nonblocking fd, no data), -2 on any other error.
int readSomeFd(int fd, std::string* buf, std::size_t max_bytes);

}  // namespace spt::support::wire
