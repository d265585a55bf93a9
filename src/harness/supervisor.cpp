#include "harness/supervisor.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <sstream>
#include <thread>

#include "support/error.h"
#include "support/rng.h"
#include "support/thread_pool.h"

#if defined(__unix__) || (defined(__APPLE__) && defined(__MACH__))
#define SPT_SUPERVISOR_POSIX 1
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#else
#define SPT_SUPERVISOR_POSIX 0
#endif

namespace spt::harness {
namespace {

// ---- Frame codec (trace_io v2 FNV approach) -------------------------------

constexpr char kFrameMagic[4] = {'S', 'P', 'T', 'W'};
// magic + version + kind + length.
constexpr std::size_t kFrameHeaderBytes = 4 + 4 + 1 + 8;
// A reply larger than this is corruption, not a result.
constexpr std::uint64_t kMaxPayloadBytes = 1ull << 28;

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * kFnvPrime;
  return h;
}

void appendRaw(std::string& out, const void* data, std::size_t n) {
  out.append(static_cast<const char*>(data), n);
}

std::string hexDump(const std::string& bytes, std::size_t limit) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  const std::size_t n = std::min(bytes.size(), limit);
  out.reserve(n * 2 + 2);
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned char c = static_cast<unsigned char>(bytes[i]);
    out.push_back(digits[c >> 4]);
    out.push_back(digits[c & 0xf]);
  }
  if (bytes.size() > limit) out += "..";
  return out;
}

/// The highest kind a frame of `version` may carry: v2 knows request and
/// cell-tagged replies; v3 adds the spec request.
std::uint8_t maxKindForVersion(std::uint32_t version) {
  return version == kSupervisorFrameV2 ? kFrameKindPooledError
                                       : kFrameKindSpecRequest;
}

bool supportedFrameVersion(std::uint32_t version) {
  return version >= kSupervisorFrameV2 && version <= kSupervisorFrameV3;
}

}  // namespace

std::string encodeSupervisorFrame(std::uint8_t kind,
                                  const std::string& payload,
                                  std::uint32_t version) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size() + 8);
  appendRaw(out, kFrameMagic, sizeof kFrameMagic);
  appendRaw(out, &version, sizeof version);
  appendRaw(out, &kind, sizeof kind);
  const std::uint64_t length = payload.size();
  appendRaw(out, &length, sizeof length);
  out += payload;
  std::uint64_t checksum = kFnvOffset;
  checksum = fnv1a(checksum, &kind, sizeof kind);
  checksum = fnv1a(checksum, &length, sizeof length);
  checksum = fnv1a(checksum, payload.data(), payload.size());
  appendRaw(out, &checksum, sizeof checksum);
  return out;
}

bool decodeSupervisorFrame(const std::string& bytes, std::uint8_t* kind,
                           std::string* payload, std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  if (bytes.empty()) return fail("empty reply (no frame)");
  if (bytes.size() < kFrameHeaderBytes + 8) {
    return fail("short reply: " + std::to_string(bytes.size()) +
                " bytes, frame header needs " +
                std::to_string(kFrameHeaderBytes + 8));
  }
  if (std::memcmp(bytes.data(), kFrameMagic, sizeof kFrameMagic) != 0) {
    return fail("bad frame magic (first bytes " + hexDump(bytes, 8) + ")");
  }
  std::uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 4, sizeof version);
  if (!supportedFrameVersion(version)) {
    return fail("unsupported frame version " + std::to_string(version) +
                " (expected " + std::to_string(kSupervisorFrameV2) + " to " +
                std::to_string(kSupervisorFrameV3) + ")");
  }
  std::uint8_t k = 0;
  std::memcpy(&k, bytes.data() + 8, sizeof k);
  if (k < kFrameKindRequest || k > maxKindForVersion(version)) {
    return fail("frame kind " + std::to_string(k) +
                " is not valid in frame version " + std::to_string(version));
  }
  std::uint64_t length = 0;
  std::memcpy(&length, bytes.data() + 9, sizeof length);
  if (length > kMaxPayloadBytes) {
    return fail("frame length " + std::to_string(length) +
                " exceeds the payload cap");
  }
  if (bytes.size() != kFrameHeaderBytes + length + 8) {
    return fail("frame length mismatch: header says " +
                std::to_string(length) + " payload bytes, reply carries " +
                std::to_string(bytes.size() - kFrameHeaderBytes - 8));
  }
  std::uint64_t stored = 0;
  std::memcpy(&stored, bytes.data() + kFrameHeaderBytes + length,
              sizeof stored);
  std::uint64_t checksum = kFnvOffset;
  checksum = fnv1a(checksum, &k, sizeof k);
  checksum = fnv1a(checksum, &length, sizeof length);
  checksum = fnv1a(checksum, bytes.data() + kFrameHeaderBytes, length);
  if (checksum != stored) {
    return fail("frame checksum mismatch: stored " + std::to_string(stored) +
                ", computed " + std::to_string(checksum) +
                " (reply bytes corrupted)");
  }
  if (kind != nullptr) *kind = k;
  if (payload != nullptr) {
    payload->assign(bytes, kFrameHeaderBytes, length);
  }
  return true;
}

FrameScan scanSupervisorFrame(const std::string& buf,
                              std::size_t* frame_bytes, std::string* error) {
  const auto corrupt = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return FrameScan::kCorrupt;
  };
  // Reject a garbage stream on the first bytes that can prove it garbage,
  // rather than waiting for a length that will never arrive.
  const std::size_t magic_avail = std::min(buf.size(), sizeof kFrameMagic);
  if (std::memcmp(buf.data(), kFrameMagic, magic_avail) != 0) {
    return corrupt("bad frame magic (first bytes " + hexDump(buf, 8) + ")");
  }
  if (buf.size() < 8) return FrameScan::kNeedMore;
  std::uint32_t version = 0;
  std::memcpy(&version, buf.data() + 4, sizeof version);
  if (!supportedFrameVersion(version)) {
    return corrupt("unsupported frame version " + std::to_string(version));
  }
  if (buf.size() < kFrameHeaderBytes) return FrameScan::kNeedMore;
  std::uint64_t length = 0;
  std::memcpy(&length, buf.data() + 9, sizeof length);
  if (length > kMaxPayloadBytes) {
    return corrupt("frame length " + std::to_string(length) +
                   " exceeds the payload cap");
  }
  const std::size_t total =
      kFrameHeaderBytes + static_cast<std::size_t>(length) + 8;
  if (buf.size() < total) return FrameScan::kNeedMore;
  if (frame_bytes != nullptr) *frame_bytes = total;
  return FrameScan::kFrame;
}

std::string encodePoolRequest(std::uint64_t cell, std::uint32_t attempt) {
  std::string out;
  out.reserve(sizeof cell + sizeof attempt);
  appendRaw(out, &cell, sizeof cell);
  appendRaw(out, &attempt, sizeof attempt);
  return out;
}

bool decodePoolRequest(const std::string& payload, std::uint64_t* cell,
                       std::uint32_t* attempt) {
  if (payload.size() != sizeof(std::uint64_t) + sizeof(std::uint32_t)) {
    return false;
  }
  std::memcpy(cell, payload.data(), sizeof *cell);
  std::memcpy(attempt, payload.data() + sizeof *cell, sizeof *attempt);
  return true;
}

std::string encodePoolReply(const PoolReplyHeader& header,
                            const std::string& inner) {
  std::string out;
  out.reserve(32 + inner.size());
  appendRaw(out, &header.cell, sizeof header.cell);
  appendRaw(out, &header.user_seconds, sizeof header.user_seconds);
  appendRaw(out, &header.sys_seconds, sizeof header.sys_seconds);
  appendRaw(out, &header.max_rss_kb, sizeof header.max_rss_kb);
  out += inner;
  return out;
}

bool decodePoolReply(const std::string& payload, PoolReplyHeader* header,
                     std::string* inner) {
  constexpr std::size_t kPrefix = 8 + 8 + 8 + 8;
  if (payload.size() < kPrefix) return false;
  std::memcpy(&header->cell, payload.data(), 8);
  std::memcpy(&header->user_seconds, payload.data() + 8, 8);
  std::memcpy(&header->sys_seconds, payload.data() + 16, 8);
  std::memcpy(&header->max_rss_kb, payload.data() + 24, 8);
  inner->assign(payload, kPrefix, payload.size() - kPrefix);
  return true;
}

std::string encodePoolSpecRequest(std::uint64_t id, std::uint32_t attempt,
                                  support::ChaosAction chaos,
                                  const std::string& spec) {
  std::string out;
  const std::uint8_t action = static_cast<std::uint8_t>(chaos);
  out.reserve(sizeof id + sizeof attempt + sizeof action + spec.size());
  appendRaw(out, &id, sizeof id);
  appendRaw(out, &attempt, sizeof attempt);
  appendRaw(out, &action, sizeof action);
  out += spec;
  return out;
}

bool decodePoolSpecRequest(const std::string& payload, std::uint64_t* id,
                           std::uint32_t* attempt,
                           support::ChaosAction* chaos, std::string* spec) {
  constexpr std::size_t kPrefix = 8 + 4 + 1;
  if (payload.size() < kPrefix) return false;
  std::memcpy(id, payload.data(), 8);
  std::memcpy(attempt, payload.data() + 8, 4);
  std::uint8_t action = 0;
  std::memcpy(&action, payload.data() + 12, 1);
  if (action > static_cast<std::uint8_t>(support::ChaosAction::kExit)) {
    return false;
  }
  *chaos = static_cast<support::ChaosAction>(action);
  spec->assign(payload, kPrefix, payload.size() - kPrefix);
  return true;
}

Supervisor::Supervisor(SupervisorOptions options)
    : options_(std::move(options)) {
  if (options_.jobs == 0) {
    options_.jobs = support::ThreadPool::defaultWorkerCount();
  }
}

double Supervisor::backoffSeconds(std::size_t cell,
                                  std::uint32_t attempt) const {
  if (attempt < 2) return 0.0;
  // Chain deriveSeed so cell and attempt enter the splitmix64 finalizer as
  // separate words: the old `cell * 64 + attempt` packing collided (e.g.
  // (cell 0, attempt 66) with (cell 1, attempt 2)), giving those pairs an
  // identical jitter stream.
  support::Rng rng(support::deriveSeed(
      support::deriveSeed(options_.backoff_seed, cell), attempt));
  // Clamp the exponent: `1ull << (attempt - 2)` is UB once attempt >= 66,
  // and any delay beyond 2^62 * base is indistinguishable from forever.
  const std::uint32_t exponent = std::min<std::uint32_t>(attempt - 2, 62);
  const double factor = static_cast<double>(1ull << exponent);
  return options_.backoff_base_seconds * factor * (1.0 + rng.nextDouble());
}

#if SPT_SUPERVISOR_POSIX

namespace {

using Clock = std::chrono::steady_clock;

bool writeAll(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

/// ru_maxrss is KB on Linux but **bytes** on macOS; WorkerDiagnostics
/// promises KB, so normalize here.
std::int64_t maxRssKb(const rusage& ru) {
#if defined(__APPLE__)
  return static_cast<std::int64_t>(ru.ru_maxrss) / 1024;
#else
  return static_cast<std::int64_t>(ru.ru_maxrss);
#endif
}

double timevalSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) / 1e6;
}

/// Deterministic garbage for ChaosAction::kGarbage: seeded by the cell so
/// the bytes (and thus the protocol-error diagnostics) are reproducible,
/// and guaranteed not to start with the frame magic.
std::string chaosGarbage(std::size_t cell) {
  support::Rng rng(support::deriveSeed(0xc4a05, cell));
  std::string bytes(64, '\0');
  for (char& c : bytes) {
    c = static_cast<char>(rng.nextBelow(256));
  }
  bytes[0] = static_cast<char>(static_cast<unsigned char>(bytes[0]) | 0x80);
  return bytes;
}

/// Executes a non-kNone chaos action inside a worker. Never returns except
/// for kHang's pause loop (which also never returns). `partial_frame` is
/// the valid reply frame whose first half a kPartial worker emits.
[[noreturn]] void performChaos(support::ChaosAction action, int fd,
                               std::size_t cell,
                               const std::string& partial_frame) {
  switch (action) {
    case support::ChaosAction::kCrash:
      // Sanitizer runtimes install SIGSEGV handlers that turn the crash
      // into a clean exit; restore the default action so the parent sees
      // a genuine signal death on every build type.
      ::signal(SIGSEGV, SIG_DFL);
      ::raise(SIGSEGV);
      ::_exit(97);  // unreachable
    case support::ChaosAction::kAbort:
      ::signal(SIGABRT, SIG_DFL);
      std::abort();
    case support::ChaosAction::kHang:
      for (;;) ::pause();
    case support::ChaosAction::kGarbage: {
      const std::string garbage = chaosGarbage(cell);
      writeAll(fd, garbage.data(), garbage.size());
      ::close(fd);
      ::_exit(0);
    }
    case support::ChaosAction::kPartial:
      writeAll(fd, partial_frame.data(), partial_frame.size() / 2);
      ::close(fd);
      ::_exit(0);
    case support::ChaosAction::kExit:
    case support::ChaosAction::kNone:  // unreachable; callers filter kNone
      ::_exit(3);
  }
  ::_exit(3);
}

/// Re-arms the per-cell CPU window of a pooled worker. RLIMIT_CPU counts
/// cumulative process CPU, so a long-lived worker must move the limit
/// forward before each cell: budget measured from CPU already spent.
/// Only the soft limit moves — an unprivileged process cannot raise its
/// own hard limit, so touching rlim_max would make every re-arm after the
/// first fail with EPERM and freeze the CPU window on the first cell's
/// budget (SIGXCPU on healthy cells, misreported as timeouts).
void armPooledCpuLimit(std::uint64_t limit_seconds) {
  if (limit_seconds == 0) return;
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  // +1 rounds the already-spent seconds up so a worker that burned 0.9s
  // on earlier cells still gets the full window for this one.
  const rlim_t used =
      static_cast<rlim_t>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) + 1;
  rlimit rl{};
  if (::getrlimit(RLIMIT_CPU, &rl) != 0) return;
  rlim_t want = used + static_cast<rlim_t>(limit_seconds);
  if (rl.rlim_max != RLIM_INFINITY && want > rl.rlim_max) {
    want = rl.rlim_max;  // the inherited hard cap wins
  }
  rl.rlim_cur = want;
  if (::setrlimit(RLIMIT_CPU, &rl) != 0) {
    // Enforcement degrades to the previous window; the parent's wall-clock
    // watchdog still bounds the cell, so warn rather than die.
    std::fprintf(stderr,
                 "sptc worker %d: re-arming RLIMIT_CPU failed: %s\n",
                 static_cast<int>(::getpid()), std::strerror(errno));
  }
}

/// One decoded request off a pooled worker's request pipe: either an
/// index-mode cell (SPTW v2) or a spec-mode job (SPTW v3).
struct PoolWorkerRequest {
  std::uint64_t id = 0;  // cell index (v2) or opaque token (v3)
  std::uint32_t attempt = 1;
  bool has_spec = false;
  support::ChaosAction chaos = support::ChaosAction::kNone;  // v3 only
  std::string spec;                                          // v3 only
};

/// Blocks until one complete request frame is buffered, decoded, and
/// consumed. Returns false on clean shutdown (parent closed the request
/// pipe). Any malformed bytes on the request pipe are unrecoverable for
/// the worker; it exits and lets the parent's containment classify it.
bool readPoolRequest(int fd, std::string& buf, PoolWorkerRequest* req) {
  for (;;) {
    std::size_t frame_bytes = 0;
    const FrameScan scan = scanSupervisorFrame(buf, &frame_bytes, nullptr);
    if (scan == FrameScan::kCorrupt) ::_exit(2);
    if (scan == FrameScan::kFrame) {
      std::uint8_t kind = 0;
      std::string payload;
      if (!decodeSupervisorFrame(buf.substr(0, frame_bytes), &kind, &payload,
                                 nullptr)) {
        ::_exit(2);
      }
      buf.erase(0, frame_bytes);
      if (kind == kFrameKindRequest) {
        req->has_spec = false;
        req->chaos = support::ChaosAction::kNone;
        req->spec.clear();
        if (!decodePoolRequest(payload, &req->id, &req->attempt)) ::_exit(2);
      } else if (kind == kFrameKindSpecRequest) {
        req->has_spec = true;
        if (!decodePoolSpecRequest(payload, &req->id, &req->attempt,
                                   &req->chaos, &req->spec)) {
          ::_exit(2);
        }
      } else {
        ::_exit(2);
      }
      return true;
    }
    char chunk[4096];
    const ssize_t r = ::read(fd, chunk, sizeof chunk);
    if (r > 0) {
      buf.append(chunk, static_cast<std::size_t>(r));
      continue;
    }
    if (r == 0) return false;  // EOF: the run is over
    if (errno == EINTR) continue;
    ::_exit(1);
  }
}

/// Pooled worker body: loop `recv request -> produce -> reply` until the
/// parent closes the request pipe. Every reply is a v2 frame tagged with
/// the id it answers plus the worker's self-reported per-cell rusage —
/// spec-mode requests are answered with the same reply kinds, so the
/// parent-side reply handling is identical across modes.
[[noreturn]] void runPoolWorker(int request_fd, int reply_fd,
                                const SupervisorOptions& options,
                                const Supervisor::Producer& produce,
                                const WorkerPool::SpecProducer& produce_spec) {
  if (options.rlimit_as_bytes != 0) {
    rlimit rl{};
    rl.rlim_cur = static_cast<rlim_t>(options.rlimit_as_bytes);
    rl.rlim_max = static_cast<rlim_t>(options.rlimit_as_bytes);
    ::setrlimit(RLIMIT_AS, &rl);
  }

  std::string in;
  PoolWorkerRequest req;
  while (readPoolRequest(request_fd, in, &req)) {
    armPooledCpuLimit(options.rlimit_cpu_seconds);

    // Index-mode chaos is resolved here from the plan (the worker knows
    // the cell index); spec-mode chaos arrives pre-resolved in the frame.
    const support::ChaosAction chaos =
        req.has_spec
            ? req.chaos
            : options.chaos.actionFor(static_cast<std::size_t>(req.id),
                                      req.attempt);
    if (chaos != support::ChaosAction::kNone) {
      performChaos(chaos, reply_fd, static_cast<std::size_t>(req.id),
                   encodeSupervisorFrame(
                       kFrameKindPooledReply,
                       encodePoolReply({req.id, 0.0, 0.0, 0},
                                       "chaos-partial-payload"),
                       kSupervisorFrameV2));
    }

    rusage before{};
    ::getrusage(RUSAGE_SELF, &before);
    std::uint8_t kind = kFrameKindPooledReply;
    std::string inner;
    try {
      if (req.has_spec) {
        if (!produce_spec) ::_exit(2);  // spec job sent to an index-only pool
        inner = produce_spec(req.spec);
      } else {
        inner = produce(static_cast<std::size_t>(req.id));
      }
    } catch (const std::exception& e) {
      kind = kFrameKindPooledError;
      inner = e.what();
    } catch (...) {
      kind = kFrameKindPooledError;
      inner = "unknown worker exception";
    }
    rusage after{};
    ::getrusage(RUSAGE_SELF, &after);
    PoolReplyHeader header;
    header.cell = req.id;
    header.user_seconds =
        timevalSeconds(after.ru_utime) - timevalSeconds(before.ru_utime);
    header.sys_seconds =
        timevalSeconds(after.ru_stime) - timevalSeconds(before.ru_stime);
    header.max_rss_kb = maxRssKb(after);
    const std::string frame = encodeSupervisorFrame(
        kind, encodePoolReply(header, inner), kSupervisorFrameV2);
    if (!writeAll(reply_fd, frame.data(), frame.size())) ::_exit(1);
  }
  ::_exit(0);
}

struct PendingCell {
  std::size_t cell = 0;
  std::uint32_t attempt = 1;
  Clock::time_point not_before;
};

/// One long-lived pool member. `busy` workers own an in-flight job and
/// are polled; idle workers sit out of the poll set (a dead idle worker
/// surfaces as a failed request write at the next dispatch).
struct PoolWorker {
  pid_t pid = -1;
  int request_fd = -1;  // parent writes SPTW v2/v3 request frames here
  int reply_fd = -1;    // parent reads the worker's reply stream here
  bool busy = false;
  std::uint64_t id = 0;  // cell index (index mode) or opaque token (spec)
  std::uint32_t attempt = 1;
  bool has_deadline = false;
  Clock::time_point deadline;
  std::string buf;  // reply stream accumulator
};

int signalOf(int wait_status) {
  return WIFSIGNALED(wait_status) ? WTERMSIG(wait_status) : 0;
}

int reapWorker(pid_t pid, rusage* ru) {
  int wait_status = 0;
  while (::wait4(pid, &wait_status, 0, ru) < 0 && errno == EINTR) {
  }
  return wait_status;
}

Clock::time_point deadlineFrom(Clock::time_point now, double seconds) {
  return now + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(seconds));
}

/// Diagnostic for cells cancelled by SupervisorOptions::stop. Settled as
/// kInternalError (never retried, re-run by --resume) with attempts == 0,
/// so no worker block appears in JSON for a cell that never ran one.
constexpr const char* kInterruptedDiagnostic =
    "interrupted by signal before dispatch; finished cells are "
    "checkpointed, re-run with --resume";

/// Scoped SIG_IGN for SIGPIPE: the parent writes request frames to
/// pipes whose worker may just have died; the write must fail with EPIPE,
/// not kill the sweep. Restores the previous disposition on scope exit.
class ScopedIgnoreSigpipe {
 public:
  ScopedIgnoreSigpipe() {
    struct sigaction ignore {};
    ignore.sa_handler = SIG_IGN;
    ::sigaction(SIGPIPE, &ignore, &saved_);
  }
  ~ScopedIgnoreSigpipe() { ::sigaction(SIGPIPE, &saved_, nullptr); }
  ScopedIgnoreSigpipe(const ScopedIgnoreSigpipe&) = delete;
  ScopedIgnoreSigpipe& operator=(const ScopedIgnoreSigpipe&) = delete;

 private:
  struct sigaction saved_ {};
};

}  // namespace

bool Supervisor::isolationSupported() { return true; }

// ---- WorkerPool: parent-side pool management -----------------------------
//
// Spawn/respawn, dispatch writes, reply-stream framing, death
// classification and the watchdog live here so the sweep service can
// drive the same pool from its own event loop. Supervisor::run (below) is
// a thin retry/aggregation layer on top, which keeps the two paths
// byte-identical by construction.

struct WorkerPool::Impl {
  SupervisorOptions options;
  Supervisor::Producer produce;
  WorkerPool::SpecProducer produce_spec;
  std::function<bool()> respawn_policy;
  std::function<void()> child_setup;
  std::vector<PoolWorker> workers;
  std::size_t spawned = 0;
  std::size_t respawned = 0;
  // errno from the most recent failed pipe()/fork() in spawnWorker,
  // captured at the failure site: by the time the caller settles cells as
  // unspawnable, intervening close()/kill()/wait4() calls have clobbered
  // the global errno.
  int last_spawn_errno = 0;
  bool shut_down = false;

  bool wantRespawn() const {
    return !shut_down && (!respawn_policy || respawn_policy());
  }

  bool spawnWorker() {
    int request[2];
    int reply[2];
    if (::pipe(request) < 0) {
      last_spawn_errno = errno;
      return false;
    }
    if (::pipe(reply) < 0) {
      last_spawn_errno = errno;
      ::close(request[0]);
      ::close(request[1]);
      return false;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      last_spawn_errno = errno;
      ::close(request[0]);
      ::close(request[1]);
      ::close(reply[0]);
      ::close(reply[1]);
      return false;
    }
    if (pid == 0) {
      ::close(request[1]);
      ::close(reply[0]);
      // Drop inherited ends of sibling workers' pipes, so each worker's
      // EOF semantics depend only on the parent and itself.
      for (const PoolWorker& other : workers) {
        if (other.request_fd >= 0) ::close(other.request_fd);
        if (other.reply_fd >= 0) ::close(other.reply_fd);
      }
      // Caller-owned fds (a service's listening socket and client
      // connections) are closed here, so a worker never holds a client's
      // connection open past the parent's close().
      if (child_setup) child_setup();
      runPoolWorker(request[0], reply[1], options, produce, produce_spec);
    }
    ::close(request[0]);
    ::close(reply[1]);
    const int flags = ::fcntl(reply[0], F_GETFL, 0);
    ::fcntl(reply[0], F_SETFL, flags | O_NONBLOCK);
    PoolWorker w;
    w.pid = pid;
    w.request_fd = request[1];
    w.reply_fd = reply[0];
    workers.push_back(std::move(w));
    ++spawned;
    return true;
  }

  // Removes worker `wi` from the pool, reaps it, classifies the in-flight
  // attempt (if any) into `out`, and respawns a replacement while the
  // respawn policy allows. `corrupt_reason` is non-empty when the parent
  // detected a garbled reply stream (the worker was killed, or died right
  // after garbling).
  void workerDied(std::size_t wi, bool timed_out,
                  const std::string& corrupt_reason,
                  std::vector<WorkerPool::Settled>& out) {
    PoolWorker w = std::move(workers[wi]);
    workers.erase(workers.begin() + static_cast<std::ptrdiff_t>(wi));
    rusage ru{};
    const int wait_status = reapWorker(w.pid, &ru);
    if (w.request_fd >= 0) ::close(w.request_fd);
    ::close(w.reply_fd);

    if (w.busy) {
      Supervisor::Outcome oc;
      oc.worker.attempts = w.attempt;
      oc.worker.timed_out = timed_out;
      // Whole-life rusage of the dead worker: the per-cell numbers a
      // healthy pooled reply self-reports are unavailable once it dies.
      oc.worker.host_user_seconds = timevalSeconds(ru.ru_utime);
      oc.worker.host_sys_seconds = timevalSeconds(ru.ru_stime);
      oc.worker.host_max_rss_kb = maxRssKb(ru);

      const int sig = signalOf(wait_status);
      if (timed_out) {
        oc.status = CellStatus::kTimeout;
        oc.worker.term_signal = sig;
        std::ostringstream os;
        os << "worker exceeded the " << options.cell_timeout_seconds
           << "s wall-clock deadline on attempt " << w.attempt
           << "; killed (SIGKILL)";
        oc.diagnostic = os.str();
      } else if (!corrupt_reason.empty()) {
        oc.status = CellStatus::kProtocolError;
        if (sig != 0) {
          oc.worker.term_signal = sig;
        } else {
          oc.worker.exit_code = WEXITSTATUS(wait_status);
        }
        oc.diagnostic =
            "worker reply failed frame validation: " + corrupt_reason +
            (sig == 0 ? " (exit code " + std::to_string(oc.worker.exit_code) +
                            ")"
                      : "");
        if (!w.buf.empty()) oc.worker.partial_reply = hexDump(w.buf, 64);
      } else if (sig != 0) {
        oc.worker.term_signal = sig;
        if (sig == SIGXCPU) {
          oc.status = CellStatus::kTimeout;
          oc.diagnostic = "worker hit RLIMIT_CPU (" +
                          std::to_string(options.rlimit_cpu_seconds) +
                          "s) and died on SIGXCPU";
        } else {
          oc.status = CellStatus::kCrashed;
          const char* name = ::strsignal(sig);
          oc.diagnostic = "worker killed by signal " + std::to_string(sig) +
                          (name != nullptr ? std::string(" (") + name + ")"
                                           : std::string()) +
                          " after " + std::to_string(w.buf.size()) +
                          " reply bytes";
        }
        if (!w.buf.empty()) oc.worker.partial_reply = hexDump(w.buf, 64);
      } else {
        // Exited without completing a reply. drainReplies already consumed
        // every complete frame, so the stream holds nothing or a frame cut
        // short.
        oc.worker.exit_code = WEXITSTATUS(wait_status);
        const std::string why =
            w.buf.empty() ? std::string("empty reply (no frame)")
                          : "short reply: the stream ended " +
                                std::to_string(w.buf.size()) +
                                " bytes into a frame";
        oc.status = CellStatus::kProtocolError;
        oc.diagnostic = "worker reply failed frame validation: " + why +
                        " (exit code " +
                        std::to_string(oc.worker.exit_code) + ")";
        if (!w.buf.empty()) oc.worker.partial_reply = hexDump(w.buf, 64);
      }
      out.push_back({w.id, w.attempt, std::move(oc)});
    }

    // Respawn only the dead worker; the rest of the pool keeps draining.
    if (wantRespawn() && spawnWorker()) ++respawned;
  }

  // Consumes completed frames from worker `wi`'s reply stream. Returns
  // false (after containment) if the worker had to be killed.
  bool drainReplies(std::size_t wi, std::vector<WorkerPool::Settled>& out) {
    PoolWorker& w = workers[wi];
    for (;;) {
      std::size_t frame_bytes = 0;
      std::string why;
      const FrameScan scan = scanSupervisorFrame(w.buf, &frame_bytes, &why);
      if (scan == FrameScan::kNeedMore) return true;
      std::uint8_t kind = 0;
      std::string payload;
      if (scan == FrameScan::kCorrupt ||
          !decodeSupervisorFrame(w.buf.substr(0, frame_bytes), &kind,
                                 &payload, &why)) {
        ::kill(w.pid, SIGKILL);
        workerDied(wi, /*timed_out=*/false, why, out);
        return false;
      }
      w.buf.erase(0, frame_bytes);

      PoolReplyHeader header;
      std::string inner;
      const bool cell_tagged =
          (kind == kFrameKindPooledReply || kind == kFrameKindPooledError) &&
          decodePoolReply(payload, &header, &inner);
      if (!w.busy || !cell_tagged || header.cell != w.id) {
        ::kill(w.pid, SIGKILL);
        workerDied(wi, /*timed_out=*/false,
                   !w.busy ? "unsolicited reply from an idle worker"
                   : !cell_tagged
                       ? "reply frame is not a cell-tagged pooled reply"
                       : "reply answers cell " + std::to_string(header.cell) +
                             " but cell " + std::to_string(w.id) +
                             " was dispatched",
                   out);
        return false;
      }

      Supervisor::Outcome oc;
      oc.worker.attempts = w.attempt;
      oc.worker.exit_code = 0;  // a completed reply means a healthy worker
      oc.worker.host_user_seconds = header.user_seconds;
      oc.worker.host_sys_seconds = header.sys_seconds;
      oc.worker.host_max_rss_kb = header.max_rss_kb;
      if (kind == kFrameKindPooledReply) {
        oc.status = CellStatus::kOk;
        oc.payload = std::move(inner);
      } else {
        oc.status = CellStatus::kInternalError;
        oc.diagnostic = "worker error: " + inner;
      }
      const std::uint64_t id = w.id;
      const std::uint32_t attempt = w.attempt;
      w.busy = false;
      w.has_deadline = false;
      out.push_back({id, attempt, std::move(oc)});
    }
  }
};

WorkerPool::WorkerPool(SupervisorOptions options, Supervisor::Producer produce,
                       SpecProducer produce_spec)
    : impl_(std::make_unique<Impl>()) {
  impl_->options = std::move(options);
  impl_->produce = std::move(produce);
  impl_->produce_spec = std::move(produce_spec);
}

WorkerPool::~WorkerPool() { shutdown(); }

void WorkerPool::setRespawnPolicy(std::function<bool()> policy) {
  impl_->respawn_policy = std::move(policy);
}

void WorkerPool::setChildSetup(std::function<void()> setup) {
  impl_->child_setup = std::move(setup);
}

bool WorkerPool::ensure(std::size_t workers) {
  while (impl_->workers.size() < workers) {
    if (!impl_->spawnWorker()) return false;
  }
  return true;
}

std::size_t WorkerPool::workerCount() const { return impl_->workers.size(); }

std::size_t WorkerPool::idleWorkers() const {
  std::size_t idle = 0;
  for (const PoolWorker& w : impl_->workers) {
    if (!w.busy) ++idle;
  }
  return idle;
}

std::size_t WorkerPool::busyWorkers() const {
  return impl_->workers.size() - idleWorkers();
}

std::size_t WorkerPool::workersSpawned() const { return impl_->spawned; }

std::size_t WorkerPool::workersRespawned() const { return impl_->respawned; }

int WorkerPool::lastSpawnErrno() const { return impl_->last_spawn_errno; }

bool WorkerPool::dispatch(const Job& job) {
  for (;;) {
    std::size_t wi = impl_->workers.size();
    for (std::size_t j = 0; j < impl_->workers.size(); ++j) {
      if (!impl_->workers[j].busy) {
        wi = j;
        break;
      }
    }
    if (wi == impl_->workers.size()) return false;  // no idle worker
    PoolWorker& w = impl_->workers[wi];
    const std::string frame =
        job.has_spec
            ? encodeSupervisorFrame(
                  kFrameKindSpecRequest,
                  encodePoolSpecRequest(job.id, job.attempt, job.chaos,
                                        job.spec),
                  kSupervisorFrameV3)
            : encodeSupervisorFrame(kFrameKindRequest,
                                    encodePoolRequest(job.id, job.attempt),
                                    kSupervisorFrameV2);
    if (!writeAll(w.request_fd, frame.data(), frame.size())) {
      // Dead request pipe: the worker never saw the job (no attempt
      // burned). Replace it and try the next idle worker — possibly the
      // replacement itself.
      ::kill(w.pid, SIGKILL);
      std::vector<Settled> none;  // an idle worker settles nothing
      impl_->workerDied(wi, /*timed_out=*/false, "", none);
      continue;
    }
    w.busy = true;
    w.id = job.id;
    w.attempt = job.attempt;
    w.buf.clear();
    if (impl_->options.cell_timeout_seconds > 0.0) {
      w.has_deadline = true;
      w.deadline =
          deadlineFrom(Clock::now(), impl_->options.cell_timeout_seconds);
    } else {
      w.has_deadline = false;
    }
    return true;
  }
}

std::vector<int> WorkerPool::busyReplyFds() const {
  std::vector<int> fds;
  for (const PoolWorker& w : impl_->workers) {
    if (w.busy) fds.push_back(w.reply_fd);
  }
  return fds;
}

bool WorkerPool::nextDeadline(std::chrono::steady_clock::time_point* out) const {
  bool any = false;
  for (const PoolWorker& w : impl_->workers) {
    if (!w.busy || !w.has_deadline) continue;
    if (!any || w.deadline < *out) *out = w.deadline;
    any = true;
  }
  return any;
}

void WorkerPool::service(std::vector<Settled>& settled) {
  // Snapshot the busy workers by pid: containment inside the loop mutates
  // the pool (and a respawn can reuse a just-closed fd number, so fds are
  // not stable identifiers either).
  std::vector<pid_t> busy_pids;
  for (const PoolWorker& w : impl_->workers) {
    if (w.busy) busy_pids.push_back(w.pid);
  }
  for (const pid_t pid : busy_pids) {
    std::size_t wi = impl_->workers.size();
    for (std::size_t j = 0; j < impl_->workers.size(); ++j) {
      if (impl_->workers[j].pid == pid) {
        wi = j;
        break;
      }
    }
    if (wi == impl_->workers.size()) continue;  // removed by a prior pass
    PoolWorker& w = impl_->workers[wi];
    bool saw_eof = false;
    char chunk[65536];
    for (;;) {
      const ssize_t r = ::read(w.reply_fd, chunk, sizeof chunk);
      if (r > 0) {
        w.buf.append(chunk, static_cast<std::size_t>(r));
        if (w.buf.size() > kMaxPayloadBytes + kFrameHeaderBytes + 8) {
          ::kill(w.pid, SIGKILL);
          impl_->workerDied(wi, /*timed_out=*/false, "oversized reply",
                            settled);
          wi = impl_->workers.size();
          break;
        }
        continue;
      }
      if (r == 0) {
        saw_eof = true;
        break;
      }
      if (errno == EINTR) continue;
      break;  // EAGAIN: drained for now
    }
    if (wi == impl_->workers.size()) continue;  // contained above
    if (!impl_->drainReplies(wi, settled)) continue;  // worker replaced
    if (saw_eof) {
      // The worker died (or exited on chaos) — any buffered partial
      // frame is part of the post-mortem.
      impl_->workerDied(wi, /*timed_out=*/false, "", settled);
    }
  }

  // Watchdog: SIGKILL overdue busy workers; their cells settle as
  // timeouts and the workers are replaced.
  const Clock::time_point now = Clock::now();
  for (std::size_t wi = 0; wi < impl_->workers.size();) {
    PoolWorker& w = impl_->workers[wi];
    if (w.busy && w.has_deadline && w.deadline <= now) {
      ::kill(w.pid, SIGKILL);
      impl_->workerDied(wi, /*timed_out=*/true, "", settled);
    } else {
      ++wi;
    }
  }
}

void WorkerPool::shutdown() {
  if (impl_ == nullptr || impl_->shut_down) return;
  impl_->shut_down = true;
  // Closing the request pipes is the idle workers' EOF signal; they
  // _exit(0) and are reaped below. A still-busy worker (drain abandoned)
  // is killed so reaping cannot block on it.
  for (PoolWorker& w : impl_->workers) {
    if (w.busy) ::kill(w.pid, SIGKILL);
    if (w.request_fd >= 0) {
      ::close(w.request_fd);
      w.request_fd = -1;
    }
  }
  for (PoolWorker& w : impl_->workers) {
    reapWorker(w.pid, nullptr);
    ::close(w.reply_fd);
  }
  impl_->workers.clear();
}

std::vector<Supervisor::Outcome> Supervisor::run(
    std::size_t n, const Producer& produce, const OnSettled& on_settled,
    PoolStats* stats) const {
  if (stats != nullptr) *stats = PoolStats{};
  std::vector<Outcome> out(n);
  // Nothing to run (e.g. a fully resumed sweep): fork no workers at all.
  if (n == 0) return out;
  ScopedIgnoreSigpipe sigpipe_guard;

  std::deque<PendingCell> pending;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < n; ++i) pending.push_back({i, 1, start});
  std::size_t settled = 0;
  bool interrupted = false;
  const auto stopRequested = [&] {
    return options_.stop != nullptr && *options_.stop != 0;
  };

  const auto settle = [&](std::size_t cell, Outcome outcome) {
    out[cell] = std::move(outcome);
    ++settled;
    if (on_settled) on_settled(cell, out[cell]);
  };

  // Settles the attempt's outcome or queues the retry.
  const auto finishAttempt = [&](std::size_t cell, std::uint32_t attempt,
                                 Outcome oc) {
    if (!interrupted && isTransportFailure(oc.status) &&
        attempt <= options_.retries) {
      const double delay = backoffSeconds(cell, attempt + 1);
      pending.push_back(
          {cell, attempt + 1, deadlineFrom(Clock::now(), delay)});
    } else {
      settle(cell, std::move(oc));
    }
  };

  WorkerPool pool(options_, produce);
  pool.setRespawnPolicy([&] { return settled < n && !interrupted; });
  pool.ensure(std::min(options_.jobs, n));

  std::vector<WorkerPool::Settled> batch;
  while (settled < n) {
    if (!interrupted && stopRequested()) {
      // Graceful interrupt: cancel the queue, drain the in-flight cells.
      interrupted = true;
      while (!pending.empty()) {
        const PendingCell p = pending.front();
        pending.pop_front();
        Outcome oc;
        oc.status = CellStatus::kInternalError;
        oc.diagnostic = kInterruptedDiagnostic;
        settle(p.cell, std::move(oc));
      }
    }
    Clock::time_point now = Clock::now();

    // Dispatch due pending cells to idle workers.
    while (!pending.empty() && pool.idleWorkers() > 0) {
      std::size_t pi = pending.size();
      for (std::size_t i = 0; i < pending.size(); ++i) {
        if (pending[i].not_before <= now) {
          pi = i;
          break;
        }
      }
      if (pi == pending.size()) break;  // nothing due yet
      const PendingCell p = pending[pi];
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(pi));
      WorkerPool::Job job;
      job.id = static_cast<std::uint64_t>(p.cell);
      job.attempt = p.attempt;
      if (!pool.dispatch(job)) {
        // No idle worker survived the write; the cell was never sent and
        // goes back to the front of the queue.
        pending.push_front(p);
        break;
      }
    }

    if (pool.workerCount() == 0) {
      // The pool could not be (re)built; fail the remaining cells rather
      // than spin forever.
      while (!pending.empty()) {
        const PendingCell p = pending.front();
        pending.pop_front();
        Outcome oc;
        oc.status = CellStatus::kCrashed;
        oc.worker.attempts = p.attempt;
        oc.diagnostic = std::string("worker pool spawn failed: ") +
                        std::strerror(pool.lastSpawnErrno());
        settle(p.cell, std::move(oc));
      }
      break;
    }

    if (pool.busyWorkers() == 0) {
      if (pending.empty()) {
        if (settled < n) continue;  // dispatch loop will make progress
        break;
      }
      Clock::time_point wake = pending.front().not_before;
      for (const PendingCell& p : pending) wake = std::min(wake, p.not_before);
      std::this_thread::sleep_until(wake);
      continue;
    }

    long long timeout_ms = -1;
    const auto consider = [&](Clock::time_point t) {
      const long long ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(t - now)
              .count();
      const long long clamped = ms < 0 ? 0 : ms + 1;
      if (timeout_ms < 0 || clamped < timeout_ms) timeout_ms = clamped;
    };
    Clock::time_point pool_deadline;
    if (pool.nextDeadline(&pool_deadline)) consider(pool_deadline);
    for (const PendingCell& p : pending) consider(p.not_before);

    const std::vector<int> reply_fds = pool.busyReplyFds();
    std::vector<pollfd> fds(reply_fds.size());
    for (std::size_t i = 0; i < reply_fds.size(); ++i) {
      fds[i] = pollfd{reply_fds[i], POLLIN, 0};
    }
    const int rc =
        ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
               timeout_ms < 0 ? -1 : static_cast<int>(
                                         std::min<long long>(timeout_ms,
                                                             60'000)));
    if (rc < 0 && errno != EINTR) {
      throw support::SptInternalError(
          std::string("supervisor poll() failed: ") + std::strerror(errno));
    }

    batch.clear();
    pool.service(batch);
    for (WorkerPool::Settled& s : batch) {
      finishAttempt(static_cast<std::size_t>(s.id), s.attempt,
                    std::move(s.outcome));
    }
  }

  pool.shutdown();
  if (stats != nullptr) {
    stats->workers_spawned = pool.workersSpawned();
    stats->workers_respawned = pool.workersRespawned();
  }
  return out;
}

#else  // !SPT_SUPERVISOR_POSIX

bool Supervisor::isolationSupported() { return false; }

std::vector<Supervisor::Outcome> Supervisor::run(std::size_t,
                                                 const Producer&,
                                                 const OnSettled&,
                                                 PoolStats*) const {
  throw support::SptInternalError(
      "process isolation is not supported on this platform (no fork); "
      "use the in-process path");
}

struct WorkerPool::Impl {};

WorkerPool::WorkerPool(SupervisorOptions, Supervisor::Producer,
                       SpecProducer) {
  throw support::SptInternalError(
      "the warm worker pool is not supported on this platform (no fork)");
}

WorkerPool::~WorkerPool() = default;

void WorkerPool::setRespawnPolicy(std::function<bool()>) {}
void WorkerPool::setChildSetup(std::function<void()>) {}
bool WorkerPool::ensure(std::size_t) { return false; }
std::size_t WorkerPool::workerCount() const { return 0; }
std::size_t WorkerPool::idleWorkers() const { return 0; }
std::size_t WorkerPool::busyWorkers() const { return 0; }
std::size_t WorkerPool::workersSpawned() const { return 0; }
std::size_t WorkerPool::workersRespawned() const { return 0; }
int WorkerPool::lastSpawnErrno() const { return 0; }
bool WorkerPool::dispatch(const Job&) { return false; }
std::vector<int> WorkerPool::busyReplyFds() const { return {}; }
bool WorkerPool::nextDeadline(std::chrono::steady_clock::time_point*) const {
  return false;
}
void WorkerPool::service(std::vector<Settled>&) {}
void WorkerPool::shutdown() {}

#endif  // SPT_SUPERVISOR_POSIX

}  // namespace spt::harness
