#include "harness/supervisor.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <sstream>

#include "harness/cell_codec.h"
#include "support/error.h"
#include "support/rng.h"
#include "support/thread_pool.h"
#include "support/wire.h"

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

namespace wire = support::wire;

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

}  // namespace

std::string encodeSupervisorFrame(std::uint8_t kind,
                                  const std::string& payload) {
  return wire::encodeFrame(kSupervisorFrameFormat.magic,
                           kSupervisorFrameVersion, kind, payload);
}

std::string encodePoolReply(const PoolReplyHeader& header,
                            const std::string& inner) {
  ByteWriter w;
  w.u64(header.cell);
  w.f64(header.user_seconds);
  w.f64(header.sys_seconds);
  w.u64(static_cast<std::uint64_t>(header.max_rss_kb));
  std::string out = w.take();
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
  ByteWriter w;
  w.u64(id);
  w.u32(attempt);
  w.u8(static_cast<std::uint8_t>(chaos));
  std::string out = w.take();
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

double backoffSeconds(const SupervisorOptions& options, std::size_t cell,
                      std::uint32_t attempt) {
  if (attempt < 2) return 0.0;
  // Chain deriveSeed so cell and attempt enter the splitmix64 finalizer as
  // separate words: the old `cell * 64 + attempt` packing collided (e.g.
  // (cell 0, attempt 66) with (cell 1, attempt 2)), giving those pairs an
  // identical jitter stream.
  support::Rng rng(support::deriveSeed(
      support::deriveSeed(options.backoff_seed, cell), attempt));
  // Clamp the exponent: `1ull << (attempt - 2)` is UB once attempt >= 66,
  // and any delay beyond 2^62 * base is indistinguishable from forever.
  const std::uint32_t exponent = std::min<std::uint32_t>(attempt - 2, 62);
  const double factor = static_cast<double>(1ull << exponent);
  return options.backoff_base_seconds * factor * (1.0 + rng.nextDouble());
}

#if SPT_SUPERVISOR_POSIX

namespace {

using Clock = std::chrono::steady_clock;

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

/// Deterministic garbage for ChaosAction::kGarbage: seeded by the job's
/// spec bytes (which name the cell) so the bytes — and thus the
/// protocol-error diagnostics — do not depend on dispatch order, and
/// guaranteed not to start with the frame magic.
std::string chaosGarbage(const std::string& spec) {
  std::uint64_t seed = 0xc4a05;
  for (const char c : spec) {
    seed = support::deriveSeed(seed, static_cast<unsigned char>(c));
  }
  support::Rng rng(seed);
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
                               const std::string& spec,
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
      const std::string garbage = chaosGarbage(spec);
      wire::writeAllFd(fd, garbage.data(), garbage.size());
      ::close(fd);
      ::_exit(0);
    }
    case support::ChaosAction::kPartial:
      wire::writeAllFd(fd, partial_frame.data(), partial_frame.size() / 2);
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

/// One decoded spec request off a pooled worker's request pipe.
struct PoolWorkerRequest {
  std::uint64_t id = 0;  // opaque token echoed on the reply
  std::uint32_t attempt = 1;
  support::ChaosAction chaos = support::ChaosAction::kNone;
  std::string spec;
};

/// Blocks until one complete request frame is buffered, decoded, and
/// consumed. Returns false on clean shutdown (parent closed the request
/// pipe). Any malformed bytes on the request pipe are unrecoverable for
/// the worker; it exits and lets the parent's containment classify it.
bool readPoolRequest(int fd, std::string& buf, PoolWorkerRequest* req) {
  for (;;) {
    std::uint8_t kind = 0;
    std::string payload;
    const wire::FrameScan scan =
        wire::takeFrame(kSupervisorFrameFormat, &buf, &kind, &payload, nullptr);
    if (scan == wire::FrameScan::kCorrupt) ::_exit(2);
    if (scan == wire::FrameScan::kFrame) {
      if (kind != kFrameKindSpecRequest ||
          !decodePoolSpecRequest(payload, &req->id, &req->attempt,
                                 &req->chaos, &req->spec)) {
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
/// parent closes the request pipe. Every reply is tagged with the id it
/// answers plus the worker's self-reported per-cell rusage.
[[noreturn]] void runPoolWorker(int request_fd, int reply_fd,
                                const SupervisorOptions& options,
                                const CellScheduler::Producer& produce) {
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

    if (req.chaos != support::ChaosAction::kNone) {
      performChaos(req.chaos, reply_fd, req.spec,
                   encodeSupervisorFrame(
                       kFrameKindPooledReply,
                       encodePoolReply({req.id, 0.0, 0.0, 0},
                                       "chaos-partial-payload")));
    }

    rusage before{};
    ::getrusage(RUSAGE_SELF, &before);
    std::uint8_t kind = kFrameKindPooledReply;
    std::string inner;
    try {
      inner = produce(req.spec);
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
    const std::string frame =
        encodeSupervisorFrame(kind, encodePoolReply(header, inner));
    if (!wire::writeAllFd(reply_fd, frame.data(), frame.size())) ::_exit(1);
  }
  ::_exit(0);
}

/// One long-lived pool member. `busy` workers own an in-flight job and
/// are polled; idle workers sit out of the poll set (a dead idle worker
/// surfaces as a failed request write at the next dispatch).
struct PoolWorker {
  pid_t pid = -1;
  int request_fd = -1;  // parent writes SPTW request frames here
  int reply_fd = -1;    // parent reads the worker's reply stream here
  bool busy = false;
  std::uint64_t id = 0;  // the in-flight job's token
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

/// Supervisor::run's job spec: the cell index. A spec that is not one
/// is reported by the worker as a structured error.
std::string cellSpec(std::size_t cell) {
  ByteWriter w;
  w.u64(cell);
  return w.take();
}

std::size_t cellOfSpec(const std::string& spec) {
  ByteReader r(spec);
  std::uint64_t cell = 0;
  if (!r.u64(&cell) || !r.atEnd()) {
    throw support::SptInternalError("malformed cell spec (" +
                                    std::to_string(spec.size()) + " bytes)");
  }
  return static_cast<std::size_t>(cell);
}

/// Diagnostic for cells cancelled by SupervisorOptions::stop. Settled as
/// kInternalError (never retried, re-run by --resume) with attempts == 0,
/// so no worker block appears in JSON for a cell that never ran one.
constexpr const char* kInterruptedDiagnostic =
    "interrupted by signal before dispatch; finished cells are "
    "checkpointed, re-run with --resume";

/// One finished attempt — a reply, a death, or a watchdog timeout —
/// classified as crashed / timeout / protocol error.
struct SettledAttempt {
  std::uint64_t id = 0;
  std::uint32_t attempt = 1;
  Supervisor::Outcome outcome;
};

/// The worker processes, their pipes, watchdog deadlines, death
/// classification and respawn. Retry policy and lanes belong to the
/// CellScheduler that owns it.
struct WorkerPool {
  SupervisorOptions options;
  CellScheduler::Producer produce;
  std::function<void()> child_setup;
  std::vector<PoolWorker> workers;
  std::size_t spawned = 0;
  std::size_t respawned = 0;
  // errno from the most recent failed pipe()/fork() in spawnWorker,
  // captured at the failure site: by the time the caller settles cells as
  // unspawnable, intervening close()/kill()/wait4() calls have clobbered
  // the global errno.
  int last_spawn_errno = 0;
  /// Replace dead workers; off once the scheduler drains.
  bool respawn = true;

  ~WorkerPool() { shutdown(); }

  std::size_t idleCount() const {
    std::size_t idle = 0;
    for (const PoolWorker& w : workers) {
      if (!w.busy) ++idle;
    }
    return idle;
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
      runPoolWorker(request[0], reply[1], options, produce);
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

  /// Tops the pool up to `count` processes; false if a spawn failed (the
  /// pool keeps whatever it managed to fork).
  bool ensure(std::size_t count) {
    while (workers.size() < count) {
      if (!spawnWorker()) return false;
    }
    return true;
  }

  // Removes worker `wi` from the pool, reaps it, classifies the in-flight
  // attempt (if any) into `out`, and respawns a replacement unless the
  // pool is draining. `corrupt_reason` is non-empty when the parent
  // detected a garbled reply stream (the worker was killed, or died right
  // after garbling).
  void workerDied(std::size_t wi, bool timed_out,
                  const std::string& corrupt_reason,
                  std::vector<SettledAttempt>& out) {
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
    if (respawn && spawnWorker()) ++respawned;
  }

  // Consumes completed frames from worker `wi`'s reply stream. Returns
  // false (after containment) if the worker had to be killed.
  bool drainReplies(std::size_t wi, std::vector<SettledAttempt>& out) {
    PoolWorker& w = workers[wi];
    for (;;) {
      std::uint8_t kind = 0;
      std::string payload;
      std::string why;
      const wire::FrameScan scan = wire::takeFrame(
          kSupervisorFrameFormat, &w.buf, &kind, &payload, &why);
      if (scan == wire::FrameScan::kNeedMore) return true;
      if (scan == wire::FrameScan::kCorrupt) {
        ::kill(w.pid, SIGKILL);
        workerDied(wi, /*timed_out=*/false, why, out);
        return false;
      }

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

  /// Writes the job's request frame to an idle worker. A dead request
  /// pipe replaces that worker and tries the next idle one; false means
  /// no idle worker could take the job — it was not sent and no attempt
  /// was burned.
  bool dispatch(std::uint64_t id, std::uint32_t attempt,
                const CellScheduler::Job& job) {
    const std::string frame = encodeSupervisorFrame(
        kFrameKindSpecRequest,
        encodePoolSpecRequest(id, attempt, job.chaos, job.spec));
    for (;;) {
      const auto it = std::find_if(workers.begin(), workers.end(),
                                   [](const PoolWorker& w) { return !w.busy; });
      if (it == workers.end()) return false;
      PoolWorker& w = *it;
      if (!wire::writeAllFd(w.request_fd, frame.data(), frame.size())) {
        // Dead request pipe: the worker never saw the job (no attempt
        // burned). Replace it and try the next idle worker — possibly the
        // replacement itself.
        ::kill(w.pid, SIGKILL);
        std::vector<SettledAttempt> none;  // an idle worker settles nothing
        workerDied(static_cast<std::size_t>(it - workers.begin()),
                   /*timed_out=*/false, "", none);
        continue;
      }
      w.busy = true;
      w.id = id;
      w.attempt = attempt;
      w.buf.clear();
      w.has_deadline = options.cell_timeout_seconds > 0.0;
      if (w.has_deadline) {
        w.deadline = deadlineFrom(Clock::now(), options.cell_timeout_seconds);
      }
      return true;
    }
  }

  /// Drains every busy worker's reply stream (non-blocking) and runs the
  /// watchdog; each finished attempt is appended to `settled`.
  void service(std::vector<SettledAttempt>& settled) {
    // Snapshot the busy workers by pid: containment inside the loop mutates
    // the pool (and a respawn can reuse a just-closed fd number, so fds are
    // not stable identifiers either).
    std::vector<pid_t> busy_pids;
    for (const PoolWorker& w : workers) {
      if (w.busy) busy_pids.push_back(w.pid);
    }
    for (const pid_t pid : busy_pids) {
      std::size_t wi = workers.size();
      for (std::size_t j = 0; j < workers.size(); ++j) {
        if (workers[j].pid == pid) {
          wi = j;
          break;
        }
      }
      if (wi == workers.size()) continue;  // removed by a prior pass
      PoolWorker& w = workers[wi];
      bool saw_eof = false;
      char chunk[65536];
      for (;;) {
        const ssize_t r = ::read(w.reply_fd, chunk, sizeof chunk);
        if (r > 0) {
          w.buf.append(chunk, static_cast<std::size_t>(r));
          if (w.buf.size() > wire::kMaxFramePayloadBytes +
                                 wire::kFrameHeaderBytes +
                                 wire::kFrameTrailerBytes) {
            ::kill(w.pid, SIGKILL);
            workerDied(wi, /*timed_out=*/false, "oversized reply", settled);
            wi = workers.size();
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
      if (wi == workers.size()) continue;  // contained above
      if (!drainReplies(wi, settled)) continue;  // worker replaced
      if (saw_eof) {
        // The worker died (or exited on chaos) — any buffered partial
        // frame is part of the post-mortem.
        workerDied(wi, /*timed_out=*/false, "", settled);
      }
    }

    // Watchdog: SIGKILL overdue busy workers; their cells settle as
    // timeouts and the workers are replaced.
    const Clock::time_point now = Clock::now();
    for (std::size_t wi = 0; wi < workers.size();) {
      PoolWorker& w = workers[wi];
      if (w.busy && w.has_deadline && w.deadline <= now) {
        ::kill(w.pid, SIGKILL);
        workerDied(wi, /*timed_out=*/true, "", settled);
      } else {
        ++wi;
      }
    }
  }

  /// EOFs the request pipes (idle workers _exit(0) on their own) and
  /// reaps every worker. A still-busy worker (drain abandoned) is killed
  /// so reaping cannot block on it.
  void shutdown() {
    respawn = false;
    for (PoolWorker& w : workers) {
      if (w.busy) ::kill(w.pid, SIGKILL);
      if (w.request_fd >= 0) {
        ::close(w.request_fd);
        w.request_fd = -1;
      }
    }
    for (PoolWorker& w : workers) {
      reapWorker(w.pid, nullptr);
      ::close(w.reply_fd);
    }
    workers.clear();
  }
};

struct PendingCell {
  std::uint64_t cell = 0;
  std::uint32_t attempt = 1;
  Clock::time_point not_before;
};

struct LaneState {
  std::deque<PendingCell> ready;
  std::vector<PendingCell> backoff;  // retries not yet due
  std::size_t running = 0;
  std::uint64_t dispatched = 0;
  bool dropped = false;  // outcomes still in flight are discarded
};

}  // namespace

bool Supervisor::isolationSupported() { return true; }

// ---- CellScheduler ---------------------------------------------------------

struct CellScheduler::Impl {
  WorkerPool pool;
  JobFor job_for;
  OnSettled on_settled;
  std::map<Lane, LaneState> lanes;
  std::map<std::uint64_t, std::pair<Lane, std::uint64_t>>
      in_flight;  // job id -> (lane, cell)
  std::size_t queued = 0;
  std::size_t target = 0;  // the pool size fill() asked for
  std::uint64_t next_job_id = 1;  // also 1 + attempts dispatched
  bool rotated = false;  // last_lane is meaningful
  Lane last_lane = 0;    // round-robin cursor
  bool draining = false;
  std::vector<SettledAttempt> settled;

  /// Settles `lane`'s queued cells in cell order. The cells leave the lane
  /// before any callback runs, since a callback may drop it.
  void settleQueued(Lane lane, CellStatus status, const std::string& diagnostic,
                    bool count_attempt) {
    const auto it = lanes.find(lane);
    if (it == lanes.end()) return;
    LaneState& l = it->second;
    std::vector<PendingCell> cells(l.ready.begin(), l.ready.end());
    cells.insert(cells.end(), l.backoff.begin(), l.backoff.end());
    l.ready.clear();
    l.backoff.clear();
    queued -= cells.size();
    std::sort(cells.begin(), cells.end(),
              [](const PendingCell& a, const PendingCell& b) {
                return a.cell < b.cell;
              });
    for (const PendingCell& pc : cells) {
      Supervisor::Outcome oc;
      oc.status = status;
      oc.diagnostic = diagnostic;
      if (count_attempt) oc.worker.attempts = pc.attempt;
      on_settled(lane, pc.cell, oc);
    }
  }

  /// Retries whose backoff has passed re-enter at the front of the lane:
  /// they already waited and should not queue behind the lane's whole
  /// remaining grid.
  static void moveDueRetries(LaneState& l, Clock::time_point now) {
    for (auto it = l.backoff.begin(); it != l.backoff.end();) {
      if (it->not_before <= now) {
        l.ready.push_front(*it);
        it = l.backoff.erase(it);
      } else {
        ++it;
      }
    }
  }

  /// Rotates over the lanes, one ready cell per lane per rotation, while
  /// idle workers last.
  void roundRobin() {
    const Clock::time_point now = Clock::now();
    bool progress = true;
    while (progress && pool.idleCount() > 0 && !lanes.empty()) {
      progress = false;
      auto it = rotated ? lanes.upper_bound(last_lane) : lanes.begin();
      for (std::size_t n = 0; n < lanes.size() && pool.idleCount() > 0; ++n) {
        if (it == lanes.end()) it = lanes.begin();
        const Lane lane = it->first;
        LaneState& l = it->second;
        ++it;
        moveDueRetries(l, now);
        if (l.ready.empty()) continue;
        const PendingCell pc = l.ready.front();
        const std::uint64_t id = next_job_id;
        if (!pool.dispatch(id, pc.attempt,
                           job_for(lane, pc.cell, pc.attempt))) {
          return;  // no idle worker survived the write
        }
        ++next_job_id;
        l.ready.pop_front();
        --queued;
        ++l.running;
        ++l.dispatched;
        in_flight[id] = {lane, pc.cell};
        rotated = true;
        last_lane = lane;
        progress = true;
      }
    }
  }
};

CellScheduler::CellScheduler(SupervisorOptions options, Producer produce,
                             JobFor job_for, OnSettled on_settled,
                             std::function<void()> child_setup)
    : impl_(std::make_unique<Impl>()) {
  impl_->pool.options = std::move(options);
  impl_->pool.produce = std::move(produce);
  impl_->pool.child_setup = std::move(child_setup);
  impl_->job_for = std::move(job_for);
  impl_->on_settled = std::move(on_settled);
}

CellScheduler::~CellScheduler() = default;

bool CellScheduler::fill(std::size_t workers) {
  impl_->target = workers;
  return impl_->pool.ensure(workers);
}

void CellScheduler::enqueue(Lane lane, std::uint64_t cell) {
  impl_->lanes[lane].ready.push_back({cell, 1, Clock::time_point{}});
  ++impl_->queued;
}

void CellScheduler::cancel(Lane lane, CellStatus status,
                           const std::string& diagnostic) {
  impl_->settleQueued(lane, status, diagnostic, /*count_attempt=*/false);
}

void CellScheduler::dropLane(Lane lane) {
  const auto it = impl_->lanes.find(lane);
  if (it == impl_->lanes.end()) return;
  LaneState& l = it->second;
  impl_->queued -= l.ready.size() + l.backoff.size();
  if (l.running == 0) {
    impl_->lanes.erase(it);
    return;
  }
  l.ready.clear();
  l.backoff.clear();
  l.dropped = true;
}

void CellScheduler::drain() {
  impl_->draining = true;
  impl_->pool.respawn = false;
}

void CellScheduler::dispatch() {
  Impl& s = *impl_;
  if (s.draining) return;
  for (;;) {
    s.roundRobin();
    if (s.queued == 0 || !s.pool.workers.empty()) return;
    // Empty-pool rule: no worker is left to run the queue. Refill; if not
    // even one worker can be forked, fail the queued cells rather than
    // wait forever.
    s.pool.ensure(s.target);
    if (s.pool.workers.empty()) {
      const std::string diagnostic =
          std::string("worker pool spawn failed: ") +
          std::strerror(s.pool.last_spawn_errno);
      std::vector<Lane> lanes;
      for (const auto& [lane, l] : s.lanes) lanes.push_back(lane);
      for (const Lane lane : lanes) {
        s.settleQueued(lane, CellStatus::kCrashed, diagnostic,
                       /*count_attempt=*/true);
      }
      return;
    }
  }
}

std::vector<int> CellScheduler::busyReplyFds() const {
  std::vector<int> fds;
  for (const PoolWorker& w : impl_->pool.workers) {
    if (w.busy) fds.push_back(w.reply_fd);
  }
  return fds;
}

int CellScheduler::pollTimeoutMs(int cap_ms,
                                 std::optional<Clock::time_point> also) const {
  const Clock::time_point now = Clock::now();
  long long timeout_ms = cap_ms;
  const auto consider = [&](Clock::time_point t) {
    const long long ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(t - now).count();
    timeout_ms = std::min(timeout_ms, ms < 0 ? 0 : ms + 1);
  };
  for (const PoolWorker& w : impl_->pool.workers) {
    if (w.busy && w.has_deadline) consider(w.deadline);
  }
  // A due retry only needs an early wake while a worker is idle to take
  // it; otherwise the next reply wakes the poll anyway.
  const bool idle = impl_->pool.idleCount() > 0;
  for (const auto& [lane, l] : impl_->lanes) {
    for (const PendingCell& pc : l.backoff) {
      if (idle || pc.not_before > now) consider(pc.not_before);
    }
  }
  if (also) consider(*also);
  return static_cast<int>(timeout_ms);
}

void CellScheduler::service() {
  Impl& s = *impl_;
  s.settled.clear();
  s.pool.service(s.settled);
  for (SettledAttempt& a : s.settled) {
    const auto jit = s.in_flight.find(a.id);
    if (jit == s.in_flight.end()) continue;
    const auto [lane, cell] = jit->second;
    s.in_flight.erase(jit);
    // Looked up per attempt: an earlier callback may have dropped a lane.
    const auto lit = s.lanes.find(lane);
    if (lit == s.lanes.end()) continue;
    LaneState& l = lit->second;
    --l.running;
    if (l.dropped) {
      if (l.running == 0) s.lanes.erase(lit);
      continue;
    }
    if (!s.draining && isTransportFailure(a.outcome.status) &&
        a.attempt <= s.pool.options.retries) {
      const double delay = backoffSeconds(
          s.pool.options, static_cast<std::size_t>(cell), a.attempt + 1);
      l.backoff.push_back(
          {cell, a.attempt + 1, deadlineFrom(Clock::now(), delay)});
      ++s.queued;
      continue;
    }
    s.on_settled(lane, cell, a.outcome);
  }
}

CellScheduler::Counts CellScheduler::counts() const {
  return {impl_->queued, impl_->in_flight.size(), impl_->next_job_id - 1};
}

CellScheduler::Counts CellScheduler::counts(Lane lane) const {
  const auto it = impl_->lanes.find(lane);
  if (it == impl_->lanes.end()) return {};
  const LaneState& l = it->second;
  return {l.ready.size() + l.backoff.size(), l.running, l.dispatched};
}

CellScheduler::PoolCounts CellScheduler::pool() const {
  const WorkerPool& p = impl_->pool;
  return {p.workers.size(), p.idleCount(), p.spawned, p.respawned};
}

// ---- Supervisor::run: one lane, no socket ---------------------------------

std::vector<Supervisor::Outcome> Supervisor::run(
    std::size_t n, const Producer& produce, const OnSettled& on_settled,
    PoolStats* stats, const std::vector<std::size_t>& order) const {
  if (!order.empty() && order.size() != n) {
    throw support::SptInternalError(
        "supervisor dispatch order must list every cell");
  }
  if (stats != nullptr) *stats = PoolStats{};
  std::vector<Outcome> out(n);
  // Nothing to run (e.g. a fully resumed sweep): fork no workers at all.
  if (n == 0) return out;
  wire::ScopedIgnoreSigpipe sigpipe_guard;

  // The cell index is the spec; the chaos plan is keyed by it.
  CellScheduler scheduler(
      options_,
      [&produce](const std::string& spec) { return produce(cellOfSpec(spec)); },
      [this](CellScheduler::Lane, std::uint64_t cell, std::uint32_t attempt) {
        return CellScheduler::Job{
            cellSpec(static_cast<std::size_t>(cell)),
            options_.chaos.actionFor(static_cast<std::size_t>(cell), attempt)};
      },
      [&](CellScheduler::Lane, std::uint64_t cell, const Outcome& outcome) {
        const auto i = static_cast<std::size_t>(cell);
        out[i] = outcome;
        if (on_settled) on_settled(i, out[i]);
      });
  for (std::size_t k = 0; k < n; ++k) {
    scheduler.enqueue(0, order.empty() ? k : order[k]);
  }
  scheduler.fill(std::min(options_.jobs, n));

  for (;;) {
    if (options_.stop != nullptr && *options_.stop != 0) {
      // Graceful interrupt: cancel the queue, drain the in-flight cells.
      scheduler.drain();
      scheduler.cancel(0, CellStatus::kInternalError, kInterruptedDiagnostic);
    }
    scheduler.dispatch();
    const CellScheduler::Counts counts = scheduler.counts();
    if (counts.queued + counts.running == 0) break;

    const std::vector<int> reply_fds = scheduler.busyReplyFds();
    std::vector<pollfd> fds(reply_fds.size());
    for (std::size_t i = 0; i < reply_fds.size(); ++i) {
      fds[i] = pollfd{reply_fds[i], POLLIN, 0};
    }
    if (::poll(fds.data(), static_cast<nfds_t>(fds.size()),
               scheduler.pollTimeoutMs(60'000)) < 0 &&
        errno != EINTR) {
      throw support::SptInternalError(
          std::string("supervisor poll() failed: ") + std::strerror(errno));
    }
    scheduler.service();
  }

  if (stats != nullptr) {
    stats->workers_spawned = scheduler.pool().spawned;
    stats->workers_respawned = scheduler.pool().respawned;
  }
  return out;
}

#else  // !SPT_SUPERVISOR_POSIX

bool Supervisor::isolationSupported() { return false; }

std::vector<Supervisor::Outcome> Supervisor::run(
    std::size_t, const Producer&, const OnSettled&, PoolStats*,
    const std::vector<std::size_t>&) const {
  throw support::SptInternalError(
      "process isolation is not supported on this platform (no fork); "
      "use the in-process path");
}

#endif  // SPT_SUPERVISOR_POSIX

}  // namespace spt::harness
