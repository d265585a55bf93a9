// Process-isolated execution supervisor: one warm worker pool and the one
// cell scheduler that drives it.
//
// The hardened sweep quarantines cells that *throw*; this layer contains
// cells that take the whole process down. Workers are forked once and
// live for the whole run. The parent sends each job to an idle worker as
// an SPTW spec-request frame — a support::wire frame (length-prefixed,
// FNV-1a-checksummed) over a pipe — and each worker loops `recv request →
// produce → reply`, re-arming its per-cell RLIMIT_CPU window before every
// cell. Keeping workers warm removes the fork + pipeline re-setup cost per
// cell — the dominant overhead on small cells (bench_supervisor_overhead).
//
// CellScheduler is the only thing that drives the pool. It keeps cells in
// *lanes*, one queue each: Supervisor::run is one lane with no socket, and
// the `sptc serve` sweep service gives each client its own lane. The
// scheduler, single-threaded in the caller's poll() loop (so fork() never
// races other threads):
//
//  * dispatches round-robin, one cell per lane per rotation, so a long
//    lane cannot starve a short one; the caller's callback turns each
//    (lane, cell, attempt) into the job's spec bytes and chaos action;
//  * runs a watchdog enforcing a per-attempt **wall-clock** deadline
//    (complementary to the simulated record/cycle budgets, which cannot
//    catch a hang in the host code itself) and SIGKILLs overdue workers;
//  * optionally applies RLIMIT_AS / RLIMIT_CPU to workers, so a runaway
//    allocation or CPU spin is bounded by the kernel even if the watchdog
//    is off (workers re-arm RLIMIT_CPU per cell, since the limit is
//    cumulative over the process);
//  * reaps every dead worker with wait4(), recording exit code,
//    terminating signal, and rusage; a worker that segfaults, aborts,
//    OOMs, hangs, or replies with bytes that fail frame validation lands
//    in CellStatus::kCrashed / kTimeout / kProtocolError with diagnostics
//    (including a hex dump of a corrupt reply's first bytes) while every
//    other cell keeps running — only the dead worker is respawned;
//  * retries transport failures (crash/timeout/protocol) up to `retries`
//    extra attempts after backoffSeconds — exponential with deterministic
//    seeded jitter, so test and CI runs are reproducible. A retry that
//    falls due re-enters at the *front* of its lane, ahead of the lane's
//    never-run cells, on both the batch and the service path;
//  * cancels a lane's queued cells with one status and diagnostic, in
//    cell order (graceful interrupt, service drain, request deadline),
//    and, when the pool has no worker left and cannot fork one, settles
//    every queued cell as kCrashed ("worker pool spawn failed: …").
//
// On platforms without fork() the supervisor reports
// isolationSupported() == false and callers degrade to the existing
// in-process path (also selectable with --no-isolate).
#pragma once

#include <chrono>
#include <csignal>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness/cell_status.h"
#include "support/chaos.h"
#include "support/wire.h"

namespace spt::harness {

struct SupervisorOptions {
  /// Master switch consumed by runSweep / runFaultCampaign: false keeps
  /// the historical in-process path.
  bool isolate = false;
  /// Unread: every supervised run uses the warm worker pool. Nothing in
  /// src/ or tools/ reads this field; it stays only because
  /// perfbench/served_grid.cpp still assigns it, and goes away with the
  /// next change to the benchmark.
  bool pool = false;
  /// Wall-clock deadline per worker *attempt*, enforced by the parent
  /// watchdog (SIGKILL past it). 0 = no deadline.
  double cell_timeout_seconds = 0.0;
  /// Extra attempts for transport failures (crashed / timeout / protocol
  /// error). Cell-level outcomes (ok, budget_exceeded, internal_error)
  /// are deterministic and never retried.
  std::uint32_t retries = 0;
  /// Retry backoff (see backoffSeconds below).
  double backoff_base_seconds = 0.25;
  std::uint64_t backoff_seed = 0xb0ff;
  /// Worker resource limits (0 = inherit). RLIMIT_AS bounds address space
  /// (an OOM becomes a contained bad_alloc or crash); RLIMIT_CPU bounds
  /// CPU seconds per cell (SIGXCPU, reported as kTimeout) — workers
  /// re-arm it before each cell relative to CPU already spent.
  std::uint64_t rlimit_as_bytes = 0;
  std::uint64_t rlimit_cpu_seconds = 0;
  /// Max workers in flight. 0 = support::ThreadPool::defaultWorkerCount().
  std::size_t jobs = 0;
  /// Deterministic sabotage for testing the containment paths, keyed by
  /// cell index and consulted by Supervisor::run as it dispatches.
  support::ChaosPlan chaos;
  /// Cooperative graceful-interrupt flag, set from a SIGINT/SIGTERM
  /// handler. When non-null and nonzero the supervisor stops dispatching:
  /// in-flight workers finish (and checkpoint) normally, every
  /// undispatched cell settles as kInternalError with an "interrupted"
  /// diagnostic, and run() returns — so an operator ^C never tears a
  /// checkpoint row and `--resume` re-runs exactly the unfinished cells.
  const volatile std::sig_atomic_t* stop = nullptr;
};

/// The deterministic delay before retry `attempt` of `cell` (2-based: the
/// delay preceding the second attempt is backoffSeconds(options, cell, 2);
/// attempt 1 waits 0): base * 2^min(attempt-2, 62) * (1 + jitter), jitter
/// in [0,1) drawn from Rng(deriveSeed(deriveSeed(backoff_seed, cell),
/// attempt)) — cell and attempt are mixed as separate words, so no two
/// (cell, attempt) pairs share a jitter stream.
double backoffSeconds(const SupervisorOptions& options, std::size_t cell,
                      std::uint32_t attempt);

class Supervisor {
 public:
  /// Transport-level outcome of one cell after retries resolved. kOk means
  /// a valid frame arrived and `payload` holds the worker's bytes (the
  /// cell's own status, possibly non-ok, is inside the payload);
  /// kInternalError means the worker itself reported a structured failure;
  /// other statuses are containment outcomes with empty payload.
  struct Outcome {
    CellStatus status = CellStatus::kOk;
    std::string diagnostic;  // transport diagnostic; empty when kOk
    WorkerDiagnostics worker;
    std::string payload;
  };

  /// Worker-process accounting for one run: `workers_spawned` counts the
  /// initial pool fill plus respawns and `workers_respawned` counts
  /// replacements of dead workers — the chaos tests assert exactly one
  /// respawn per sabotaged worker.
  struct PoolStats {
    std::size_t workers_spawned = 0;
    std::size_t workers_respawned = 0;
  };

  /// Runs in the *worker* (after fork): produces the cell's serialized
  /// result. Exceptions escaping the producer are caught in the worker and
  /// reported as a structured kInternalError outcome. The same worker
  /// process calls this for many cells in sequence.
  using Producer = std::function<std::string(std::size_t)>;

  /// Runs in the *parent* as each cell settles (after retries), in
  /// completion order — checkpoint appending hooks in here.
  using OnSettled = std::function<void(std::size_t, const Outcome&)>;

  explicit Supervisor(SupervisorOptions options);

  /// True when this platform can fork worker processes.
  static bool isolationSupported();

  /// Runs cells 0..n-1 on a pool of min(jobs, n) workers; outcomes land
  /// by cell index. n == 0 forks nothing. Must only be called when
  /// isolationSupported(). `stats`, when non-null, receives the
  /// worker-process accounting for this run.
  std::vector<Outcome> run(std::size_t n, const Producer& produce,
                           const OnSettled& on_settled = nullptr,
                           PoolStats* stats = nullptr) const;

  const SupervisorOptions& options() const { return options_; }

 private:
  SupervisorOptions options_;
};

/// The one cell scheduler over the warm worker pool (see the file
/// comment). A cell is (lane, cell); a lane is created by its first
/// enqueue. The caller owns the event loop: each turn it calls dispatch(),
/// polls busyReplyFds() (plus its own fds) for at most pollTimeoutMs(),
/// then service(). Callbacks run synchronously — JobFor inside
/// dispatch(), OnSettled inside dispatch(), service() and cancel() — and
/// an OnSettled callback may call dropLane().
///
/// Defined only where Supervisor::isolationSupported(). Callers should
/// ignore SIGPIPE around it (support::wire::ScopedIgnoreSigpipe).
class CellScheduler {
 public:
  using Lane = std::uint64_t;
  using Clock = std::chrono::steady_clock;

  /// One attempt's spec bytes, and the sabotage the worker performs
  /// instead of producing (kNone: produce).
  struct Job {
    std::string spec;
    support::ChaosAction chaos = support::ChaosAction::kNone;
  };
  using JobFor =
      std::function<Job(Lane lane, std::uint64_t cell, std::uint32_t attempt)>;
  /// A cell's final outcome: after its last attempt, or cancelled.
  using OnSettled = std::function<void(Lane lane, std::uint64_t cell,
                                       const Supervisor::Outcome& outcome)>;
  /// Runs in a pooled worker (after fork): spec bytes in, serialized
  /// result out. Exceptions become kInternalError outcomes.
  using Producer = std::function<std::string(const std::string& spec)>;

  /// Cells of one lane, or of all lanes.
  struct Counts {
    std::size_t queued = 0;  // ready or in backoff
    std::size_t running = 0;
    std::uint64_t dispatched = 0;  // attempts sent, retries included
  };
  struct PoolCounts {
    std::size_t workers = 0;
    std::size_t idle = 0;
    std::size_t spawned = 0;    // initial fill plus respawns
    std::size_t respawned = 0;  // replacements of dead workers
  };

  /// `child_setup`, when set, runs in every freshly forked worker before
  /// its request loop: a service closes its sockets there.
  CellScheduler(SupervisorOptions options, Producer produce, JobFor job_for,
                OnSettled on_settled,
                std::function<void()> child_setup = nullptr);
  ~CellScheduler();  // reaps every worker
  CellScheduler(const CellScheduler&) = delete;
  CellScheduler& operator=(const CellScheduler&) = delete;

  /// Forks workers until the pool holds `workers`, the size an emptied
  /// pool is also refilled to; false if a fork failed.
  bool fill(std::size_t workers);

  /// Queues attempt 1 of `cell` at the back of `lane`.
  void enqueue(Lane lane, std::uint64_t cell);
  /// Settles every queued cell of `lane`, in cell order, with `status`,
  /// `diagnostic` and attempts == 0. In-flight cells settle normally.
  void cancel(Lane lane, CellStatus status, const std::string& diagnostic);
  /// Forgets `lane`: queued cells are discarded unsettled and in-flight
  /// outcomes are dropped on arrival.
  void dropLane(Lane lane);
  /// Stops dispatching, retrying and respawning for good. Idempotent.
  void drain();

  /// Sends due cells to idle workers, one per lane per rotation. When the
  /// pool is empty and cannot be refilled, settles every queued cell as
  /// kCrashed ("worker pool spawn failed: …"). A no-op once draining.
  void dispatch();
  std::vector<int> busyReplyFds() const;
  /// Milliseconds to the nearest watchdog deadline, backoff expiry or
  /// `also` entry, rounded up by 1 ms and clamped to [0, cap_ms].
  int pollTimeoutMs(int cap_ms,
                    const std::vector<Clock::time_point>& also = {}) const;
  /// Reads finished attempts and runs the watchdog; each attempt settles
  /// or, for a retryable transport failure, waits out its backoff.
  void service();

  Counts counts() const;
  Counts counts(Lane lane) const;
  PoolCounts pool() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// ---- SPTW frame protocol (exposed for tests and the worker side) ----------
//
// SPTW frames are support::wire frames under magic "SPTW" at a single
// version: the parent sends spec requests, and a worker answers each with
// a cell-tagged reply or error. support::wire's scanner and decoder,
// given kSupervisorFrameFormat, reject every other version and any kind
// outside 3-5 (kinds 0-2 are unassigned).

inline constexpr std::uint32_t kSupervisorFrameVersion = 3;

inline constexpr std::uint8_t kFrameKindPooledReply = 3;  // worker -> parent
inline constexpr std::uint8_t kFrameKindPooledError = 4;  // worker -> parent
inline constexpr std::uint8_t kFrameKindSpecRequest = 5;  // parent -> worker

inline constexpr support::wire::FrameFormat kSupervisorFrameFormat{
    {'S', 'P', 'T', 'W'}, kSupervisorFrameVersion, kSupervisorFrameVersion,
    kFrameKindPooledReply, kFrameKindSpecRequest};

/// Encodes one SPTW frame.
std::string encodeSupervisorFrame(std::uint8_t kind,
                                  const std::string& payload);

/// Pooled-reply payload prefix: the cell being answered (echoed back so
/// the parent can detect a desynchronized stream) plus the worker's
/// self-reported per-cell rusage (getrusage deltas; max RSS normalized to
/// KB). The producer's bytes follow as `inner`.
struct PoolReplyHeader {
  std::uint64_t cell = 0;
  double user_seconds = 0.0;
  double sys_seconds = 0.0;
  std::int64_t max_rss_kb = 0;
};
std::string encodePoolReply(const PoolReplyHeader& header,
                            const std::string& inner);
bool decodePoolReply(const std::string& payload, PoolReplyHeader* header,
                     std::string* inner);

/// Spec-request payload: an opaque token echoed back in the reply's
/// PoolReplyHeader.cell, the (1-based) attempt, the chaos action the
/// worker must perform (resolved by the dispatcher, which alone knows the
/// cell index a ChaosPlan is keyed by), and the spec bytes the worker's
/// producer consumes. decodePoolSpecRequest rejects an out-of-range action
/// byte.
std::string encodePoolSpecRequest(std::uint64_t id, std::uint32_t attempt,
                                  support::ChaosAction chaos,
                                  const std::string& spec);
bool decodePoolSpecRequest(const std::string& payload, std::uint64_t* id,
                           std::uint32_t* attempt,
                           support::ChaosAction* chaos, std::string* spec);

}  // namespace spt::harness
