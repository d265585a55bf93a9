// Process-isolated execution supervisor (warm worker pool).
//
// The hardened sweep quarantines cells that *throw*; this layer
// contains cells that take the whole process down. `jobs` workers are
// forked once per run and live for the whole sweep. The parent sends
// each job to an idle worker as an SPTW spec-request frame — a
// support::wire frame (length-prefixed, FNV-1a-checksummed) over a pipe —
// and each worker loops `recv request → produce → reply`, re-arming its
// per-cell RLIMIT_CPU window before every cell. Keeping workers warm
// removes the fork + pipeline re-setup cost per cell — the dominant
// overhead on small cells (bench_supervisor_overhead) — and the same pool
// is what the `sptc serve` daemon multiplexes, dispatching the same way.
//
// The parent is a single-threaded poll() event loop — fork() never races
// other threads — that:
//
//  * keeps up to `jobs` workers busy, placing results by submission
//    index so ordering guarantees match ParallelSweep;
//  * runs a watchdog enforcing a per-cell **wall-clock** deadline
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
//    other cell keeps running — only the dead worker is respawned and the
//    rest of the pool keeps draining the queue;
//  * retries transport failures (crash/timeout/protocol) up to `retries`
//    extra attempts with exponential backoff and deterministic seeded
//    jitter — a pure function of (backoff_seed, cell, attempt), so test
//    and CI runs are reproducible;
//  * honors support::ChaosPlan, the deterministic sabotage hook that makes
//    designated (cell, attempt) pairs crash/hang/garble on demand — the
//    parent resolves the plan per dispatched job and the frame carries
//    the action to the worker.
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

/// Parent-side handle on the warm worker pool, driven by Supervisor::run
/// for batch runs and by a long-lived event loop — the `sptc serve` sweep
/// service — that dispatches itself. The pool owns worker processes,
/// pipes, watchdog deadlines, death classification, and respawn; it
/// deliberately does NOT own retry policy or result aggregation, which
/// stay with the caller, so the batch path and the service share one
/// containment implementation and the byte-determinism tests cover both.
///
/// Every job crosses the pipe the same way: its opaque spec bytes go to
/// the pool's producer in the worker, `id` is a token echoed back on the
/// reply, and the chaos action is resolved by the caller per job and
/// carried in the frame. Supervisor::run uses the cell index as both the
/// token and the spec; the service encodes its request-local cell into
/// the spec, since its workers are forked before any request exists.
///
/// Only meaningful where Supervisor::isolationSupported(); construction
/// throws elsewhere. Callers should ignore SIGPIPE around dispatch
/// (support::wire::ScopedIgnoreSigpipe), as Supervisor::run does.
class WorkerPool {
 public:
  struct Job {
    std::uint64_t id = 0;
    std::uint32_t attempt = 1;
    std::string spec;
    /// Sabotage the worker performs for this job instead of producing.
    support::ChaosAction chaos = support::ChaosAction::kNone;
  };

  /// One finished attempt — a reply, a death, or a watchdog timeout —
  /// classified as crashed / timeout / protocol error. Whether to retry is
  /// the caller's decision.
  struct Settled {
    std::uint64_t id = 0;
    std::uint32_t attempt = 1;
    Supervisor::Outcome outcome;
  };

  /// Runs in a pooled worker (after fork): a job's spec bytes in, its
  /// serialized result out. Exceptions become kInternalError outcomes.
  using Producer = std::function<std::string(const std::string& spec)>;

  WorkerPool(SupervisorOptions options, Producer produce);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Consulted when a worker dies: a replacement is forked only while the
  /// policy returns true (default: always). Batch callers turn it off
  /// once every cell settled; a draining service turns it off on SIGTERM.
  void setRespawnPolicy(std::function<bool()> policy);

  /// Runs in a freshly forked worker child (after the pool closed sibling
  /// pipe ends, before the request loop): a service closes its listening
  /// and client sockets here so workers never hold them open.
  void setChildSetup(std::function<void()> setup);

  /// Tops the pool up to `workers` processes; false if a spawn failed
  /// (the pool keeps whatever it managed to fork).
  bool ensure(std::size_t workers);

  std::size_t workerCount() const;
  std::size_t idleWorkers() const;
  std::size_t busyWorkers() const;
  std::size_t workersSpawned() const;
  std::size_t workersRespawned() const;
  /// errno of the most recent failed pipe()/fork() inside a spawn.
  int lastSpawnErrno() const;

  /// Writes the job's request frame to an idle worker. A dead request
  /// pipe replaces that worker and tries the next idle one; false means
  /// no idle worker could take the job (none existed, or every candidate
  /// died and respawn is off/failing) — the job was not sent and no
  /// attempt was burned.
  bool dispatch(const Job& job);

  /// Reply fds of busy workers, for the caller's poll set. Idle workers
  /// have no fd here — a dead idle worker surfaces at the next dispatch.
  std::vector<int> busyReplyFds() const;
  /// Nearest watchdog deadline among busy workers; false when none.
  bool nextDeadline(std::chrono::steady_clock::time_point* out) const;

  /// Drains every busy worker's reply stream (non-blocking) and runs the
  /// watchdog; each finished attempt is appended to `settled`.
  void service(std::vector<Settled>& settled);

  /// EOFs the request pipes (idle workers _exit(0) on their own) and
  /// reaps every worker. Idempotent; the destructor calls it.
  void shutdown();

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
