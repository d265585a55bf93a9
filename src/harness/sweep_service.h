// The resident sweep service behind `sptc serve` (docs/ROBUSTNESS.md
// "Sweep service").
//
// A single SweepService process listens on a Unix-domain socket and
// multiplexes a stream of sweep / campaign requests from many concurrent
// clients over one warm worker pool. The pool is driven by the same
// harness::CellScheduler as a batch `Supervisor::run`: each admitted
// request is one scheduler lane (keyed by its client id), so queueing,
// dispatch, retry, cancellation and the empty-pool rule are the batch
// path's code. The service keeps only what is its own: clients and
// sockets, admission, tokens and attach, the journal, crash points,
// per-request deadlines, and result frames. The wire protocol, "SPTS" v2, reuses the SPTW frame discipline —
// length-prefixed, versioned, FNV-1a-checksummed frames (support/wire.h)
// — with a request/progress/result/done/error/status vocabulary:
//
//   client -> service   kRequest        one sweep/campaign/echo request
//                       kStatusRequest  service introspection
//   service -> client   kProgress       {done, total} after each cell
//                       kBusy           admission refused; retry_after hint
//                       kResult         one finished cell (full row bytes)
//                       kDone           request complete
//                       kError          request rejected (bad spec, ...)
//                       kStatus         JSON status document
//                       kAttached       token matched an existing
//                                       request; settled results replayed
//
// Scheduling and robustness properties (exercised by sweep_service_test
// and the CI soak):
//
//  * **fair round-robin**: the scheduler takes one cell per lane per
//    rotation, so a 640-cell campaign cannot starve a 10-cell sweep that
//    arrived later; a retry whose backoff passed re-enters at the front
//    of its lane, as on the batch path;
//  * **bounded admission**: a request whose cells would push the total
//    queued work over `max_queue` is refused with a kBusy frame carrying
//    a retry_after hint — the service never buffers unboundedly;
//  * **per-request deadlines** layered on the per-cell watchdog: when a
//    request's deadline passes, its still-queued cells settle as timeout
//    rows immediately; cells already on workers run on under the cell
//    watchdog and still deliver;
//  * **graceful degradation**: a dying pooled worker fails only its
//    in-flight cell (the pool respawns a replacement; if no worker is
//    left and none can be forked, queued cells settle as crashed
//    instead of waiting forever); a disconnecting
//    client cancels only its own queued cells; client-side sabotage
//    (support::ClientChaosPlan: disconnect / garbage / slow-reader) never
//    affects other clients' results — which CI proves by diffing the
//    surviving clients' JSON against a non-serve baseline;
//  * **drain on SIGTERM/SIGINT** (`SweepServiceOptions::stop`): stop
//    accepting, fail still-queued cells as interrupted, let in-flight
//    cells finish and deliver, sync the journal, reap every worker,
//    unlink the socket, exit 0.
//
// Byte-determinism contract: a sweep/campaign submitted through the
// service produces rows/cells field-for-field identical to
// `sptc sweep --isolate` / `sptc inject --isolate` for the same grid (the
// filtered JSON documents are byte-identical; only host_ fields and
// worker diagnostics differ), because workers on both paths run the same
// cell bodies (produceSweepCellPayload / runFaultCampaignCellStandalone)
// and parents settle through the same decode helpers.
#pragma once

#include <csignal>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "harness/fault_campaign.h"
#include "harness/parallel_sweep.h"
#include "support/chaos.h"
#include "support/wire.h"

namespace spt::harness {

// ---- SPTS frames ----------------------------------------------------------

/// Every SPTS frame, either way, is at this one version; a frame at any
/// other version is refused as soon as its header scans.
inline constexpr std::uint32_t kServiceFrameVersion = 2;

inline constexpr std::uint8_t kServiceFrameRequest = 0;
inline constexpr std::uint8_t kServiceFrameProgress = 1;
inline constexpr std::uint8_t kServiceFrameBusy = 2;
inline constexpr std::uint8_t kServiceFrameResult = 3;
inline constexpr std::uint8_t kServiceFrameDone = 4;
inline constexpr std::uint8_t kServiceFrameError = 5;
inline constexpr std::uint8_t kServiceFrameStatusRequest = 6;
inline constexpr std::uint8_t kServiceFrameStatus = 7;
/// Service -> client: the request's idempotency token matched a
/// live or journal-recovered request; every already-settled result is
/// replayed on this connection, then the stream continues live.
inline constexpr std::uint8_t kServiceFrameAttached = 8;

/// SPTS frames on support::wire: magic "SPTS", one version, kinds 0-8.
inline constexpr support::wire::FrameFormat kServiceFrameFormat{
    {'S', 'P', 'T', 'S'}, kServiceFrameVersion, kServiceFrameVersion,
    kServiceFrameRequest, kServiceFrameAttached};

/// One client request. The grid is described, not enumerated: the service
/// and its workers rebuild the cases through buildSuiteSweepCases /
/// defaultSuite(), which is what keeps a submitted grid identical to the
/// one-shot CLI's.
struct ServiceRequest {
  enum class Kind : std::uint8_t {
    kSweep = 0,     // suite sweep rows under machine/copts/scale
    kCampaign = 1,  // fault campaign over the (filtered) suite
    kEcho = 2,      // echo_cells trivial cells (bench / protocol tests)
  };
  Kind kind = Kind::kSweep;
  std::uint64_t scale = 1;
  support::MachineConfig machine;
  compiler::CompilerOptions copts;
  /// Workload-name filter; empty = the whole suite. Unknown names are
  /// rejected with a kError frame.
  std::vector<std::string> benchmarks;
  /// Thread-count grid axis for kSweep (buildSuiteSweepCases): empty keeps
  /// the plain single-config grid; out-of-range values (0 or >
  /// support::kMaxSpecThreads) are rejected with a kError frame.
  std::vector<std::uint32_t> spec_threads;
  // Campaign knobs (kCampaign only).
  std::uint64_t seeds = 8;
  std::uint64_t base_seed = 0x5eed;
  std::uint32_t period = 32;
  support::OracleMode oracle = support::OracleMode::kDigest;
  // Echo knobs (kEcho only).
  std::uint64_t echo_cells = 0;
  std::string echo_payload;
  /// Whole-request wall-clock deadline in seconds (0 = none), measured
  /// from admission.
  double deadline_seconds = 0.0;
  /// Worker sabotage for this request's cells, keyed by request-local
  /// cell index. Refused unless the service runs with `allow_chaos`.
  support::ChaosPlan chaos;
};

std::string encodeServiceRequest(const ServiceRequest& req);
bool decodeServiceRequest(const std::string& payload, ServiceRequest* req);

/// The SPTS request payload: the encodeServiceRequest bytes followed by a
/// client-supplied idempotency token, empty for a tokenless request. The
/// token is *not* part of the request encoding (journal records and
/// request-equality checks use the tokenless bytes), so a resubmission
/// with the same token and grid attaches to the original request instead
/// of re-running it.
std::string encodeServiceRequestWithToken(const ServiceRequest& req,
                                          const std::string& token);
bool decodeServiceRequestWithToken(const std::string& payload,
                                   ServiceRequest* req, std::string* token);

// ---- The service ----------------------------------------------------------

struct SweepServiceOptions {
  std::string socket_path;
  /// Worker-pool knobs: jobs, cell timeout, retries, rlimits. `isolate` /
  /// `pool` are implied. The embedded chaos plan is ignored — chaos
  /// arrives per request.
  SupervisorOptions supervisor;
  /// Admission bound: maximum queued-but-undispatched cells across all
  /// clients. A request that would exceed it gets a kBusy reply.
  std::size_t max_queue = 1024;
  /// Accept request-embedded chaos plans (tests / CI soak only).
  bool allow_chaos = false;
  /// Unread: finished cells are logged as row records in the journal.
  /// Nothing in src/ or tools/ reads this field; it stays only because
  /// perfbench/served_grid.cpp still assigns it, and goes away with the
  /// next change to the benchmark.
  std::string checkpoint_path;
  /// Shared mmap trace cache for sweep cells (sweep --trace-cache).
  std::string trace_cache_dir;
  /// The service's durable log (harness/durable_log.h; docs/ROBUSTNESS.md
  /// "The durable log"). When non-empty, every admitted request appends a
  /// durable admit record (idempotency token, full request bytes) before
  /// any of its cells dispatch; every settled cell appends its row record
  /// (the cell_codec payload the client receives) before the result is
  /// sent; and a settle record (done/cancelled/deadline) follows when the
  /// results are *delivered* — the done frame fully flushed to a client —
  /// not merely computed, so a crash between completion and delivery
  /// still recovers (the cells replay from their rows; nothing re-runs).
  /// Each record is fsync'd; a failed append is logged and counted as
  /// `journal.append_failures` in the status document. On startup the
  /// log is replayed: unsettled requests are re-admitted in their original
  /// admission order as orphans (no client fd), cells for which the same
  /// request logged an ok row are replayed from it instead of re-running
  /// (rows of other requests never are), and the rest run to
  /// completion whether or not the original client ever returns. A file
  /// in an older format is refused and the service does not start. The
  /// rows also feed a one-shot `sptc sweep --resume --checkpoint`.
  std::string journal_path;
  /// Scripted crash for the kill/restart chaos campaign (tests / CI soak):
  /// SIGKILL self at the Nth occurrence of the chosen point. Inert by
  /// default.
  support::ServiceCrashPlan crash;
  /// Graceful-drain flag, set from a SIGTERM/SIGINT handler.
  const volatile std::sig_atomic_t* stop = nullptr;
  /// Progress note sink (stderr in sptc; capturable in tests). Null = quiet.
  std::function<void(const std::string&)> log;
};

class SweepService {
 public:
  explicit SweepService(SweepServiceOptions options);
  ~SweepService();
  SweepService(const SweepService&) = delete;
  SweepService& operator=(const SweepService&) = delete;

  /// True when this platform can run the service (fork + AF_UNIX).
  static bool supported();

  /// Binds the socket, fills the worker pool, and serves until `*stop` is
  /// set (drain) or the socket cannot be created. Returns a process exit
  /// code: 0 after a clean drain, 1 on a startup failure.
  int run();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// ---- The client -----------------------------------------------------------

struct SubmitOptions {
  /// Client-side sabotage (tests / CI soak): disconnect or garbage after
  /// N results, or stall before every read.
  support::ClientChaosPlan chaos;
  /// Overall client-side wait bound in seconds (0 = wait forever).
  double timeout_seconds = 0.0;
  /// Idempotency token (empty = none: a disconnect cancels the request).
  /// A resubmission with the same token and grid attaches to the original
  /// request — live, orphaned, or journal-recovered — and replays its
  /// already-settled results instead of re-running any cell.
  std::string token;
  /// submitToServiceWithRetry only: keep retrying for this many seconds.
  /// kBusy replies honor the service's retry_after hint; transport
  /// failures (refused connect, mid-stream disconnect) reconnect and
  /// re-attach by token after a deterministic seeded backoff. 0 disables
  /// retries.
  double retry_for_seconds = 0.0;
  /// Abort flag for the retry loop's sleeps (SIGINT handler).
  const volatile std::sig_atomic_t* stop = nullptr;
  /// Called after every result frame (done, total).
  std::function<void(std::uint64_t, std::uint64_t)> on_progress;
  /// Retry-loop note sink (stderr in sptc). Null = quiet.
  std::function<void(const std::string&)> log;
};

struct SubmitOutcome {
  /// True when the request ran to kDone and every cell arrived.
  bool ok = false;
  /// Admission refused; `retry_after_seconds` holds the service's hint.
  bool busy = false;
  double retry_after_seconds = 0.0;
  std::string error;  // transport/protocol/service error when !ok && !busy
  /// The failure was transport-level (connect refused, send failure,
  /// stream cut before kDone) rather than a structured service reply —
  /// the class of failure a tokened client retries.
  bool transport = false;
  /// The service replied kAttached: this connection adopted an existing
  /// request (after a client reconnect or a service restart) and replayed
  /// its settled results.
  bool attached = false;
  /// kSweep: rows in grid order, exactly as runSweep would return them.
  std::vector<SweepRow> rows;
  /// kCampaign: cells + totals, exactly as runFaultCampaign would.
  FaultCampaignResult campaign;
  /// kEcho: the echoed payloads.
  std::vector<std::string> echoes;
};

/// Submits one request over the socket and blocks until done/failed.
SubmitOutcome submitToService(const std::string& socket_path,
                              const ServiceRequest& request,
                              const SubmitOptions& options = {});

/// submitToService wrapped in the `--retry-for` loop: retries kBusy
/// refusals after the service's retry_after hint and — when
/// `options.token` is non-empty — transport failures after a
/// deterministic seeded backoff (Supervisor::backoffSeconds, capped at
/// 2 s per attempt), until the request succeeds, a structured service
/// error arrives, or `options.retry_for_seconds` of wall clock elapse.
SubmitOutcome submitToServiceWithRetry(const std::string& socket_path,
                                       const ServiceRequest& request,
                                       const SubmitOptions& options = {});

/// Fetches the service's status JSON (queue depths, per-client fairness
/// counters, worker health, aggregated resource report).
std::optional<std::string> queryServiceStatus(const std::string& socket_path,
                                              std::string* error = nullptr);

}  // namespace spt::harness
