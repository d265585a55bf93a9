#include "harness/sweep_service.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <tuple>
#include <utility>

#include "harness/cell_codec.h"
#include "harness/durable_log.h"
#include "harness/suite.h"
#include "harness/trace_cache.h"
#include "support/json.h"
#include "support/rng.h"
#include "support/thread_pool.h"
#include "support/wire.h"

#if defined(__unix__) || (defined(__APPLE__) && defined(__MACH__))
#define SPT_SERVICE_POSIX 1
#include <errno.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace spt::harness {

namespace wire = support::wire;

// ---- ServiceRequest codec -------------------------------------------------

namespace {

void encodeCache(ByteWriter& w, const support::CacheConfig& c) {
  w.u32(c.size_bytes);
  w.u32(c.associativity);
  w.u32(c.block_bytes);
  w.u32(c.latency_cycles);
}

bool decodeCache(ByteReader& r, support::CacheConfig* c) {
  return r.u32(&c->size_bytes) && r.u32(&c->associativity) &&
         r.u32(&c->block_bytes) && r.u32(&c->latency_cycles);
}

void encodeMachine(ByteWriter& w, const support::MachineConfig& m) {
  encodeCache(w, m.l1i);
  encodeCache(w, m.l1d);
  encodeCache(w, m.l2);
  encodeCache(w, m.l3);
  w.u32(m.memory_latency_cycles);
  w.u32(m.fetch_width);
  w.u32(m.issue_width);
  w.u32(m.replay_fetch_width);
  w.u32(m.replay_issue_width);
  w.u32(m.rf_ports);
  w.u32(m.branch_predictor_entries);
  w.u32(m.branch_mispredict_penalty);
  w.u32(m.rf_copy_overhead);
  w.u32(m.fast_commit_overhead);
  w.u32(m.speculation_result_buffer_entries);
  w.u32(m.speculative_store_buffer_entries);
  w.u32(m.load_address_buffer_entries);
  w.u8(static_cast<std::uint8_t>(m.recovery));
  w.u8(static_cast<std::uint8_t>(m.register_check));
  w.u64(m.max_trace_records);
  w.u64(m.max_simulated_records);
  w.u64(m.max_simulated_cycles);
  w.u8(static_cast<std::uint8_t>(m.oracle));
  w.boolean(m.fault_plan.enabled);
  w.u64(m.fault_plan.seed);
  w.u32(m.fault_plan.period);
  w.boolean(m.fault_plan.ssb_value_flip);
  w.boolean(m.fault_plan.lab_drop);
  w.boolean(m.fault_plan.fork_reg_flip);
  w.boolean(m.fault_plan.srb_payload_flip);
  w.boolean(m.fault_plan.cache_meta_flip);
  w.boolean(m.fault_plan.bp_meta_flip);
  w.u32(m.spec_threads);
}

bool decodeMachine(ByteReader& r, support::MachineConfig* m) {
  std::uint8_t recovery = 0, register_check = 0, oracle = 0;
  if (!(decodeCache(r, &m->l1i) && decodeCache(r, &m->l1d) &&
        decodeCache(r, &m->l2) && decodeCache(r, &m->l3) &&
        r.u32(&m->memory_latency_cycles) && r.u32(&m->fetch_width) &&
        r.u32(&m->issue_width) && r.u32(&m->replay_fetch_width) &&
        r.u32(&m->replay_issue_width) && r.u32(&m->rf_ports) &&
        r.u32(&m->branch_predictor_entries) &&
        r.u32(&m->branch_mispredict_penalty) && r.u32(&m->rf_copy_overhead) &&
        r.u32(&m->fast_commit_overhead) &&
        r.u32(&m->speculation_result_buffer_entries) &&
        r.u32(&m->speculative_store_buffer_entries) &&
        r.u32(&m->load_address_buffer_entries) && r.u8(&recovery) &&
        r.u8(&register_check) && r.u64(&m->max_trace_records) &&
        r.u64(&m->max_simulated_records) && r.u64(&m->max_simulated_cycles) &&
        r.u8(&oracle))) {
    return false;
  }
  if (recovery > 2 || register_check > 1 || oracle > 2) return false;
  m->recovery = static_cast<support::RecoveryMechanism>(recovery);
  m->register_check = static_cast<support::RegisterCheckMode>(register_check);
  m->oracle = static_cast<support::OracleMode>(oracle);
  support::FaultPlan& fp = m->fault_plan;
  return r.boolean(&fp.enabled) && r.u64(&fp.seed) && r.u32(&fp.period) &&
         r.boolean(&fp.ssb_value_flip) && r.boolean(&fp.lab_drop) &&
         r.boolean(&fp.fork_reg_flip) && r.boolean(&fp.srb_payload_flip) &&
         r.boolean(&fp.cache_meta_flip) && r.boolean(&fp.bp_meta_flip) &&
         r.u32(&m->spec_threads) && m->spec_threads >= 1 &&
         m->spec_threads <= support::kMaxSpecThreads;
}

void encodeCompilerOptions(ByteWriter& w, const compiler::CompilerOptions& o) {
  w.f64(o.min_avg_body_size);
  w.f64(o.max_avg_body_size);
  w.f64(o.min_avg_trip_count);
  w.f64(o.min_coverage);
  w.f64(o.max_prefork_fraction);
  w.u32(o.max_search_candidates);
  w.boolean(o.enable_svp);
  w.f64(o.svp_min_predictability);
  w.boolean(o.enable_unrolling);
  w.f64(o.unroll_body_threshold);
  w.u32(o.max_unroll_factor);
  w.f64(o.min_estimated_speedup);
  w.boolean(o.cost_driven_selection);
  w.boolean(o.verify_between_passes);
  w.boolean(o.enable_region_speculation);
  w.f64(o.region_min_cost);
  w.f64(o.region_penalty_weight);
  w.f64(o.region_min_benefit);
  w.f64(o.fork_overhead);
  w.f64(o.commit_overhead);
  w.f64(o.replay_width);
  w.u32(o.spec_threads);
  w.u32(o.slice_max_instrs);
}

bool decodeCompilerOptions(ByteReader& r, compiler::CompilerOptions* o) {
  return r.f64(&o->min_avg_body_size) && r.f64(&o->max_avg_body_size) &&
         r.f64(&o->min_avg_trip_count) && r.f64(&o->min_coverage) &&
         r.f64(&o->max_prefork_fraction) && r.u32(&o->max_search_candidates) &&
         r.boolean(&o->enable_svp) && r.f64(&o->svp_min_predictability) &&
         r.boolean(&o->enable_unrolling) && r.f64(&o->unroll_body_threshold) &&
         r.u32(&o->max_unroll_factor) && r.f64(&o->min_estimated_speedup) &&
         r.boolean(&o->cost_driven_selection) &&
         r.boolean(&o->verify_between_passes) &&
         r.boolean(&o->enable_region_speculation) &&
         r.f64(&o->region_min_cost) && r.f64(&o->region_penalty_weight) &&
         r.f64(&o->region_min_benefit) && r.f64(&o->fork_overhead) &&
         r.f64(&o->commit_overhead) && r.f64(&o->replay_width) &&
         r.u32(&o->spec_threads) && r.u32(&o->slice_max_instrs);
}

}  // namespace

std::string encodeServiceRequest(const ServiceRequest& req) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(req.kind));
  w.u64(req.scale);
  encodeMachine(w, req.machine);
  encodeCompilerOptions(w, req.copts);
  w.u64(req.benchmarks.size());
  for (const std::string& b : req.benchmarks) w.str(b);
  w.u64(req.seeds);
  w.u64(req.base_seed);
  w.u32(req.period);
  w.u8(static_cast<std::uint8_t>(req.oracle));
  w.u64(req.echo_cells);
  w.str(req.echo_payload);
  w.f64(req.deadline_seconds);
  w.str(req.chaos.toSpec());
  w.u64(req.spec_threads.size());
  for (const std::uint32_t n : req.spec_threads) w.u32(n);
  return w.take();
}

bool decodeServiceRequest(const std::string& payload, ServiceRequest* req) {
  ByteReader r(payload);
  ServiceRequest out;
  std::uint8_t kind = 0, oracle = 0;
  if (!(r.u8(&kind) && r.u64(&out.scale))) return false;
  if (kind > 2) return false;
  out.kind = static_cast<ServiceRequest::Kind>(kind);
  if (!decodeMachine(r, &out.machine)) return false;
  if (!decodeCompilerOptions(r, &out.copts)) return false;
  std::uint64_t nbench = 0;
  if (!r.u64(&nbench) || nbench > 4096) return false;
  out.benchmarks.resize(static_cast<std::size_t>(nbench));
  for (std::string& b : out.benchmarks) {
    if (!r.str(&b)) return false;
  }
  std::string chaos_spec;
  if (!(r.u64(&out.seeds) && r.u64(&out.base_seed) && r.u32(&out.period) &&
        r.u8(&oracle) && r.u64(&out.echo_cells) && r.str(&out.echo_payload) &&
        r.f64(&out.deadline_seconds) && r.str(&chaos_spec))) {
    return false;
  }
  std::uint64_t nthreads = 0;
  if (!r.u64(&nthreads) || nthreads > support::kMaxSpecThreads) return false;
  out.spec_threads.resize(static_cast<std::size_t>(nthreads));
  for (std::uint32_t& n : out.spec_threads) {
    if (!r.u32(&n) || n < 1 || n > support::kMaxSpecThreads) return false;
  }
  if (oracle > 2 || !r.ok() || !r.atEnd()) return false;
  out.oracle = static_cast<support::OracleMode>(oracle);
  if (!chaos_spec.empty()) {
    std::optional<support::ChaosPlan> plan = support::ChaosPlan::parse(chaos_spec);
    if (!plan) return false;
    out.chaos = *plan;
  }
  *req = std::move(out);
  return true;
}

std::string encodeServiceRequestWithToken(const ServiceRequest& req,
                                          const std::string& token) {
  // The tokenless request bytes ride as one nested string so the journal
  // and the request-equality check reuse them verbatim.
  ByteWriter w;
  w.str(encodeServiceRequest(req));
  w.str(token);
  return w.take();
}

bool decodeServiceRequestWithToken(const std::string& payload,
                                   ServiceRequest* req, std::string* token) {
  ByteReader r(payload);
  std::string request_bytes;
  if (!(r.str(&request_bytes) && r.str(token) && r.atEnd())) return false;
  return decodeServiceRequest(request_bytes, req);
}

// ---- Internal frame payloads ----------------------------------------------

namespace {

std::string encodeServiceFrame(std::uint8_t kind, const std::string& payload) {
  return wire::encodeFrame(kServiceFrameFormat.magic, kServiceFrameVersion,
                           kind, payload);
}

std::string encodeProgressPayload(std::uint64_t done, std::uint64_t total) {
  ByteWriter w;
  w.u64(done);
  w.u64(total);
  return w.take();
}

bool decodeProgressPayload(const std::string& payload, std::uint64_t* done,
                           std::uint64_t* total) {
  ByteReader r(payload);
  return r.u64(done) && r.u64(total) && r.atEnd();
}

std::string encodeBusyPayload(double retry_after, const std::string& reason) {
  ByteWriter w;
  w.f64(retry_after);
  w.str(reason);
  return w.take();
}

bool decodeBusyPayload(const std::string& payload, double* retry_after,
                       std::string* reason) {
  ByteReader r(payload);
  return r.f64(retry_after) && r.str(reason) && r.atEnd();
}

std::string encodeTextPayload(const std::string& text) {
  ByteWriter w;
  w.str(text);
  return w.take();
}

bool decodeTextPayload(const std::string& payload, std::string* text) {
  ByteReader r(payload);
  return r.str(text) && r.atEnd();
}

std::string encodeDonePayload(std::uint64_t total) {
  ByteWriter w;
  w.u64(total);
  return w.take();
}

bool decodeDonePayload(const std::string& payload, std::uint64_t* total) {
  ByteReader r(payload);
  return r.u64(total) && r.atEnd();
}

/// One finished cell crossing the socket: position, result-kind tag ('W'
/// sweep row / 'C' campaign cell / 'E' echo bytes), the inner cell-codec
/// payload, and the parent-side worker diagnostics (which never ride
/// inside the inner payload — same split as the JSON writers).
struct ResultFramePayload {
  std::uint64_t cell = 0;
  std::uint64_t total = 0;
  std::uint8_t tag = 'E';
  std::string inner;
  WorkerDiagnostics worker;
};

std::string encodeResultPayload(const ResultFramePayload& p) {
  ByteWriter w;
  w.u64(p.cell);
  w.u64(p.total);
  w.u8(p.tag);
  w.str(p.inner);
  w.u32(p.worker.attempts);
  w.u32(static_cast<std::uint32_t>(p.worker.exit_code));
  w.u32(static_cast<std::uint32_t>(p.worker.term_signal));
  w.boolean(p.worker.timed_out);
  w.f64(p.worker.host_user_seconds);
  w.f64(p.worker.host_sys_seconds);
  w.u64(static_cast<std::uint64_t>(p.worker.host_max_rss_kb));
  w.str(p.worker.partial_reply);
  return w.take();
}

bool decodeResultPayload(const std::string& payload, ResultFramePayload* p) {
  ByteReader r(payload);
  std::uint32_t exit_code = 0, term_signal = 0;
  std::uint64_t rss = 0;
  if (!(r.u64(&p->cell) && r.u64(&p->total) && r.u8(&p->tag) &&
        r.str(&p->inner) && r.u32(&p->worker.attempts) && r.u32(&exit_code) &&
        r.u32(&term_signal) && r.boolean(&p->worker.timed_out) &&
        r.f64(&p->worker.host_user_seconds) &&
        r.f64(&p->worker.host_sys_seconds) && r.u64(&rss) &&
        r.str(&p->worker.partial_reply) && r.atEnd())) {
    return false;
  }
  p->worker.exit_code = static_cast<std::int32_t>(exit_code);
  p->worker.term_signal = static_cast<std::int32_t>(term_signal);
  p->worker.host_max_rss_kb =
      static_cast<std::int64_t>(rss);
  return true;
}

// ---- Worker-side spec ------------------------------------------------------

/// The spec bytes a pooled worker receives per cell: the (normalized)
/// request, the grid-local cell index, and the shared trace-cache root.
std::string encodeWorkerSpec(const std::string& request_bytes,
                             std::uint64_t cell,
                             const std::string& trace_cache_dir) {
  ByteWriter w;
  w.str(request_bytes);
  w.u64(cell);
  w.str(trace_cache_dir);
  return w.take();
}

bool decodeWorkerSpec(const std::string& spec, ServiceRequest* req,
                      std::uint64_t* cell, std::string* trace_cache_dir) {
  ByteReader r(spec);
  std::string request_bytes;
  if (!(r.str(&request_bytes) && r.u64(cell) && r.str(trace_cache_dir) &&
        r.atEnd())) {
    return false;
  }
  return decodeServiceRequest(request_bytes, req);
}

/// The service's suite-order benchmark resolution: the campaign grid is
/// names × seeds in this order on the parent and in every worker.
std::vector<std::string> resolveSuiteNames(
    const std::vector<std::string>& filter) {
  std::vector<std::string> names;
  for (const SuiteEntry& entry : defaultSuite()) {
    if (!filter.empty()) {
      bool wanted = false;
      for (const std::string& b : filter) {
        if (b == entry.workload.name) wanted = true;
      }
      if (!wanted) continue;
    }
    names.push_back(entry.workload.name);
  }
  return names;
}

FaultCampaignOptions campaignOptionsFromRequest(const ServiceRequest& req) {
  FaultCampaignOptions fopts;
  fopts.seeds = req.seeds;
  fopts.base_seed = req.base_seed;
  fopts.scale = req.scale;
  fopts.period = req.period;
  fopts.oracle = req.oracle;
  fopts.machine = req.machine;
  return fopts;
}

/// Runs in a pooled service worker: spec bytes in, cell-codec payload out.
/// Throwing reports a structured kInternalError to the parent, exactly as
/// the batch producers do.
std::string serviceSpecProduce(const std::string& spec) {
  ServiceRequest req;
  std::uint64_t cell = 0;
  std::string cache_dir;
  if (!decodeWorkerSpec(spec, &req, &cell, &cache_dir)) {
    throw std::runtime_error("service worker received an undecodable spec");
  }
  switch (req.kind) {
    case ServiceRequest::Kind::kEcho:
      return req.echo_payload + ":" + std::to_string(cell);
    case ServiceRequest::Kind::kSweep: {
      std::vector<SweepCase> cases =
          buildSuiteSweepCases(req.machine, req.copts, req.scale,
                               req.benchmarks, req.spec_threads);
      if (cell >= cases.size()) {
        throw std::runtime_error("sweep cell index out of range");
      }
      // One cache handle per worker process, rebuilt only if a later
      // request names a different root.
      static std::unique_ptr<TraceCache> cache;
      TraceCache* cache_ptr = nullptr;
      if (!cache_dir.empty()) {
        if (!cache || cache->dir() != cache_dir) {
          cache = std::make_unique<TraceCache>(cache_dir);
        }
        cache_ptr = cache.get();
      }
      return produceSweepCellPayload(cases[cell], cache_ptr);
    }
    case ServiceRequest::Kind::kCampaign: {
      std::vector<std::string> names = resolveSuiteNames(req.benchmarks);
      if (req.seeds == 0 || cell / req.seeds >= names.size()) {
        throw std::runtime_error("campaign cell index out of range");
      }
      const std::string& benchmark = names[cell / req.seeds];
      return encodeCampaignCell(runFaultCampaignCellStandalone(
          benchmark, static_cast<std::size_t>(cell),
          campaignOptionsFromRequest(req)));
    }
  }
  throw std::runtime_error("service worker received an unknown request kind");
}

}  // namespace

// ---- The service ----------------------------------------------------------

#if defined(SPT_SERVICE_POSIX)

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kMaxClientOutbufBytes = 256ull << 20;
constexpr const char* kDrainDiagnostic =
    "interrupted: service draining on signal before dispatch; finished "
    "cells are checkpointed, resubmit for the rest";
constexpr const char* kDeadlineDiagnostic =
    "request deadline exceeded before dispatch; cell never ran";

}  // namespace

struct SweepService::Impl {
  explicit Impl(SweepServiceOptions opts) : options(std::move(opts)) {}

  SweepServiceOptions options;

  /// One connection and, once admitted, its request. The request's cells
  /// queue in the scheduler lane named by the client id.
  struct Client {
    int fd = -1;
    std::uint64_t id = 0;
    std::string inbuf;
    std::string outbuf;
    std::size_t out_pos = 0;
    bool admitted = false;
    bool done_sent = false;
    bool close_after_flush = false;
    ServiceRequest request;
    std::string request_bytes;  // normalized, pre-encoded for worker specs
    std::uint8_t tag = 'E';
    std::uint64_t total = 0;
    std::uint64_t done = 0;
    bool has_deadline = false;
    Clock::time_point deadline{};
    // Campaign metadata for parent-side settles.
    std::vector<std::string> campaign_names;
    // Sweep metadata: benchmark/config per cell.
    std::vector<std::pair<std::string, std::string>> sweep_keys;
    // ---- Journal / idempotency state ----
    /// Client-supplied idempotency token ("" = none: a disconnect cancels
    /// the request).
    std::string token;
    /// Journal id (0 = unjournaled request).
    std::uint64_t request_id = 0;
    /// Re-admitted from the journal at startup (starts with fd == -1).
    bool recovered = false;
    /// A settle record was written for this request.
    bool settled_logged = false;
    /// The per-request deadline fired (journal outcome "deadline").
    bool deadline_expired = false;
    /// kDone was fully flushed to a live client — the tokened request no
    /// longer needs retention for a future attach.
    bool delivered = false;
    /// Encoded kResult payloads in settle order, retained while the token
    /// is attachable so a reconnecting client can replay the request.
    std::vector<std::string> result_frames;

    /// Keep serving after a disconnect? Tokened and journal-recovered
    /// requests survive their client; tokenless ones are cancelled.
    bool survivesDisconnect() const { return !token.empty() || recovered; }
  };

  std::unique_ptr<CellScheduler> scheduler;
  int listen_fd = -1;
  std::size_t jobs = 1;
  std::uint64_t next_client_id = 1;
  std::map<std::uint64_t, Client> clients;
  bool draining = false;
  bool drain_flush_armed = false;
  Clock::time_point drain_flush_deadline{};
  DurableAppendFile journal;
  /// Next journal request id; seeded from the replay so ids stay unique
  /// across restarts of the same journal file.
  std::uint64_t next_request_id = 1;
  /// token -> client id of the live/orphaned/recovered request bound to it.
  std::map<std::string, std::uint64_t> tokens;
  std::uint64_t crash_events = 0;  // occurrences of the armed crash point
  // Status counters.
  std::uint64_t requests_admitted = 0;
  std::uint64_t requests_refused = 0;
  std::uint64_t cells_settled = 0;
  std::uint64_t clients_connected = 0;
  std::uint64_t clients_disconnected = 0;
  std::uint64_t journal_records_replayed = 0;
  std::uint64_t journal_records_skipped = 0;
  std::uint64_t journal_requests_recovered = 0;
  std::uint64_t journal_appends = 0;
  std::uint64_t journal_append_failures = 0;
  std::uint64_t requests_attached = 0;
  bool journal_torn_tail = false;
  ResourceReport resources;

  void note(const std::string& msg) {
    if (options.log) options.log(msg);
  }

  // ---- Scripted crash points (kill/restart chaos campaign) ----

  /// SIGKILL self: no destructors, no flushes beyond what already hit the
  /// fd — exactly what a real crash leaves behind.
  [[noreturn]] void crashNow() {
    note("service: scripted crash (" + options.crash.toSpec() + ")");
    ::kill(::getpid(), SIGKILL);
    ::_exit(137);  // unreachable; SIGKILL cannot be handled
  }

  /// True when `point` is the armed crash point and this is its `at`-th
  /// occurrence. Call exactly once per event.
  bool crashDue(support::ServiceCrashPoint point) {
    return options.crash.point == point && ++crash_events == options.crash.at;
  }

  // ---- Journal writes ----

  /// Appends one record and fsyncs it; the kMidAppend crash point tears
  /// the write here. A failed append or fsync is logged and counted in the
  /// status document; the service keeps serving.
  void journalAppend(const LogRecord& rec) {
    if (!journal.isOpen()) return;
    const std::string line = formatLogRecord(rec);
    if (crashDue(support::ServiceCrashPoint::kMidAppend)) {
      journal.appendTorn(line, static_cast<std::size_t>(options.crash.bytes));
      crashNow();
    }
    if (journal.appendLine(line) && journal.sync()) {
      ++journal_appends;
      return;
    }
    const std::string why = std::strerror(errno);
    ++journal_append_failures;
    note("service: journal " + options.journal_path + ": append failed: " +
         why);
  }

  void journalSettleId(std::uint64_t request_id, const char* outcome) {
    if (request_id == 0) return;
    LogRecord rec;
    rec.kind = LogRecord::Kind::kSettle;
    rec.id = request_id;
    rec.outcome = outcome;
    journalAppend(rec);
  }

  void journalSettle(Client& c, const char* outcome) {
    if (c.settled_logged) return;
    journalSettleId(c.request_id, outcome);
    c.settled_logged = true;
  }

  void queueFrame(Client& c, std::uint8_t kind, const std::string& payload) {
    if (c.fd < 0) return;
    c.outbuf.append(encodeServiceFrame(kind, payload));
  }

  void disconnectClient(Client& c) {
    if (c.fd >= 0) {
      ::close(c.fd);
      c.fd = -1;
      ++clients_disconnected;
    }
    c.inbuf.clear();
    c.outbuf.clear();
    c.out_pos = 0;
    if (c.admitted && !c.done_sent && c.survivesDisconnect()) {
      // Tokened / journal-recovered requests outlive their client: the
      // remaining cells keep running as an orphan and the results are
      // retained for a later attach (or the next service incarnation).
      note("service: client " + std::to_string(c.id) +
           " disconnected; continuing its request as an orphan (" +
           std::to_string(c.done) + "/" + std::to_string(c.total) + " done)");
      return;
    }
    // Only this client's queued cells are cancelled; its in-flight cells
    // finish on their workers and their outcomes are dropped.
    scheduler->dropLane(c.id);
    if (c.admitted && !c.settled_logged) {
      // Tokenless, so nobody can ever attach: settle now. A request cut
      // down mid-run is cancelled; one whose work finished but whose
      // delivery flush failed is done — the rows are in the journal,
      // only the reply was lost.
      journalSettle(c, c.done_sent
                           ? (c.deadline_expired ? "deadline" : "done")
                           : "cancelled");
    }
  }

  /// A client entry may be erased once nothing references it: no live fd,
  /// no worker about to settle into it, no queued cells still being
  /// served for an orphan, and no token retention awaiting an attach.
  bool reapable(const Client& c) const {
    const CellScheduler::Counts lane = scheduler->counts(c.id);
    if (c.fd >= 0 || lane.running > 0 || lane.queued > 0) return false;
    if (c.admitted && !c.token.empty() && !c.delivered && !draining) {
      return false;  // finished orphan: hold for a same-token attach
    }
    return true;
  }

  void reapClients() {
    for (auto it = clients.begin(); it != clients.end();) {
      if (reapable(it->second)) {
        Client& c = it->second;
        if (c.admitted && c.done_sent && c.token.empty() &&
            !c.settled_logged) {
          // A tokenless request that finished with no one to deliver to
          // (e.g. a journal-recovered orphan): settle it at reap time,
          // or every future incarnation would pointlessly re-admit it.
          journalSettle(c, c.deadline_expired ? "deadline" : "done");
        }
        if (!c.token.empty()) {
          auto tit = tokens.find(c.token);
          if (tit != tokens.end() && tit->second == it->first) {
            tokens.erase(tit);
          }
        }
        scheduler->dropLane(it->first);
        it = clients.erase(it);
      } else {
        ++it;
      }
    }
  }

  void flushClient(Client& c) {
    // An orphan has no connection to flush — and must NOT fall into the
    // completion branch below: its empty outbuf would read as "fully
    // flushed" and a finished orphan would be marked delivered (settling
    // the journal and freeing the token) when nobody received anything.
    if (c.fd < 0) return;
    // Scripted mid-flush crash: push only the first `bytes` bytes of the
    // pending reply onto the wire, then die — the client sees a torn
    // stream, the journal still holds the request. Counts only flushes
    // toward admitted clients so status probes can't trip it.
    if (options.crash.point == support::ServiceCrashPoint::kMidFlush &&
        c.fd >= 0 && c.admitted && c.out_pos < c.outbuf.size() &&
        crashDue(support::ServiceCrashPoint::kMidFlush)) {
      const std::size_t n = std::min(static_cast<std::size_t>(
                                         options.crash.bytes),
                                     c.outbuf.size() - c.out_pos);
      if (n > 0) {
        [[maybe_unused]] const ssize_t rc =
            ::write(c.fd, c.outbuf.data() + c.out_pos, n);
      }
      crashNow();
    }
    while (c.fd >= 0 && c.out_pos < c.outbuf.size()) {
      const ssize_t n = ::write(c.fd, c.outbuf.data() + c.out_pos,
                                c.outbuf.size() - c.out_pos);
      if (n > 0) {
        c.out_pos += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      disconnectClient(c);
      return;
    }
    if (c.out_pos >= c.outbuf.size()) {
      c.outbuf.clear();
      c.out_pos = 0;
      if (c.done_sent || c.close_after_flush) {
        if (c.done_sent) {
          // Delivery is the settle point (see settleCell): only now is
          // the request beyond recovery's and a token-attach's reach.
          journalSettle(c, c.deadline_expired ? "deadline" : "done");
          c.delivered = true;
        }
        disconnectClient(c);
      }
    } else if (c.outbuf.size() - c.out_pos > kMaxClientOutbufBytes) {
      // A reader this slow is indistinguishable from a stuck one; cutting
      // it off bounds service memory and cannot affect other clients.
      note("service: client " + std::to_string(c.id) +
           " write buffer exceeded cap; disconnecting");
      disconnectClient(c);
    }
  }

  void refuse(Client& c, std::uint8_t kind, const std::string& payload) {
    ++requests_refused;
    queueFrame(c, kind, payload);
    c.close_after_flush = true;
    flushClient(c);
  }

  /// Validation + normalization shared by live admission and journal
  /// recovery: fills the request-derived fields of `c` (request,
  /// request_bytes, total, tag, per-cell keys). Returns a non-empty
  /// rejection reason for a request the service must not run.
  std::string prepareRequest(Client& c, ServiceRequest req) {
    if (req.chaos.enabled() && !options.allow_chaos) {
      return "request carries a chaos plan but the service was not started "
             "with --allow-chaos";
    }
    // Validate the benchmark filter against the suite (buildSuiteSweepCases
    // silently drops unknown names; the service must not).
    std::vector<std::string> suite_names = resolveSuiteNames({});
    for (const std::string& b : req.benchmarks) {
      if (std::find(suite_names.begin(), suite_names.end(), b) ==
          suite_names.end()) {
        return "unknown benchmark '" + b + "'";
      }
    }
    std::uint64_t total = 0;
    switch (req.kind) {
      case ServiceRequest::Kind::kSweep: {
        std::vector<SweepCase> cases =
            buildSuiteSweepCases(req.machine, req.copts, req.scale,
                                 req.benchmarks, req.spec_threads);
        total = cases.size();
        c.sweep_keys.clear();
        c.sweep_keys.reserve(cases.size());
        for (const SweepCase& sc : cases) {
          c.sweep_keys.emplace_back(sc.benchmark, sc.config);
        }
        c.tag = 'W';
        break;
      }
      case ServiceRequest::Kind::kCampaign: {
        c.campaign_names = resolveSuiteNames(req.benchmarks);
        total = c.campaign_names.size() * req.seeds;
        c.tag = 'C';
        break;
      }
      case ServiceRequest::Kind::kEcho:
        total = req.echo_cells;
        c.tag = 'E';
        break;
    }
    if (total == 0) return "request resolves to zero cells";
    // Normalize the benchmark filter to suite order so every worker
    // rebuilds the exact grid the parent admitted.
    req.benchmarks = resolveSuiteNames(req.benchmarks);
    c.request = std::move(req);
    c.request_bytes = encodeServiceRequest(c.request);
    c.total = total;
    return std::string();
  }

  void armDeadline(Client& c) {
    if (c.request.deadline_seconds <= 0) return;
    c.has_deadline = true;
    c.deadline = Clock::now() +
                 std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(c.request.deadline_seconds));
  }

  /// Write-ahead admit record: durable before any cell of the request can
  /// dispatch or any reply reach the client.
  void journalAdmit(Client& c) {
    if (!journal.isOpen()) return;
    c.request_id = next_request_id++;
    LogRecord rec;
    rec.kind = LogRecord::Kind::kAdmit;
    rec.id = c.request_id;
    rec.token = c.token;
    rec.request_bytes = c.request_bytes;
    journalAppend(rec);
  }

  /// Admission: validates, normalizes, and either queues every cell of
  /// the request or answers busy/error and closes.
  void admit(Client& c, ServiceRequest req, std::string token) {
    if (draining) {
      refuse(c, kServiceFrameError,
             encodeTextPayload("service is draining; resubmit later"));
      return;
    }
    const std::string why = prepareRequest(c, std::move(req));
    if (!why.empty()) {
      refuse(c, kServiceFrameError, encodeTextPayload(why));
      return;
    }
    const std::size_t queued_cells = scheduler->counts().queued;
    if (queued_cells + c.total > options.max_queue) {
      // Backpressure with an explicit hint: roughly the time for the
      // backlog ahead of this request to drain one pool pass.
      const double per_cell =
          options.supervisor.cell_timeout_seconds > 0
              ? options.supervisor.cell_timeout_seconds
              : 0.25;
      const double retry_after = std::min(
          60.0, std::max(0.25, per_cell *
                                   static_cast<double>(queued_cells + 1) /
                                   static_cast<double>(jobs)));
      refuse(c, kServiceFrameBusy,
             encodeBusyPayload(
                 retry_after,
                 "admission queue full (" + std::to_string(queued_cells) +
                     " queued, max " + std::to_string(options.max_queue) +
                     ")"));
      return;
    }
    c.token = std::move(token);
    c.admitted = true;
    armDeadline(c);
    for (std::uint64_t i = 0; i < c.total; ++i) scheduler->enqueue(c.id, i);
    ++requests_admitted;
    if (!c.token.empty()) tokens[c.token] = c.id;
    journalAdmit(c);
    note("service: client " + std::to_string(c.id) + " admitted (" +
         std::to_string(c.total) + " cells)");
    if (crashDue(support::ServiceCrashPoint::kAfterAdmit)) crashNow();
  }

  /// Same-token resubmission: adopt request `r` — live, orphaned, or
  /// journal-recovered — onto connection `conn`, replay every settled
  /// result, and continue the stream live from there.
  void attachClient(Client& conn, Client& r, const ServiceRequest& req) {
    ServiceRequest normalized = req;
    normalized.benchmarks = resolveSuiteNames(normalized.benchmarks);
    if (encodeServiceRequest(normalized) != r.request_bytes) {
      refuse(conn, kServiceFrameError,
             encodeTextPayload(
                 "idempotency token is already bound to a different request"));
      return;
    }
    if (r.fd >= 0) {
      // The token owner reconnected while its old connection half-lives;
      // the newest connection wins.
      ::close(r.fd);
      r.fd = -1;
      ++clients_disconnected;
    }
    // Transfer the socket, not a disconnect: the connection lives on in
    // `r`, and `conn` becomes an empty husk for the reaper.
    r.fd = conn.fd;
    conn.fd = -1;
    conn.inbuf.clear();
    r.outbuf.clear();
    r.out_pos = 0;
    r.close_after_flush = false;
    ++requests_attached;
    queueFrame(r, kServiceFrameAttached,
               encodeProgressPayload(r.done, r.total));
    for (const std::string& payload : r.result_frames) {
      queueFrame(r, kServiceFrameResult, payload);
    }
    queueFrame(r, kServiceFrameProgress, encodeProgressPayload(r.done, r.total));
    if (r.done_sent) queueFrame(r, kServiceFrameDone, encodeDonePayload(r.total));
    note("service: client " + std::to_string(conn.id) + " attached to request " +
         std::to_string(r.id) + " by token (" + std::to_string(r.done) + "/" +
         std::to_string(r.total) + " replayed)");
    flushClient(r);
  }

  /// Startup recovery of one unsettled admit record: the request is
  /// re-admitted as an orphan (no client fd) in its original admission
  /// order; every cell with an ok row that this request logged (`rows`,
  /// never another request's) replays from that row's payload with
  /// synthesized single-attempt worker diagnostics, and only the remaining
  /// cells queue to run.
  void recoverRequest(const LogRecord& rec,
                      const std::map<RowKey, std::string>& rows) {
    ServiceRequest req;
    if (!decodeServiceRequest(rec.request_bytes, &req)) {
      note("service: journal request " + std::to_string(rec.id) +
           " has undecodable request bytes; settling as cancelled");
      journalSettleId(rec.id, "cancelled");
      return;
    }
    Client c;
    c.id = next_client_id++;
    c.recovered = true;
    c.token = rec.token;
    c.request_id = rec.id;
    const std::string why = prepareRequest(c, std::move(req));
    if (!why.empty()) {
      note("service: journal request " + std::to_string(rec.id) +
           " is no longer admissible (" + why + "); settling as cancelled");
      journalSettleId(rec.id, "cancelled");
      return;
    }
    c.admitted = true;
    armDeadline(c);  // the deadline clock restarts at recovery
    const std::uint64_t cid = c.id;
    Client& r = clients.emplace(cid, std::move(c)).first->second;
    if (!r.token.empty()) tokens[r.token] = r.id;
    ++requests_admitted;
    ++journal_requests_recovered;
    std::vector<std::pair<std::uint64_t, const std::string*>> replay;
    for (std::uint64_t i = 0; i < r.total; ++i) {
      if (const std::string* payload = loggedRow(r, rows, i)) {
        replay.emplace_back(i, payload);
      } else {
        scheduler->enqueue(r.id, i);
      }
    }
    note("service: recovered request " + std::to_string(rec.id) +
         " from the journal (" + std::to_string(replay.size()) +
         " cells from logged rows, " +
         std::to_string(scheduler->counts(r.id).queued) + " to run)");
    for (const auto& [i, payload] : replay) {
      Supervisor::Outcome oc;
      oc.status = CellStatus::kOk;
      // Synthesized diagnostics: the cell ran once, cleanly, in a prior
      // incarnation. attempts == 1 and exit_code == 0 keep the client-side
      // worker/resource JSON blocks byte-identical to an uninterrupted
      // pooled run — a logged kOk cell necessarily exited 0 (the host_
      // members differ and are filtered, as always).
      oc.worker.attempts = 1;
      oc.worker.exit_code = 0;
      oc.payload = *payload;
      settleCell(r, i, oc, /*record=*/false);
    }
  }

  /// The row key of request-local cell `i` of a sweep or campaign.
  static RowKey cellKey(const Client& c, std::uint64_t i) {
    if (c.tag == 'W') return c.sweep_keys[static_cast<std::size_t>(i)];
    return {c.campaign_names[static_cast<std::size_t>(i / c.request.seeds)],
            campaignCellConfigKey(static_cast<std::size_t>(i),
                                  support::deriveSeed(c.request.base_seed, i))};
  }

  /// The payload of the ok row `rows` holds for cell `i` of `c`, or
  /// nullptr (echo requests log no rows).
  static const std::string* loggedRow(const Client& c,
                                      const std::map<RowKey, std::string>& rows,
                                      std::uint64_t i) {
    if (c.tag != 'W' && c.tag != 'C') return nullptr;
    const auto it = rows.find(cellKey(c, i));
    if (it == rows.end()) return nullptr;
    SweepRow row;
    FaultCampaignCell cell;
    const bool ok = c.tag == 'W'
                        ? decodeSweepRow(it->second, &row) && row.ok()
                        : decodeCampaignCell(it->second, &cell) && cell.ok();
    return ok ? &it->second : nullptr;
  }

  std::string statusJson() const {
    std::ostringstream out;
    support::JsonWriter w(out, 0);
    w.beginObject();
    w.key("service").beginObject();
    w.member("draining", draining);
    w.member("max_queue", static_cast<std::uint64_t>(options.max_queue));
    w.member("jobs", static_cast<std::uint64_t>(jobs));
    w.endObject();
    const CellScheduler::PoolCounts pool = scheduler->pool();
    w.key("workers").beginObject();
    w.member("count", static_cast<std::uint64_t>(pool.workers));
    w.member("idle", static_cast<std::uint64_t>(pool.idle));
    w.member("busy", static_cast<std::uint64_t>(pool.workers - pool.idle));
    w.member("spawned", static_cast<std::uint64_t>(pool.spawned));
    w.member("respawned", static_cast<std::uint64_t>(pool.respawned));
    w.endObject();
    const CellScheduler::Counts cells = scheduler->counts();
    w.key("queue").beginObject();
    w.member("queued", static_cast<std::uint64_t>(cells.queued));
    w.member("running", static_cast<std::uint64_t>(cells.running));
    w.endObject();
    w.key("counters").beginObject();
    w.member("requests_admitted", requests_admitted);
    w.member("requests_refused", requests_refused);
    w.member("cells_settled", cells_settled);
    w.member("clients_connected", clients_connected);
    w.member("clients_disconnected", clients_disconnected);
    w.endObject();
    std::uint64_t orphaned = 0;
    for (const auto& [id, c] : clients) {
      if (c.admitted && c.fd < 0 && !c.done_sent) ++orphaned;
    }
    w.key("journal").beginObject();
    w.member("enabled", journal.isOpen());
    w.member("records_replayed", journal_records_replayed);
    w.member("records_skipped", journal_records_skipped);
    w.member("requests_recovered", journal_requests_recovered);
    w.member("requests_attached", requests_attached);
    w.member("records_appended", journal_appends);
    w.member("append_failures", journal_append_failures);
    w.member("orphaned_serving", orphaned);
    w.member("torn_tail_dropped", journal_torn_tail);
    w.endObject();
    w.key("clients").beginArray();
    for (const auto& [id, c] : clients) {
      if (!c.admitted) continue;
      w.beginObject();
      w.member("id", id);
      w.member("kind", static_cast<std::uint64_t>(c.request.kind));
      w.member("total", c.total);
      w.member("done", c.done);
      const CellScheduler::Counts lane = scheduler->counts(id);
      w.member("queued", static_cast<std::uint64_t>(lane.queued));
      w.member("running", static_cast<std::uint64_t>(lane.running));
      w.member("dispatched", lane.dispatched);
      w.member("orphaned", c.fd < 0);
      w.member("recovered", c.recovered);
      w.endObject();
    }
    w.endArray();
    w.key("resource").beginObject();
    w.member("supervised_cells",
             static_cast<std::uint64_t>(resources.supervised_cells));
    w.member("attempts", resources.attempts);
    w.member("host_user_seconds", resources.host_user_seconds);
    w.member("host_sys_seconds", resources.host_sys_seconds);
    w.member("host_max_rss_kb", resources.host_max_rss_kb);
    w.endObject();
    w.endObject();
    return out.str();
  }

  /// Handles one decoded frame from a client. Returns false when the
  /// connection can no longer be trusted.
  bool handleFrame(Client& c, std::uint8_t kind, const std::string& payload) {
    switch (kind) {
      case kServiceFrameRequest: {
        if (c.admitted || c.close_after_flush) return false;
        ServiceRequest req;
        std::string token;
        if (!decodeServiceRequestWithToken(payload, &req, &token)) {
          refuse(c, kServiceFrameError,
                 encodeTextPayload("undecodable request payload"));
          return true;
        }
        if (!token.empty() && !draining) {
          auto tit = tokens.find(token);
          if (tit != tokens.end()) {
            auto rit = clients.find(tit->second);
            if (rit != clients.end() && rit->first != c.id) {
              attachClient(c, rit->second, req);
              return true;
            }
          }
        }
        admit(c, std::move(req), std::move(token));
        return true;
      }
      case kServiceFrameStatusRequest:
        queueFrame(c, kServiceFrameStatus, encodeTextPayload(statusJson()));
        c.close_after_flush = true;
        flushClient(c);
        return true;
      default:
        return false;  // clients only send requests
    }
  }

  void readClient(Client& c) {
    // Drain the socket first and only note the close; the buffered bytes
    // are parsed before the disconnect is honoured. A client that writes
    // a request and immediately closes (crash, `--client-chaos
    // disconnect@0`) delivers its frame and its EOF in the same pass —
    // disconnecting first would throw the request away unparsed, and a
    // tokened request must be admitted so the retry can attach to it.
    bool closed = false;
    for (;;) {
      const int n = wire::readSomeFd(c.fd, &c.inbuf, 1 << 20);
      if (n == -1) break;  // EAGAIN: drained the socket for now
      if (n == 0 || n == -2) {
        closed = true;
        break;
      }
    }
    while (c.fd >= 0) {
      std::size_t frame_bytes = 0;
      std::string error;
      const wire::FrameScan scan = wire::scanFrame(
          kServiceFrameFormat, c.inbuf, &frame_bytes, &error);
      if (scan == wire::FrameScan::kNeedMore) break;
      if (scan == wire::FrameScan::kCorrupt) {
        note("service: client " + std::to_string(c.id) +
             " sent corrupt bytes (" + error + "); disconnecting");
        disconnectClient(c);
        return;
      }
      std::string frame = c.inbuf.substr(0, frame_bytes);
      c.inbuf.erase(0, frame_bytes);
      std::uint8_t kind = 0;
      std::string payload;
      if (!wire::decodeFrame(kServiceFrameFormat, frame, nullptr, &kind,
                             &payload, &error)) {
        note("service: client " + std::to_string(c.id) +
             " sent an invalid frame (" + error + "); disconnecting");
        disconnectClient(c);
        return;
      }
      if (!handleFrame(c, kind, payload)) {
        disconnectClient(c);
        return;
      }
    }
    if (closed && c.fd >= 0) disconnectClient(c);
  }

  /// Converts a settled outcome into the client-facing result frame (and
  /// the journal's row record), using the same decode helpers as the
  /// batch paths — which is what keeps serve output field-identical to
  /// them. `record` is false when replaying an already-logged cell during
  /// journal recovery: no row re-append, no crash point.
  void settleCell(Client& c, std::uint64_t cell, const Supervisor::Outcome& oc,
                  bool record = true) {
    ++cells_settled;
    resources.add(oc.worker);
    ResultFramePayload p;
    p.cell = cell;
    p.total = c.total;
    p.tag = c.tag;
    p.worker = oc.worker;
    switch (c.request.kind) {
      case ServiceRequest::Kind::kSweep: {
        const auto& key = c.sweep_keys[static_cast<std::size_t>(cell)];
        p.inner = encodeSweepRow(
            sweepRowFromOutcome(key.first, key.second, oc));
        break;
      }
      case ServiceRequest::Kind::kCampaign: {
        const std::string& benchmark =
            c.campaign_names[static_cast<std::size_t>(cell / c.request.seeds)];
        p.inner = encodeCampaignCell(campaignCellFromOutcome(
            benchmark, support::deriveSeed(c.request.base_seed, cell), oc));
        break;
      }
      case ServiceRequest::Kind::kEcho:
        p.inner = oc.status == CellStatus::kOk
                      ? oc.payload
                      : "error:" + toString(oc.status);
        break;
    }
    if (record && c.request.kind != ServiceRequest::Kind::kEcho) {
      LogRecord row;
      row.id = c.request_id;
      std::tie(row.benchmark, row.config) = cellKey(c, cell);
      row.payload = p.inner;
      journalAppend(row);
      // The settle crash point fires with the cell's row synced but the
      // request still unsettled in the journal: recovery must re-admit
      // and replay this cell from its row, never re-run it.
      if (crashDue(support::ServiceCrashPoint::kAfterSettle)) crashNow();
    }
    const std::string result_payload = encodeResultPayload(p);
    if (!c.token.empty()) c.result_frames.push_back(result_payload);
    ++c.done;
    queueFrame(c, kServiceFrameResult, result_payload);
    queueFrame(c, kServiceFrameProgress,
               encodeProgressPayload(c.done, c.total));
    if (c.done == c.total) {
      queueFrame(c, kServiceFrameDone, encodeDonePayload(c.total));
      c.done_sent = true;
      // Deliberately NOT journal-settled here: the settle record is
      // written at *delivery* (the done frame fully flushed to a client),
      // so a crash in the completion-to-delivery window leaves the
      // request recoverable — the next incarnation replays every cell
      // from its row and a same-token resubmission still attaches
      // instead of re-running the grid as a fresh request.
    }
    flushClient(c);
  }

  void checkDeadlines() {
    const Clock::time_point now = Clock::now();
    for (auto& [id, c] : clients) {
      if (!c.admitted || c.done_sent || !c.has_deadline) continue;
      if (c.fd < 0 && !c.survivesDisconnect()) continue;
      if (now < c.deadline) continue;
      if (scheduler->counts(id).queued == 0) continue;
      note("service: client " + std::to_string(id) +
           " deadline expired; failing its queued cells");
      c.deadline_expired = true;
      scheduler->cancel(id, CellStatus::kTimeout, kDeadlineDiagnostic);
    }
  }

  void beginDrain() {
    draining = true;
    note("service: draining (stop requested)");
    if (listen_fd >= 0) {
      ::close(listen_fd);
      listen_fd = -1;
    }
    scheduler->drain();
    std::uint64_t orphans_preserved = 0;
    for (auto& [id, c] : clients) {
      if (c.fd < 0 || !c.admitted || c.done_sent) {
        if (c.fd >= 0 && !c.admitted) {
          refuse(c, kServiceFrameError,
                 encodeTextPayload("service is draining; resubmit later"));
        }
        // An orphaned journaled request is left unsettled on purpose: the
        // journal carries it to the next incarnation, which resumes it
        // from its rows instead of failing its cells here.
        if (c.fd < 0 && c.admitted && !c.done_sent && c.request_id != 0) {
          ++orphans_preserved;
        }
        continue;
      }
      scheduler->cancel(id, CellStatus::kInternalError, kDrainDiagnostic);
    }
    if (orphans_preserved > 0) {
      note("service: drain preserves " + std::to_string(orphans_preserved) +
           " orphaned journaled request(s) for the next start");
    }
    journal.sync();
  }

  int run() {
    if (!SweepService::supported()) {
      note("service: sockets/fork unsupported on this platform");
      return 1;
    }
    wire::ScopedIgnoreSigpipe sigpipe_guard;
    std::string error;
    listen_fd = wire::listenUnix(options.socket_path, 64, &error);
    if (listen_fd < 0) {
      note("service: cannot listen on " + options.socket_path + ": " + error);
      return 1;
    }
    wire::setNonBlocking(listen_fd, true);
    LogReplay replay;
    if (!options.journal_path.empty()) {
      replay = openDurableLog(options.journal_path, /*fresh=*/false, journal);
      if (!replay.error.empty()) {
        note("service: " + replay.error);
        ::close(listen_fd);
        ::unlink(options.socket_path.c_str());
        return 1;
      }
      journal_records_replayed = replay.records_replayed;
      journal_records_skipped = replay.records_skipped;
      journal_torn_tail = replay.torn_tail;
      next_request_id = replay.next_id;
      for (const std::string& w : replay.warnings) note("service: " + w);
    }
    SupervisorOptions sup = options.supervisor;
    sup.isolate = true;
    jobs = sup.jobs == 0 ? support::ThreadPool::defaultWorkerCount()
                         : sup.jobs;
    scheduler = std::make_unique<CellScheduler>(
        sup, serviceSpecProduce,
        [this](std::uint64_t client_id, std::uint64_t cell,
               std::uint32_t attempt) {
          const Client& c = clients.at(client_id);
          CellScheduler::Job job;
          job.spec =
              encodeWorkerSpec(c.request_bytes, cell, options.trace_cache_dir);
          if (options.allow_chaos) {
            job.chaos = c.request.chaos.actionFor(
                static_cast<std::size_t>(cell), attempt);
          }
          return job;
        },
        [this](std::uint64_t client_id, std::uint64_t cell,
               const Supervisor::Outcome& oc) {
          // A client that disconnected without a token drops its outcomes.
          const auto it = clients.find(client_id);
          if (it == clients.end()) return;
          Client& c = it->second;
          if (c.fd >= 0 || c.survivesDisconnect()) settleCell(c, cell, oc);
        },
        [this] {
          // Workers must never hold the service's sockets open: a forked
          // worker outliving the service would otherwise keep clients (and
          // the listening socket) half-alive. The journal fd is closed for
          // the same hygiene — only the parent settles cells.
          if (listen_fd >= 0) ::close(listen_fd);
          for (auto& [id, c] : clients) {
            if (c.fd >= 0) ::close(c.fd);
          }
          if (journal.fd() >= 0) ::close(journal.fd());
        });
    if (!scheduler->fill(jobs) && scheduler->pool().workers == 0) {
      note("service: could not fork any pooled worker");
      ::close(listen_fd);
      return 1;
    }
    // Crash recovery: re-admit every unsettled journaled request, oldest
    // first, before accepting new connections' traffic. Cells with an ok
    // row in the journal replay from it; the rest queue in the request's
    // scheduler lane.
    for (const LogRecord& rec : replay.unsettled) {
      recoverRequest(rec, replay.request_rows[rec.id]);
    }
    note("service: listening on " + options.socket_path + " (" +
         std::to_string(scheduler->pool().workers) + " workers)");

    for (;;) {
      if (!draining && options.stop && *options.stop) beginDrain();

      scheduler->service();
      checkDeadlines();
      scheduler->dispatch();

      if (draining) {
        const bool work_done = scheduler->counts().running == 0;
        bool flushed = true;
        for (auto& [id, c] : clients) {
          if (c.fd >= 0 && c.out_pos < c.outbuf.size()) flushed = false;
        }
        if (work_done && flushed) break;
        if (work_done && !drain_flush_armed) {
          drain_flush_armed = true;
          drain_flush_deadline = Clock::now() + std::chrono::seconds(10);
        }
        if (drain_flush_armed && Clock::now() >= drain_flush_deadline) {
          note("service: drain flush grace expired; closing slow clients");
          for (auto& [id, c] : clients) {
            if (c.fd >= 0) disconnectClient(c);
          }
          break;
        }
      }
      reapClients();

      // Poll set: listener, clients, busy workers' reply pipes.
      std::vector<pollfd> fds;
      std::vector<std::uint64_t> owner;  // client id per pollfd; 0 = other
      if (listen_fd >= 0) {
        fds.push_back(pollfd{listen_fd, POLLIN, 0});
        owner.push_back(0);
      }
      for (auto& [id, c] : clients) {
        if (c.fd < 0) continue;
        short events = POLLIN;
        if (c.out_pos < c.outbuf.size()) events |= POLLOUT;
        fds.push_back(pollfd{c.fd, events, 0});
        owner.push_back(id);
      }
      for (int fd : scheduler->busyReplyFds()) {
        fds.push_back(pollfd{fd, POLLIN, 0});
        owner.push_back(0);
      }

      std::vector<Clock::time_point> deadlines;
      for (auto& [id, c] : clients) {
        if (c.has_deadline && c.admitted && !c.done_sent) {
          deadlines.push_back(c.deadline);
        }
      }
      if (drain_flush_armed) deadlines.push_back(drain_flush_deadline);

      const int rc = ::poll(fds.empty() ? nullptr : fds.data(),
                            static_cast<nfds_t>(fds.size()),
                            scheduler->pollTimeoutMs(200, deadlines));
      if (rc < 0 && errno != EINTR && errno != EAGAIN) {
        note("service: poll failed: " + std::string(std::strerror(errno)));
        break;
      }
      if (rc <= 0) continue;

      for (std::size_t i = 0; i < fds.size(); ++i) {
        if (fds[i].revents == 0) continue;
        if (listen_fd >= 0 && fds[i].fd == listen_fd) {
          for (;;) {
            const int cfd = ::accept(listen_fd, nullptr, nullptr);
            if (cfd < 0) break;
            wire::setNonBlocking(cfd, true);
            Client c;
            c.fd = cfd;
            c.id = next_client_id++;
            ++clients_connected;
            clients.emplace(c.id, std::move(c));
          }
          continue;
        }
        if (owner[i] == 0) continue;  // worker pipe: the scheduler's
        auto cit = clients.find(owner[i]);
        if (cit == clients.end() || cit->second.fd != fds[i].fd) continue;
        Client& c = cit->second;
        if (fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) {
          // Half-closed peers may still have unread frames; try reading
          // first so a request + immediate shutdown(WR) still admits.
          if (fds[i].revents & POLLIN) readClient(c);
          if (c.fd >= 0 && c.outbuf.empty()) disconnectClient(c);
          if (c.fd >= 0) flushClient(c);
          continue;
        }
        if (fds[i].revents & POLLIN) readClient(c);
        if (c.fd >= 0 && (fds[i].revents & POLLOUT)) flushClient(c);
      }
    }

    for (auto& [id, c] : clients) {
      if (c.fd >= 0) disconnectClient(c);
    }
    scheduler.reset();  // reaps every worker
    journal.close();
    if (listen_fd >= 0) ::close(listen_fd);
    ::unlink(options.socket_path.c_str());
    note("service: drained cleanly");
    return 0;
  }
};

SweepService::SweepService(SweepServiceOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

SweepService::~SweepService() = default;

bool SweepService::supported() {
  return wire::socketsSupported() && Supervisor::isolationSupported();
}

int SweepService::run() { return impl_->run(); }

#else  // !SPT_SERVICE_POSIX

struct SweepService::Impl {
  explicit Impl(SweepServiceOptions opts) : options(std::move(opts)) {}
  SweepServiceOptions options;
};

SweepService::SweepService(SweepServiceOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

SweepService::~SweepService() = default;

bool SweepService::supported() { return false; }

int SweepService::run() {
  if (impl_->options.log) {
    impl_->options.log("service: sockets/fork unsupported on this platform");
  }
  return 1;
}

#endif  // SPT_SERVICE_POSIX

// ---- The client -----------------------------------------------------------

#if defined(SPT_SERVICE_POSIX)

namespace {

/// Reads frames from a connected service socket until `handle` says stop.
/// `handle` returns true to keep reading. Fills `transport_error` on EOF /
/// read error / corrupt stream / timeout.
bool readServiceFrames(
    int fd, double timeout_seconds, const support::ClientChaosPlan& chaos,
    std::string* transport_error,
    const std::function<bool(std::uint8_t, const std::string&)>& handle) {
  std::string inbuf;
  const Clock::time_point deadline =
      timeout_seconds > 0
          ? Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(timeout_seconds))
          : Clock::time_point::max();
  for (;;) {
    if (chaos.action == support::ClientChaosAction::kSlowReader) {
      std::this_thread::sleep_for(std::chrono::milliseconds(chaos.delay_ms));
    }
    int timeout_ms = -1;
    if (timeout_seconds > 0) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      if (left.count() <= 0) {
        *transport_error = "timed out waiting for the service";
        return false;
      }
      timeout_ms = static_cast<int>(
          std::min<long long>(left.count(), 1000ll * 3600));
    }
    pollfd pfd{fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      *transport_error = std::string("poll failed: ") + std::strerror(errno);
      return false;
    }
    if (rc == 0) continue;  // re-check the deadline
    const int n = wire::readSomeFd(fd, &inbuf, 1 << 20);
    if (n == 0) {
      *transport_error = "connection closed by the service";
      return false;
    }
    if (n == -2) {
      *transport_error = "read failed";
      return false;
    }
    if (n == -1) continue;
    for (;;) {
      std::size_t frame_bytes = 0;
      std::string error;
      const wire::FrameScan scan =
          wire::scanFrame(kServiceFrameFormat, inbuf, &frame_bytes, &error);
      if (scan == wire::FrameScan::kNeedMore) break;
      if (scan == wire::FrameScan::kCorrupt) {
        *transport_error = "corrupt frame from the service: " + error;
        return false;
      }
      std::string frame = inbuf.substr(0, frame_bytes);
      inbuf.erase(0, frame_bytes);
      std::uint8_t kind = 0;
      std::string payload;
      if (!wire::decodeFrame(kServiceFrameFormat, frame, nullptr, &kind,
                             &payload, &error)) {
        *transport_error = "invalid frame from the service: " + error;
        return false;
      }
      if (!handle(kind, payload)) return true;
    }
  }
}

}  // namespace

SubmitOutcome submitToService(const std::string& socket_path,
                              const ServiceRequest& request,
                              const SubmitOptions& options) {
  SubmitOutcome outcome;
  wire::ScopedIgnoreSigpipe sigpipe_guard;
  std::string error;
  const int fd = wire::connectUnix(socket_path, &error);
  if (fd < 0) {
    outcome.error = error;
    outcome.transport = true;
    return outcome;
  }
  const std::string frame = encodeServiceFrame(
      kServiceFrameRequest,
      encodeServiceRequestWithToken(request, options.token));
  if (!wire::writeAllFd(fd, frame.data(), frame.size())) {
    outcome.error = "failed to send the request";
    outcome.transport = true;
    ::close(fd);
    return outcome;
  }

  // Client-side sabotage (CI soak / resilience tests): a saboteur with
  // after_results == 0 acts immediately after sending the request.
  std::uint64_t results_seen = 0;
  auto chaosDue = [&] {
    return (options.chaos.action == support::ClientChaosAction::kDisconnect ||
            options.chaos.action == support::ClientChaosAction::kGarbage) &&
           results_seen >= options.chaos.after_results;
  };
  auto actChaos = [&] {
    if (options.chaos.action == support::ClientChaosAction::kGarbage) {
      const std::string junk(512, '\xa5');
      wire::writeAllFd(fd, junk.data(), junk.size());
    }
    ::close(fd);
    outcome.error = "client chaos: " + options.chaos.toSpec();
  };
  if (chaosDue()) {
    actChaos();
    return outcome;
  }

  std::vector<std::optional<SweepRow>> rows;
  std::vector<std::optional<FaultCampaignCell>> cells;
  std::vector<std::optional<std::string>> echoes;
  bool finished = false;
  bool protocol_error = false;
  std::string perror;
  bool chaos_fired = false;

  const bool read_ok = readServiceFrames(
      fd, options.timeout_seconds, options.chaos, &error,
      [&](std::uint8_t kind, const std::string& payload) -> bool {
        switch (kind) {
          case kServiceFrameProgress: {
            std::uint64_t done = 0, total = 0;
            if (decodeProgressPayload(payload, &done, &total) &&
                options.on_progress) {
              options.on_progress(done, total);
            }
            return true;
          }
          case kServiceFrameBusy: {
            outcome.busy = true;
            std::string reason;
            decodeBusyPayload(payload, &outcome.retry_after_seconds, &reason);
            outcome.error = reason;
            return false;
          }
          case kServiceFrameError: {
            std::string text;
            decodeTextPayload(payload, &text);
            outcome.error = text.empty() ? "service error" : text;
            return false;
          }
          case kServiceFrameResult: {
            ResultFramePayload p;
            if (!decodeResultPayload(payload, &p)) {
              protocol_error = true;
              perror = "undecodable result payload";
              return false;
            }
            const auto idx = static_cast<std::size_t>(p.cell);
            const auto total = static_cast<std::size_t>(p.total);
            if (idx >= total || total > (1u << 22)) {
              protocol_error = true;
              perror = "result cell index out of range";
              return false;
            }
            if (p.tag == 'W') {
              if (rows.size() < total) rows.resize(total);
              SweepRow row;
              if (!decodeSweepRow(p.inner, &row)) {
                protocol_error = true;
                perror = "undecodable sweep row";
                return false;
              }
              row.worker = p.worker;
              rows[idx] = std::move(row);
            } else if (p.tag == 'C') {
              if (cells.size() < total) cells.resize(total);
              FaultCampaignCell cell;
              if (!decodeCampaignCell(p.inner, &cell)) {
                protocol_error = true;
                perror = "undecodable campaign cell";
                return false;
              }
              cell.worker = p.worker;
              cells[idx] = std::move(cell);
            } else if (p.tag == 'E') {
              if (echoes.size() < total) echoes.resize(total);
              echoes[idx] = p.inner;
            } else {
              protocol_error = true;
              perror = "unknown result tag";
              return false;
            }
            ++results_seen;
            if (chaosDue()) {
              chaos_fired = true;
              return false;
            }
            return true;
          }
          case kServiceFrameDone: {
            std::uint64_t total = 0;
            if (!decodeDonePayload(payload, &total) ||
                total != results_seen) {
              protocol_error = true;
              perror = "done frame total does not match delivered results";
              return false;
            }
            finished = true;
            return false;
          }
          case kServiceFrameAttached: {
            // This connection adopted an existing request (same token);
            // its settled results replay as ordinary kResult frames next.
            outcome.attached = true;
            return true;
          }
          default:
            return true;  // progress/status noise is ignorable
        }
      });

  if (chaos_fired) {
    actChaos();
    return outcome;
  }
  ::close(fd);
  if (outcome.busy || !outcome.error.empty()) return outcome;
  if (protocol_error) {
    outcome.error = perror;
    return outcome;
  }
  if (!read_ok) {
    outcome.error = error;
    outcome.transport = true;
    return outcome;
  }
  if (!finished) {
    outcome.error = "service stream ended without a done frame";
    outcome.transport = true;
    return outcome;
  }
  for (const auto& r : rows) {
    if (!r) {
      outcome.error = "done frame arrived with missing sweep rows";
      return outcome;
    }
  }
  for (const auto& c : cells) {
    if (!c) {
      outcome.error = "done frame arrived with missing campaign cells";
      return outcome;
    }
  }
  for (const auto& e : echoes) {
    if (!e) {
      outcome.error = "done frame arrived with missing echo cells";
      return outcome;
    }
  }
  outcome.rows.reserve(rows.size());
  for (auto& r : rows) outcome.rows.push_back(std::move(*r));
  outcome.campaign.cells.reserve(cells.size());
  for (auto& c : cells) outcome.campaign.cells.push_back(std::move(*c));
  for (const FaultCampaignCell& c : outcome.campaign.cells) {
    if (c.ok()) outcome.campaign.totals.accumulate(c.faults);
  }
  outcome.echoes.reserve(echoes.size());
  for (auto& e : echoes) outcome.echoes.push_back(std::move(*e));
  outcome.ok = true;
  return outcome;
}

SubmitOutcome submitToServiceWithRetry(const std::string& socket_path,
                                       const ServiceRequest& request,
                                       const SubmitOptions& options) {
  SubmitOutcome outcome = submitToService(socket_path, request, options);
  if (options.retry_for_seconds <= 0) return outcome;
  const Clock::time_point give_up =
      Clock::now() +
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(options.retry_for_seconds));
  // The supervisor's deterministic seeded backoff, capped at 2 s per
  // attempt: a service restart window is seconds, not minutes, and a
  // tokened retry that reconnects attaches instead of re-running, so
  // probing often is cheap.
  std::uint32_t attempt = 1;
  for (;;) {
    if (outcome.ok) return outcome;
    if (options.stop && *options.stop) return outcome;
    double delay = 0.0;
    std::string why;
    if (outcome.busy) {
      // Honor the service's own backpressure hint.
      delay = outcome.retry_after_seconds > 0 ? outcome.retry_after_seconds
                                              : 0.25;
      why = "service busy";
    } else if (outcome.transport && !options.token.empty()) {
      delay = std::min(2.0,
                       backoffSeconds(SupervisorOptions{}, 0, attempt + 1));
      why = "transport failure (" + outcome.error + ")";
    } else {
      // Structured service errors (bad request, chaos refusal, token
      // conflict) never resolve by retrying; tokenless transport failures
      // cannot safely retry (a re-run could duplicate work).
      return outcome;
    }
    const Clock::time_point now = Clock::now();
    const Clock::time_point wake =
        now + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(delay));
    if (wake >= give_up) return outcome;
    if (options.log) {
      std::ostringstream msg;
      msg << "submit: " << why << "; retrying in " << delay << "s";
      options.log(msg.str());
    }
    while (Clock::now() < wake) {
      if (options.stop && *options.stop) return outcome;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    ++attempt;
    outcome = submitToService(socket_path, request, options);
  }
}

std::optional<std::string> queryServiceStatus(const std::string& socket_path,
                                              std::string* error) {
  std::string local_error;
  std::string* err = error ? error : &local_error;
  wire::ScopedIgnoreSigpipe sigpipe_guard;
  const int fd = wire::connectUnix(socket_path, err);
  if (fd < 0) return std::nullopt;
  const std::string frame =
      encodeServiceFrame(kServiceFrameStatusRequest, std::string());
  if (!wire::writeAllFd(fd, frame.data(), frame.size())) {
    *err = "failed to send the status request";
    ::close(fd);
    return std::nullopt;
  }
  std::optional<std::string> status;
  const bool read_ok = readServiceFrames(
      fd, 30.0, support::ClientChaosPlan{}, err,
      [&](std::uint8_t kind, const std::string& payload) -> bool {
        if (kind != kServiceFrameStatus) return true;
        std::string text;
        if (decodeTextPayload(payload, &text)) status = std::move(text);
        return false;
      });
  ::close(fd);
  if (!status && read_ok) *err = "service closed without a status frame";
  return status;
}

#else  // !SPT_SERVICE_POSIX

SubmitOutcome submitToService(const std::string&, const ServiceRequest&,
                              const SubmitOptions&) {
  SubmitOutcome outcome;
  outcome.error = "sockets are unsupported on this platform";
  return outcome;
}

SubmitOutcome submitToServiceWithRetry(const std::string& socket_path,
                                       const ServiceRequest& request,
                                       const SubmitOptions& options) {
  return submitToService(socket_path, request, options);
}

std::optional<std::string> queryServiceStatus(const std::string&,
                                              std::string* error) {
  if (error) *error = "sockets are unsupported on this platform";
  return std::nullopt;
}

#endif  // SPT_SERVICE_POSIX

}  // namespace spt::harness
