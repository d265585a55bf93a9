#include "harness/cell_codec.h"

#include "support/wire.h"

namespace spt::harness {
namespace {

constexpr std::uint8_t kSweepRowTag = 'S';
constexpr std::uint8_t kCampaignCellTag = 'F';

constexpr std::uint32_t kResultVersion = 2;
constexpr support::wire::FrameFormat kResultFormat{
    {'S', 'P', 'T', 'R'}, kResultVersion, kResultVersion, 0, 0};

constexpr std::uint32_t kForkTableVersion = 1;
constexpr support::wire::FrameFormat kForkTableFormat{
    {'S', 'P', 'T', 'F'}, kForkTableVersion, kForkTableVersion, 0, 0};

void putThreads(ByteWriter& w, const sim::ThreadStats& t) {
  w.u64(t.spawned);
  w.u64(t.forks_ignored);
  w.u64(t.wrong_path);
  w.u64(t.fast_commits);
  w.u64(t.replays);
  w.u64(t.squashes);
  w.u64(t.killed);
  w.u64(t.spec_instrs);
  w.u64(t.misspec_instrs);
  w.u64(t.committed_instrs);
}

bool getThreads(ByteReader& r, sim::ThreadStats& t) {
  return r.u64(&t.spawned) && r.u64(&t.forks_ignored) &&
         r.u64(&t.wrong_path) && r.u64(&t.fast_commits) &&
         r.u64(&t.replays) && r.u64(&t.squashes) && r.u64(&t.killed) &&
         r.u64(&t.spec_instrs) && r.u64(&t.misspec_instrs) &&
         r.u64(&t.committed_instrs);
}

/// The fields a row carries: everything but the per-loop maps, the cache
/// stats, the mispredict ratio and the host-side telemetry.
void putMachine(ByteWriter& w, const sim::MachineResult& m) {
  w.u64(m.cycles);
  w.u64(m.instrs);
  w.u64(m.breakdown.execution);
  w.u64(m.breakdown.pipeline_stall);
  w.u64(m.breakdown.dcache_stall);
  putThreads(w, m.threads);
  w.u64(m.faults.injected);
  w.u64(m.faults.detected_by_net);
  w.u64(m.faults.detected_by_oracle);
  w.u64(m.faults.benign);
  w.u64(m.faults.escaped);
  w.u64(m.arch_digest);
  w.u64(m.oracle_checks);
}

bool getMachine(ByteReader& r, sim::MachineResult& m) {
  return r.u64(&m.cycles) && r.u64(&m.instrs) &&
         r.u64(&m.breakdown.execution) &&
         r.u64(&m.breakdown.pipeline_stall) &&
         r.u64(&m.breakdown.dcache_stall) && getThreads(r, m.threads) &&
         r.u64(&m.faults.injected) && r.u64(&m.faults.detected_by_net) &&
         r.u64(&m.faults.detected_by_oracle) && r.u64(&m.faults.benign) &&
         r.u64(&m.faults.escaped) && r.u64(&m.arch_digest) &&
         r.u64(&m.oracle_checks);
}

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

}  // namespace

void encodeMachineConfig(ByteWriter& w, const support::MachineConfig& m) {
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

bool decodeMachineConfig(ByteReader& r, support::MachineConfig* m) {
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

std::string encodeMachineResult(const sim::MachineResult& m,
                                const interp::RunResult& run) {
  ByteWriter w;
  w.u64(static_cast<std::uint64_t>(run.return_value));
  w.u64(run.memory_hash);
  w.u64(run.dynamic_instrs);
  putMachine(w, m);
  w.u32(static_cast<std::uint32_t>(m.loops.size()));
  for (const auto& [name, s] : m.loops) {
    w.str(name);
    w.u64(s.cycles);
    w.u64(s.episodes);
    w.u64(s.iterations);
  }
  w.u32(static_cast<std::uint32_t>(m.loop_threads.size()));
  for (const auto& [name, t] : m.loop_threads) {
    w.str(name);
    putThreads(w, t);
  }
  for (const sim::CacheStats* c : {&m.l1d, &m.l2, &m.l3}) {
    w.u64(c->hits);
    w.u64(c->misses);
  }
  w.f64(m.branch_mispredict_ratio);
  const sim::HotPathStats& h = m.hotpath;
  for (const std::uint64_t v :
       {h.dispatch_fast, h.dispatch_fallback, h.fallback_fork,
        h.fallback_spec, h.fallback_replay, h.arena_frame_allocs,
        h.arena_frame_reuses, h.fork_site_hits, h.fork_site_misses}) {
    w.u64(v);
  }
  return support::wire::encodeFrame(kResultFormat.magic, kResultVersion, 0,
                                    w.take());
}

std::string encodeForkTable(const trace::ForkTable& forks,
                            const trace::TraceFileSummary& trace) {
  ByteWriter w;
  w.u64(trace.records);
  w.u64(trace.checksum);
  w.u64(forks.records.size());
  for (std::size_t f = 0; f < forks.records.size(); ++f) {
    w.u64(forks.records[f]);
    w.u64(forks.starts[f]);
  }
  return support::wire::encodeFrame(kForkTableFormat.magic,
                                    kForkTableVersion, 0, w.take());
}

std::optional<trace::ForkTable> decodeForkTable(
    const std::string& bytes, trace::TraceView records,
    const trace::TraceFileSummary& trace) {
  std::uint32_t version = 0;
  std::uint8_t kind = 0;
  std::string payload;
  if (!support::wire::decodeFrame(kForkTableFormat, bytes, &version, &kind,
                                  &payload, nullptr)) {
    return std::nullopt;
  }
  ByteReader r(payload);
  std::uint64_t bound_records = 0;
  std::uint64_t bound_checksum = 0;
  std::uint64_t n = 0;
  if (!(r.u64(&bound_records) && r.u64(&bound_checksum) && r.u64(&n)) ||
      bound_records != trace.records || bound_records != records.size() ||
      bound_checksum != trace.checksum ||
      n > (payload.size() - 24) / 16) {
    return std::nullopt;
  }
  trace::ForkTable forks;
  forks.records.resize(n);
  forks.starts.resize(n);
  for (std::size_t f = 0; f < n; ++f) {
    std::uint64_t fork = 0;
    std::uint64_t start = 0;
    if (!(r.u64(&fork) && r.u64(&start)) || fork >= records.size() ||
        (f > 0 && fork <= forks.records[f - 1]) ||
        (start != trace::ForkTable::kNoStart &&
         (start <= fork || start >= records.size())) ||
        records[fork].kind != trace::RecordKind::kInstr ||
        records[fork].op != ir::Opcode::kSptFork) {
      return std::nullopt;
    }
    forks.records[f] = fork;
    forks.starts[f] = start;
  }
  if (!r.atEnd()) return std::nullopt;
  return forks;
}

std::optional<sim::MachineResult> decodeMachineResult(
    const std::string& bytes, interp::RunResult* run) {
  std::uint32_t version = 0;
  std::uint8_t kind = 0;
  std::string payload;
  if (!support::wire::decodeFrame(kResultFormat, bytes, &version, &kind,
                                  &payload, nullptr)) {
    return std::nullopt;
  }
  ByteReader r(payload);
  std::uint64_t return_value = 0;
  interp::RunResult ran;
  sim::MachineResult m;
  if (!(r.u64(&return_value) && r.u64(&ran.memory_hash) &&
        r.u64(&ran.dynamic_instrs) && getMachine(r, m))) {
    return std::nullopt;
  }
  ran.return_value = static_cast<std::int64_t>(return_value);
  std::uint32_t n = 0;
  if (!r.u32(&n)) return std::nullopt;
  for (; n > 0; --n) {
    std::string name;
    sim::LoopCycleStats s;
    if (!(r.str(&name) && r.u64(&s.cycles) && r.u64(&s.episodes) &&
          r.u64(&s.iterations))) {
      return std::nullopt;
    }
    m.loops[std::move(name)] = s;
  }
  if (!r.u32(&n)) return std::nullopt;
  for (; n > 0; --n) {
    std::string name;
    sim::ThreadStats t;
    if (!(r.str(&name) && getThreads(r, t))) return std::nullopt;
    m.loop_threads[std::move(name)] = t;
  }
  sim::HotPathStats& h = m.hotpath;
  if (!(r.u64(&m.l1d.hits) && r.u64(&m.l1d.misses) && r.u64(&m.l2.hits) &&
        r.u64(&m.l2.misses) && r.u64(&m.l3.hits) && r.u64(&m.l3.misses) &&
        r.f64(&m.branch_mispredict_ratio) && r.u64(&h.dispatch_fast) &&
        r.u64(&h.dispatch_fallback) && r.u64(&h.fallback_fork) &&
        r.u64(&h.fallback_spec) && r.u64(&h.fallback_replay) &&
        r.u64(&h.arena_frame_allocs) && r.u64(&h.arena_frame_reuses) &&
        r.u64(&h.fork_site_hits) && r.u64(&h.fork_site_misses)) ||
      !r.atEnd()) {
    return std::nullopt;
  }
  if (run != nullptr) *run = ran;
  return m;
}

std::string encodeRow(const SweepRow& row) {
  ByteWriter w;
  w.u8(kSweepRowTag);
  w.str(row.benchmark);
  w.str(row.config);
  w.u8(static_cast<std::uint8_t>(row.status));
  w.str(row.diagnostic);
  putMachine(w, row.result.baseline);
  putMachine(w, row.result.spt);
  w.u32(static_cast<std::uint32_t>(row.extra.size()));
  for (const auto& [k, v] : row.extra) {
    w.str(k);
    w.f64(v);
  }
  return w.take();
}

bool decodeRow(const std::string& payload, SweepRow* row) {
  ByteReader r(payload);
  SweepRow out;
  std::uint8_t tag = 0;
  std::uint8_t status = 0;
  if (!r.u8(&tag) || tag != kSweepRowTag) return false;
  if (!r.str(&out.benchmark) || !r.str(&out.config) || !r.u8(&status) ||
      !r.str(&out.diagnostic)) {
    return false;
  }
  if (status > static_cast<std::uint8_t>(CellStatus::kProtocolError)) {
    return false;
  }
  out.status = static_cast<CellStatus>(status);
  if (!getMachine(r, out.result.baseline) || !getMachine(r, out.result.spt)) {
    return false;
  }
  std::uint32_t n_extra = 0;
  if (!r.u32(&n_extra)) return false;
  for (std::uint32_t i = 0; i < n_extra; ++i) {
    std::string k;
    double v = 0.0;
    if (!r.str(&k) || !r.f64(&v)) return false;
    out.extra[k] = v;
  }
  if (!r.ok() || !r.atEnd()) return false;
  *row = std::move(out);
  return true;
}

std::string encodeRow(const FaultCampaignCell& cell) {
  ByteWriter w;
  w.u8(kCampaignCellTag);
  w.str(cell.benchmark);
  w.u64(cell.fault_seed);
  w.u8(static_cast<std::uint8_t>(cell.status));
  w.str(cell.diagnostic);
  w.u64(cell.faults.injected);
  w.u64(cell.faults.detected_by_net);
  w.u64(cell.faults.detected_by_oracle);
  w.u64(cell.faults.benign);
  w.u64(cell.faults.escaped);
  w.u64(cell.arch_digest);
  w.u64(cell.sequential_digest);
  w.u64(cell.oracle_checks);
  w.boolean(cell.digest_match);
  w.boolean(cell.diverged);
  w.u64(cell.divergence_pos);
  w.str(cell.divergence_boundary);
  w.str(cell.divergence_diff);
  return w.take();
}

bool decodeRow(const std::string& payload, FaultCampaignCell* cell) {
  ByteReader r(payload);
  FaultCampaignCell out;
  std::uint8_t tag = 0;
  std::uint8_t status = 0;
  if (!r.u8(&tag) || tag != kCampaignCellTag) return false;
  if (!r.str(&out.benchmark) || !r.u64(&out.fault_seed) || !r.u8(&status) ||
      !r.str(&out.diagnostic)) {
    return false;
  }
  if (status > static_cast<std::uint8_t>(CellStatus::kProtocolError)) {
    return false;
  }
  out.status = static_cast<CellStatus>(status);
  if (!r.u64(&out.faults.injected) || !r.u64(&out.faults.detected_by_net) ||
      !r.u64(&out.faults.detected_by_oracle) || !r.u64(&out.faults.benign) ||
      !r.u64(&out.faults.escaped) || !r.u64(&out.arch_digest) ||
      !r.u64(&out.sequential_digest) || !r.u64(&out.oracle_checks) ||
      !r.boolean(&out.digest_match) || !r.boolean(&out.diverged) ||
      !r.u64(&out.divergence_pos) || !r.str(&out.divergence_boundary) ||
      !r.str(&out.divergence_diff)) {
    return false;
  }
  if (!r.ok() || !r.atEnd()) return false;
  *cell = std::move(out);
  return true;
}

}  // namespace spt::harness
