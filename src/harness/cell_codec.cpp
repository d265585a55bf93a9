#include "harness/cell_codec.h"

namespace spt::harness {
namespace {

constexpr std::uint8_t kSweepRowTag = 'S';
constexpr std::uint8_t kCampaignCellTag = 'F';
constexpr std::uint8_t kPerfRowTag = 'P';

void putMachine(ByteWriter& w, const sim::MachineResult& m) {
  w.u64(m.cycles);
  w.u64(m.instrs);
  w.u64(m.breakdown.execution);
  w.u64(m.breakdown.pipeline_stall);
  w.u64(m.breakdown.dcache_stall);
  w.u64(m.threads.spawned);
  w.u64(m.threads.forks_ignored);
  w.u64(m.threads.wrong_path);
  w.u64(m.threads.fast_commits);
  w.u64(m.threads.replays);
  w.u64(m.threads.squashes);
  w.u64(m.threads.killed);
  w.u64(m.threads.spec_instrs);
  w.u64(m.threads.misspec_instrs);
  w.u64(m.threads.committed_instrs);
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
         r.u64(&m.breakdown.dcache_stall) && r.u64(&m.threads.spawned) &&
         r.u64(&m.threads.forks_ignored) && r.u64(&m.threads.wrong_path) &&
         r.u64(&m.threads.fast_commits) && r.u64(&m.threads.replays) &&
         r.u64(&m.threads.squashes) && r.u64(&m.threads.killed) &&
         r.u64(&m.threads.spec_instrs) && r.u64(&m.threads.misspec_instrs) &&
         r.u64(&m.threads.committed_instrs) && r.u64(&m.faults.injected) &&
         r.u64(&m.faults.detected_by_net) &&
         r.u64(&m.faults.detected_by_oracle) && r.u64(&m.faults.benign) &&
         r.u64(&m.faults.escaped) && r.u64(&m.arch_digest) &&
         r.u64(&m.oracle_checks);
}

}  // namespace

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

std::string encodePerfRow(const PerfRow& row) {
  ByteWriter w;
  w.u8(kPerfRowTag);
  w.str(row.workload);
  w.u64(row.trace_records);
  w.u64(row.baseline_cycles);
  w.u64(row.spt_cycles);
  w.u64(row.baseline_sim_instrs);
  w.u64(row.spt_sim_instrs);
  w.u64(row.baseline_dispatch_fast);
  w.u64(row.baseline_dispatch_fallback);
  w.u64(row.spt_dispatch_fast);
  w.u64(row.spt_dispatch_fallback);
  w.u64(row.spt_fallback_fork);
  w.u64(row.spt_fallback_spec);
  w.u64(row.spt_fallback_replay);
  w.u64(row.spt_arena_frame_allocs);
  w.u64(row.spt_arena_frame_reuses);
  w.f64(row.spt_records_per_alloc);
  w.f64(row.host_baseline_seconds);
  w.f64(row.host_spt_seconds);
  w.f64(row.host_baseline_mips);
  w.f64(row.host_spt_mips);
  return w.take();
}

bool decodePerfRow(const std::string& payload, PerfRow* row) {
  ByteReader r(payload);
  PerfRow out;
  std::uint8_t tag = 0;
  if (!r.u8(&tag) || tag != kPerfRowTag) return false;
  if (!r.str(&out.workload) || !r.u64(&out.trace_records) ||
      !r.u64(&out.baseline_cycles) || !r.u64(&out.spt_cycles) ||
      !r.u64(&out.baseline_sim_instrs) || !r.u64(&out.spt_sim_instrs) ||
      !r.u64(&out.baseline_dispatch_fast) ||
      !r.u64(&out.baseline_dispatch_fallback) ||
      !r.u64(&out.spt_dispatch_fast) || !r.u64(&out.spt_dispatch_fallback) ||
      !r.u64(&out.spt_fallback_fork) || !r.u64(&out.spt_fallback_spec) ||
      !r.u64(&out.spt_fallback_replay) ||
      !r.u64(&out.spt_arena_frame_allocs) ||
      !r.u64(&out.spt_arena_frame_reuses) ||
      !r.f64(&out.spt_records_per_alloc) ||
      !r.f64(&out.host_baseline_seconds) || !r.f64(&out.host_spt_seconds) ||
      !r.f64(&out.host_baseline_mips) || !r.f64(&out.host_spt_mips)) {
    return false;
  }
  if (!r.ok() || !r.atEnd()) return false;
  *row = std::move(out);
  return true;
}

}  // namespace spt::harness
