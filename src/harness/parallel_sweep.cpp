#include "harness/parallel_sweep.h"

#include <fstream>

#include "harness/cell_codec.h"
#include "harness/durable_log.h"
#include "harness/grid.h"
#include "support/check.h"
#include "support/error.h"
#include "support/json.h"

namespace spt::harness {

std::vector<SweepRow> runSweep(const ParallelSweep& sweep,
                               const std::vector<SweepCase>& cases) {
  return runSweep(sweep, cases, SweepOptions{});
}

CheckpointLine sweepCheckpointLine(const SweepRow& r) {
  const sim::MachineResult& base = r.result.baseline;
  const sim::MachineResult& spt = r.result.spt;
  CheckpointLine line;
  line.metrics = {
      base.cycles,
      spt.cycles,
      base.instrs,
      spt.instrs,
      base.breakdown.execution,
      base.breakdown.pipeline_stall,
      base.breakdown.dcache_stall,
      spt.breakdown.execution,
      spt.breakdown.pipeline_stall,
      spt.breakdown.dcache_stall,
      spt.threads.spawned,
      spt.threads.fast_commits,
      spt.threads.replays,
      spt.threads.squashes,
      spt.threads.killed,
      spt.threads.spec_instrs,
      spt.threads.misspec_instrs,
      spt.threads.committed_instrs,
      spt.threads.forks_ignored,
      spt.threads.wrong_path,
  };
  return line;
}

std::vector<SweepCase> buildSuiteSweepCases(
    const support::MachineConfig& machine,
    const compiler::CompilerOptions& copts, std::uint64_t scale,
    const std::vector<std::string>& benchmarks,
    const std::vector<std::uint32_t>& spec_threads,
    std::optional<double> max_body) {
  std::vector<SweepCase> cases;
  for (auto& entry : suiteEntries(benchmarks)) {
    SweepCase c;
    c.benchmark = entry.workload.name;
    c.entry = std::move(entry);
    c.entry.copts = cellCompilerOptions(c.benchmark, copts, max_body);
    c.machine = machine;
    c.scale = scale;
    if (spec_threads.empty()) {
      cases.push_back(std::move(c));
      continue;
    }
    // Thread-count grid axis: one case per N, tagged "default" for N == 1
    // (so single-threaded grids stay byte-identical to the historical
    // sweep, checkpoints included) and "n<N>" otherwise. Both the machine
    // and the compiler see N — the simulator sizes its chain and the
    // precomputation-slice pass only arms itself at N >= 2.
    for (const std::uint32_t n : spec_threads) {
      SPT_CHECK_MSG(n >= 1 && n <= support::kMaxSpecThreads,
                    "spec_threads out of range");
      SweepCase g = c;
      g.config = n == 1 ? std::string("default")
                        : std::string("n").append(std::to_string(n));
      g.machine.spec_threads = n;
      g.entry.copts.spec_threads = n;
      cases.push_back(std::move(g));
    }
  }
  return cases;
}

SweepRow runSweepCell(const SweepCase& c, bool catch_all, TraceCache* cache) {
  SweepRow row;
  row.benchmark = c.benchmark;
  row.config = c.config;
  try {
    row.result = runSuiteEntry(c.entry, c.machine, c.scale,
                               /*remarks=*/nullptr, cache);
  } catch (const support::SptBudgetExceeded& e) {
    if (!catch_all) throw;
    row.status = CellStatus::kBudgetExceeded;
    row.diagnostic = e.what();
  } catch (const std::exception& e) {
    if (!catch_all) throw;
    row.status = CellStatus::kInternalError;
    row.diagnostic = e.what();
  }
  return row;
}

std::vector<SweepRow> runSweep(const ParallelSweep& sweep,
                               const std::vector<SweepCase>& cases,
                               const SweepOptions& opts,
                               std::string* checkpoint_error) {
  CheckpointLog log(opts.checkpoint_path, opts.resume);

  // Quarantine runs the whole sweep with SPT_CHECK in throwing mode so a
  // poisoned cell surfaces as SptInternalError on its own worker instead
  // of aborting the process. The flag is process-global, so it brackets
  // the sweep, not each cell; forked workers inherit it.
  std::optional<support::ScopedCheckThrowMode> throw_mode;
  if (opts.quarantine) throw_mode.emplace(true);

  // The cache lives for the whole sweep (under isolation: in the parent,
  // from which workers inherit the directory; each process maps the shared
  // files on demand, so the page cache holds one physical copy per
  // workload across the whole worker fleet).
  std::optional<TraceCache> cache;
  if (!opts.trace_cache_dir.empty()) cache.emplace(opts.trace_cache_dir);
  TraceCache* cache_ptr = cache ? &*cache : nullptr;

  // Supervision implies quarantine semantics: in a worker, a cell
  // exception becomes a non-ok row in the payload (letting it escape would
  // only downgrade a structured status into a generic worker error).
  const bool catch_all = opts.quarantine || opts.supervisor.isolate;
  Grid<SweepRow> grid;
  grid.cells = cases.size();
  grid.key = [&](std::size_t i) {
    return RowKey{cases[i].benchmark, cases[i].config};
  };
  grid.run = [&](std::size_t i) {
    return runSweepCell(cases[i], catch_all, cache_ptr);
  };
  grid.blank = [&](std::size_t i) {
    SweepRow row;
    row.benchmark = cases[i].benchmark;
    row.config = cases[i].config;
    return row;
  };
  std::vector<SweepRow> rows = runGrid(grid, sweep, opts.supervisor, log);
  if (checkpoint_error != nullptr) *checkpoint_error = log.failure();
  return rows;
}

bool writeSweepJson(const std::string& path,
                    const std::vector<SweepRow>& rows) {
  std::ofstream out(path);
  if (!out) return false;
  support::JsonWriter w(out);
  w.beginObject();
  w.key("rows").beginArray();
  for (const SweepRow& r : rows) {
    const sim::MachineResult& base = r.result.baseline;
    const sim::MachineResult& spt = r.result.spt;
    w.beginObject();
    w.member("benchmark", r.benchmark);
    w.member("config", r.config);
    w.member("status", toString(r.status));
    if (!r.diagnostic.empty()) w.member("diagnostic", r.diagnostic);
    w.member("baseline_cycles", base.cycles);
    w.member("spt_cycles", spt.cycles);
    w.member("baseline_instrs", base.instrs);
    w.member("spt_instrs", spt.instrs);
    w.member("speedup", r.result.programSpeedup());
    w.key("baseline_breakdown").beginObject();
    w.member("execution", base.breakdown.execution);
    w.member("pipeline_stall", base.breakdown.pipeline_stall);
    w.member("dcache_stall", base.breakdown.dcache_stall);
    w.endObject();
    w.key("spt_breakdown").beginObject();
    w.member("execution", spt.breakdown.execution);
    w.member("pipeline_stall", spt.breakdown.pipeline_stall);
    w.member("dcache_stall", spt.breakdown.dcache_stall);
    w.endObject();
    w.key("threads").beginObject();
    w.member("spawned", spt.threads.spawned);
    w.member("fast_commits", spt.threads.fast_commits);
    w.member("replays", spt.threads.replays);
    w.member("squashes", spt.threads.squashes);
    w.member("killed", spt.threads.killed);
    w.member("spec_instrs", spt.threads.spec_instrs);
    w.member("misspec_instrs", spt.threads.misspec_instrs);
    w.member("committed_instrs", spt.threads.committed_instrs);
    w.member("fast_commit_ratio", spt.threads.fastCommitRatio());
    w.member("misspeculation_ratio", spt.threads.misspeculationRatio());
    w.endObject();
    if (spt.faults.injected != 0) {
      w.key("faults").beginObject();
      w.member("injected", spt.faults.injected);
      w.member("detected_by_net", spt.faults.detected_by_net);
      w.member("detected_by_oracle", spt.faults.detected_by_oracle);
      w.member("benign", spt.faults.benign);
      w.member("escaped", spt.faults.escaped);
      w.endObject();
    }
    if (!r.extra.empty()) {
      w.key("extra").beginObject();
      for (const auto& [k, v] : r.extra) w.member(k, v);
      w.endObject();
    }
    // Supervisor containment data, only for cells that went through a
    // worker — the in-process path's output carries none.
    writeWorkerJson(w, r.worker);
    w.endObject();
  }
  w.endArray();
  // Sweep-level rusage aggregate; present only when at least one cell ran
  // under the supervisor. Cell/attempt counts are deterministic across
  // worker models; the host_ members are filtered from CI diffs.
  writeGridResourceJson(w, rows);
  w.endObject();
  out << "\n";
  return static_cast<bool>(out);
}

}  // namespace spt::harness
