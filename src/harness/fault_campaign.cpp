#include "harness/fault_campaign.h"

#include <fstream>
#include <memory>
#include <utility>

#include "harness/cell_codec.h"
#include "harness/durable_log.h"
#include "harness/grid.h"
#include "harness/suite.h"
#include "sim/oracle.h"
#include "sim/spt_machine.h"
#include "support/error.h"
#include "support/json.h"
#include "support/rng.h"

namespace spt::harness {
namespace {

/// A workload compiled and traced once, shared (immutably) by every fault
/// seed's cell. The module lives behind a unique_ptr because LoopIndex
/// keeps a reference to it and Prepared objects are moved into place.
/// Under isolation, forked workers inherit these via copy-on-write, so a
/// 10x64 supervised campaign still costs ten compilations.
struct Prepared {
  std::string name;
  std::unique_ptr<ir::Module> module;
  trace::TraceBuffer trace;
  std::unique_ptr<trace::LoopIndex> index;
  std::uint64_t sequential_digest = 0;
};

/// Compiles and traces `entry`'s workload once for the campaign. The
/// compiler follows the machine's chain depth so chained campaigns
/// exercise slice-equipped forks too. Compilation and tracing are
/// deterministic, so every caller gets the same traces.
Prepared prepareWorkload(const SuiteEntry& entry,
                         const FaultCampaignOptions& opts) {
  Prepared p;
  p.name = entry.workload.name;
  p.module = std::make_unique<ir::Module>(entry.workload.build(opts.scale));
  compiler::CompilerOptions copts = entry.copts;
  copts.spec_threads = opts.machine.spec_threads;
  compiler::SptCompiler cc(copts);
  InterpProfileRunner runner;
  cc.compile(*p.module, runner);
  p.trace = traceProgram(*p.module, {}, opts.machine.max_trace_records).trace;
  p.index = std::make_unique<trace::LoopIndex>(*p.module, p.trace);
  p.sequential_digest = sim::Oracle::sequentialDigest(*p.module, p.trace);
  return p;
}

}  // namespace

std::string campaignCellConfigKey(std::size_t cell_index,
                                  std::uint64_t fault_seed) {
  return "cell:" + std::to_string(cell_index) +
         "/seed:" + std::to_string(fault_seed);
}

namespace {

/// Cell c's identity and its phase-1 ground truth, which the cell reports
/// whatever happens to its machine run — in a worker or, when the worker
/// fails, in the parent's settle.
FaultCampaignCell blankCell(const Prepared& p, std::size_t c,
                            const FaultCampaignOptions& opts) {
  FaultCampaignCell cell;
  cell.benchmark = p.name;
  cell.fault_seed = support::deriveSeed(opts.base_seed, c);
  cell.sequential_digest = p.sequential_digest;
  return cell;
}

/// Runs one (workload, seed) cell, catching every cell-level failure into
/// the cell's status — an oracle divergence, budget blowout, or internal
/// error is reported, not fatal, on both execution paths.
FaultCampaignCell runCampaignCell(const Prepared& p, std::size_t c,
                                  const FaultCampaignOptions& opts) {
  FaultCampaignCell cell = blankCell(p, c, opts);

  support::MachineConfig mc = opts.machine;
  // The campaign's claims need the digest even if the caller asked for
  // no oracle; deep mode is honored as requested.
  mc.oracle = opts.oracle == support::OracleMode::kOff
                  ? support::OracleMode::kDigest
                  : opts.oracle;
  mc.fault_plan.enabled = true;
  mc.fault_plan.seed = cell.fault_seed;
  mc.fault_plan.period = opts.period;

  try {
    sim::SptMachine machine(*p.module, p.trace, *p.index, mc);
    const sim::MachineResult r = machine.run();
    cell.faults = r.faults;
    cell.arch_digest = r.arch_digest;
    cell.oracle_checks = r.oracle_checks;
    cell.digest_match = r.arch_digest == p.sequential_digest;
  } catch (const support::SptOracleDivergence& e) {
    cell.status = CellStatus::kInternalError;
    cell.diagnostic = e.what();
    cell.diverged = true;
    cell.divergence_pos = e.tracePos();
    cell.divergence_boundary = e.boundary();
    cell.divergence_diff = e.diff();
  } catch (const support::SptBudgetExceeded& e) {
    cell.status = CellStatus::kBudgetExceeded;
    cell.diagnostic = e.what();
  } catch (const std::exception& e) {
    cell.status = CellStatus::kInternalError;
    cell.diagnostic = e.what();
  }
  return cell;
}

}  // namespace

FaultCampaignResult runFaultCampaign(const FaultCampaignOptions& opts,
                                     std::string* checkpoint_error) {
  CheckpointLog log(opts.checkpoint_path, opts.resume);
  const std::vector<SuiteEntry> suite = defaultSuite();
  const ParallelSweep sweep(opts.jobs);

  // Phase 1: compile + trace each workload once, in parallel. The pool is
  // torn down before phase 2, so supervised forks never race pool threads.
  std::vector<Prepared> prepared = sweep.run(
      suite.size(),
      [&](std::size_t i) { return prepareWorkload(suite[i], opts); });

  // Phase 2: the workloads × seeds grid over the shared traces. Cell c's
  // fault seed depends only on c, so the grid is bit-reproducible at any
  // worker count (and across the isolated / in-process paths). Isolated
  // workers are forked after phase 1 and share its traces copy-on-write.
  const auto workload = [&](std::size_t c) -> const Prepared& {
    return prepared[c / opts.seeds];
  };
  Grid<FaultCampaignCell> grid;
  grid.cells = prepared.size() * opts.seeds;
  grid.key = [&](std::size_t c) {
    return RowKey{workload(c).name,
                  campaignCellConfigKey(
                      c, support::deriveSeed(opts.base_seed, c))};
  };
  grid.run = [&](std::size_t c) {
    return runCampaignCell(workload(c), c, opts);
  };
  // A cell whose worker failed still reports the ground truth from phase
  // 1, as the in-process path does.
  grid.blank = [&](std::size_t c) { return blankCell(workload(c), c, opts); };
  FaultCampaignResult result;
  result.cells = runGrid(grid, sweep, opts.supervisor, log);
  if (checkpoint_error != nullptr) *checkpoint_error = log.failure();

  // Totals aggregate ok cells; a failed cell contributes its status (and
  // fails allCellsOk / allDigestsMatch), not half-counted fault numbers.
  for (const FaultCampaignCell& c : result.cells) {
    if (c.ok()) result.totals.accumulate(c.faults);
  }
  return result;
}

FaultCampaignCell runFaultCampaignCellStandalone(
    const std::string& benchmark, std::size_t cell_index,
    const FaultCampaignOptions& opts) {
  FaultCampaignCell cell;
  cell.benchmark = benchmark;
  cell.fault_seed = support::deriveSeed(opts.base_seed, cell_index);
  try {
    for (const SuiteEntry& entry : defaultSuite()) {
      if (entry.workload.name != benchmark) continue;
      // The cell's JSON-visible fields equal the batch campaign's.
      const Prepared p = prepareWorkload(entry, opts);
      return runCampaignCell(p, cell_index, opts);
    }
    cell.status = CellStatus::kInternalError;
    cell.diagnostic = "unknown workload '" + benchmark + "'";
  } catch (const support::SptBudgetExceeded& e) {
    cell.status = CellStatus::kBudgetExceeded;
    cell.diagnostic = e.what();
  } catch (const std::exception& e) {
    cell.status = CellStatus::kInternalError;
    cell.diagnostic = e.what();
  }
  return cell;
}

bool writeFaultCampaignJson(const std::string& path,
                            const FaultCampaignResult& result) {
  std::ofstream out(path);
  if (!out) return false;
  support::JsonWriter w(out);
  w.beginObject();
  w.key("totals").beginObject();
  w.member("injected", result.totals.injected);
  w.member("detected_by_net", result.totals.detected_by_net);
  w.member("detected_by_oracle", result.totals.detected_by_oracle);
  w.member("benign", result.totals.benign);
  w.member("escaped", result.totals.escaped);
  w.endObject();
  w.member("all_detected_or_benign", result.allDetectedOrBenign());
  w.member("all_digests_match", result.allDigestsMatch());
  w.member("all_cells_ok", result.allCellsOk());
  w.key("cells").beginArray();
  for (const FaultCampaignCell& c : result.cells) {
    w.beginObject();
    w.member("benchmark", c.benchmark);
    w.member("fault_seed", c.fault_seed);
    w.member("status", toString(c.status));
    if (!c.diagnostic.empty()) w.member("diagnostic", c.diagnostic);
    w.member("injected", c.faults.injected);
    w.member("detected_by_net", c.faults.detected_by_net);
    w.member("detected_by_oracle", c.faults.detected_by_oracle);
    w.member("benign", c.faults.benign);
    w.member("escaped", c.faults.escaped);
    w.member("oracle_checks", c.oracle_checks);
    w.member("arch_digest", c.arch_digest);
    w.member("digest_match", c.digest_match);
    // First-divergence report from the deep oracle, for failed cells.
    if (c.diverged) {
      w.key("divergence").beginObject();
      w.member("pos", c.divergence_pos);
      w.member("boundary", c.divergence_boundary);
      w.member("diff", c.divergence_diff);
      w.endObject();
    }
    writeWorkerJson(w, c.worker);
    w.endObject();
  }
  w.endArray();
  // Campaign-level rusage aggregate, as in writeSweepJson.
  writeGridResourceJson(w, result.cells);
  w.endObject();
  out << "\n";
  return static_cast<bool>(out);
}

}  // namespace spt::harness
