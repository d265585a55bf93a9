// Fault-injection campaign driver (the robustness evaluation).
//
// Sweeps the ten-workload suite under seeded fault injection with the
// architectural oracle armed, and aggregates the classification of every
// injected fault. The campaign's claims, asserted by tests and CI:
//
//  * every injected fault is detected (by the dependence-checking net or
//    by the commit-time validation walk) or provably benign — the
//    `escaped` counter stays zero;
//  * whatever was injected, the SPT machine's committed architectural
//    state equals the sequential replay of the same trace (the oracle
//    stream digest matches sim::Oracle::sequentialDigest);
//  * the whole campaign is bit-reproducible for a fixed base seed at any
//    --jobs value: cell c's fault seed is support::deriveSeed(base, c), a
//    pure function of the cell index.
//
// Each workload is compiled and traced once (phase 1, parallel); the
// workloads × seeds grid then shares those immutable traces (phase 2), so
// a 10×64 campaign costs ten compilations, not 640. Phase 2 is a
// harness::Grid of FaultCampaignCells on the sweep's grid driver
// (harness/grid.h): resume, isolation, settle and logging are the sweep's.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/parallel_sweep.h"
#include "sim/result.h"
#include "support/machine_config.h"

namespace spt::harness {

struct FaultCampaignOptions {
  std::uint64_t seeds = 8;       // fault seeds per workload
  std::uint64_t base_seed = 0x5eed;
  std::size_t jobs = 0;          // 0 = ThreadPool default
  std::uint64_t scale = 1;
  /// Workload-name filter (suiteEntries); empty = the whole suite.
  std::vector<std::string> benchmarks;
  std::uint32_t period = 32;     // injector firing period (1/period per site)
  support::OracleMode oracle = support::OracleMode::kDigest;
  support::MachineConfig machine;
  /// Checkpoint/resume through the sweep's durable log
  /// (harness/durable_log.h): every finished cell is appended as a row
  /// record and fsync'd; on resume the last ok row per cell is reused and
  /// failed or missing cells re-run. A cell's key is its workload name
  /// plus "cell:<index>/seed:<fault_seed>", so a resumed log silently
  /// ignores rows from a different grid shape or base seed. Log failures
  /// are handled as in runSweep.
  std::string checkpoint_path;
  bool resume = false;
  /// Process isolation (supervisor.h): with supervisor.isolate set, phase
  /// 2 cells run in pooled workers forked after phase 1 (sharing its
  /// traces via copy-on-write); crashes/hangs/corrupt replies become
  /// non-ok cells.
  SupervisorOptions supervisor;
};

/// One (workload, fault seed) cell. `status` is kOk when the cell's
/// machine run completed; a cell that threw (oracle divergence, budget,
/// internal error) or whose worker process failed under isolation is
/// reported with the corresponding status and diagnostic while the rest
/// of the campaign continues.
struct FaultCampaignCell {
  std::string benchmark;
  std::uint64_t fault_seed = 0;
  CellStatus status = CellStatus::kOk;
  std::string diagnostic;
  sim::FaultStats faults;
  std::uint64_t arch_digest = 0;        // machine's oracle stream digest
  std::uint64_t sequential_digest = 0;  // ground truth for the same trace
  std::uint64_t oracle_checks = 0;
  bool digest_match = false;
  /// First-divergence report from the architectural oracle
  /// (support::SptOracleDivergence): the trace position of the failed
  /// boundary check plus the register/memory diff of the first mismatched
  /// entries. Only meaningful when `diverged` is true.
  bool diverged = false;
  std::uint64_t divergence_pos = 0;
  std::string divergence_boundary;
  std::string divergence_diff;
  /// Supervisor containment data; attempts == 0 on the in-process path.
  WorkerDiagnostics worker;

  bool ok() const { return status == CellStatus::kOk; }
};

struct FaultCampaignResult {
  std::vector<FaultCampaignCell> cells;  // workload-major, seed-minor
  sim::FaultStats totals;               // ok cells only

  bool allDetectedOrBenign() const {
    return totals.escaped == 0 &&
           totals.detectedOrBenign() == totals.injected;
  }
  bool allDigestsMatch() const {
    for (const FaultCampaignCell& c : cells) {
      if (!c.digest_match) return false;
    }
    return true;
  }
  bool allCellsOk() const {
    for (const FaultCampaignCell& c : cells) {
      if (!c.ok()) return false;
    }
    return true;
  }
};

/// Runs the campaign over harness::suiteEntries(opts.benchmarks).
/// `checkpoint_error` is as in runSweep.
FaultCampaignResult runFaultCampaign(const FaultCampaignOptions& opts = {},
                                     std::string* checkpoint_error = nullptr);

/// The campaign cell's checkpoint config key,
/// "cell:<index>/seed:<fault_seed>".
std::string campaignCellConfigKey(std::size_t cell_index,
                                  std::uint64_t fault_seed);

/// Worker-side body of one campaign cell that owns its whole pipeline:
/// compiles and traces `benchmark` (a defaultSuite() workload name) in the
/// calling process, then runs the seeded fault cell exactly as
/// runFaultCampaign's phase 2 would. The sweep service's pooled workers
/// use this — they are forked before any request exists, so they cannot
/// share a parent's prepared traces; re-deriving them is deterministic,
/// and every JSON-visible field matches the batch campaign's. `cell_index`
/// positions the cell in the grid (fault_seed =
/// deriveSeed(opts.base_seed, cell_index)). An unknown benchmark or a
/// failed compile/trace becomes a kInternalError cell, not a throw.
FaultCampaignCell runFaultCampaignCellStandalone(
    const std::string& benchmark, std::size_t cell_index,
    const FaultCampaignOptions& opts);

/// {"totals":{...}, "all_detected_or_benign":b, "all_digests_match":b,
///  "all_cells_ok":b,
///  "cells":[{benchmark, fault_seed, status, injected, ..., digest_match,
///            divergence?{pos, boundary, diff}, worker?{...}}, ...]}.
/// Returns false on I/O failure.
bool writeFaultCampaignJson(const std::string& path,
                            const FaultCampaignResult& result);

}  // namespace spt::harness
