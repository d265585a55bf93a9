// End-to-end experiment harness.
//
// Wires the full pipeline the paper's evaluation uses (Section 5.1):
// compile a source module two ways (baseline = untouched; SPT = two-pass
// cost-driven speculative parallelization), run both sequentially through
// the interpreter, and simulate the baseline on one core and the SPT
// program on the two-pipeline SPT machine.
//
// The baseline program is interpreted once. That run feeds the compiler's
// first profile (paper Section 4.1) and, without a cache, streams straight
// into the one-core machine, so no baseline trace is stored. The SPT
// machine needs random access (fork resolution looks ahead), so the SPT
// trace is stored, or mapped from the trace cache.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "harness/trace_cache.h"
#include "interp/interpreter.h"
#include "profile/profiler.h"
#include "sim/baseline.h"
#include "sim/spt_machine.h"
#include "spt/driver.h"

namespace spt::harness {

/// ProfileRunner that interprets the module's main function.
class InterpProfileRunner final : public compiler::ProfileRunner {
 public:
  explicit InterpProfileRunner(std::vector<std::int64_t> args = {})
      : args_(std::move(args)) {}

  /// Answers the first request for `module`'s structure with no value
  /// candidates from `profile`, which the caller took from a run of
  /// `module` over the same arguments, instead of interpreting again.
  void prime(const ir::Module& module, profile::ProfileData profile);

  profile::ProfileData run(
      const ir::Module& module,
      const std::unordered_set<ir::StaticId>& value_candidates) override;

 private:
  std::vector<std::int64_t> args_;
  /// (Module::structuralDigest(), profile) from prime(), until used.
  std::optional<std::pair<std::uint64_t, profile::ProfileData>> primed_;
};

struct TracedRun {
  trace::TraceBuffer trace;
  interp::RunResult result;
};

/// Interprets `module`'s main function, collecting the full trace.
/// Finalizes the module first if needed. A non-zero `max_records` caps the
/// interpreted instruction count (support::SptBudgetExceeded past it).
TracedRun traceProgram(ir::Module& module,
                       std::vector<std::int64_t> args = {},
                       std::uint64_t max_records = 0);

struct ExperimentResult {
  compiler::SptPlan plan;
  interp::RunResult baseline_run;
  interp::RunResult spt_run;
  sim::MachineResult baseline;
  sim::MachineResult spt;

  double programSpeedup() const {
    return sim::speedupOf(baseline.cycles, spt.cycles);
  }
};

/// Runs the whole pipeline on `module` (taken by value: the experiment
/// compiles a copy and leaves the caller's module untouched). With
/// non-null `remarks`, fills the compiler's structured per-loop decision
/// log (spt/remarks.h) — the experiment consumes the same plan, so
/// results are unchanged by construction.
ExperimentResult runSptExperiment(
    ir::Module module, const compiler::CompilerOptions& copts = {},
    const support::MachineConfig& mconfig = {},
    std::vector<std::int64_t> args = {},
    compiler::CompilationRemarks* remarks = nullptr);

/// Shared-trace variant: identical results, but the baseline and SPT
/// traces come from `cache` as mmap-backed v3 files instead of being
/// re-interpreted per call. When the baseline trace is produced here, the
/// same run also yields the compiler's first profile. `key_prefix` must
/// identify the program and its scale (e.g. "gzip.x2"); the cache key
/// additionally folds in the run arguments, the trace budget, and — for
/// the SPT trace — the compilation plan's fingerprint, so distinct
/// compiler options never collide. On a cache hit no trace is
/// interpreted: the traced run's
/// return value and memory hash are recovered from the v3 meta words
/// (baseline_run/spt_run.dynamic_instrs is recomputed from the trace).
/// `cache` must outlive nothing here — machines are torn down before
/// return — but the usual rule applies to callers holding views.
ExperimentResult runSptExperiment(
    ir::Module module, TraceCache& cache, const std::string& key_prefix,
    const compiler::CompilerOptions& copts = {},
    const support::MachineConfig& mconfig = {},
    std::vector<std::int64_t> args = {},
    compiler::CompilationRemarks* remarks = nullptr);

}  // namespace spt::harness
