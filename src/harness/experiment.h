// End-to-end experiment harness.
//
// Wires the full pipeline the paper's evaluation uses (Section 5.1):
// compile a source module two ways (baseline = untouched; SPT = two-pass
// cost-driven speculative parallelization), run both sequentially through
// the interpreter, and simulate the baseline on one core and the SPT
// program on the two-pipeline SPT machine.
//
// Each program is interpreted at most once. The baseline run value-profiles
// the module's static SVP superset (compiler::svpSuperset) and so yields
// every profile the compiler asks of the baseline, the first profile
// (paper Section 4.1) and the SVP value profile (Section 4.4) alike. Only a
// module that unrolling changed is profiled again. One entry,
// runSptExperiment, runs that sequence; an optional trace cache changes
// only where each program's records come from. Without a cache, each run
// streams straight into its machine, so no trace is stored: the SPT
// machine indexes forks as the records arrive and keeps only the window its
// threads can still read. With a cache, both machines replay mapped trace
// files, and the baseline trace keeps its run's profile beside it, so a
// cache hit interprets nothing. The cache also keeps the baseline
// machine's result, keyed by the trace and baselineConfigDigest, so cells
// that differ only in the SPT machine's config simulate the one-core
// machine once between them, and a hit simulates no baseline at all.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "harness/trace_cache.h"
#include "interp/interpreter.h"
#include "profile/profile_codec.h"
#include "profile/profiler.h"
#include "sim/baseline.h"
#include "sim/spt_machine.h"
#include "spt/driver.h"

namespace spt::harness {

/// ProfileRunner that interprets the module's main function.
class InterpProfileRunner final : public compiler::ProfileRunner {
 public:
  /// With a `store`, every request prime() does not answer is kept as a
  /// blob of the store, under `store_key` plus the module's structural
  /// digest and a digest of the sorted value candidates, so it is
  /// interpreted once per cache rather than once per request. `store_key`
  /// must identify the program's inputs as a trace key does.
  explicit InterpProfileRunner(std::vector<std::int64_t> args = {},
                               TraceCache* store = nullptr,
                               std::string store_key = {})
      : args_(std::move(args)),
        store_(store),
        store_key_(std::move(store_key)) {}

  /// Answers the first request for `module`'s structure whose value
  /// candidates lie within `tracked` from `profile`, projected onto them,
  /// instead of interpreting again. The caller took `profile` from a run of
  /// `module` over the same arguments that value-profiled `tracked`. A
  /// request outside `tracked` interprets.
  void prime(const ir::Module& module, profile::ProfileData profile,
             std::unordered_set<ir::StaticId> tracked = {});

  profile::ProfileData run(
      const ir::Module& module,
      const std::unordered_set<ir::StaticId>& value_candidates) override;

 private:
  profile::ProfileData interpretProfile(
      const ir::Module& module,
      const std::unordered_set<ir::StaticId>& value_candidates) const;

  std::vector<std::int64_t> args_;
  TraceCache* store_;
  std::string store_key_;
  /// The profile from prime(), until used.
  struct Primed {
    std::uint64_t digest = 0;  // Module::structuralDigest()
    profile::TrackedProfile profile;
  };
  std::optional<Primed> primed_;
};

/// A digest of the fields of `config` the one-core BaselineMachine reads,
/// with sim::kTimingModelVersion folded in: configs that differ only in
/// the SPT machine's fields (spec_threads, recovery, register_check, the
/// SRB/SSB/LAB sizes, the fork and commit overheads, the oracle and the
/// fault plan) share it. It resets exactly those fields to their defaults
/// and hashes every other one, so a field added later counts by default.
std::uint64_t baselineConfigDigest(const support::MachineConfig& config);

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
///
/// Without a `cache`, each program's run streams straight into its
/// machine and no trace is stored. With one, the baseline and SPT traces
/// come from `cache` as mmap-backed trace files, with identical results: the
/// baseline entry keeps the profile of the run that produced it as a
/// sidecar, and that profile primes the compiler whether this call
/// produced the trace or found it. `key_prefix` must then identify the
/// program and its scale (e.g. "gzip.x2"); the cache key additionally
/// folds in the run arguments, the trace budget, and — for the SPT trace —
/// the compilation plan's fingerprint, so distinct compiler options never
/// collide. On a cache hit nothing is interpreted and no baseline is
/// simulated: the traced run's return value and memory hash are recovered
/// from the header's meta words, baseline_run/spt_run.dynamic_instrs is
/// the count the file's validating open took, `baseline` is the result
/// stored for this trace and baselineConfigDigest(mconfig), and the
/// profile of a module unrolling made is a stored blob too.
/// The machines are torn down before return, so no view outlives the call.
ExperimentResult runSptExperiment(
    ir::Module module, const compiler::CompilerOptions& copts = {},
    const support::MachineConfig& mconfig = {},
    std::vector<std::int64_t> args = {},
    compiler::CompilationRemarks* remarks = nullptr,
    TraceCache* cache = nullptr, const std::string& key_prefix = {});

}  // namespace spt::harness
