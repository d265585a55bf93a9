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
// runSptExperiment, runs that sequence. The baseline run always streams
// straight into the one-core machine, and no baseline trace is ever
// stored. Without a cache the SPT run streams too: the SPT machine indexes
// forks as the records arrive and keeps only the window its threads can
// still read. An optional trace cache memoizes the baseline stream, its
// run and one-core result keyed by baselineConfigDigest and its profile,
// so cells that differ only in the SPT machine's config stream the
// baseline once between them and a hit streams none. The cell that
// misses the SPT trace streams as well, teeing the run into the trace
// file and storing the fork table its machine indexed; later cells replay
// that file against that table. A hit reads two baseline blobs, compiles,
// and replays the mapped trace against the stored table: it interprets
// nothing and indexes no record.
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
/// machine and no trace is stored. With one, the results are identical:
/// the baseline stream's run, one-core result and profile come from
/// `cache` as blobs, made by that stream on a miss, and the SPT machine
/// replays the SPT program's trace from `cache` as an mmap-backed file,
/// which a miss writes while its own SPT run streams into the machine.
/// `key_prefix` must then identify the program and its scale (e.g.
/// "gzip.x2"); every cache key additionally folds in the run arguments and
/// the trace budget, the stored one-core result's key
/// baselineConfigDigest(mconfig), and the SPT trace's key the compilation
/// plan's fingerprint, so distinct compiler options never collide. On a hit nothing is
/// interpreted and no baseline is simulated: the SPT run's return value
/// and memory hash are recovered from the trace header's meta words,
/// spt_run.dynamic_instrs is the count of the file's instruction records
/// (from its validating open, or from the writer if this process wrote it),
/// the fork start-points the SPT machine replays against come from the
/// trace's stored fork table (TraceCache::forks), and the profile of a
/// module unrolling made is a stored blob too.
/// The machines are torn down before return, so no view outlives the call.
ExperimentResult runSptExperiment(
    ir::Module module, const compiler::CompilerOptions& copts = {},
    const support::MachineConfig& mconfig = {},
    std::vector<std::int64_t> args = {},
    compiler::CompilationRemarks* remarks = nullptr,
    TraceCache* cache = nullptr, const std::string& key_prefix = {});

}  // namespace spt::harness
