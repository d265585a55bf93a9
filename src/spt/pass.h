// The SPT pass pipeline: typed passes over a shared PassContext.
//
// Each pipeline attempt (the initial compile and the optional deny-unroll
// restart) runs the same fixed pass sequence the old monolithic driver
// inlined:
//
//   unroll-preprocess        profile; unroll small hot bodies; re-profile
//   loop-candidate-selection shape + profile filters, SVP candidate sids
//   value-profiling          SVP value profile of the candidates (4.4)
//   partition-search         optimal hoist/leave/SVP partition per candidate
//   good-loop-selection      cost-driven pass-2 selection
//   region-speculation       Section 6 extension (off by default)
//   spt-transform            apply the SPT transformation; final verify
//
// The PassManager times every pass, tracks which passes mutate the IR
// (invalidating the AnalysisManager), and — with
// CompilerOptions::verify_between_passes — runs the IR verifier after each
// pass, failing with the full violation list. Passes communicate through
// PipelineState, which is exactly the set of locals the monolith threaded
// between its phases; the golden-plan tests pin that the decomposition
// changed nothing.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "spt/analysis_manager.h"
#include "spt/driver.h"
#include "spt/loop_analysis.h"
#include "spt/plan.h"
#include "spt/profile_cache.h"
#include "spt/remarks.h"

namespace spt::compiler {

/// Everything a pipeline attempt accumulates and hands from pass to pass.
struct PipelineState {
  /// Loops that must not be unrolled this attempt (restart deny-list).
  const std::unordered_set<std::string>* deny_unroll = nullptr;

  profile::ProfileData profile;
  std::map<std::string, int> unroll_factors;
  std::unordered_set<ir::StaticId> value_candidates;

  /// A loop that survived the pass-1 filters, by position in the plan.
  struct Candidate {
    ir::FuncId func = ir::kInvalidFunc;
    analysis::LoopId loop = 0;
    std::size_t plan_index = 0;
  };
  std::vector<Candidate> candidates;

  /// Partition-search results awaiting selection / transformation.
  std::vector<std::pair<std::size_t, LoopAnalysis>> searched;
  std::vector<std::pair<std::size_t, LoopAnalysis>> to_transform;

  SptPlan plan;
};

struct PassContext {
  ir::Module& module;
  ProfileRunner& runner;
  const CompilerOptions& options;
  AnalysisManager& analyses;
  ProfileCache& profiles;
  PipelineState& state;

  /// The current module's profile with value stats for
  /// `value_candidates` only. The run behind it value-profiles the
  /// module's whole SVP superset (svpSuperset), so every request for one
  /// module structure is served by one cache-memoized run.
  profile::ProfileData profileRun(
      const std::unordered_set<ir::StaticId>& value_candidates);
};

class Pass {
 public:
  virtual ~Pass() = default;
  virtual std::string_view name() const = 0;
  /// Returns true iff the pass mutated the IR; the PassManager then drops
  /// every cached analysis.
  virtual bool run(PassContext& ctx) = 0;
};

class PassManager {
 public:
  /// `verify_between_passes` runs the IR verifier after every pass and
  /// aborts with the collected violation list on failure.
  explicit PassManager(bool verify_between_passes = false)
      : verify_(verify_between_passes) {}

  void add(std::unique_ptr<Pass> pass) { passes_.push_back(std::move(pass)); }

  /// Runs every pass in order over `ctx`, accumulating per-pass stats
  /// (merged by name across attempts when reused).
  void run(PassContext& ctx);

  const std::vector<PassRemark>& stats() const { return stats_; }

 private:
  PassRemark& statFor(std::string_view name);

  std::vector<std::unique_ptr<Pass>> passes_;
  std::vector<PassRemark> stats_;
  bool verify_ = false;
};

/// Appends the standard SPT pipeline (the sequence documented above) to
/// `pm`.
void buildSptPipeline(PassManager& pm);

}  // namespace spt::compiler
