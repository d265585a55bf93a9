// Per-loop dependence and cost analysis.
//
// Builds the SPT compiler's view of one candidate loop: statement costs and
// reach probabilities (the annotated CFG of paper Figure 4), cross-iteration
// dependences with probabilities (the annotated DD graph), per-source
// movability (backward slice subject to memory-order and liveness
// constraints), and SVP applicability.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "analysis/defuse.h"
#include "analysis/modref.h"
#include "profile/profile_data.h"
#include "spt/loop_shape.h"
#include "spt/options.h"

namespace spt::compiler {

struct StmtInfo {
  StmtRef ref;
  ir::StaticId sid = ir::kInvalidStaticId;
  double cost = 1.0;   // expected cycles (calls include callee cost)
  double reach = 1.0;  // expected executions per iteration
  bool in_header = false;
};

enum class DepKind : std::uint8_t {
  kRegister,  // loop-carried scalar (def in iter i, live into iter i+1)
  kMemory,    // store in iter i -> load in iter i+1 (profiled)
  kCallMemory,  // memory dependence through a call's side effects
};

struct CarriedDep {
  DepKind kind = DepKind::kRegister;
  std::size_t source_stmt = 0;  // index into LoopAnalysis::stmts
  ir::Reg reg;                  // kRegister only
  /// Statements seeded with the violation (upward-exposed consumers).
  std::vector<std::size_t> consumers;
  double probability = 0.0;  // dependence occurs in a random iteration
  /// For dependences whose consumer load lives inside a callee: the
  /// profiled average re-execution tail (instructions from the load to the
  /// end of the call). Added to the misspeculation cost directly instead of
  /// seeding the cost graph with the whole call node.
  double tail_cost = 0.0;

  bool movable = false;
  /// Statements that must hoist together (source's backward slice,
  /// including the source), as indices into stmts. Only meaningful when
  /// movable.
  std::vector<std::size_t> slice;
  double slice_cost = 0.0;  // body-resident cost the hoist adds pre-fork

  /// Branch copying (paper Section 4.3, second complication): the source
  /// sits in a conditional arm; hoisting duplicates its guard branch into
  /// the pre-fork region. Slice members in `slice` whose block is the
  /// conditional arm are emitted under the copied branch.
  bool needs_branch_copy = false;
  ir::Reg guard_cond;             // the guarding branch's condition register
  bool guard_taken_side = false;  // true when the arm is the taken target
  ir::BlockId arm_block = ir::kInvalidBlock;

  bool svp_applicable = false;
  double svp_mispredict = 1.0;
  std::int64_t svp_stride = 0;
};

struct LoopAnalysis {
  LoopShape shape;
  std::vector<StmtInfo> stmts;   // parallel to shape.stmts
  std::vector<CarriedDep> deps;  // sources in the post-fork (body) region
  /// Intra-iteration def->use edges over stmt indices (cost-graph edges).
  std::vector<std::vector<std::size_t>> uses_of;
  double iter_cost = 0.0;   // sum of reach*cost over all statements
  double header_cost = 0.0;  // statements that are pre-fork by position

  // Profile summary.
  double avg_trip = 0.0;
  double avg_body_size = 0.0;
  double coverage = 0.0;  // of total program instructions
};

/// A register-carried dependence source: a body statement (not in the
/// header) that defines a register live into the loop header.
struct CarriedRegDef {
  ir::Reg reg;
  std::size_t stmt = 0;  // index into LoopShape::stmts
};

/// The register-carried dependence sources of `shape`, in the order
/// analyzeLoop lists its kRegister deps. Static: needs no profile.
std::vector<CarriedRegDef> carriedRegisterDefs(const ir::Function& func,
                                               const analysis::DefUse& defuse,
                                               const LoopShape& shape);

/// The SVP superset of the finalized `module`: the def sids of
/// carriedRegisterDefs over every loop recognizeLoop calls transformable.
/// Static, so one profiling run can value-profile it before any candidate
/// is known; the value candidates loop-candidate-selection collects are
/// always a subset.
std::unordered_set<ir::StaticId> svpSuperset(const ir::Module& module);

/// Analyzes one recognized loop. `shape.transformable` must be true.
LoopAnalysis analyzeLoop(const ir::Module& module, const ir::Function& func,
                         const analysis::Cfg& cfg,
                         const analysis::DefUse& defuse,
                         const analysis::ModRefSummary& modref,
                         const LoopShape& shape,
                         const profile::ProfileData& profile,
                         const CompilerOptions& options);

}  // namespace spt::compiler
