// The concrete SPT pipeline passes (see pass.h for the sequence). Each
// pass is a faithful decomposition of one phase of the former monolithic
// SptCompiler::compileOnce; the golden-plan tests pin the plans
// bit-identical to that monolith.
#include <algorithm>
#include <cmath>
#include <map>
#include <optional>

#include "ir/verifier.h"
#include "spt/loop_shape.h"
#include "spt/partition_search.h"
#include "spt/pass.h"
#include "spt/region_speculation.h"
#include "spt/transform.h"
#include "spt/unroll.h"
#include "support/check.h"
#include "trace/trace.h"

namespace spt::compiler {
namespace {

/// Applies the pass-1 candidate filters; returns an empty string when the
/// loop qualifies, otherwise the rejection reason.
std::string filterReason(const LoopShape& shape,
                         const profile::LoopStats* stats,
                         std::uint64_t total_instrs,
                         const CompilerOptions& options) {
  if (stats == nullptr || stats->iterations == 0) return "never executed";
  const double coverage =
      total_instrs == 0
          ? 0.0
          : static_cast<double>(stats->dyn_instrs) / total_instrs;
  if (coverage < options.min_coverage) return "coverage too small";
  if (stats->avgBodySize() < options.min_avg_body_size) {
    return "body too small";
  }
  if (stats->avgBodySize() > options.max_avg_body_size) {
    return "body too large";
  }
  if (stats->avgTripCount() < options.min_avg_trip_count) {
    return "trip count too small";
  }
  if (!shape.transformable) return shape.reject_reason;
  return "";
}

/// Takes the initial profile, unrolls small hot candidate bodies before
/// everything else (StaticIds change, so re-profiles afterwards), honoring
/// the restart deny-list.
class UnrollPreprocessPass : public Pass {
 public:
  std::string_view name() const override { return "unroll-preprocess"; }

  bool run(PassContext& ctx) override {
    PipelineState& st = ctx.state;
    st.profile = ctx.profileRun({});
    if (!ctx.options.enable_unrolling) return false;

    bool changed = false;
    for (ir::FuncId f = 0; f < ctx.module.functionCount(); ++f) {
      const ir::Function& func = ctx.module.function(f);
      const analysis::Cfg& cfg = ctx.analyses.cfg(f);
      const analysis::LoopForest& forest = ctx.analyses.loopForest(f);
      // Recognize all shapes first: unrolling appends blocks.
      std::vector<LoopShape> shapes;
      for (analysis::LoopId l = 0; l < forest.loopCount(); ++l) {
        shapes.push_back(recognizeLoop(ctx.module, func, cfg, forest, l));
      }
      bool func_changed = false;
      for (const LoopShape& shape : shapes) {
        if (!shape.transformable) continue;
        if (st.deny_unroll != nullptr &&
            st.deny_unroll->contains(shape.name)) {
          continue;
        }
        const profile::LoopStats* stats =
            st.profile.loopStats(shape.header_sid);
        if (stats == nullptr || stats->iterations == 0) continue;
        const double body = stats->avgBodySize();
        if (body < ctx.options.min_avg_body_size ||
            body >= ctx.options.unroll_body_threshold ||
            stats->avgTripCount() < 2.0 * ctx.options.min_avg_trip_count) {
          continue;
        }
        const auto factor = static_cast<std::uint32_t>(std::min<double>(
            ctx.options.max_unroll_factor,
            std::ceil(ctx.options.unroll_body_threshold /
                      std::max(body, 1.0))));
        if (factor < 2) continue;
        if (unrollLoop(ctx.module, shape, factor)) {
          st.unroll_factors[shape.name] = static_cast<int>(factor);
          func_changed = changed = true;
        }
      }
      // The cached cfg/forest referenced above are stale once the function
      // mutates; drop them before the next function's queries.
      if (func_changed) ctx.analyses.invalidateFunction(f);
    }
    if (changed) {
      ctx.module.finalize();
      SPT_CHECK_MSG(ir::verifyModule(ctx.module).empty(),
                    "unrolling produced an invalid module");
      st.profile = ctx.profileRun({});
    }
    return changed;
  }
};

/// Pass 1: shape recognition, profile filters, dependence analysis, and
/// SVP value-candidate collection.
class LoopCandidateSelectionPass : public Pass {
 public:
  std::string_view name() const override {
    return "loop-candidate-selection";
  }

  bool run(PassContext& ctx) override {
    PipelineState& st = ctx.state;
    st.plan.profiled_instrs = st.profile.total_instrs;

    for (ir::FuncId f = 0; f < ctx.module.functionCount(); ++f) {
      const ir::Function& func = ctx.module.function(f);
      const analysis::Cfg& cfg = ctx.analyses.cfg(f);
      const analysis::LoopForest& forest = ctx.analyses.loopForest(f);
      const analysis::DefUse& defuse = ctx.analyses.defUse(f);
      for (analysis::LoopId l = 0; l < forest.loopCount(); ++l) {
        const LoopShape shape =
            recognizeLoop(ctx.module, func, cfg, forest, l);
        LoopPlanEntry entry;
        entry.name = shape.name;
        entry.func = f;
        entry.header_sid = shape.header_sid;
        if (const auto it = st.unroll_factors.find(shape.name);
            it != st.unroll_factors.end()) {
          entry.unroll_factor = it->second;
        }
        if (const profile::LoopStats* stats =
                st.profile.loopStats(shape.header_sid)) {
          entry.coverage = st.profile.total_instrs == 0
                               ? 0.0
                               : static_cast<double>(stats->dyn_instrs) /
                                     st.profile.total_instrs;
          entry.avg_body_size = stats->avgBodySize();
          entry.avg_trip = stats->avgTripCount();
        }
        entry.reject_reason =
            filterReason(shape, st.profile.loopStats(shape.header_sid),
                         st.profile.total_instrs, ctx.options);
        entry.candidate = entry.reject_reason.empty();
        if (entry.candidate) {
          const LoopAnalysis analysis =
              analyzeLoop(ctx.module, func, cfg, defuse,
                          ctx.analyses.modRef(), shape, st.profile,
                          ctx.options);
          for (const CarriedDep& dep : analysis.deps) {
            if (dep.kind == DepKind::kRegister) {
              st.value_candidates.insert(analysis.stmts[dep.source_stmt].sid);
            }
          }
          st.candidates.push_back({f, l, st.plan.loops.size()});
        }
        st.plan.loops.push_back(std::move(entry));
      }
    }
    return false;
  }
};

/// SVP value-profiling pass (the paper's instrumented profiling run,
/// Section 4.4): projects the module's one profiling run, which tracked
/// the SVP superset, onto the value candidates.
class ValueProfilingPass : public Pass {
 public:
  std::string_view name() const override { return "value-profiling"; }

  bool run(PassContext& ctx) override {
    PipelineState& st = ctx.state;
    if (!st.value_candidates.empty() && ctx.options.enable_svp) {
      st.profile = ctx.profileRun(st.value_candidates);
    }
    return false;
  }
};

/// Partition search per candidate: re-analyzes each candidate loop against
/// the (possibly value-augmented) profile and records the optimal
/// partition and its cost in the plan.
class PartitionSearchPass : public Pass {
 public:
  std::string_view name() const override { return "partition-search"; }

  bool run(PassContext& ctx) override {
    PipelineState& st = ctx.state;
    for (const PipelineState::Candidate& c : st.candidates) {
      const ir::Function& func = ctx.module.function(c.func);
      const analysis::Cfg& cfg = ctx.analyses.cfg(c.func);
      const analysis::LoopForest& forest = ctx.analyses.loopForest(c.func);
      const analysis::DefUse& defuse = ctx.analyses.defUse(c.func);
      const LoopShape shape =
          recognizeLoop(ctx.module, func, cfg, forest, c.loop);
      SPT_CHECK(shape.transformable);
      LoopAnalysis analysis =
          analyzeLoop(ctx.module, func, cfg, defuse, ctx.analyses.modRef(),
                      shape, st.profile, ctx.options);
      const SearchResult search = searchOptimalPartition(analysis,
                                                         ctx.options);

      LoopPlanEntry& entry = st.plan.loops[c.plan_index];
      entry.dep_count = analysis.deps.size();
      entry.actions = search.partition.actions;
      entry.cost = search.cost;
      entry.evaluated = search.evaluated;
      st.searched.emplace_back(c.plan_index, std::move(analysis));
    }
    return false;
  }
};

/// Pass-2 selection: keeps all good (and only good) loops by estimated
/// speedup (or every feasible candidate when cost-driven selection is
/// disabled for ablation).
class GoodLoopSelectionPass : public Pass {
 public:
  std::string_view name() const override { return "good-loop-selection"; }

  bool run(PassContext& ctx) override {
    PipelineState& st = ctx.state;
    for (auto& [plan_index, analysis] : st.searched) {
      LoopPlanEntry& entry = st.plan.loops[plan_index];
      const bool good =
          !ctx.options.cost_driven_selection ||
          (entry.cost.feasible &&
           entry.cost.est_speedup >= ctx.options.min_estimated_speedup);
      entry.selected = good;
      if (!good) {
        entry.reject_reason =
            !entry.cost.feasible
                ? "no feasible partition (pre-fork too large)"
                : "estimated speedup below threshold";
        continue;
      }
      st.to_transform.emplace_back(plan_index, std::move(analysis));
    }
    st.searched.clear();
    return false;
  }
};

/// Region-based speculation (Section 6 extension): applied before the loop
/// transformations (both mutate disjoint blocks, and the region pass reads
/// call costs from the current profile's StaticIds).
class RegionSpeculationPass : public Pass {
 public:
  std::string_view name() const override { return "region-speculation"; }

  bool run(PassContext& ctx) override {
    PipelineState& st = ctx.state;
    if (!ctx.options.enable_region_speculation) return false;
    st.plan.regions =
        applyRegionSpeculation(ctx.module, st.profile, ctx.options);
    return !st.plan.regions.empty();
  }
};

/// Applies the SPT transformation to every selected loop, then finalizes
/// and verifies the transformed module.
class SptTransformPass : public Pass {
 public:
  std::string_view name() const override { return "spt-transform"; }

  bool run(PassContext& ctx) override {
    PipelineState& st = ctx.state;
    bool mutated = false;
    for (auto& [plan_index, analysis] : st.to_transform) {
      LoopPlanEntry& entry = st.plan.loops[plan_index];
      Partition partition;
      partition.actions = entry.actions;
      const TransformOutcome outcome =
          transformLoop(ctx.module, analysis, partition);
      entry.transformed = outcome.applied;
      entry.transform_detail = outcome.detail;
      if (!outcome.applied) entry.reject_reason = outcome.detail;
      mutated |= outcome.applied;
    }
    st.to_transform.clear();

    ctx.module.finalize();
    SPT_CHECK_MSG(ir::verifyModule(ctx.module).empty(),
                  "SPT transformation produced an invalid module");
    return mutated;
  }
};

/// Pre-computation slices for chained (N-way) forks. A chained fork copies
/// the parent's register context, but by the time the child's iteration
/// actually starts the parent has executed the rest of its own iteration —
/// so every loop-carried register the child reads at its header arrives one
/// update stale. The slice is the backward slice, over the post-fork
/// portion of one iteration, of the registers live-in at the loop header:
/// straight-line register-only code the machine replays on the fork-time
/// snapshot to pre-compute the child's true live-ins (paper Section 5 /
/// the Prophet-style pre-computation fork). When the slice is empty,
/// defines no live-in, or exceeds CompilerOptions::slice_max_instrs, the
/// fork keeps the plain register-copy and the plan records the fallback.
///
/// Metadata-only: runs after the final finalize()+verify so the attached
/// StaticIds are the ones the tracer and simulator see, and never mutates
/// the IR (returns false). A no-op below spec_threads == 2, which keeps
/// every single-threaded golden plan fingerprint bit-identical.
class PrecomputationSlicePass : public Pass {
 public:
  std::string_view name() const override { return "precomputation-slice"; }

  bool run(PassContext& ctx) override {
    if (ctx.options.spec_threads < 2) return false;
    PipelineState& st = ctx.state;
    for (ir::FuncId f = 0; f < ctx.module.functionCount(); ++f) {
      const ir::Function& func = ctx.module.function(f);
      FunctionLoops loops(func);
      for (const ir::BasicBlock& block : func.blocks) {
        for (std::uint32_t i = 0; i < block.instrs.size(); ++i) {
          const ir::Instr& fork = block.instrs[i];
          if (fork.op != ir::Opcode::kSptFork) continue;
          sliceFork(ctx, st, f, func, loops, block.id, i, fork);
        }
      }
    }
    return false;
  }

 private:
  static bool isSliceSafe(ir::Opcode op) {
    switch (op) {
      case ir::Opcode::kConst:
      case ir::Opcode::kMov:
      case ir::Opcode::kAdd:
      case ir::Opcode::kSub:
      case ir::Opcode::kMul:
      case ir::Opcode::kAnd:
      case ir::Opcode::kOr:
      case ir::Opcode::kXor:
      case ir::Opcode::kShl:
      case ir::Opcode::kShr:
      case ir::Opcode::kCmpEq:
      case ir::Opcode::kCmpNe:
      case ir::Opcode::kCmpLt:
      case ir::Opcode::kCmpLe:
      case ir::Opcode::kCmpGt:
      case ir::Opcode::kCmpGe:
        return true;
      default:
        // Loads/stores/calls need memory, kDiv/kRem can fault mid-slice,
        // branches and fork/kill have no register value to pre-compute.
        return false;
    }
  }

  /// The natural loops of one finalized function and the registers
  /// live-in at their headers, each computed once per header however many
  /// forks target it. Built over the finalized CFG: analyses caches may be
  /// stale after the transform.
  class FunctionLoops {
   public:
    explicit FunctionLoops(const ir::Function& func)
        : func_(func), succs_(func.blocks.size()), preds_(func.blocks.size()) {
      for (const ir::BasicBlock& b : func.blocks) {
        succs_[b.id] = b.successors();
        for (const ir::BlockId s : succs_[b.id]) preds_[s].push_back(b.id);
      }
    }

    const std::vector<ir::BlockId>& successors(ir::BlockId b) const {
      return succs_[b];
    }

    /// Blocks of the natural loop around `header`: reachable from the
    /// header without leaving its SCC (forward ∩ backward reachability).
    const std::vector<bool>& blocks(ir::BlockId header) {
      return loopAt(header).blocks;
    }

    /// Registers live-in at `header`, by backward liveness restricted to
    /// the loop's own blocks, over 64-register words.
    const std::vector<bool>& liveIn(ir::BlockId header) {
      Loop& loop = loopAt(header);
      if (loop.live_in) return *loop.live_in;
      const std::size_t regs = func_.reg_count;
      const std::size_t words = (regs + 63) / 64;
      std::vector<ir::BlockId> members;
      for (ir::BlockId b = 0; b < loop.blocks.size(); ++b) {
        if (loop.blocks[b]) members.push_back(b);
      }
      // Row b of each matrix holds block b's registers.
      const std::size_t n = func_.blocks.size();
      std::vector<std::uint64_t> gen(n * words, 0);
      std::vector<std::uint64_t> kill(n * words, 0);
      std::vector<std::uint64_t> live(n * words, 0);
      const auto has = [&](const std::vector<std::uint64_t>& m, ir::BlockId b,
                           std::size_t r) {
        return (m[b * words + r / 64] >> (r % 64)) & 1;
      };
      const auto set = [&](std::vector<std::uint64_t>& m, ir::BlockId b,
                           std::size_t r) {
        m[b * words + r / 64] |= std::uint64_t{1} << (r % 64);
      };
      std::vector<ir::Reg> uses;
      for (const ir::BlockId b : members) {
        for (const ir::Instr& in : func_.blocks[b].instrs) {
          uses.clear();
          in.appendUses(uses);
          for (const ir::Reg r : uses) {
            if (r.index < regs && !has(kill, b, r.index)) set(gen, b, r.index);
          }
          if (in.dst.valid() && in.dst.index < regs) set(kill, b, in.dst.index);
        }
      }
      for (bool changed = true; changed;) {
        changed = false;
        for (auto it = members.rbegin(); it != members.rend(); ++it) {
          const ir::BlockId b = *it;
          for (std::size_t w = 0; w < words; ++w) {
            std::uint64_t out = 0;
            for (const ir::BlockId s : succs_[b]) {
              if (loop.blocks[s]) out |= live[s * words + w];
            }
            std::uint64_t& in = live[b * words + w];
            const std::uint64_t next =
                in | gen[b * words + w] | (out & ~kill[b * words + w]);
            if (next != in) {
              in = next;
              changed = true;
            }
          }
        }
      }
      std::vector<bool>& live_in = loop.live_in.emplace(regs);
      for (std::size_t r = 0; r < regs; ++r) live_in[r] = has(live, header, r);
      return live_in;
    }

   private:
    struct Loop {
      std::vector<bool> blocks;
      std::optional<std::vector<bool>> live_in;
    };

    Loop& loopAt(ir::BlockId header) {
      auto [it, fresh] = loops_.try_emplace(header);
      if (fresh) {
        const std::vector<bool> fwd = reach(header, succs_);
        const std::vector<bool> bwd = reach(header, preds_);
        it->second.blocks.resize(fwd.size());
        for (std::size_t b = 0; b < fwd.size(); ++b) {
          it->second.blocks[b] = fwd[b] && bwd[b];
        }
      }
      return it->second;
    }

    static std::vector<bool> reach(
        ir::BlockId from, const std::vector<std::vector<ir::BlockId>>& next) {
      std::vector<bool> seen(next.size(), false);
      std::vector<ir::BlockId> stack{from};
      seen[from] = true;
      while (!stack.empty()) {
        const ir::BlockId b = stack.back();
        stack.pop_back();
        for (const ir::BlockId s : next[b]) {
          if (!seen[s]) {
            seen[s] = true;
            stack.push_back(s);
          }
        }
      }
      return seen;
    }

    const ir::Function& func_;
    std::vector<std::vector<ir::BlockId>> succs_;
    std::vector<std::vector<ir::BlockId>> preds_;
    std::map<ir::BlockId, Loop> loops_;
  };

  void sliceFork(PassContext& ctx, PipelineState& st, ir::FuncId f,
                 const ir::Function& func, FunctionLoops& loops,
                 ir::BlockId fork_block, std::uint32_t fork_index,
                 const ir::Instr& fork) {
    const ir::BlockId header = fork.target0;
    if (header >= func.blocks.size() || func.blocks[header].instrs.empty()) {
      return;
    }
    // Only loop forks carry slices: the fork must sit inside the loop it
    // targets (region-speculation forks target a continuation block that
    // is not a header of a loop containing them).
    const std::vector<bool>& loop = loops.blocks(header);
    if (!loop[fork_block]) return;

    // Match the plan entry by the stable loop name; only loops the
    // transform actually rewrote have a fork worth annotating.
    const std::string name = trace::loopNameOf(
        ctx.module, func.blocks[header].instrs.front().static_id);
    LoopPlanEntry* entry = nullptr;
    for (LoopPlanEntry& e : st.plan.loops) {
      if (e.func == f && e.name == name) {
        entry = &e;
        break;
      }
    }
    if (entry == nullptr || !entry->transformed) return;

    // ---- Live-in registers at the header.
    const std::size_t regs = func.reg_count;
    const std::size_t n = func.blocks.size();
    const std::vector<bool>& targets = loops.liveIn(header);
    std::vector<ir::Reg> uses;

    // ---- Linearize the post-fork portion of one iteration: the fork
    // block's remainder, then the loop blocks reachable from it in RPO
    // with the header acting as the iteration boundary.
    std::vector<ir::BlockId> order;
    {
      std::vector<bool> seen(n, false);
      seen[fork_block] = true;
      seen[header] = true;  // never traverse into the next iteration
      std::vector<std::pair<ir::BlockId, std::size_t>> stack{{fork_block, 0}};
      std::vector<ir::BlockId> post;
      while (!stack.empty()) {
        const ir::BlockId b = stack.back().first;
        const std::vector<ir::BlockId>& succs = loops.successors(b);
        bool descended = false;
        while (stack.back().second < succs.size()) {
          const ir::BlockId s = succs[stack.back().second++];
          if (loop[s] && !seen[s]) {
            seen[s] = true;
            stack.push_back({s, 0});
            descended = true;
            break;
          }
        }
        if (!descended) {
          post.push_back(b);
          stack.pop_back();
        }
      }
      order.assign(post.rbegin(), post.rend());
    }

    // ---- Forward computability: keep a safe instruction only when every
    // source still holds a value derivable from the fork-time snapshot;
    // anything downstream of a load/call/unsafe op is dirty.
    std::vector<bool> dirty(regs, false);
    std::vector<ir::Instr> computable;
    for (const ir::BlockId b : order) {
      const ir::BasicBlock& blk = func.blocks[b];
      const std::uint32_t first = b == fork_block ? fork_index + 1 : 0;
      for (std::uint32_t i = first; i < blk.instrs.size(); ++i) {
        const ir::Instr& in = blk.instrs[i];
        if (!in.dst.valid() || in.dst.index >= regs) continue;
        bool ok = isSliceSafe(in.op);
        if (ok) {
          uses.clear();
          in.appendUses(uses);
          for (const ir::Reg r : uses) {
            if (r.index >= regs || dirty[r.index]) {
              ok = false;
              break;
            }
          }
        }
        dirty[in.dst.index] = !ok;
        if (ok) computable.push_back(in);
      }
    }

    // ---- Backward prune to the instructions that feed a clean live-in.
    std::vector<bool> want(regs, false);
    bool any_target = false;
    for (std::size_t r = 0; r < regs; ++r) {
      if (targets[r] && !dirty[r]) {
        want[r] = true;
        any_target = true;
      }
    }
    std::vector<ir::Instr> slice;
    if (any_target) {
      std::vector<bool> defines_target(computable.size(), false);
      for (std::size_t i = computable.size(); i-- > 0;) {
        const ir::Instr& in = computable[i];
        if (!want[in.dst.index]) continue;
        defines_target[i] = true;
        want[in.dst.index] = false;
        uses.clear();
        in.appendUses(uses);
        for (const ir::Reg r : uses) want[r.index] = true;
      }
      for (std::size_t i = 0; i < computable.size(); ++i) {
        if (defines_target[i]) slice.push_back(computable[i]);
      }
    }

    // ---- Decide, attach, and record.
    bool defines_live_in = false;
    for (const ir::Instr& in : slice) {
      if (targets[in.dst.index]) {
        defines_live_in = true;
        break;
      }
    }
    entry->slice_cost = static_cast<std::uint32_t>(slice.size());
    if (!slice.empty() && defines_live_in &&
        slice.size() <= ctx.options.slice_max_instrs) {
      entry->fork_mode = "slice";
      ctx.module.setForkSlice(fork.static_id, std::move(slice));
    } else {
      entry->fork_mode = "register-copy";
    }
  }
};

}  // namespace

void buildSptPipeline(PassManager& pm) {
  pm.add(std::make_unique<UnrollPreprocessPass>());
  pm.add(std::make_unique<LoopCandidateSelectionPass>());
  pm.add(std::make_unique<ValueProfilingPass>());
  pm.add(std::make_unique<PartitionSearchPass>());
  pm.add(std::make_unique<GoodLoopSelectionPass>());
  pm.add(std::make_unique<RegionSpeculationPass>());
  pm.add(std::make_unique<SptTransformPass>());
  // Appended after the transform's final finalize()+verify so the slice
  // metadata binds to the StaticIds the tracer and simulator will see.
  pm.add(std::make_unique<PrecomputationSlicePass>());
}

}  // namespace spt::compiler
