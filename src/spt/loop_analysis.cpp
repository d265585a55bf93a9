#include "spt/loop_analysis.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "spt/analysis_manager.h"
#include "support/check.h"

namespace spt::compiler {
namespace {

const ir::Instr& stmtInstr(const ir::Function& func, const StmtRef& ref) {
  return func.blocks[ref.block].instrs[ref.index];
}

double clamp01(double p) { return p < 0.0 ? 0.0 : (p > 1.0 ? 1.0 : p); }

/// Expected executions per loop iteration of every loop block, from edge
/// profiles (the reach-probability annotation of paper Figure 4).
std::unordered_map<ir::BlockId, double> blockFrequencies(
    const ir::Function& func, const analysis::Cfg& cfg,
    const LoopShape& shape, const profile::ProfileData& profile) {
  std::unordered_map<ir::BlockId, double> freq;
  for (const ir::BlockId b : shape.blocks) freq[b] = 0.0;
  freq[shape.header] = 1.0;
  for (const ir::BlockId b : shape.blocks) {
    const double f = freq[b];
    if (f == 0.0) continue;
    const ir::Instr& term = func.blocks[b].terminator();
    if (term.op == ir::Opcode::kBr) {
      if (term.target0 != shape.header && freq.contains(term.target0)) {
        freq[term.target0] += f;
      }
    } else if (term.op == ir::Opcode::kCondBr) {
      const double p = profile.branchTakenProb(term.static_id);
      if (term.target0 != shape.header && freq.contains(term.target0)) {
        freq[term.target0] += f * p;
      }
      if (term.target1 != shape.header && freq.contains(term.target1)) {
        freq[term.target1] += f * (1.0 - p);
      }
    }
    (void)cfg;
  }
  return freq;
}

/// Per-function transitive callee sets (for attributing profiled memory
/// dependences inside callees to the loop's call statements).
std::vector<std::vector<bool>> transitiveCallees(const ir::Module& module) {
  const std::size_t n = module.functionCount();
  std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
  for (ir::FuncId f = 0; f < n; ++f) reach[f][f] = true;
  bool changed = true;
  while (changed) {
    changed = false;
    for (ir::FuncId f = 0; f < n; ++f) {
      for (const auto& block : module.function(f).blocks) {
        for (const auto& instr : block.instrs) {
          if (instr.op != ir::Opcode::kCall) continue;
          for (ir::FuncId g = 0; g < n; ++g) {
            if (reach[instr.callee][g] && !reach[f][g]) {
              reach[f][g] = true;
              changed = true;
            }
          }
        }
      }
    }
  }
  return reach;
}

class Analyzer {
 public:
  Analyzer(const ir::Module& module, const ir::Function& func,
           const analysis::Cfg& cfg, const analysis::DefUse& defuse,
           const analysis::ModRefSummary& modref, const LoopShape& shape,
           const profile::ProfileData& profile,
           const CompilerOptions& options)
      : module_(module),
        func_(func),
        cfg_(cfg),
        defuse_(defuse),
        modref_(modref),
        shape_(shape),
        profile_(profile),
        options_(options) {}

  LoopAnalysis run() {
    LoopAnalysis out;
    out.shape = shape_;
    buildStmts(out);
    buildDefUseEdges(out);
    buildRegisterDeps(out);
    buildMemoryDeps(out);
    for (CarriedDep& dep : out.deps) {
      computeMovability(out, dep);
      checkSvp(out, dep);
    }
    fillProfileSummary(out);
    return out;
  }

 private:
  void buildStmts(LoopAnalysis& out) {
    const auto freq = blockFrequencies(func_, cfg_, shape_, profile_);
    out.stmts.reserve(shape_.stmts.size());
    for (std::size_t i = 0; i < shape_.stmts.size(); ++i) {
      const StmtRef& ref = shape_.stmts[i];
      const ir::Instr& instr = stmtInstr(func_, ref);
      StmtInfo info;
      info.ref = ref;
      info.sid = instr.static_id;
      info.in_header = i < shape_.header_stmt_count;
      info.reach = clamp01(freq.at(ref.block));
      info.cost = ir::baseLatency(instr.op);
      if (instr.op == ir::Opcode::kLoad) {
        info.cost += 2.0;  // amortized cache latency beyond L1 hit
      } else if (instr.op == ir::Opcode::kCall) {
        const auto it = profile_.calls.find(instr.static_id);
        info.cost += it != profile_.calls.end() ? it->second.avgInstrs()
                                                : 20.0;
      }
      out.stmts.push_back(info);
      sid_to_stmt_[instr.static_id] = i;
    }
    // Iteration cost: statements plus one cycle per block terminator.
    out.iter_cost = 0.0;
    for (const StmtInfo& s : out.stmts) out.iter_cost += s.reach * s.cost;
    for (const ir::BlockId b : shape_.blocks) {
      out.iter_cost += clamp01(freq.at(b));
    }
    out.header_cost = 1.0;  // the header's exit test terminator
    for (std::size_t i = 0; i < shape_.header_stmt_count; ++i) {
      out.header_cost += out.stmts[i].cost;
    }
  }

  void buildDefUseEdges(LoopAnalysis& out) {
    out.uses_of.assign(out.stmts.size(), {});
    // defs_before_[r] tracks def stmt indices in statement order.
    std::unordered_map<std::uint32_t, std::vector<std::size_t>> defs;
    std::vector<ir::Reg> uses;
    for (std::size_t i = 0; i < out.stmts.size(); ++i) {
      const ir::Instr& instr = stmtInstr(func_, out.stmts[i].ref);
      uses.clear();
      instr.appendUses(uses);
      for (const ir::Reg r : uses) {
        const auto it = defs.find(r.index);
        if (it != defs.end() && !it->second.empty()) {
          // Edge from the latest earlier def (the closest producer).
          out.uses_of[it->second.back()].push_back(i);
        } else {
          upward_exposed_[r.index].push_back(i);
        }
      }
      if (instr.dst.valid() && ir::producesValue(instr.op)) {
        defs[instr.dst.index].push_back(i);
      }
    }
    all_defs_ = std::move(defs);
  }

  void buildRegisterDeps(LoopAnalysis& out) {
    for (const CarriedRegDef& def :
         carriedRegisterDefs(func_, defuse_, shape_)) {
      CarriedDep dep;
      dep.kind = DepKind::kRegister;
      dep.source_stmt = def.stmt;
      dep.reg = def.reg;
      dep.probability = clamp01(out.stmts[def.stmt].reach);
      const auto it = upward_exposed_.find(def.reg.index);
      if (it != upward_exposed_.end()) dep.consumers = it->second;
      out.deps.push_back(std::move(dep));
    }
  }

  void buildMemoryDeps(LoopAnalysis& out) {
    const auto mit = profile_.mem_deps.find(shape_.header_sid);
    if (mit == profile_.mem_deps.end()) return;
    const profile::LoopStats* stats = profile_.loopStats(shape_.header_sid);
    if (stats == nullptr || stats->iterations == 0) return;

    std::vector<std::vector<bool>> callee_reach;  // computed lazily
    const auto callStmtsReaching = [&](ir::FuncId target) {
      if (callee_reach.empty()) callee_reach = transitiveCallees(module_);
      std::vector<std::size_t> result;
      for (std::size_t i = 0; i < out.stmts.size(); ++i) {
        const ir::Instr& instr = stmtInstr(func_, out.stmts[i].ref);
        if (instr.op == ir::Opcode::kCall &&
            callee_reach[instr.callee][target]) {
          result.push_back(i);
        }
      }
      return result;
    };

    for (const auto& [pair, stat] : mit->second) {
      const auto [store_sid, load_sid] = pair;
      const double prob = clamp01(static_cast<double>(stat.count) /
                                  static_cast<double>(stats->iterations));

      // Resolve the source side.
      std::vector<std::size_t> sources;
      DepKind kind = DepKind::kMemory;
      if (const auto it = sid_to_stmt_.find(store_sid);
          it != sid_to_stmt_.end()) {
        sources.push_back(it->second);
      } else {
        kind = DepKind::kCallMemory;
        sources = callStmtsReaching(module_.locate(store_sid).func);
      }

      // Resolve the consumer side. A load inside a callee contributes its
      // profiled re-execution tail instead of seeding the cost graph with
      // the whole call statement.
      std::vector<std::size_t> consumers;
      double tail_cost = 0.0;
      if (const auto it = sid_to_stmt_.find(load_sid);
          it != sid_to_stmt_.end()) {
        consumers.push_back(it->second);
      } else {
        tail_cost = stat.avgTail();
      }

      for (const std::size_t src : sources) {
        if (out.stmts[src].in_header) continue;  // satisfied by position
        CarriedDep dep;
        dep.kind = kind;
        dep.source_stmt = src;
        dep.probability = prob;
        dep.consumers = consumers;
        dep.tail_cost = tail_cost;
        out.deps.push_back(std::move(dep));
      }
    }
  }

  bool isMemoryStmt(const ir::Instr& instr) const {
    if (ir::isMemory(instr.op)) return true;
    if (instr.op == ir::Opcode::kHalloc) return true;
    if (instr.op == ir::Opcode::kCall) {
      return !modref_.of(instr.callee).pure();
    }
    return false;
  }

  bool mayAlias(const ir::Instr& a, const ir::Instr& b) const {
    // Same base register and same constant offset: alias; same base with
    // different offsets: disjoint; anything else: unknown (assume alias).
    if (a.a == b.a) return a.imm == b.imm;
    return true;
  }

  /// Attempts to compute the hoistable backward slice of dep's source.
  void computeMovability(LoopAnalysis& out, CarriedDep& dep) {
    dep.movable = false;
    const std::size_t src = dep.source_stmt;
    const ir::Instr& src_instr = stmtInstr(func_, out.stmts[src].ref);

    // Only register-dep sources are hoisted via the temp pattern; store
    // sources could in principle hoist but require whole-prefix memory
    // motion, and call sources never move.
    if (dep.kind != DepKind::kRegister) return;
    // The temp pattern (t = next value pre-fork, r = t at body top,
    // header uses rewritten to t) requires r to have exactly one loop def.
    if (!uniqueDef(dep)) return;
    // A source in a conditional arm needs branch copying (paper Section
    // 4.3): the pre-fork region re-evaluates the guard, computes t = next
    // value on the taken side, and t = r (unchanged) on the other.
    const ir::BlockId src_block = out.stmts[dep.source_stmt].ref.block;
    if (!shape_.isMandatory(src_block)) {
      if (!resolveBranchCopy(dep, src_block)) return;
    }
    if (src_instr.op == ir::Opcode::kCall &&
        !modref_.of(src_instr.callee).pure()) {
      return;
    }
    if (src_instr.op == ir::Opcode::kStore ||
        src_instr.op == ir::Opcode::kHalloc) {
      return;
    }

    // Grow the slice: the source's transitive register inputs. With branch
    // copying, the guard condition's producers join the slice too.
    std::vector<bool> in_slice(out.stmts.size(), false);
    std::vector<std::size_t> work{src};
    if (dep.needs_branch_copy && dep.guard_cond.valid()) {
      const auto git = all_defs_.find(dep.guard_cond.index);
      if (git != all_defs_.end()) {
        std::size_t latest = SIZE_MAX;
        for (const std::size_t d : git->second) {
          // The guard is evaluated before the arm: its producer cannot be
          // inside the arm itself.
          if (d < src && out.stmts[d].ref.block != dep.arm_block) latest = d;
        }
        if (latest != SIZE_MAX) work.push_back(latest);
      }
    }
    std::vector<std::size_t> slice;
    std::vector<ir::Reg> uses;
    while (!work.empty()) {
      const std::size_t s = work.back();
      work.pop_back();
      if (in_slice[s]) continue;
      const StmtInfo& info = out.stmts[s];
      if (info.in_header) continue;  // already pre-fork by position
      // Statements must execute exactly once per iteration, except inside
      // the branch-copied arm itself.
      if (!shape_.isMandatory(info.ref.block) &&
          !(dep.needs_branch_copy && info.ref.block == dep.arm_block)) {
        return;
      }
      const ir::Instr& instr = stmtInstr(func_, info.ref);
      if (instr.op == ir::Opcode::kStore ||
          instr.op == ir::Opcode::kHalloc) {
        return;  // stores pin the memory order
      }
      if (instr.op == ir::Opcode::kCall && !modref_.of(instr.callee).pure()) {
        return;
      }
      // A moved statement's destination must not clobber a value still
      // needed at the top of the body (an earlier statement reading it).
      // The source itself is exempt: it is re-emitted into a fresh
      // temporary pre-fork, and the original becomes r = mov t in place.
      if (s != src && instr.dst.valid()) {
        // Header statements run before the pre-fork region, so only body
        // statements ahead of s can observe the clobber.
        for (std::size_t e = shape_.header_stmt_count; e < s; ++e) {
          if (stmtInstr(func_, out.stmts[e].ref).uses(instr.dst)) return;
        }
        // Code motion must not cross another def of the same register:
        // require the moved statement to be its register's only body def.
        const auto dit = all_defs_.find(instr.dst.index);
        if (dit != all_defs_.end() && dit->second.size() != 1) return;
      }
      in_slice[s] = true;
      slice.push_back(s);
      // Register inputs: latest earlier defs join the slice.
      uses.clear();
      instr.appendUses(uses);
      for (const ir::Reg r : uses) {
        const auto it = all_defs_.find(r.index);
        if (it == all_defs_.end()) continue;
        std::size_t latest = SIZE_MAX;
        for (const std::size_t d : it->second) {
          if (d < s) latest = d;
        }
        if (latest != SIZE_MAX && !in_slice[latest]) work.push_back(latest);
      }
    }

    // Memory safety: a hoisted load must not move above a body store (or
    // impure call) that stays behind, unless provably disjoint.
    for (const std::size_t s : slice) {
      const ir::Instr& instr = stmtInstr(func_, out.stmts[s].ref);
      if (instr.op != ir::Opcode::kLoad) continue;
      for (std::size_t e = 0; e < s; ++e) {
        if (in_slice[e] || out.stmts[e].in_header) continue;
        const ir::Instr& other = stmtInstr(func_, out.stmts[e].ref);
        if (!isMemoryStmt(other)) continue;
        if (other.op == ir::Opcode::kLoad) continue;  // load/load reorder ok
        if (other.op == ir::Opcode::kStore && !mayAlias(instr, other)) {
          continue;
        }
        return;  // unhoisted prior write the load would cross
      }
    }

    std::sort(slice.begin(), slice.end());
    dep.slice = std::move(slice);
    dep.slice_cost = 0.0;
    for (const std::size_t s : dep.slice) dep.slice_cost += out.stmts[s].cost;
    dep.movable = true;
  }

  /// True when dep.reg has exactly one loop def — dep's source.
  bool uniqueDef(const CarriedDep& dep) const {
    const auto it = all_defs_.find(dep.reg.index);
    if (it == all_defs_.end() || it->second.size() != 1) return false;
    return it->second.front() == dep.source_stmt;
  }

  /// True when dep.reg has exactly one loop def — dep's source — and that
  /// def sits in a mandatory block (executes every iteration).
  bool uniqueUnconditionalDef(const LoopAnalysis& out,
                              const CarriedDep& dep) const {
    if (!uniqueDef(dep)) return false;
    return shape_.isMandatory(out.stmts[dep.source_stmt].ref.block);
  }

  /// Checks whether `arm` is a simple conditional arm eligible for branch
  /// copying: a non-header loop block with exactly one in-loop
  /// predecessor, which is mandatory and ends in a condbr targeting the
  /// arm, and the arm falls through to a join with an unconditional
  /// branch. Fills the dep's guard fields on success.
  bool resolveBranchCopy(CarriedDep& dep, ir::BlockId arm) const {
    if (arm == shape_.header || arm == shape_.body_entry) return false;
    // Single in-loop predecessor.
    ir::BlockId pred = ir::kInvalidBlock;
    for (const ir::BlockId p : cfg_.preds(arm)) {
      if (!shapeContains(p)) continue;
      if (pred != ir::kInvalidBlock) return false;
      pred = p;
    }
    if (pred == ir::kInvalidBlock || !shape_.isMandatory(pred)) return false;
    const ir::Instr& term = func_.blocks[pred].terminator();
    if (term.op != ir::Opcode::kCondBr) return false;
    if (term.target0 != arm && term.target1 != arm) return false;
    if (func_.blocks[arm].terminator().op != ir::Opcode::kBr) return false;
    dep.needs_branch_copy = true;
    dep.guard_cond = term.a;
    dep.guard_taken_side = term.target0 == arm;
    dep.arm_block = arm;
    return true;
  }

  bool shapeContains(ir::BlockId b) const {
    for (const ir::BlockId blk : shape_.blocks) {
      if (blk == b) return true;
    }
    return false;
  }

  void checkSvp(LoopAnalysis& out, CarriedDep& dep) {
    dep.svp_applicable = false;
    if (dep.kind != DepKind::kRegister) return;
    if (!uniqueUnconditionalDef(out, dep)) return;
    const ir::Instr& src = stmtInstr(func_, out.stmts[dep.source_stmt].ref);
    if (!src.dst.valid()) return;
    const auto it = profile_.values.find(src.static_id);
    if (it == profile_.values.end()) return;
    const double predictability = it->second.predictability();
    if (predictability < options_.svp_min_predictability) return;
    dep.svp_applicable = true;
    dep.svp_mispredict = 1.0 - predictability;
    dep.svp_stride = it->second.bestStride();
  }

  void fillProfileSummary(LoopAnalysis& out) {
    const profile::LoopStats* stats = profile_.loopStats(shape_.header_sid);
    if (stats == nullptr) return;
    out.avg_trip = stats->avgTripCount();
    out.avg_body_size = stats->avgBodySize();
    out.coverage = profile_.total_instrs == 0
                       ? 0.0
                       : static_cast<double>(stats->dyn_instrs) /
                             static_cast<double>(profile_.total_instrs);
  }

  const ir::Module& module_;
  const ir::Function& func_;
  const analysis::Cfg& cfg_;
  const analysis::DefUse& defuse_;
  const analysis::ModRefSummary& modref_;
  const LoopShape& shape_;
  const profile::ProfileData& profile_;
  const CompilerOptions& options_;

  std::unordered_map<ir::StaticId, std::size_t> sid_to_stmt_;
  std::unordered_map<std::uint32_t, std::vector<std::size_t>> all_defs_;
  std::unordered_map<std::uint32_t, std::vector<std::size_t>>
      upward_exposed_;
};

}  // namespace

std::vector<CarriedRegDef> carriedRegisterDefs(const ir::Function& func,
                                               const analysis::DefUse& defuse,
                                               const LoopShape& shape) {
  // Every def of each register, in statement order; the map is built and
  // walked exactly as the Analyzer's def table, so the order is the same.
  std::unordered_map<std::uint32_t, std::vector<std::size_t>> defs;
  for (std::size_t i = 0; i < shape.stmts.size(); ++i) {
    const ir::Instr& instr = stmtInstr(func, shape.stmts[i]);
    if (instr.dst.valid() && ir::producesValue(instr.op)) {
      defs[instr.dst.index].push_back(i);
    }
  }
  std::vector<CarriedRegDef> out;
  for (const auto& [reg_index, def_stmts] : defs) {
    const ir::Reg r{reg_index};
    if (!defuse.isLiveIn(shape.header, r)) continue;
    // r is loop-carried. Every body def is a violation-candidate source;
    // header defs are satisfied by position.
    for (const std::size_t d : def_stmts) {
      if (d >= shape.header_stmt_count) out.push_back({r, d});
    }
  }
  return out;
}

std::unordered_set<ir::StaticId> svpSuperset(const ir::Module& module) {
  AnalysisManager analyses(module);
  std::unordered_set<ir::StaticId> out;
  for (ir::FuncId f = 0; f < module.functionCount(); ++f) {
    const ir::Function& func = module.function(f);
    const analysis::LoopForest& forest = analyses.loopForest(f);
    for (analysis::LoopId l = 0; l < forest.loopCount(); ++l) {
      const LoopShape shape =
          recognizeLoop(module, func, analyses.cfg(f), forest, l);
      if (!shape.transformable) continue;
      for (const CarriedRegDef& def :
           carriedRegisterDefs(func, analyses.defUse(f), shape)) {
        out.insert(stmtInstr(func, shape.stmts[def.stmt]).static_id);
      }
    }
  }
  return out;
}

LoopAnalysis analyzeLoop(const ir::Module& module, const ir::Function& func,
                         const analysis::Cfg& cfg,
                         const analysis::DefUse& defuse,
                         const analysis::ModRefSummary& modref,
                         const LoopShape& shape,
                         const profile::ProfileData& profile,
                         const CompilerOptions& options) {
  SPT_CHECK_MSG(shape.transformable, "analyzeLoop requires a canonical loop");
  return Analyzer(module, func, cfg, defuse, modref, shape, profile, options)
      .run();
}

}  // namespace spt::compiler
