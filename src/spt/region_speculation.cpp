#include "spt/region_speculation.h"

#include <algorithm>

#include "analysis/cfg.h"
#include "analysis/dominators.h"
#include "analysis/loops.h"
#include "ir/module.h"
#include "ir/printer.h"
#include "trace/trace.h"

namespace spt::compiler {
namespace {

double instrCost(const ir::Instr& instr,
                 const profile::ProfileData& profile) {
  double cost = ir::baseLatency(instr.op);
  if (instr.op == ir::Opcode::kLoad) cost += 2.0;
  if (instr.op == ir::Opcode::kCall) {
    const auto it = profile.calls.find(instr.static_id);
    cost += it != profile.calls.end() ? it->second.avgInstrs() : 20.0;
  }
  return cost;
}

struct SplitChoice {
  std::size_t index = 0;  // suffix starts here
  double prefix_cost = 0.0;
  double suffix_cost = 0.0;
  double penalty = 0.0;
  double score = -1.0;
};

/// Scores every split point of a straight-line block; returns the best.
SplitChoice chooseSplit(const ir::BasicBlock& block,
                        const profile::ProfileData& profile,
                        const CompilerOptions& options) {
  const std::size_t n = block.instrs.size();
  std::vector<double> costs(n);
  for (std::size_t i = 0; i < n; ++i) {
    costs[i] = instrCost(block.instrs[i], profile);
  }
  std::vector<double> prefix_sum(n + 1, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    prefix_sum[i + 1] = prefix_sum[i] + costs[i];
  }
  const double total = prefix_sum[n];

  SplitChoice best;
  // Last writer of each register so far (index into the block, or none).
  std::vector<ir::Reg> uses;
  for (std::size_t s = 1; s + 1 < n; ++s) {
    const double prefix = prefix_sum[s];
    const double suffix = total - prefix;
    // Dependence penalty: suffix instructions whose register inputs were
    // last written in the prefix re-execute at replay (plus their chains —
    // approximated by doubling).
    double penalty = 0.0;
    std::vector<bool> written_in_prefix(1024, false);
    std::vector<bool> rewritten_in_suffix(1024, false);
    const auto mark = [](std::vector<bool>& v, ir::Reg r) {
      if (r.valid() && r.index < v.size()) v[r.index] = true;
    };
    const auto is = [](const std::vector<bool>& v, ir::Reg r) {
      return r.valid() && r.index < v.size() && v[r.index];
    };
    for (std::size_t i = 0; i < s; ++i) {
      // Constants are value-stable across invocations: the main thread's
      // post-fork rewrite restores the very value the speculative thread
      // read at fork time, so value-based checking never flags them.
      if (block.instrs[i].op == ir::Opcode::kConst) continue;
      mark(written_in_prefix, block.instrs[i].dst);
    }
    for (std::size_t i = s; i < n; ++i) {
      const ir::Instr& instr = block.instrs[i];
      uses.clear();
      instr.appendUses(uses);
      for (const ir::Reg r : uses) {
        if (is(written_in_prefix, r) && !is(rewritten_in_suffix, r)) {
          penalty += 2.0 * costs[i];
          break;
        }
      }
      mark(rewritten_in_suffix, instr.dst);
    }
    const double overlap = std::min(prefix, suffix);
    const double score = overlap -
                         options.region_penalty_weight * penalty -
                         options.fork_overhead - options.commit_overhead;
    if (score > best.score) {
      best = {s, prefix, suffix, penalty, score};
    }
  }
  return best;
}

}  // namespace

std::vector<RegionPlanEntry> applyRegionSpeculation(
    ir::Module& module, const profile::ProfileData& profile,
    const CompilerOptions& options) {
  std::vector<RegionPlanEntry> plan;

  for (ir::FuncId f = 0; f < module.functionCount(); ++f) {
    ir::Function& func = module.function(f);
    // Loop membership on the pristine function.
    const analysis::Cfg cfg(func);
    const analysis::DomTree dom(cfg);
    const analysis::LoopForest forest(cfg, dom);

    const std::size_t original_blocks = func.blocks.size();
    for (ir::BlockId b = 0; b < original_blocks; ++b) {
      if (forest.innermostLoopOf(b) != analysis::kInvalidLoop) continue;
      if (!cfg.reachable(b)) continue;
      const ir::BasicBlock& block = func.blocks[b];
      if (block.instrs.size() < 8) continue;
      bool has_spt = false;
      double total_cost = 0.0;
      for (const ir::Instr& instr : block.instrs) {
        has_spt |= instr.op == ir::Opcode::kSptFork ||
                   instr.op == ir::Opcode::kSptKill;
        total_cost += instrCost(instr, profile);
      }
      if (has_spt || total_cost < options.region_min_cost) continue;

      const SplitChoice split = chooseSplit(block, profile, options);
      if (split.score < options.region_min_benefit) continue;

      // Split: the suffix (including the terminator) moves to a new block;
      // the fork goes at the *top* of the prefix so the speculative thread
      // overlaps all of it.
      RegionPlanEntry entry;
      entry.func = f;
      entry.block = b;
      entry.prefix_cost = split.prefix_cost;
      entry.suffix_cost = split.suffix_cost;
      entry.dependence_penalty = split.penalty;

      ir::BasicBlock suffix;
      suffix.id = static_cast<ir::BlockId>(func.blocks.size());
      suffix.label = ir::blockName(func, b) + "_half2";
      {
        ir::BasicBlock& blk = func.blocks[b];
        suffix.instrs.assign(blk.instrs.begin() + split.index,
                             blk.instrs.end());
        blk.instrs.erase(blk.instrs.begin() + split.index,
                         blk.instrs.end());
        ir::Instr fork;
        fork.op = ir::Opcode::kSptFork;
        fork.target0 = suffix.id;
        blk.instrs.insert(blk.instrs.begin(), fork);
        ir::Instr br;
        br.op = ir::Opcode::kBr;
        br.target0 = suffix.id;
        blk.instrs.push_back(br);
      }
      func.blocks.push_back(std::move(suffix));

      entry.applied = true;
      entry.name = func.name + "." + ir::blockName(func, b);
      plan.push_back(std::move(entry));
    }
  }
  return plan;
}

}  // namespace spt::compiler
