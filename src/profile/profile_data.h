// Aggregated profile data consumed by the SPT compiler.
//
// The paper's framework annotates the CFG with reach probabilities and the
// DD graph with dependence probabilities (Section 4.1), both obtained from
// profiling runs. ProfileData is the container those annotations are
// derived from.
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "ir/instr.h"

namespace spt::profile {

/// Outcome counts of one static conditional branch.
struct BranchStats {
  std::uint64_t taken = 0;
  std::uint64_t not_taken = 0;

  std::uint64_t total() const { return taken + not_taken; }
  /// Probability of following target0; `fallback` when never executed.
  double takenProb(double fallback = 0.5) const {
    return total() == 0 ? fallback
                        : static_cast<double>(taken) / total();
  }
};

/// Dynamic statistics of one static loop (keyed by header sid).
struct LoopStats {
  std::uint64_t episodes = 0;    // entry-to-exit executions
  std::uint64_t iterations = 0;  // header arrivals (kIterBegin markers)
  /// Instructions executed inside the loop, *including* nested loops and
  /// callees (the paper's notion of loop body size counts the function
  /// calls made from the body — cf. the gap discussion under Figure 6).
  std::uint64_t dyn_instrs = 0;

  double avgBodySize() const {
    return iterations == 0
               ? 0.0
               : static_cast<double>(dyn_instrs) / iterations;
  }
  double avgTripCount() const {
    return episodes == 0 ? 0.0
                         : static_cast<double>(iterations) / episodes;
  }
};

/// Dynamic statistics of one static call site.
struct CallStats {
  std::uint64_t calls = 0;
  /// Instructions executed inside the callee, inclusive of nested calls.
  std::uint64_t total_instrs = 0;

  double avgInstrs() const {
    return calls == 0 ? 0.0
                      : static_cast<double>(total_instrs) / calls;
  }
};

/// One observed distance-1 cross-iteration memory dependence.
struct MemDepStat {
  std::uint64_t count = 0;
  /// Accumulated "misspeculation computation amount": instructions executed
  /// between the dependent load and the end of its enclosing call (0 when
  /// the load is directly in the loop body — the cost graph then models the
  /// downstream slice itself).
  std::uint64_t tail_instrs = 0;

  double avgTail() const {
    return count == 0 ? 0.0
                      : static_cast<double>(tail_instrs) / count;
  }
};

/// Distance-1 cross-iteration memory dependences of one loop:
/// (store sid, load sid) -> statistics.
using MemDepCounts =
    std::map<std::pair<ir::StaticId, ir::StaticId>, MemDepStat>;

/// Value-pattern statistics of one static value-producing instruction
/// (for software value prediction, paper Section 4.4).
struct ValueStats {
  std::uint64_t samples = 0;  // executions observed (after the first)
  /// The most frequent delta between consecutive executions (the smallest
  /// one on a tie) and how many of the samples had it.
  std::int64_t best_stride = 0;
  std::uint64_t best_count = 0;

  /// The most frequent stride and its relative frequency.
  std::int64_t bestStride() const { return best_stride; }
  double predictability() const {
    return samples == 0 ? 0.0
                        : static_cast<double>(best_count) /
                              static_cast<double>(samples);
  }
};

class ProfileData {
 public:
  std::unordered_map<ir::StaticId, BranchStats> branches;
  std::unordered_map<ir::StaticId, LoopStats> loops;
  std::unordered_map<ir::StaticId, MemDepCounts> mem_deps;  // by loop header
  std::unordered_map<ir::StaticId, ValueStats> values;      // by def sid
  std::unordered_map<ir::StaticId, CallStats> calls;        // by call sid
  std::uint64_t total_instrs = 0;

  double branchTakenProb(ir::StaticId sid, double fallback = 0.5) const;

  /// Probability that, in a random iteration of the loop, `load_sid` reads
  /// a value stored by `store_sid` in the previous iteration.
  double memDepProb(ir::StaticId loop_header, ir::StaticId store_sid,
                    ir::StaticId load_sid) const;

  const LoopStats* loopStats(ir::StaticId loop_header) const;

  /// Keeps only the value stats of `sids`: projects a run that
  /// value-profiled a superset onto `sids`, which is exact because each
  /// sid's stats are collected independently.
  void projectValues(const std::unordered_set<ir::StaticId>& sids);
};

}  // namespace spt::profile
