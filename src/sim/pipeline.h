// In-order pipeline timing model (Itanium2-like, paper Table 1).
//
// The model is event-driven rather than cycle-stepped: each dynamic
// instruction issues in order, constrained by issue width, operand
// readiness (register scoreboard), I-cache fetch latency and branch
// mispredictions. Every cycle the pipeline clock advances is attributed to
// one of three categories — execution, pipeline stall, or D-cache stall —
// which is exactly the breakdown paper Figure 9 reports.
//
// The register scoreboard holds only values not yet available. No
// pipeline clock ever goes back, so a value whose ready cycle has passed
// behaves exactly like an absent one: its way is free for reuse, and a
// write of an already-available value to an absent key stores nothing. The
// table is set-associative (Scoreboard below) and grows only when one set
// holds more values in flight than it has ways, so it stays a few KiB
// however long the trace. (A dense per-frame array over every register
// was measured and lost to the hash table this replaced: it costs an
// extra indirection per source.)
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "ir/instr.h"
#include "sim/branch_predictor.h"
#include "sim/cache.h"
#include "sim/flat_map.h"
#include "trace/record.h"

namespace spt::sim {

enum class StallKind : std::uint8_t {
  kExecution,
  kPipeline,
  kDCache,
};

struct CycleBreakdown {
  std::uint64_t execution = 0;
  std::uint64_t pipeline_stall = 0;
  std::uint64_t dcache_stall = 0;

  std::uint64_t total() const {
    return execution + pipeline_stall + dcache_stall;
  }
  void add(StallKind kind, std::uint64_t cycles) {
    switch (kind) {
      case StallKind::kExecution:
        execution += cycles;
        break;
      case StallKind::kPipeline:
        pipeline_stall += cycles;
        break;
      case StallKind::kDCache:
        dcache_stall += cycles;
        break;
    }
  }
};

/// One dynamic instruction prepared for timing simulation.
struct ExecInstr {
  ir::StaticId sid = ir::kInvalidStaticId;
  ir::Opcode op = ir::Opcode::kNop;
  std::uint32_t base_latency = 1;
  /// Frame-qualified source register keys (see Pipeline::regKey); the first
  /// `src_count` entries are set, the rest are 0.
  std::uint64_t srcs[4] = {0, 0, 0, 0};
  std::uint32_t src_count = 0;
  std::uint64_t dst = 0;
  bool is_load = false;
  bool is_store = false;
  std::uint64_t mem_addr = 0;
  bool is_cond_branch = false;
  bool taken = false;
};

/// Ready cycle of a register value and whether a load produced it (a stall
/// on it counts as a D-cache stall).
struct RegState {
  std::uint64_t ready = 0;
  bool from_load = false;
};

/// The set of register values still in flight, keyed by frame-qualified
/// register id (key 0 is reserved). Each 64-byte set holds 4 ways of
/// (key, ready << 1 | from_load). A way whose value is available at the
/// writer's clock is free; when every way of a set is in flight the table
/// doubles and rehashes only the values in flight, so it never drops one.
/// `find` may return a value that has since become available: callers
/// compare its ready cycle with their clock, as they would for any value.
class Scoreboard {
 public:
  Scoreboard() : sets_(kInitialSets) {}

  /// The key's state, or ready cycle 0 when it holds none.
  RegState find(std::uint64_t key) const {
    const Set& set = sets_[setOf(key)];
    for (int w = 0; w < kWays; ++w) {
      if (set.key[w] == key) {
        return RegState{set.state[w] >> 1, (set.state[w] & 1) != 0};
      }
    }
    return RegState{};
  }

  /// Records `state` for `key` as of clock `now`, which never decreases
  /// from one write to the next.
  void write(std::uint64_t key, RegState state, std::uint64_t now) {
    const std::uint64_t packed = state.ready << 1 | (state.from_load ? 1 : 0);
    for (;;) {
      Set& set = sets_[setOf(key)];
      int free_way = -1;
      for (int w = 0; w < kWays; ++w) {
        if (set.key[w] == key) {
          set.state[w] = packed;
          return;
        }
        if (free_way < 0 && set.state[w] >> 1 <= now) free_way = w;
      }
      if (state.ready <= now) return;
      if (free_way >= 0) {
        set.key[free_way] = key;
        set.state[free_way] = packed;
        return;
      }
      grow(now);
    }
  }

  std::size_t setCount() const { return sets_.size(); }

 private:
  static constexpr int kWays = 4;
  static constexpr std::size_t kInitialSets = 64;  // 4 KiB

  struct alignas(64) Set {
    std::uint64_t key[kWays] = {};
    std::uint64_t state[kWays] = {};
  };

  std::size_t setOf(std::uint64_t key) const {
    return flatHashSlot(key, shift_);
  }

  /// Doubles the set count. A set's index is the top bits of its keys'
  /// hash, so the values of old set s land in new sets 2s and 2s + 1:
  /// none can overflow its new set.
  void grow(std::uint64_t now) {
    std::vector<Set> old(sets_.size() * 2);
    old.swap(sets_);
    --shift_;
    for (const Set& from : old) {
      for (int w = 0; w < kWays; ++w) {
        if (from.state[w] >> 1 <= now) continue;
        Set& to = sets_[setOf(from.key[w])];
        int way = 0;
        while (to.key[way] != 0) ++way;
        to.key[way] = from.key[w];
        to.state[way] = from.state[w];
      }
    }
  }

  std::vector<Set> sets_;
  unsigned shift_ = 64 - std::countr_zero(kInitialSets);
};

class Pipeline {
 public:
  Pipeline(const support::MachineConfig& config, MemorySystem& memory);

  /// Frame-qualified register key; 0 is reserved for "no register".
  static std::uint64_t regKey(trace::FrameId frame, ir::Reg reg) {
    return ((static_cast<std::uint64_t>(frame) << 32) | reg.index) + 1;
  }
  /// Kind selectors for executeKnown: which memory/branch flags the caller
  /// has already resolved at compile time. kExecDynamic reads the flags from
  /// the ExecInstr at runtime (the classic execute() behavior); the others
  /// fold the corresponding branches away entirely — the threaded-dispatch
  /// handlers (docs/PERF.md) call the variant matching their dispatch class.
  enum : int {
    kExecPlain = 0,   // no memory access, not a conditional branch
    kExecLoad = 1,    // is_load
    kExecStore = 2,   // is_store
    kExecBranch = 3,  // is_cond_branch
    kExecDynamic = 4,
  };

  /// Issues one instruction; returns the cycle its result is available.
  /// Inline: this is the per-record core of both machines, and keeping it
  /// (and the cache model it calls) visible to the caller's translation
  /// unit is worth measurable host throughput (docs/PERF.md). One body
  /// serves the dynamic path and all specialized instantiations, so the
  /// timing semantics cannot diverge between them.
  template <int Kind = kExecDynamic>
  std::uint64_t executeKnown(const ExecInstr& instr) {
    constexpr bool kDyn = Kind == kExecDynamic;
    const bool is_load = kDyn ? instr.is_load : Kind == kExecLoad;
    const bool is_store = kDyn ? instr.is_store : Kind == kExecStore;
    const bool is_cond_branch =
        kDyn ? instr.is_cond_branch : Kind == kExecBranch;

    // Instruction fetch. Instructions occupy 16 synthetic bytes each; an
    // L1I miss stalls the front end for the extra fill latency.
    const std::uint64_t iaddr = static_cast<std::uint64_t>(instr.sid) * 16;
    const std::uint32_t ifetch = memory_.accessInstr(iaddr, cycle_);
    if (ifetch > config_.l1i.latency_cycles) {
      bumpCycleTo(cycle_ + (ifetch - config_.l1i.latency_cycles),
                  StallKind::kPipeline);
    }

    // Operand readiness.
    const RegState latest = sourceState(instr);
    if (latest.ready > cycle_) {
      bumpCycleTo(latest.ready,
                  latest.from_load ? StallKind::kDCache : StallKind::kPipeline);
    }

    // Issue.
    const std::uint64_t issue_cycle = cycle_;
    cycle_had_issue_ = true;
    ++instrs_issued_;
    ++slots_;
    if (slots_ >= config_.issue_width) {
      breakdown_.add(StallKind::kExecution, 1);
      ++cycle_;
      slots_ = 0;
      replay_slots_ = 0;
      cycle_had_issue_ = false;
    }

    // Result latency.
    std::uint64_t done = issue_cycle + instr.base_latency;
    if (is_load || is_store) {
      const std::uint32_t dlat =
          memory_.accessData(instr.mem_addr, issue_cycle);
      if (is_load) done = issue_cycle + dlat;
      // Stores retire through the store buffer without stalling the pipe.
    }
    if (instr.dst != 0) scoreboard_.write(instr.dst, {done, is_load}, cycle_);

    // Branch resolution.
    if (is_cond_branch) {
      const bool correct = predictor_.predictAndUpdate(instr.taken);
      if (!correct) {
        bumpCycleTo(issue_cycle + 1 + config_.branch_mispredict_penalty,
                    StallKind::kPipeline);
      }
    }
    return done;
  }

  std::uint64_t execute(const ExecInstr& instr) {
    return executeKnown<kExecDynamic>(instr);
  }

  /// Consumes one replay-commit slot (replay width entries retire per
  /// cycle during SRB replay, paper Section 3.1).
  void commitFromBuffer();

  /// Jumps the clock forward attributing the gap to `kind` (used for
  /// fork/commit overheads and cross-pipeline synchronization).
  void advanceTo(std::uint64_t cycle, StallKind kind);

  /// Jumps the clock forward distributing the gap across categories in the
  /// proportions of `profile` (used at fast commit: the jump corresponds to
  /// work the speculative pipeline performed, so it inherits that
  /// pipeline's breakdown).
  void advanceToWithProfile(std::uint64_t cycle, const CycleBreakdown& profile);

  /// Marks a register value as available at `cycle` without issuing
  /// (register context copies at fork / commit).
  void setRegReady(std::uint64_t key, std::uint64_t cycle, bool from_load);

  std::uint64_t cycle() const { return cycle_; }
  const CycleBreakdown& breakdown() const { return breakdown_; }
  BranchPredictor& predictor() { return predictor_; }
  std::uint64_t instrsIssued() const { return instrs_issued_; }

  /// Accounts the current partially-filled cycle; call before reading final
  /// numbers.
  void finish();

 private:
  void bumpCycleTo(std::uint64_t cycle, StallKind kind) {
    if (cycle <= cycle_) return;
    std::uint64_t gap = cycle - cycle_;
    if (cycle_had_issue_) {
      // The partially-filled current cycle counts as execution, the rest of
      // the gap as the given stall kind.
      breakdown_.add(StallKind::kExecution, 1);
      cycle_had_issue_ = false;
      --gap;
    }
    breakdown_.add(kind, gap);
    cycle_ = cycle;
    slots_ = 0;
    replay_slots_ = 0;
  }

  RegState sourceState(const ExecInstr& instr) const {
    RegState latest;
    for (std::uint32_t i = 0; i < instr.src_count; ++i) {
      const RegState state = scoreboard_.find(instr.srcs[i]);
      if (state.ready > latest.ready) latest = state;
    }
    return latest;
  }

  const support::MachineConfig& config_;
  MemorySystem& memory_;
  BranchPredictor predictor_;

  std::uint64_t cycle_ = 0;
  std::uint32_t slots_ = 0;         // issue slots used this cycle
  std::uint32_t replay_slots_ = 0;  // replay-commit slots used this cycle
  bool cycle_had_issue_ = false;
  std::uint64_t instrs_issued_ = 0;
  CycleBreakdown breakdown_;
  Scoreboard scoreboard_;
};

}  // namespace spt::sim
