// Architectural state reconstruction from the sequential trace.
//
// The simulator's main thread walks the trace in order; ArchState mirrors
// the interpreter's frames and register values from the trace records, and
// learns memory contents from the loads/stores it passes. The SPT machine
// uses it for: fork-time register snapshots, value-based register
// dependence checking, and the memory values speculative loads observe.
//
// Frame storage is an arena: call/return recycle Frame slots (and their
// register vectors' capacity) in a depth-indexed stack instead of
// allocating per call, so deep call-heavy traces run allocation-free once
// the arena reaches the program's maximum call depth. Reset to any depth is
// O(1) (just the depth index moves).
#pragma once

#include <cstdint>
#include <vector>

#include "ir/module.h"
#include "sim/flat_map.h"
#include "support/check.h"
#include "support/hash.h"
#include "trace/record.h"

namespace spt::sim {

/// Side information a machine needs about the record it just applied.
struct ApplyInfo {
  // kCall:
  trace::FrameId callee_frame = 0;
  ir::FuncId callee_func = ir::kInvalidFunc;
  std::uint32_t callee_params = 0;
  // kRet:
  trace::FrameId caller_frame = 0;
  ir::Reg caller_dst;  // invalid when the callee's result is unused
};

class ArchState {
 public:
  /// The first applied record must belong to frame 0 of `entry` (the
  /// module's main function unless overridden).
  explicit ArchState(const ir::Module& module);

  /// Applies one kInstr record (markers must not be passed).
  ApplyInfo apply(const trace::Record& record);

  /// Same, with the record's static instruction already looked up (the
  /// machines keep a predecode table, saving the instrAt per record).
  ApplyInfo apply(const trace::Record& record, const ir::Instr& instr);

  /// Hot-path appliers for the threaded-dispatch handlers: identical
  /// architectural effects to apply() for their dispatch class, minus the
  /// opcode re-dispatch and ApplyInfo construction. Preconditions match the
  /// DispatchClass contract (kValue/kLoad imply a live destination); calls,
  /// returns, forks with side info, and hallocs stay on apply().
  void applyValue(const trace::Record& r, std::uint32_t dst_index) {
    hotFrame(r).regs[dst_index] = r.value;
  }
  void applyLoad(const trace::Record& r, std::uint32_t dst_index) {
    hotFrame(r).regs[dst_index] = r.value;
    memory_[r.mem_addr] = r.value;
  }
  void applyStore(const trace::Record& r) {
    hotFrame(r);
    memory_[r.mem_addr] = r.value;
  }
  /// kJump/kCondBr/kFork/kKill: digest + frame check only.
  void applyNoEffect(const trace::Record& r) { hotFrame(r); }

  const ir::Instr& instrOf(const trace::Record& record) const {
    return module_.instrAt(record.sid);
  }

  trace::FrameId curFrame() const { return frames_[depth_ - 1].id; }
  ir::FuncId curFunc() const { return frames_[depth_ - 1].func; }
  const std::vector<std::int64_t>& topRegs() const {
    return frames_[depth_ - 1].regs;
  }

  /// Current memory value at `addr` as of the applied prefix; `fallback`
  /// when the address was never observed (then the trace-recorded value is
  /// the correct content).
  std::int64_t memValue(std::uint64_t addr, std::int64_t fallback) const;

  std::uint64_t hallocCount() const { return halloc_count_; }

  /// Arena telemetry: frames newly allocated vs recycled from the arena.
  std::uint64_t arenaAllocs() const { return arena_allocs_; }
  std::uint64_t arenaReuses() const { return arena_reuses_; }

  /// Opt-in incremental architectural digest: every applied record folds
  /// its (sid, frame, value, mem_addr) into an FNV chain, so two ArchStates
  /// that applied the same records in the same order carry equal digests.
  /// Off by default — the fold would otherwise tax the simulation hot path.
  void enableDigest() { digest_enabled_ = true; }
  bool digestEnabled() const { return digest_enabled_; }
  std::uint64_t streamDigest() const { return digest_; }

  /// Deep state comparison for the oracle's diff mode: frames (id, func,
  /// every register), the memory image, and the allocator count. On
  /// divergence returns false and, when `diff` is given, names the first
  /// divergent register or address.
  bool deepEquals(const ArchState& other, std::string* diff) const;

 private:
  struct Frame {
    trace::FrameId id = 0;
    ir::FuncId func = ir::kInvalidFunc;
    std::vector<std::int64_t> regs;
    ir::Reg ret_dst;
  };

  /// Digest fold plus frame check; the live top frame. The slow path covers
  /// lazy entry-frame creation and check failure.
  Frame& hotFrame(const trace::Record& r) {
    if (digest_enabled_) foldDigest(r);
    if (depth_ == 0 || frames_[depth_ - 1].id != r.frame) {
      return frameSlowPath(r);
    }
    return frames_[depth_ - 1];
  }

  void foldDigest(const trace::Record& r);
  Frame& frameSlowPath(const trace::Record& r);

  const ir::Module& module_;
  std::vector<Frame> frames_;  // arena; [0, depth_) are the live stack
  std::size_t depth_ = 0;
  FlatMap64<std::int64_t> memory_;
  std::uint64_t halloc_count_ = 0;
  std::uint64_t arena_allocs_ = 0;
  std::uint64_t arena_reuses_ = 0;
  bool started_ = false;
  bool digest_enabled_ = false;
  std::uint64_t digest_ = support::kFnvOffsetBasis;
};

}  // namespace spt::sim
