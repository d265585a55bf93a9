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
//
// The memory image is 4 KiB pages of words, each made on first write, with
// one written-bit per word: a load or store is an index and a bit-or, and
// a memValue lookup an index and a bit-test.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ir/module.h"
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

/// Word-addressed memory contents learned from the trace. Trace addresses
/// are 8-aligned and inside the interpreter's memory, which the
/// interpreter checks on every access; `set` refuses any other. An
/// unaligned, never-written or past-the-last-page address reads as never
/// written.
class MemoryImage {
 public:
  void set(std::uint64_t addr, std::int64_t value) {
    SPT_CHECK_MSG(addr % 8 == 0 && addr < kAddressLimit,
                  "memory image address is unaligned or out of range");
    const std::size_t p = addr >> kPageBits;
    if (p >= pages_.size()) pages_.resize(p + 1);
    if (pages_[p] == nullptr) {
      pages_[p] = std::make_unique_for_overwrite<Page>();
    }
    Page& page = *pages_[p];
    const std::size_t w = (addr & kPageMask) >> 3;
    page.words[w] = value;
    page.written[w >> 6] |= 1ull << (w & 63);
  }

  /// The word at `addr`, or nullptr when it was never written.
  const std::int64_t* find(std::uint64_t addr) const {
    const std::size_t p = addr >> kPageBits;
    if (addr % 8 != 0 || p >= pages_.size() || pages_[p] == nullptr) {
      return nullptr;
    }
    const Page& page = *pages_[p];
    const std::size_t w = (addr & kPageMask) >> 3;
    return (page.written[w >> 6] >> (w & 63) & 1) != 0 ? &page.words[w]
                                                         : nullptr;
  }

  /// Number of words ever written.
  std::size_t size() const {
    std::size_t n = 0;
    for (const auto& page : pages_) {
      if (page == nullptr) continue;
      for (const std::uint64_t bits : page->written) n += std::popcount(bits);
    }
    return n;
  }

  /// Visits every written (address, value) pair in address order.
  template <typename Fn>
  void forEach(Fn fn) const {
    for (std::size_t p = 0; p < pages_.size(); ++p) {
      if (pages_[p] == nullptr) continue;
      for (std::size_t w = 0; w < kPageWords; ++w) {
        if ((pages_[p]->written[w >> 6] >> (w & 63) & 1) != 0) {
          fn(static_cast<std::uint64_t>(p << kPageBits | w << 3),
             pages_[p]->words[w]);
        }
      }
    }
  }

 private:
  static constexpr unsigned kPageBits = 12;
  static constexpr std::uint64_t kPageMask = (1ull << kPageBits) - 1;
  static constexpr std::size_t kPageWords = std::size_t{1} << kPageBits >> 3;
  /// Far above the interpreter's memory (64 MiB); bounds the page table
  /// a corrupt record could otherwise grow.
  static constexpr std::uint64_t kAddressLimit = 1ull << 32;

  struct Page {
    std::int64_t words[kPageWords];  // read only where written
    std::uint64_t written[kPageWords / 64] = {};
  };

  std::vector<std::unique_ptr<Page>> pages_;
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
    memory_.set(r.mem_addr, r.value);
  }
  void applyStore(const trace::Record& r) {
    hotFrame(r);
    memory_.set(r.mem_addr, r.value);
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
  std::int64_t memValue(std::uint64_t addr, std::int64_t fallback) const {
    const std::int64_t* value = memory_.find(addr);
    return value == nullptr ? fallback : *value;
  }

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
  MemoryImage memory_;
  std::uint64_t halloc_count_ = 0;
  std::uint64_t arena_allocs_ = 0;
  std::uint64_t arena_reuses_ = 0;
  bool started_ = false;
  bool digest_enabled_ = false;
  std::uint64_t digest_ = support::kFnvOffsetBasis;
};

}  // namespace spt::sim
