// Predecoded static instruction table.
//
// Both machines issue every trace record through the pipeline, which needs
// the opcode's latency, its source and destination registers and its
// memory/branch class. All of that is a pure function of the StaticId, so
// DecodeTable computes it exactly once per static instruction at machine
// construction; per record the pipeline reads the entry and the record
// directly (Pipeline::issue) and forms the frame-qualified register keys
// where it uses them.
#pragma once

#include <cstdint>
#include <vector>

#include "ir/module.h"

namespace spt::sim {

/// Dispatch class of a static instruction — the index into the machines'
/// threaded-dispatch tables (computed-goto labels / jump tables). Each
/// class's handler hoists every data-dependent branch the dynamic
/// Pipeline::issue would re-test per record.
enum class DispatchClass : std::uint8_t {
  kValue = 0,  // pure producer with a live destination (ALU, const, mov)
  kLoad,       // kLoad with a live destination
  kStore,      // kStore
  kCondBr,     // kCondBr
  kJump,       // no timed effects beyond issue: kBr, kNop, dead-dst ops
  kCall,       // kCall
  kRet,        // kRet
  kFork,       // kSptFork
  kKill,       // kSptKill
  kHalloc,     // kHalloc with a live destination
  kGeneric,    // anything unusual; handled by the generic slow path
};
inline constexpr std::size_t kDispatchClassCount = 11;

/// What the machines need of one static instruction, decoded once. The
/// frame, the memory address and the branch direction come from the
/// dynamic record.
struct DecodedInstr {
  /// The full static instruction, for emulation-only fields (imm, callee,
  /// args, targets). Points into the module the table was built from.
  const ir::Instr* instr = nullptr;
  ir::Opcode op = ir::Opcode::kNop;
  std::uint8_t klass = static_cast<std::uint8_t>(DispatchClass::kGeneric);
  std::uint32_t base_latency = 1;
  std::uint32_t src_count = 0;
  std::uint32_t src_regs[4] = {0, 0, 0, 0};
  std::uint32_t dst_reg = ir::Reg::kInvalidIndex;  // invalid = no timed dst
  std::uint32_t callee_params = 0;  // kCall: the callee's parameter count
  bool is_load = false;
  bool is_store = false;
  bool is_cond_branch = false;
};

/// StaticId -> DecodedInstr for every instruction of a finalized module.
class DecodeTable {
 public:
  explicit DecodeTable(const ir::Module& module);

  const DecodedInstr& operator[](ir::StaticId sid) const {
    return entries_[sid];
  }

 private:
  std::vector<DecodedInstr> entries_;
};

}  // namespace spt::sim
