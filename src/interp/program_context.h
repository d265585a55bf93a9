// The decoded form of a finalized module: what the interpreter runs.
//
// Every function's blocks are laid out in one flat instruction array, each
// block followed by a sentinel, with registers as plain indices and branch
// targets resolved to decoded blocks. A decoded block carries its first
// instruction's offset and its loop chain, so entering it needs no lookup
// through the module or its analyses. The loop analyses run once, when the
// context is built, and are not kept.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "analysis/loops.h"
#include "ir/module.h"

namespace spt::interp {

/// The sentinel after each block's last instruction: executing it raises
/// "fell off the end of a block". Outside ir::Opcode's range.
inline constexpr auto kEndOfBlock = static_cast<ir::Opcode>(0xff);

/// One instruction. Register fields are ir::Reg indices (kNoReg's index
/// when absent).
struct DecodedInstr {
  ir::Opcode op = kEndOfBlock;
  ir::StaticId sid = ir::kInvalidStaticId;
  std::uint32_t dst = ir::Reg::kInvalidIndex;
  std::uint32_t a = ir::Reg::kInvalidIndex;
  std::uint32_t b = ir::Reg::kInvalidIndex;
  /// kBr/kCondBr: decoded block indices of target0 and target1.
  /// kCall: the callee's FuncId and the offset of its first argument
  /// register index in ProgramContext::callArgs().
  std::uint32_t target0 = 0;
  std::uint32_t target1 = 0;
  /// kCall: the number of arguments.
  std::uint32_t arg_count = 0;
  std::int64_t imm = 0;
};

/// A loop of a block's loop chain.
struct LoopRef {
  analysis::LoopId loop = analysis::kInvalidLoop;
  /// Static id of the first instruction of the loop's header: the sid of
  /// its kIterBegin and kLoopExit markers.
  ir::StaticId header_sid = ir::kInvalidStaticId;
};

struct DecodedBlock {
  /// Offset of the block's first instruction in ProgramContext::code().
  std::uint32_t first = 0;
  /// The loops containing the block, outermost first:
  /// ProgramContext::loopRefs()[chain_begin, chain_begin + chain_size).
  std::uint32_t chain_begin = 0;
  std::uint32_t chain_size = 0;
  /// True when the block is the header of its innermost loop: entering
  /// it with that loop active starts the loop's next iteration.
  bool innermost_header = false;
};

struct DecodedFunction {
  /// Decoded block index of the entry block (block 0).
  std::uint32_t entry = 0;
  std::uint32_t reg_count = 0;
};

/// Immutable decoded program of a finalized module, built once and shared
/// by every interpreter run of the module. The module must outlive the
/// context and must not be mutated while it is in use.
class ProgramContext {
 public:
  explicit ProgramContext(const ir::Module& module);

  const ir::Module& module() const { return module_; }

  const DecodedFunction& function(ir::FuncId f) const { return functions_[f]; }
  const DecodedBlock& block(std::uint32_t b) const { return blocks_[b]; }
  std::span<const LoopRef> chain(const DecodedBlock& block) const {
    return {loop_refs_.data() + block.chain_begin, block.chain_size};
  }
  const DecodedInstr* code() const { return code_.data(); }
  const std::uint32_t* callArgs() const { return call_args_.data(); }

 private:
  const ir::Module& module_;
  std::vector<DecodedFunction> functions_;
  std::vector<DecodedBlock> blocks_;
  std::vector<LoopRef> loop_refs_;
  std::vector<DecodedInstr> code_;
  std::vector<std::uint32_t> call_args_;
};

}  // namespace spt::interp
