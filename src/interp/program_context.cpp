#include "interp/program_context.h"

#include <algorithm>

#include "analysis/cfg.h"
#include "analysis/dominators.h"
#include "support/check.h"

namespace spt::interp {

ProgramContext::ProgramContext(const ir::Module& module) : module_(module) {
  SPT_CHECK_MSG(module.finalized(),
                "ProgramContext requires a finalized module");
  // Decoded block indices: each function's blocks in order, functions in
  // order.
  functions_.reserve(module.functionCount());
  std::uint32_t block_count = 0;
  for (ir::FuncId f = 0; f < module.functionCount(); ++f) {
    const ir::Function& func = module.function(f);
    functions_.push_back({block_count, func.reg_count});
    block_count += static_cast<std::uint32_t>(func.blocks.size());
  }
  blocks_.resize(block_count);

  for (ir::FuncId f = 0; f < module.functionCount(); ++f) {
    const ir::Function& func = module.function(f);
    const analysis::Cfg cfg(func);
    const analysis::DomTree dom(cfg);
    const analysis::LoopForest loops(cfg, dom);
    const std::uint32_t base = functions_[f].entry;
    const auto headerSid = [&](analysis::LoopId l) {
      const auto& instrs = func.blocks[loops.loop(l).header].instrs;
      return instrs.empty() ? ir::kInvalidStaticId
                            : instrs.front().static_id;
    };

    for (ir::BlockId b = 0; b < func.blocks.size(); ++b) {
      DecodedBlock& block = blocks_[base + b];
      block.first = static_cast<std::uint32_t>(code_.size());
      block.chain_begin = static_cast<std::uint32_t>(loop_refs_.size());
      for (analysis::LoopId l = loops.innermostLoopOf(b);
           l != analysis::kInvalidLoop; l = loops.loop(l).parent) {
        loop_refs_.push_back({l, headerSid(l)});
      }
      std::reverse(loop_refs_.begin() + block.chain_begin,
                   loop_refs_.end());  // outermost first
      block.chain_size =
          static_cast<std::uint32_t>(loop_refs_.size()) - block.chain_begin;
      block.innermost_header =
          block.chain_size != 0 &&
          loops.loop(loop_refs_.back().loop).header == b;

      for (const ir::Instr& in : func.blocks[b].instrs) {
        DecodedInstr d;
        d.op = in.op;
        d.sid = in.static_id;
        d.dst = in.dst.index;
        d.a = in.a.index;
        d.b = in.b.index;
        d.imm = in.imm;
        if (in.op == ir::Opcode::kBr || in.op == ir::Opcode::kCondBr) {
          d.target0 = base + in.target0;
          d.target1 = in.op == ir::Opcode::kCondBr ? base + in.target1 : 0;
        } else if (in.op == ir::Opcode::kCall) {
          d.target0 = in.callee;
          d.target1 = static_cast<std::uint32_t>(call_args_.size());
          d.arg_count = static_cast<std::uint32_t>(in.args.size());
          for (const ir::Reg r : in.args) call_args_.push_back(r.index);
        }
        code_.push_back(d);
      }
      code_.push_back(DecodedInstr{});  // the kEndOfBlock sentinel
    }
  }
}

}  // namespace spt::interp
