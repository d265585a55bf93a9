#include "sim/decode.h"

#include "support/check.h"

namespace spt::sim {

DecodeTable::DecodeTable(const ir::Module& module) {
  SPT_CHECK_MSG(module.finalized(),
                "DecodeTable requires a finalized module (StaticIds)");
  entries_.resize(module.staticInstrCount());
  for (std::uint32_t f = 0; f < module.functionCount(); ++f) {
    for (const ir::BasicBlock& block : module.function(f).blocks) {
      for (const ir::Instr& instr : block.instrs) {
        SPT_CHECK(instr.static_id < entries_.size());
        DecodedInstr& d = entries_[instr.static_id];
        d.instr = &instr;
        d.op = instr.op;
        d.base_latency = ir::baseLatency(instr.op);

        const auto addSrc = [&d](ir::Reg r) {
          if (r.valid() && d.src_count < 4) d.src_regs[d.src_count++] = r.index;
        };
        addSrc(instr.a);
        addSrc(instr.b);
        for (const ir::Reg arg : instr.args) addSrc(arg);

        if (instr.dst.valid() && ir::producesValue(instr.op) &&
            instr.op != ir::Opcode::kCall) {
          // A call's destination becomes ready when the callee returns; the
          // machines set it explicitly on kRet.
          d.dst_reg = instr.dst.index;
        }
        d.is_load = instr.op == ir::Opcode::kLoad;
        d.is_store = instr.op == ir::Opcode::kStore;
        d.is_cond_branch = instr.op == ir::Opcode::kCondBr;

        // Dispatch classification. A class other than kGeneric is a promise
        // to the threaded-dispatch handlers (e.g. kValue/kLoad/kHalloc imply
        // a live dst), so anything that breaks a handler's precondition
        // falls back to kGeneric/kJump rather than asserting.
        DispatchClass klass = DispatchClass::kGeneric;
        switch (instr.op) {
          case ir::Opcode::kLoad:
            klass = d.dst_reg != ir::Reg::kInvalidIndex ? DispatchClass::kLoad
                                                        : DispatchClass::kGeneric;
            break;
          case ir::Opcode::kStore:
            klass = DispatchClass::kStore;
            break;
          case ir::Opcode::kCondBr:
            klass = DispatchClass::kCondBr;
            break;
          case ir::Opcode::kBr:
          case ir::Opcode::kNop:
            klass = DispatchClass::kJump;
            break;
          case ir::Opcode::kCall:
            klass = DispatchClass::kCall;
            d.callee_params = module.function(instr.callee).param_count;
            break;
          case ir::Opcode::kRet:
            klass = DispatchClass::kRet;
            break;
          case ir::Opcode::kSptFork:
            klass = DispatchClass::kFork;
            break;
          case ir::Opcode::kSptKill:
            klass = DispatchClass::kKill;
            break;
          case ir::Opcode::kHalloc:
            klass = d.dst_reg != ir::Reg::kInvalidIndex
                        ? DispatchClass::kHalloc
                        : DispatchClass::kJump;
            break;
          default:
            // Pure producers: kValue when the destination is live, kJump
            // when it is dead (timing-wise just an issue slot).
            klass = d.dst_reg != ir::Reg::kInvalidIndex ? DispatchClass::kValue
                                                        : DispatchClass::kJump;
            break;
        }
        d.klass = static_cast<std::uint8_t>(klass);
      }
    }
  }
}

}  // namespace spt::sim
