#include "ir/printer.h"

#include <sstream>

namespace spt::ir {
namespace {

std::string regName(Reg r) {
  if (!r.valid()) return "_";
  return std::string("r").append(std::to_string(r.index));
}

}  // namespace

std::string blockName(const Function& f, BlockId b) {
  if (b == kInvalidBlock) return "B?";
  const std::string& label = f.blocks[b].label;
  return label.empty() ? std::string("B").append(std::to_string(b)) : label;
}

void printInstr(std::ostream& os, const Module& module, const Instr& i) {
  // The function owning the instruction is only needed for block labels;
  // resolve it lazily through targets when printing inside printFunction.
  (void)module;
  switch (i.op) {
    case Opcode::kConst:
      os << regName(i.dst) << " = const " << i.imm;
      return;
    case Opcode::kMov:
      os << regName(i.dst) << " = mov " << regName(i.a);
      return;
    case Opcode::kLoad:
      os << regName(i.dst) << " = load [" << regName(i.a) << " + " << i.imm
         << "]";
      return;
    case Opcode::kStore:
      os << "store [" << regName(i.a) << " + " << i.imm
         << "] = " << regName(i.b);
      return;
    case Opcode::kBr:
      os << "br B" << i.target0;
      return;
    case Opcode::kCondBr:
      os << "condbr " << regName(i.a) << ", B" << i.target0 << ", B"
         << i.target1;
      return;
    case Opcode::kCall: {
      if (i.dst.valid()) os << regName(i.dst) << " = ";
      os << "call @" << module.function(i.callee).name << "(";
      for (std::size_t k = 0; k < i.args.size(); ++k) {
        if (k != 0) os << ", ";
        os << regName(i.args[k]);
      }
      os << ")";
      return;
    }
    case Opcode::kRet:
      os << "ret";
      if (i.a.valid()) os << ' ' << regName(i.a);
      return;
    case Opcode::kSptFork:
      os << "spt_fork B" << i.target0;
      return;
    case Opcode::kSptKill:
      os << "spt_kill";
      return;
    case Opcode::kHalloc:
      os << regName(i.dst) << " = halloc " << i.imm;
      return;
    case Opcode::kNop:
      os << "nop";
      return;
    default:
      os << regName(i.dst) << " = " << opcodeName(i.op) << ' ' << regName(i.a)
         << ", " << regName(i.b);
      return;
  }
}

void printFunction(std::ostream& os, const Module& module,
                   const Function& func) {
  os << "func @" << func.name << "(params=" << func.param_count
     << ", regs=" << func.reg_count << ")\n";
  for (const auto& block : func.blocks) {
    os << blockName(func, block.id) << ":  ; B" << block.id << "\n";
    for (const auto& instr : block.instrs) {
      os << "  ";
      printInstr(os, module, instr);
      os << '\n';
    }
  }
}

void printModule(std::ostream& os, const Module& module) {
  os << "module " << module.name() << "\n";
  for (FuncId f = 0; f < module.functionCount(); ++f) {
    printFunction(os, module, module.function(f));
    os << '\n';
  }
}

std::string functionToString(const Module& module, const Function& func) {
  std::ostringstream ss;
  printFunction(ss, module, func);
  return ss.str();
}

}  // namespace spt::ir
