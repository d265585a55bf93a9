#include "ir/verifier.h"

namespace spt::ir {
namespace {

class FunctionVerifier {
 public:
  FunctionVerifier(const Module& module, const Function& func)
      : module_(module), func_(func) {}

  std::vector<Violation> run() {
    if (func_.blocks.empty()) {
      report("function has no blocks");
      return problems_;
    }
    if (func_.reg_count < func_.param_count) {
      report("reg_count below param_count");
    }
    for (const auto& block : func_.blocks) {
      checkBlock(block);
    }
    return problems_;
  }

 private:
  void report(std::string msg) {
    Violation v;
    v.message = std::move(msg);
    problems_.push_back(std::move(v));
  }

  void reportBlock(const BasicBlock& block, std::string msg) {
    Violation v;
    v.block = block.id;
    v.message = std::move(msg);
    problems_.push_back(std::move(v));
  }

  void reportAt(const BasicBlock& block, std::size_t index, std::string msg) {
    Violation v;
    v.block = block.id;
    v.instr_index = static_cast<std::uint32_t>(index);
    v.at_instr = true;
    v.message = std::move(msg);
    problems_.push_back(std::move(v));
  }

  void checkReg(const BasicBlock& block, std::size_t index, Reg r,
                const char* role) {
    if (!r.valid()) {
      reportAt(block, index, std::string("missing ") + role + " register");
      return;
    }
    if (r.index >= func_.reg_count) {
      reportAt(block, index,
               std::string(role) + " register r" + std::to_string(r.index) +
                   " out of range");
    }
  }

  void checkTarget(const BasicBlock& block, std::size_t index,
                   BlockId target) {
    if (target == kInvalidBlock || target >= func_.blocks.size()) {
      reportAt(block, index, "branch target out of range");
    }
  }

  void checkBlock(const BasicBlock& block) {
    if (block.instrs.empty()) {
      reportBlock(block, "is empty");
      return;
    }
    if (!isTerminator(block.instrs.back().op)) {
      reportBlock(block, "lacks a terminator");
    }
    for (std::size_t i = 0; i < block.instrs.size(); ++i) {
      const Instr& instr = block.instrs[i];
      if (isTerminator(instr.op) && i + 1 != block.instrs.size()) {
        reportAt(block, i, "terminator in the middle of a block");
      }
      checkInstr(block, i, instr);
    }
  }

  void checkInstr(const BasicBlock& block, std::size_t i, const Instr& in) {
    switch (in.op) {
      case Opcode::kConst:
      case Opcode::kHalloc:
        checkReg(block, i, in.dst, "dst");
        break;
      case Opcode::kMov:
        checkReg(block, i, in.dst, "dst");
        checkReg(block, i, in.a, "src");
        break;
      case Opcode::kAdd:
      case Opcode::kSub:
      case Opcode::kMul:
      case Opcode::kDiv:
      case Opcode::kRem:
      case Opcode::kAnd:
      case Opcode::kOr:
      case Opcode::kXor:
      case Opcode::kShl:
      case Opcode::kShr:
      case Opcode::kCmpEq:
      case Opcode::kCmpNe:
      case Opcode::kCmpLt:
      case Opcode::kCmpLe:
      case Opcode::kCmpGt:
      case Opcode::kCmpGe:
        checkReg(block, i, in.dst, "dst");
        checkReg(block, i, in.a, "lhs");
        checkReg(block, i, in.b, "rhs");
        break;
      case Opcode::kLoad:
        checkReg(block, i, in.dst, "dst");
        checkReg(block, i, in.a, "address");
        break;
      case Opcode::kStore:
        checkReg(block, i, in.a, "address");
        checkReg(block, i, in.b, "value");
        break;
      case Opcode::kBr:
        checkTarget(block, i, in.target0);
        break;
      case Opcode::kCondBr:
        checkReg(block, i, in.a, "condition");
        checkTarget(block, i, in.target0);
        checkTarget(block, i, in.target1);
        break;
      case Opcode::kCall: {
        if (in.callee == kInvalidFunc ||
            in.callee >= module_.functionCount()) {
          reportAt(block, i, "call to unknown function");
          break;
        }
        const Function& callee = module_.function(in.callee);
        if (in.args.size() != callee.param_count) {
          reportAt(block, i,
                   "call arity " + std::to_string(in.args.size()) +
                       " != param count " +
                       std::to_string(callee.param_count) + " of @" +
                       callee.name);
        }
        for (std::size_t k = 0; k < in.args.size(); ++k) {
          checkReg(block, i, in.args[k], "argument");
        }
        if (in.dst.valid()) checkReg(block, i, in.dst, "dst");
        break;
      }
      case Opcode::kRet:
        if (in.a.valid()) checkReg(block, i, in.a, "return value");
        break;
      case Opcode::kSptFork:
        checkTarget(block, i, in.target0);
        break;
      case Opcode::kSptKill:
      case Opcode::kNop:
        break;
    }
  }

  const Module& module_;
  const Function& func_;
  std::vector<Violation> problems_;
};

}  // namespace

std::string Violation::str() const {
  std::string out;
  if (!function.empty()) out += "@" + function + ": ";
  if (block != kInvalidBlock) {
    out += "B";
    out += std::to_string(block);
    if (at_instr) {
      out += "[";
      out += std::to_string(instr_index);
      out += "]";
    }
    out += at_instr ? ": " : " ";
  }
  out += message;
  return out;
}

std::string formatViolations(const std::vector<Violation>& violations) {
  std::string out;
  for (const Violation& v : violations) {
    if (!out.empty()) out += '\n';
    out += v.str();
  }
  return out;
}

std::vector<Violation> verifyFunctionDetailed(const Module& module,
                                              const Function& func) {
  return FunctionVerifier(module, func).run();
}

std::vector<Violation> verifyModuleDetailed(const Module& module) {
  std::vector<Violation> all;
  for (FuncId f = 0; f < module.functionCount(); ++f) {
    const Function& func = module.function(f);
    for (Violation& v : verifyFunctionDetailed(module, func)) {
      v.function = func.name;
      all.push_back(std::move(v));
    }
  }
  return all;
}

std::vector<std::string> verifyFunction(const Module& module,
                                        const Function& func) {
  std::vector<std::string> out;
  for (const Violation& v : verifyFunctionDetailed(module, func)) {
    out.push_back(v.str());
  }
  return out;
}

std::vector<std::string> verifyModule(const Module& module) {
  std::vector<std::string> out;
  for (const Violation& v : verifyModuleDetailed(module)) {
    out.push_back(v.str());
  }
  return out;
}

}  // namespace spt::ir
