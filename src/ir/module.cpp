#include "ir/module.h"

#include "support/check.h"
#include "support/hash.h"

namespace spt::ir {

std::vector<BlockId> BasicBlock::successors() const {
  SPT_CHECK_MSG(hasTerminator(), "block missing terminator");
  const Instr& t = terminator();
  switch (t.op) {
    case Opcode::kBr:
      return {t.target0};
    case Opcode::kCondBr:
      return {t.target0, t.target1};
    case Opcode::kRet:
      return {};
    default:
      SPT_UNREACHABLE("bad terminator");
  }
}

std::size_t Function::instrCount() const {
  std::size_t n = 0;
  for (const auto& b : blocks) n += b.instrs.size();
  return n;
}

FuncId Module::addFunction(std::string name, std::uint32_t param_count) {
  SPT_CHECK_MSG(findFunction(name) == kInvalidFunc,
                "duplicate function name");
  Function f;
  f.id = static_cast<FuncId>(funcs_.size());
  f.name = std::move(name);
  f.param_count = param_count;
  f.reg_count = param_count;
  funcs_.push_back(std::move(f));
  finalized_ = false;
  return funcs_.back().id;
}

Function& Module::function(FuncId id) {
  // Callers that mutate the function must call finalize() again before
  // tracing or simulating; StaticIds are only valid for the finalized shape.
  SPT_CHECK(id < funcs_.size());
  return funcs_[id];
}

const Function& Module::function(FuncId id) const {
  SPT_CHECK(id < funcs_.size());
  return funcs_[id];
}

FuncId Module::findFunction(const std::string& name) const {
  for (const auto& f : funcs_) {
    if (f.name == name) return f.id;
  }
  return kInvalidFunc;
}

void Module::finalize() {
  locations_.clear();
  StaticId next = 0;
  for (auto& f : funcs_) {
    for (auto& b : f.blocks) {
      for (std::uint32_t i = 0; i < b.instrs.size(); ++i) {
        b.instrs[i].static_id = next++;
        locations_.push_back({f.id, b.id, i});
      }
    }
  }
  static_count_ = next;
  finalized_ = true;
}

void Module::setForkSlice(StaticId fork_sid, std::vector<Instr> slice) {
  SPT_CHECK_MSG(finalized_, "attach slices after the final finalize()");
  SPT_CHECK(instrAt(fork_sid).op == Opcode::kSptFork);
  if (slice.empty()) {
    fork_slices_.erase(fork_sid);
  } else {
    fork_slices_[fork_sid] = std::move(slice);
  }
}

const std::vector<Instr>* Module::forkSlice(StaticId fork_sid) const {
  const auto it = fork_slices_.find(fork_sid);
  return it == fork_slices_.end() ? nullptr : &it->second;
}

std::uint64_t Module::structuralDigest() const {
  std::uint64_t h = support::kFnvOffsetBasis;
  const auto word = [&h](std::uint64_t v) { h = support::fnv1aWord(h, v); };
  const auto str = [&](const std::string& s) {
    word(s.size());
    h = support::fnv1a(h, s.data(), s.size());
  };

  word(funcs_.size());
  word(main_func_);
  for (const Function& f : funcs_) {
    str(f.name);
    word(f.param_count);
    word(f.reg_count);
    word(f.blocks.size());
    for (const BasicBlock& b : f.blocks) {
      str(b.label);
      word(b.instrs.size());
      for (const Instr& in : b.instrs) {
        word(static_cast<std::uint64_t>(in.op));
        word(in.dst.index);
        word(in.a.index);
        word(in.b.index);
        word(static_cast<std::uint64_t>(in.imm));
        word(in.target0);
        word(in.target1);
        word(in.callee);
        word(in.args.size());
        for (const Reg r : in.args) word(r.index);
      }
    }
  }
  return h;
}

const Module::StaticLocation& Module::locate(StaticId id) const {
  SPT_CHECK(finalized_ && id < locations_.size());
  return locations_[id];
}

const Instr& Module::instrAt(StaticId id) const {
  const StaticLocation& loc = locate(id);
  return funcs_[loc.func].blocks[loc.block].instrs[loc.index];
}

}  // namespace spt::ir
