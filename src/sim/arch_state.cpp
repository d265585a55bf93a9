#include "sim/arch_state.h"

#include "support/check.h"
#include "support/hash.h"

namespace spt::sim {

ArchState::ArchState(const ir::Module& module) : module_(module) {}

ApplyInfo ArchState::apply(const trace::Record& record) {
  return apply(record, module_.instrAt(record.sid));
}

void ArchState::foldDigest(const trace::Record& r) {
  digest_ = support::fnv1aWord(digest_, r.sid);
  digest_ = support::fnv1aWord(digest_, r.frame);
  digest_ = support::fnv1aWord(digest_, static_cast<std::uint64_t>(r.value));
  digest_ = support::fnv1aWord(digest_, r.mem_addr);
}

ArchState::Frame& ArchState::frameSlowPath(const trace::Record& record) {
  if (!started_) {
    // Lazily create the entry frame from the first record.
    const auto& loc = module_.locate(record.sid);
    frames_.emplace_back();
    ++arena_allocs_;
    Frame& frame = frames_.front();
    frame.id = record.frame;
    frame.func = loc.func;
    frame.regs.assign(module_.function(loc.func).reg_count, 0);
    frame.ret_dst = ir::Reg{};
    depth_ = 1;
    started_ = true;
  }
  SPT_CHECK_MSG(depth_ > 0 && frames_[depth_ - 1].id == record.frame,
                "trace record frame does not match the reconstructed stack");
  return frames_[depth_ - 1];
}

ApplyInfo ArchState::apply(const trace::Record& record,
                           const ir::Instr& instr) {
  SPT_CHECK(record.kind == trace::RecordKind::kInstr);
  ApplyInfo info;

  // Digest fold, lazy entry-frame creation, and the frame check. The
  // returned reference is re-derived inside the kCall case because growing
  // the arena may relocate it.
  hotFrame(record);

  switch (instr.op) {
    case ir::Opcode::kCall: {
      const ir::Function& callee = module_.function(instr.callee);
      if (depth_ == frames_.size()) {
        frames_.emplace_back();
        ++arena_allocs_;
      } else {
        ++arena_reuses_;
      }
      Frame& next = frames_[depth_];
      const Frame& caller = frames_[depth_ - 1];
      next.id = record.callee_frame;
      next.func = instr.callee;
      // assign() reuses the recycled slot's capacity: allocation-free once
      // the arena has seen this depth with enough registers.
      next.regs.assign(callee.reg_count, 0);
      for (std::size_t i = 0; i < instr.args.size(); ++i) {
        next.regs[i] = caller.regs[instr.args[i].index];
      }
      next.ret_dst = instr.dst;
      info.callee_frame = next.id;
      info.callee_func = instr.callee;
      info.callee_params = callee.param_count;
      ++depth_;
      return info;
    }
    case ir::Opcode::kRet: {
      const ir::Reg dst = frames_[depth_ - 1].ret_dst;
      --depth_;
      if (depth_ > 0) {
        Frame& caller = frames_[depth_ - 1];
        info.caller_frame = caller.id;
        info.caller_dst = dst;
        if (dst.valid()) caller.regs[dst.index] = record.value;
      }
      return info;
    }
    case ir::Opcode::kStore:
      memory_.set(record.mem_addr, record.value);
      return info;
    case ir::Opcode::kLoad:
      memory_.set(record.mem_addr, record.value);
      frames_[depth_ - 1].regs[instr.dst.index] = record.value;
      return info;
    case ir::Opcode::kHalloc:
      ++halloc_count_;
      frames_[depth_ - 1].regs[instr.dst.index] = record.value;
      return info;
    default:
      if (instr.dst.valid() && ir::producesValue(instr.op)) {
        frames_[depth_ - 1].regs[instr.dst.index] = record.value;
      }
      return info;
  }
}

bool ArchState::deepEquals(const ArchState& other, std::string* diff) const {
  const auto report = [&](const std::string& what) {
    if (diff != nullptr) *diff = what;
    return false;
  };

  if (halloc_count_ != other.halloc_count_) {
    return report("halloc count: " + std::to_string(halloc_count_) +
                  " vs " + std::to_string(other.halloc_count_));
  }
  if (depth_ != other.depth_) {
    return report("frame stack depth: " + std::to_string(depth_) + " vs " +
                  std::to_string(other.depth_));
  }
  for (std::size_t f = 0; f < depth_; ++f) {
    const Frame& a = frames_[f];
    const Frame& b = other.frames_[f];
    if (a.id != b.id || a.func != b.func) {
      return report("frame " + std::to_string(f) + ": id/func mismatch");
    }
    const std::size_t regs = std::max(a.regs.size(), b.regs.size());
    for (std::size_t r = 0; r < regs; ++r) {
      const std::int64_t av = r < a.regs.size() ? a.regs[r] : 0;
      const std::int64_t bv = r < b.regs.size() ? b.regs[r] : 0;
      if (av != bv) {
        return report("frame " + std::to_string(f) + " r" +
                      std::to_string(r) + ": " + std::to_string(av) +
                      " vs " + std::to_string(bv));
      }
    }
  }
  if (memory_.size() != other.memory_.size()) {
    return report("memory image size: " + std::to_string(memory_.size()) +
                  " vs " + std::to_string(other.memory_.size()));
  }
  // Equal sizes plus one-way key/value agreement imply identical maps.
  bool equal = true;
  std::string first_diff;
  memory_.forEach([&](std::uint64_t addr, const std::int64_t& value) {
    if (!equal) return;
    const std::int64_t* theirs = other.memory_.find(addr);
    if (theirs == nullptr || *theirs != value) {
      equal = false;
      first_diff = "memory[0x" + std::to_string(addr) + "]: " +
                   std::to_string(value) + " vs " +
                   (theirs == nullptr ? std::string("<absent>")
                                      : std::to_string(*theirs));
    }
  });
  if (!equal) return report(first_diff);
  return true;
}

}  // namespace spt::sim
