#include "profile/profiler.h"

#include "support/check.h"

namespace spt::profile {

Profiler::Profiler(const ir::Module& module,
                   const std::unordered_set<ir::StaticId>& value_candidates)
    : module_(module) {
  if (value_candidates.empty()) return;
  // A sid outside the module never appears in its records.
  slot_of_.assign(module.staticInstrCount(), kNoSlot);
  for (const ir::StaticId sid : value_candidates) {
    if (sid >= slot_of_.size()) continue;
    slot_of_[sid] = static_cast<std::uint32_t>(value_slots_.size());
    value_slots_.emplace_back().sid = sid;
  }
}

void Profiler::closeTopLoop() {
  SPT_CHECK(!open_.empty());
  OpenLoop& top = open_.back();
  LoopStats& stats = data_.loops[top.header_sid];
  ++stats.episodes;
  stats.iterations += top.iterations;
  stats.dyn_instrs += top.instrs;
  const std::uint64_t instrs = top.instrs;
  open_.pop_back();
  if (!open_.empty()) open_.back().instrs += instrs;
}

void Profiler::trackDependents(const trace::Record& record) {
  const ir::Instr& instr = module_.instrAt(record.sid);
  for (DepTracker& tracker : trackers_) {
    bool tainted = false;
    const auto reads = [&](ir::Reg r) {
      return r.valid() &&
             tracker.tainted_regs.contains(regKey(record.frame, r));
    };
    if (reads(instr.a) || reads(instr.b)) tainted = true;
    if (!tainted) {
      for (const ir::Reg arg : instr.args) {
        if (reads(arg)) {
          tainted = true;
          break;
        }
      }
    }
    if (!tainted && instr.op == ir::Opcode::kLoad &&
        tracker.tainted_addrs.contains(record.mem_addr)) {
      tainted = true;
    }
    if (!tainted) continue;

    ++tracker.dependent_instrs;
    switch (instr.op) {
      case ir::Opcode::kStore:
        tracker.tainted_addrs.insert(record.mem_addr);
        break;
      case ir::Opcode::kCall:
        // Taint the callee parameters that received tainted arguments.
        for (std::size_t i = 0; i < instr.args.size(); ++i) {
          if (reads(instr.args[i])) {
            tracker.tainted_regs.insert(regKey(
                record.callee_frame, ir::Reg{static_cast<std::uint32_t>(i)}));
          }
        }
        break;
      case ir::Opcode::kRet:
        // Taint the caller's destination register.
        if (!open_calls_.empty() &&
            open_calls_.back().callee_frame == record.frame) {
          const OpenCall& call = open_calls_.back();
          const ir::Instr& call_instr = module_.instrAt(call.call_sid);
          if (call_instr.dst.valid()) {
            tracker.tainted_regs.insert(
                regKey(call.caller_frame, call_instr.dst));
          }
        }
        break;
      default:
        if (instr.dst.valid() && ir::producesValue(instr.op)) {
          tracker.tainted_regs.insert(regKey(record.frame, instr.dst));
        }
        break;
    }
  }
}

void Profiler::onBlock(trace::TraceView block) {
  for (const trace::Record& record : block) add(record);
}

void Profiler::add(const trace::Record& record) {
  using trace::RecordKind;
  switch (record.kind) {
    case RecordKind::kIterBegin: {
      if (!open_.empty() && open_.back().header_sid == record.sid &&
          open_.back().frame == record.frame) {
        OpenLoop& top = open_.back();
        ++top.iterations;
        top.cur_iter = record.value;
      } else {
        SPT_CHECK_MSG(record.value == 0,
                      "episode must start at iteration 0");
        OpenLoop loop;
        loop.header_sid = record.sid;
        loop.frame = record.frame;
        loop.iterations = 1;
        loop.cur_iter = 0;
        open_.push_back(std::move(loop));
      }
      return;
    }
    case RecordKind::kLoopExit: {
      SPT_CHECK_MSG(!open_.empty() &&
                        open_.back().header_sid == record.sid &&
                        open_.back().frame == record.frame,
                    "unbalanced loop exit marker");
      closeTopLoop();
      return;
    }
    case RecordKind::kInstr:
      break;
  }

  ++data_.total_instrs;
  if (!open_.empty()) ++open_.back().instrs;
  if (!open_calls_.empty()) ++open_calls_.back().instrs;
  if (!trackers_.empty()) trackDependents(record);

  switch (record.op) {
    case ir::Opcode::kCall:
      open_calls_.push_back(
          {record.sid, record.frame, record.callee_frame, 0});
      break;
    case ir::Opcode::kRet:
      if (!open_calls_.empty() &&
          open_calls_.back().callee_frame == record.frame) {
        const std::size_t depth = open_calls_.size() - 1;
        const OpenCall done = open_calls_.back();
        open_calls_.pop_back();
        CallStats& stats = data_.calls[done.call_sid];
        ++stats.calls;
        stats.total_instrs += done.instrs;
        // Finalize dependent-slice trackers owned by this call.
        std::erase_if(trackers_, [&](const DepTracker& tracker) {
          if (tracker.call_depth != depth) return false;
          data_.mem_deps[tracker.loop_header][tracker.pair].tail_instrs +=
              tracker.dependent_instrs;
          return true;
        });
        if (!open_calls_.empty()) open_calls_.back().instrs += done.instrs;
      }
      break;
    case ir::Opcode::kCondBr: {
      BranchStats& stats = data_.branches[record.sid];
      if (record.taken) {
        ++stats.taken;
      } else {
        ++stats.not_taken;
      }
      break;
    }
    case ir::Opcode::kStore: {
      for (OpenLoop& loop : open_) {
        loop.last_store[record.mem_addr] = {loop.cur_iter, record.sid};
      }
      break;
    }
    case ir::Opcode::kLoad: {
      for (OpenLoop& loop : open_) {
        const auto it = loop.last_store.find(record.mem_addr);
        if (it != loop.last_store.end() &&
            it->second.first == loop.cur_iter - 1) {
          const std::pair<ir::StaticId, ir::StaticId> pair{
              it->second.second, record.sid};
          ++data_.mem_deps[loop.header_sid][pair].count;
          if (!open_calls_.empty()) {
            // Track the dependent slice downstream of this load until the
            // enclosing call returns (the re-execution amount).
            DepTracker tracker;
            tracker.loop_header = loop.header_sid;
            tracker.pair = pair;
            tracker.call_depth = open_calls_.size() - 1;
            const ir::Instr& instr = module_.instrAt(record.sid);
            if (instr.dst.valid()) {
              tracker.tainted_regs.insert(regKey(record.frame, instr.dst));
            }
            trackers_.push_back(std::move(tracker));
          }
        }
      }
      break;
    }
    default:
      break;
  }

  if (record.sid < slot_of_.size() && slot_of_[record.sid] != kNoSlot) {
    ValueSlot& slot = value_slots_[slot_of_[record.sid]];
    if (slot.has_prev) {
      ++slot.samples;
      // Wrapping subtraction: deltas between far-apart values wrap
      // instead of overflowing.
      ++slot.deltas[static_cast<std::uint64_t>(record.value) -
                    static_cast<std::uint64_t>(slot.prev)];
    }
    slot.has_prev = true;
    slot.prev = record.value;
  }
}

ProfileData Profiler::take() {
  for (const DepTracker& tracker : trackers_) {
    data_.mem_deps[tracker.loop_header][tracker.pair].tail_instrs +=
        tracker.dependent_instrs;
  }
  trackers_.clear();
  while (!open_.empty()) closeTopLoop();
  for (const ValueSlot& slot : value_slots_) {
    if (slot.samples == 0) continue;
    ValueStats& stats = data_.values[slot.sid];
    stats.samples = slot.samples;
    // The mode of the histogram; on a tie the smallest signed delta, so
    // the result does not depend on the table's slot order.
    slot.deltas.forEach([&](std::uint64_t bits, std::uint64_t count) {
      const auto delta = static_cast<std::int64_t>(bits);
      if (count > stats.best_count ||
          (count == stats.best_count && delta < stats.best_stride)) {
        stats.best_stride = delta;
        stats.best_count = count;
      }
    });
  }
  return std::move(data_);
}

}  // namespace spt::profile
