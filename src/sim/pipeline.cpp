#include "sim/pipeline.h"

#include "support/check.h"

namespace spt::sim {

Pipeline::Pipeline(const support::MachineConfig& config, MemorySystem& memory)
    : config_(config),
      memory_(memory),
      predictor_(config.branch_predictor_entries) {}

void Pipeline::commitFromBuffer() {
  ++replay_slots_;
  cycle_had_issue_ = true;
  if (replay_slots_ >= config_.replay_issue_width) {
    breakdown_.add(StallKind::kExecution, 1);
    ++cycle_;
    replay_slots_ = 0;
    slots_ = 0;
    cycle_had_issue_ = false;
  }
}

void Pipeline::advanceTo(std::uint64_t cycle, StallKind kind) {
  bumpCycleTo(cycle, kind);
}

void Pipeline::advanceToWithProfile(std::uint64_t cycle,
                                    const CycleBreakdown& profile) {
  if (cycle <= cycle_) return;
  const std::uint64_t gap = cycle - cycle_;
  const std::uint64_t total = profile.total();
  if (total == 0) {
    bumpCycleTo(cycle, StallKind::kPipeline);
    return;
  }
  const std::uint64_t exec = gap * profile.execution / total;
  const std::uint64_t dcache = gap * profile.dcache_stall / total;
  // Remainder (rounding) goes to pipeline stalls.
  bumpCycleTo(cycle_ + exec, StallKind::kExecution);
  bumpCycleTo(cycle_ + dcache, StallKind::kDCache);
  bumpCycleTo(cycle, StallKind::kPipeline);
}

void Pipeline::setRegReady(std::uint64_t key, std::uint64_t cycle,
                           bool from_load) {
  SPT_CHECK(key != 0);
  scoreboard_.write(key, RegState{cycle, from_load}, cycle_);
}

void Pipeline::finish() {
  if (cycle_had_issue_) {
    breakdown_.add(StallKind::kExecution, 1);
    ++cycle_;
    cycle_had_issue_ = false;
    slots_ = 0;
    replay_slots_ = 0;
  }
}

}  // namespace spt::sim
