// Baseline single-core machine: runs a sequential trace on one pipeline.
//
// This is the paper's reference configuration ("the optimized non-SPT code
// running on one core", Section 5.5). The machine reads its trace front to
// back exactly once, so it can either replay a stored trace (run()) or sit
// behind the interpreter as a TraceSink and simulate each block of records
// in place while the program runs (onBlock() then finish()), with no trace
// stored at all.
#pragma once

#include <vector>

#include "ir/module.h"
#include "sim/cache.h"
#include "sim/decode.h"
#include "sim/loop_tracker.h"
#include "sim/pipeline.h"
#include "sim/result.h"
#include "support/machine_config.h"
#include "trace/trace.h"

namespace spt::sim {

/// One machine simulates one trace: either run() once, or onBlock() for
/// every block and then finish() once.
class BaselineMachine final : public trace::TraceSink {
 public:
  /// Streaming: records arrive through onBlock().
  BaselineMachine(const ir::Module& module,
                  const support::MachineConfig& config);
  /// Replay: run() simulates `trace`, whose backing store (TraceBuffer or
  /// trace_io::MappedTrace) must outlive the machine.
  BaselineMachine(const ir::Module& module, trace::TraceView trace,
                  const support::MachineConfig& config);
  BaselineMachine(const BaselineMachine&) = delete;
  BaselineMachine& operator=(const BaselineMachine&) = delete;

  /// Runs the block through the dispatch loop where it lies.
  void onBlock(trace::TraceView block) override { simulate(block); }

  /// Ends the trace and returns the result.
  MachineResult finish();

  /// Simulates the whole trace given at construction, then finish().
  MachineResult run();

 private:
  struct FrameEntry {
    trace::FrameId id = 0;
    ir::Reg ret_dst;
  };
  // Frame sentinels outside FrameId's 32-bit range: kUnstarted routes the
  // first record to entry-frame creation; kDead makes any record after the
  // entry frame returned fail the frame check, as ArchState's empty-stack
  // check did.
  static constexpr std::uint64_t kUnstarted = ~0ull;
  static constexpr std::uint64_t kDead = ~0ull - 1;

  /// The threaded-dispatch loop over the next `records` of the trace.
  void simulate(trace::TraceView records);

  trace::TraceView trace_;
  const support::MachineConfig& config_;
  DecodeTable decode_;
  MemorySystem memory_;
  Pipeline pipe_;
  LoopCycleTracker loops_;
  std::vector<FrameEntry> stack_;
  std::uint64_t cur_frame_ = kUnstarted;
  /// Trace index of the next record to simulate; budget checks and their
  /// diagnostics use it, so they do not depend on how records arrive.
  std::size_t consumed_ = 0;
  std::uint64_t fallbacks_ = 0;
};

}  // namespace spt::sim
