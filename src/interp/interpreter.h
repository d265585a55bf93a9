// Sequential IR interpreter with trace emission.
//
// Executes a finalized module and streams one trace::Record per dynamic
// instruction plus loop iteration/exit markers (paper Section 5.1: the SPT
// simulator is driven by the trace of the *sequential* execution).
#pragma once

#include <cstdint>
#include <span>

#include "interp/memory.h"
#include "interp/program_context.h"
#include "trace/trace.h"

namespace spt::interp {

struct RunLimits {
  std::uint64_t max_instrs = 500'000'000;
};

struct RunResult {
  std::int64_t return_value = 0;
  std::uint64_t dynamic_instrs = 0;
  std::uint64_t memory_hash = 0;
};

class Interpreter {
 public:
  Interpreter(const ProgramContext& ctx, Memory& memory,
              trace::TraceSink& sink);

  /// Runs `entry` with the given arguments to completion.
  RunResult run(ir::FuncId entry, std::span<const std::int64_t> args,
                const RunLimits& limits = {});

  /// Runs the module's main function.
  RunResult runMain(std::span<const std::int64_t> args = {},
                    const RunLimits& limits = {});

  /// How many runMain calls this process has made, over all threads: the
  /// number of whole-program interpretations.
  static std::uint64_t mainRuns();

 private:
  struct ActiveLoop {
    analysis::LoopId loop;
    std::int64_t iteration;  // 0-based
  };

  struct Frame {
    ir::FuncId func = ir::kInvalidFunc;
    trace::FrameId id = 0;
    std::vector<std::int64_t> regs;
    ir::BlockId block = 0;
    std::uint32_t index = 0;  // next instruction within block
    std::vector<ActiveLoop> active_loops;  // innermost last
    ir::Reg ret_dst;          // caller register awaiting the return value
  };

  void enterBlock(Frame& frame, ir::BlockId target);
  void exitAllLoops(Frame& frame);
  void emitIterBegin(const Frame& frame, analysis::LoopId loop,
                     std::int64_t iteration);
  void emitLoopExit(const Frame& frame, analysis::LoopId loop);

  const ProgramContext& ctx_;
  Memory& memory_;
  trace::TraceSink& sink_;
  trace::FrameId next_frame_ = 0;
};

}  // namespace spt::interp
