// Sequential IR interpreter with trace emission.
//
// Executes a finalized module's decoded program (interp::ProgramContext)
// and streams one trace::Record per dynamic instruction plus loop
// iteration/exit markers (paper Section 5.1: the SPT simulator is driven by
// the trace of the *sequential* execution). Records are written straight
// into a block of trace::kBlockRecords; each full block, and the last
// partial one when the run ends, goes to the sink. A run that fails hands
// on only the whole blocks before the failing instruction.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

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
    ir::StaticId header_sid;
    std::int64_t iteration;  // 0-based
  };

  /// A call frame. Its registers are regs_[regs, regs + reg_count) and its
  /// active loops loops_[loops, ...), innermost last: both stacks grow and
  /// shrink with the frames.
  struct Frame {
    trace::FrameId id = 0;
    std::uint32_t regs = 0;
    std::uint32_t loops = 0;
    /// Caller register awaiting the return value (kInvalidIndex: none).
    std::uint32_t ret_dst = ir::Reg::kInvalidIndex;
    /// Where the frame resumes when its callee returns.
    const DecodedInstr* resume = nullptr;
  };

  const ProgramContext& ctx_;
  Memory& memory_;
  trace::TraceSink& sink_;
  trace::FrameId next_frame_ = 0;
  std::vector<Frame> frames_;
  std::vector<std::int64_t> regs_;
  std::vector<ActiveLoop> loops_;
  /// The block records are written into.
  std::unique_ptr<trace::Record[]> block_;
};

}  // namespace spt::interp
