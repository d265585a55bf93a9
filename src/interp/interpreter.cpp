#include "interp/interpreter.h"

#include <atomic>

#include "support/check.h"
#include "support/error.h"

namespace spt::interp {
namespace {

std::int64_t evalBinary(ir::Opcode op, std::int64_t a, std::int64_t b) {
  using ir::Opcode;
  switch (op) {
    case Opcode::kAdd:
      return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                       static_cast<std::uint64_t>(b));
    case Opcode::kSub:
      return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                       static_cast<std::uint64_t>(b));
    case Opcode::kMul:
      return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                       static_cast<std::uint64_t>(b));
    case Opcode::kDiv:
      SPT_CHECK_MSG(b != 0, "division by zero");
      SPT_CHECK_MSG(!(a == INT64_MIN && b == -1), "division overflow");
      return a / b;
    case Opcode::kRem:
      SPT_CHECK_MSG(b != 0, "remainder by zero");
      SPT_CHECK_MSG(!(a == INT64_MIN && b == -1), "remainder overflow");
      return a % b;
    case Opcode::kAnd:
      return a & b;
    case Opcode::kOr:
      return a | b;
    case Opcode::kXor:
      return a ^ b;
    case Opcode::kShl:
      return static_cast<std::int64_t>(static_cast<std::uint64_t>(a)
                                       << (b & 63));
    case Opcode::kShr:
      return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) >>
                                       (b & 63));
    case Opcode::kCmpEq:
      return a == b;
    case Opcode::kCmpNe:
      return a != b;
    case Opcode::kCmpLt:
      return a < b;
    case Opcode::kCmpLe:
      return a <= b;
    case Opcode::kCmpGt:
      return a > b;
    case Opcode::kCmpGe:
      return a >= b;
    default:
      SPT_UNREACHABLE("not a binary opcode");
  }
}

}  // namespace

Interpreter::Interpreter(const ProgramContext& ctx, Memory& memory,
                         trace::TraceSink& sink)
    : ctx_(ctx), memory_(memory), sink_(sink) {}

void Interpreter::emitIterBegin(const Frame& frame, analysis::LoopId loop,
                                std::int64_t iteration) {
  const auto& header = ctx_.loops(frame.func).loop(loop).header;
  trace::Record rec;
  rec.kind = trace::RecordKind::kIterBegin;
  rec.sid = ctx_.firstSid(frame.func, header);
  rec.frame = frame.id;
  rec.value = iteration;
  sink_.onRecord(rec);
}

void Interpreter::emitLoopExit(const Frame& frame, analysis::LoopId loop) {
  const auto& header = ctx_.loops(frame.func).loop(loop).header;
  trace::Record rec;
  rec.kind = trace::RecordKind::kLoopExit;
  rec.sid = ctx_.firstSid(frame.func, header);
  rec.frame = frame.id;
  sink_.onRecord(rec);
}

void Interpreter::exitAllLoops(Frame& frame) {
  while (!frame.active_loops.empty()) {
    emitLoopExit(frame, frame.active_loops.back().loop);
    frame.active_loops.pop_back();
  }
}

void Interpreter::enterBlock(Frame& frame, ir::BlockId target) {
  const auto& chain = ctx_.loopChain(frame.func, target);  // outermost first

  // Close loops the target is no longer inside. Active loops are properly
  // nested, so the surviving prefix must match the chain positionally.
  while (!frame.active_loops.empty() &&
         (frame.active_loops.size() > chain.size() ||
          chain[frame.active_loops.size() - 1] !=
              frame.active_loops.back().loop)) {
    emitLoopExit(frame, frame.active_loops.back().loop);
    frame.active_loops.pop_back();
  }

  // Back edge: target is the header of the (still-active) innermost loop.
  if (!frame.active_loops.empty() &&
      frame.active_loops.size() == chain.size() &&
      ctx_.loops(frame.func).loop(frame.active_loops.back().loop).header ==
          target) {
    ActiveLoop& top = frame.active_loops.back();
    ++top.iteration;
    emitIterBegin(frame, top.loop, top.iteration);
  }

  // Newly entered loops (natural loops are entered through their header).
  for (std::size_t i = frame.active_loops.size(); i < chain.size(); ++i) {
    frame.active_loops.push_back({chain[i], 0});
    emitIterBegin(frame, chain[i], 0);
  }

  frame.block = target;
  frame.index = 0;
}

RunResult Interpreter::run(ir::FuncId entry,
                           std::span<const std::int64_t> args,
                           const RunLimits& limits) {
  const ir::Module& module = ctx_.module();
  SPT_CHECK(module.finalized());
  const ir::Function& entry_func = module.function(entry);
  SPT_CHECK_MSG(args.size() == entry_func.param_count,
                "entry argument count mismatch");

  std::vector<Frame> stack;
  {
    Frame frame;
    frame.func = entry;
    frame.id = next_frame_++;
    frame.regs.assign(entry_func.reg_count, 0);
    for (std::size_t i = 0; i < args.size(); ++i) frame.regs[i] = args[i];
    stack.push_back(std::move(frame));
    enterBlock(stack.back(), 0);
  }

  RunResult result;
  std::uint64_t count = 0;

  while (!stack.empty()) {
    Frame& f = stack.back();
    const ir::Function& func = module.function(f.func);
    const ir::BasicBlock& bb = func.blocks[f.block];
    SPT_CHECK_MSG(f.index < bb.instrs.size(), "fell off the end of a block");
    const ir::Instr& in = bb.instrs[f.index];

    if (count >= limits.max_instrs) {
      throw support::SptBudgetExceeded("interpreted instructions", count,
                                       limits.max_instrs);
    }
    ++count;

    trace::Record rec;
    rec.kind = trace::RecordKind::kInstr;
    rec.op = in.op;
    rec.sid = in.static_id;
    rec.frame = f.id;

    using ir::Opcode;
    switch (in.op) {
      case Opcode::kConst:
        f.regs[in.dst.index] = in.imm;
        rec.value = in.imm;
        sink_.onRecord(rec);
        ++f.index;
        break;
      case Opcode::kMov:
        f.regs[in.dst.index] = f.regs[in.a.index];
        rec.value = f.regs[in.dst.index];
        sink_.onRecord(rec);
        ++f.index;
        break;
      case Opcode::kHalloc: {
        const std::uint64_t base =
            memory_.alloc(static_cast<std::uint64_t>(in.imm));
        f.regs[in.dst.index] = static_cast<std::int64_t>(base);
        rec.value = f.regs[in.dst.index];
        sink_.onRecord(rec);
        ++f.index;
        break;
      }
      case Opcode::kLoad: {
        const std::uint64_t addr =
            static_cast<std::uint64_t>(f.regs[in.a.index] + in.imm);
        const std::int64_t v = memory_.load64(addr);
        f.regs[in.dst.index] = v;
        rec.value = v;
        rec.mem_addr = addr;
        sink_.onRecord(rec);
        ++f.index;
        break;
      }
      case Opcode::kStore: {
        const std::uint64_t addr =
            static_cast<std::uint64_t>(f.regs[in.a.index] + in.imm);
        rec.mem_old = memory_.load64(addr);
        rec.value = f.regs[in.b.index];
        rec.mem_addr = addr;
        memory_.store64(addr, f.regs[in.b.index]);
        sink_.onRecord(rec);
        ++f.index;
        break;
      }
      case Opcode::kBr:
        sink_.onRecord(rec);
        enterBlock(f, in.target0);
        break;
      case Opcode::kCondBr: {
        const bool taken = f.regs[in.a.index] != 0;
        rec.taken = taken;
        sink_.onRecord(rec);
        enterBlock(f, taken ? in.target0 : in.target1);
        break;
      }
      case Opcode::kCall: {
        const ir::Function& callee = module.function(in.callee);
        Frame next;
        next.func = in.callee;
        next.id = next_frame_++;
        next.regs.assign(callee.reg_count, 0);
        for (std::size_t i = 0; i < in.args.size(); ++i) {
          next.regs[i] = f.regs[in.args[i].index];
        }
        next.ret_dst = in.dst;
        rec.callee_frame = next.id;
        sink_.onRecord(rec);
        ++f.index;  // caller resumes after the call
        stack.push_back(std::move(next));
        enterBlock(stack.back(), 0);
        break;
      }
      case Opcode::kRet: {
        const std::int64_t value =
            in.a.valid() ? f.regs[in.a.index] : 0;
        exitAllLoops(f);
        rec.value = value;
        sink_.onRecord(rec);
        const ir::Reg ret_dst = f.ret_dst;
        stack.pop_back();
        if (stack.empty()) {
          result.return_value = value;
        } else if (ret_dst.valid()) {
          stack.back().regs[ret_dst.index] = value;
        }
        break;
      }
      case Opcode::kSptFork:
      case Opcode::kSptKill:
      case Opcode::kNop:
        sink_.onRecord(rec);
        ++f.index;
        break;
      default: {
        // Binary arithmetic / comparison.
        const std::int64_t v =
            evalBinary(in.op, f.regs[in.a.index], f.regs[in.b.index]);
        f.regs[in.dst.index] = v;
        rec.value = v;
        sink_.onRecord(rec);
        ++f.index;
        break;
      }
    }
  }

  result.dynamic_instrs = count;
  result.memory_hash = memory_.hash();
  return result;
}

namespace {
std::atomic<std::uint64_t> main_runs{0};
}  // namespace

std::uint64_t Interpreter::mainRuns() {
  return main_runs.load(std::memory_order_relaxed);
}

RunResult Interpreter::runMain(std::span<const std::int64_t> args,
                               const RunLimits& limits) {
  main_runs.fetch_add(1, std::memory_order_relaxed);
  SPT_CHECK_MSG(ctx_.module().mainFunc() != ir::kInvalidFunc,
                "module has no main function");
  return run(ctx_.module().mainFunc(), args, limits);
}

}  // namespace spt::interp
