#include "interp/interpreter.h"

#include <atomic>

#include "support/check.h"
#include "support/error.h"

namespace spt::interp {

Interpreter::Interpreter(const ProgramContext& ctx, Memory& memory,
                         trace::TraceSink& sink)
    : ctx_(ctx),
      memory_(memory),
      sink_(sink),
      block_(std::make_unique_for_overwrite<trace::Record[]>(
          trace::kBlockRecords)) {
  frames_.reserve(64);
  regs_.reserve(1024);
  loops_.reserve(64);
}

RunResult Interpreter::run(ir::FuncId entry,
                           std::span<const std::int64_t> args,
                           const RunLimits& limits) {
  const ir::Module& module = ctx_.module();
  SPT_CHECK(module.finalized());
  SPT_CHECK_MSG(args.size() == module.function(entry).param_count,
                "entry argument count mismatch");

  const DecodedInstr* const code = ctx_.code();
  const std::uint32_t* const call_args = ctx_.callArgs();
  constexpr std::uint32_t kNoReg = ir::Reg::kInvalidIndex;
  trace::Record* const out = block_.get();
  std::size_t pending = 0;  // records in the block

  const auto emit = [&](const trace::Record& rec) {
    out[pending] = rec;
    if (++pending == trace::kBlockRecords) {
      sink_.onBlock({out, pending});
      pending = 0;
    }
  };
  const auto emitMarker = [&](trace::RecordKind kind, trace::FrameId frame,
                              ir::StaticId header_sid,
                              std::int64_t iteration) {
    trace::Record rec;
    rec.kind = kind;
    rec.sid = header_sid;
    rec.frame = frame;
    rec.value = iteration;
    emit(rec);
  };

  // The state of the frame on top, kept in locals.
  frames_.clear();
  regs_.clear();
  loops_.clear();
  trace::FrameId frame = next_frame_++;
  std::uint32_t loop_base = 0;
  regs_.assign(ctx_.function(entry).reg_count, 0);
  for (std::size_t i = 0; i < args.size(); ++i) regs_[i] = args[i];
  std::int64_t* regs = regs_.data();
  frames_.push_back({frame, 0, 0, kNoReg, nullptr});

  // Enters decoded block `b` of the frame on top: closes the loops the
  // block is not inside, counts a back edge to the innermost loop's
  // header, opens the loops newly entered (natural loops are entered
  // through their header), and returns the block's first instruction.
  // Active loops are properly nested, so the surviving prefix matches the
  // block's chain positionally.
  const auto enterBlock = [&](std::uint32_t b) -> const DecodedInstr* {
    const DecodedBlock& block = ctx_.block(b);
    const std::span<const LoopRef> chain = ctx_.chain(block);
    std::size_t depth = loops_.size() - loop_base;
    while (depth != 0 &&
           (depth > chain.size() ||
            chain[depth - 1].loop != loops_.back().loop)) {
      emitMarker(trace::RecordKind::kLoopExit, frame,
                 loops_.back().header_sid, 0);
      loops_.pop_back();
      --depth;
    }
    if (depth != 0 && depth == chain.size() && block.innermost_header) {
      ActiveLoop& top = loops_.back();
      ++top.iteration;
      emitMarker(trace::RecordKind::kIterBegin, frame, top.header_sid,
                 top.iteration);
    }
    for (; depth < chain.size(); ++depth) {
      loops_.push_back({chain[depth].loop, chain[depth].header_sid, 0});
      emitMarker(trace::RecordKind::kIterBegin, frame,
                 chain[depth].header_sid, 0);
    }
    return code + block.first;
  };

  const DecodedInstr* ip = enterBlock(ctx_.function(entry).entry);
  RunResult result;
  std::uint64_t count = 0;
  const std::uint64_t max_instrs = limits.max_instrs;

  for (;;) {
    const DecodedInstr& in = *ip;
    if (count >= max_instrs) [[unlikely]] {
      SPT_CHECK_MSG(in.op != kEndOfBlock, "fell off the end of a block");
      throw support::SptBudgetExceeded("interpreted instructions", count,
                                       max_instrs);
    }
    ++count;

    trace::Record rec;
    rec.kind = trace::RecordKind::kInstr;
    rec.op = in.op;
    rec.sid = in.sid;
    rec.frame = frame;

    using ir::Opcode;
    // A binary arithmetic or comparison op: dst = a OP b.
#define SPT_BINARY(OPCODE, EXPR)                  \
  case Opcode::OPCODE: {                          \
    const std::int64_t a = regs[in.a];            \
    const std::int64_t b = regs[in.b];            \
    const std::int64_t v = (EXPR);                \
    regs[in.dst] = v;                             \
    rec.value = v;                                \
    emit(rec);                                    \
    ++ip;                                         \
    break;                                        \
  }
    switch (in.op) {
      case Opcode::kConst:
        regs[in.dst] = in.imm;
        rec.value = in.imm;
        emit(rec);
        ++ip;
        break;
      case Opcode::kMov:
        regs[in.dst] = regs[in.a];
        rec.value = regs[in.dst];
        emit(rec);
        ++ip;
        break;
      SPT_BINARY(kAdd, static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                                 static_cast<std::uint64_t>(b)))
      SPT_BINARY(kSub, static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                                 static_cast<std::uint64_t>(b)))
      SPT_BINARY(kMul, static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                                 static_cast<std::uint64_t>(b)))
      SPT_BINARY(kAnd, a & b)
      SPT_BINARY(kOr, a | b)
      SPT_BINARY(kXor, a ^ b)
      SPT_BINARY(kShl, static_cast<std::int64_t>(static_cast<std::uint64_t>(a)
                                                 << (b & 63)))
      SPT_BINARY(kShr, static_cast<std::int64_t>(static_cast<std::uint64_t>(a) >>
                                                 (b & 63)))
      SPT_BINARY(kCmpEq, a == b)
      SPT_BINARY(kCmpNe, a != b)
      SPT_BINARY(kCmpLt, a < b)
      SPT_BINARY(kCmpLe, a <= b)
      SPT_BINARY(kCmpGt, a > b)
      SPT_BINARY(kCmpGe, a >= b)
      case Opcode::kDiv:
      case Opcode::kRem: {
        const std::int64_t a = regs[in.a];
        const std::int64_t b = regs[in.b];
        const bool div = in.op == Opcode::kDiv;
        SPT_CHECK_MSG(b != 0, div ? "division by zero" : "remainder by zero");
        SPT_CHECK_MSG(!(a == INT64_MIN && b == -1),
                      div ? "division overflow" : "remainder overflow");
        const std::int64_t v = div ? a / b : a % b;
        regs[in.dst] = v;
        rec.value = v;
        emit(rec);
        ++ip;
        break;
      }
#undef SPT_BINARY
      case Opcode::kHalloc: {
        const std::uint64_t base =
            memory_.alloc(static_cast<std::uint64_t>(in.imm));
        regs[in.dst] = static_cast<std::int64_t>(base);
        rec.value = regs[in.dst];
        emit(rec);
        ++ip;
        break;
      }
      case Opcode::kLoad: {
        const std::uint64_t addr =
            static_cast<std::uint64_t>(regs[in.a] + in.imm);
        const std::int64_t v = memory_.load64(addr);
        regs[in.dst] = v;
        rec.value = v;
        rec.mem_addr = addr;
        emit(rec);
        ++ip;
        break;
      }
      case Opcode::kStore: {
        const std::uint64_t addr =
            static_cast<std::uint64_t>(regs[in.a] + in.imm);
        rec.mem_old = memory_.load64(addr);
        rec.value = regs[in.b];
        rec.mem_addr = addr;
        memory_.store64(addr, regs[in.b]);
        emit(rec);
        ++ip;
        break;
      }
      case Opcode::kBr:
        emit(rec);
        ip = enterBlock(in.target0);
        break;
      case Opcode::kCondBr: {
        const bool taken = regs[in.a] != 0;
        rec.taken = taken;
        emit(rec);
        ip = enterBlock(taken ? in.target0 : in.target1);
        break;
      }
      case Opcode::kCall: {
        const DecodedFunction& callee = ctx_.function(in.target0);
        const trace::FrameId callee_frame = next_frame_++;
        rec.callee_frame = callee_frame;
        emit(rec);
        frames_.back().resume = ip + 1;  // caller resumes after the call
        const std::uint32_t caller_regs = frames_.back().regs;
        const auto base = static_cast<std::uint32_t>(regs_.size());
        regs_.resize(base + callee.reg_count);
        regs = regs_.data() + base;
        const std::int64_t* caller = regs_.data() + caller_regs;
        for (std::uint32_t i = 0; i < in.arg_count; ++i) {
          regs[i] = caller[call_args[in.target1 + i]];
        }
        loop_base = static_cast<std::uint32_t>(loops_.size());
        frames_.push_back({callee_frame, base, loop_base, in.dst, nullptr});
        frame = callee_frame;
        ip = enterBlock(callee.entry);
        break;
      }
      case Opcode::kRet: {
        const std::int64_t value = in.a != kNoReg ? regs[in.a] : 0;
        while (loops_.size() > loop_base) {
          emitMarker(trace::RecordKind::kLoopExit, frame,
                     loops_.back().header_sid, 0);
          loops_.pop_back();
        }
        rec.value = value;
        emit(rec);
        const Frame done = frames_.back();
        frames_.pop_back();
        if (frames_.empty()) {
          result.return_value = value;
          if (pending != 0) sink_.onBlock({out, pending});
          result.dynamic_instrs = count;
          result.memory_hash = memory_.hash();
          return result;
        }
        regs_.resize(done.regs);
        const Frame& caller = frames_.back();
        regs = regs_.data() + caller.regs;
        if (done.ret_dst != kNoReg) regs[done.ret_dst] = value;
        frame = caller.id;
        loop_base = caller.loops;
        ip = caller.resume;
        break;
      }
      case Opcode::kSptFork:
      case Opcode::kSptKill:
      case Opcode::kNop:
        emit(rec);
        ++ip;
        break;
      default:
        // Every opcode has its case: this is the kEndOfBlock sentinel.
        SPT_CHECK_MSG(in.op != kEndOfBlock, "fell off the end of a block");
        SPT_UNREACHABLE("not an opcode");
    }
  }
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
