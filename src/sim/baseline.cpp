#include "sim/baseline.h"

#include "support/check.h"
#include "support/error.h"

#if defined(__GNUC__) || defined(__clang__)
#define SPT_ALWAYS_INLINE __attribute__((always_inline))
#else
#define SPT_ALWAYS_INLINE
#endif

namespace spt::sim {

BaselineMachine::BaselineMachine(const ir::Module& module,
                                 const support::MachineConfig& config)
    : BaselineMachine(module, trace::TraceView{}, config) {}

BaselineMachine::BaselineMachine(const ir::Module& module,
                                 trace::TraceView trace,
                                 const support::MachineConfig& config)
    : trace_(trace),
      config_(config),
      decode_(module),
      memory_(config),
      pipe_(config, memory_),
      loops_(module) {
  // The baseline machine consumed ArchState purely for its call/return
  // plumbing — the callee frame and parameter count on kCall, the caller
  // frame and return destination on kRet — plus the per-record frame
  // check; value and memory reconstruction never influenced baseline
  // timing. The call stack keeps exactly that (same check, same failure
  // behavior) at a push/pop instead of full frame reconstruction.
  stack_.reserve(64);
}

MachineResult BaselineMachine::run() {
  simulate(trace_);
  return finish();
}

void BaselineMachine::simulate(trace::TraceView records) {
  // Scalars the loop updates per record live in locals, which the
  // compiler can keep in registers (going through the members is
  // measurably slower), and are written back once per call.
  Pipeline& pipe = pipe_;
  LoopCycleTracker& loops = loops_;
  std::vector<FrameEntry>& stack = stack_;
  const DecodeTable& decode = decode_;
  std::uint64_t cur_frame = cur_frame_;
  std::uint64_t fallbacks = fallbacks_;

  const auto checkFrame = [&](const trace::Record& rec) {
    if (cur_frame == rec.frame) [[likely]] return;
    if (cur_frame == kUnstarted) {
      stack.push_back({rec.frame, ir::Reg{}});
      cur_frame = rec.frame;
      return;
    }
    SPT_CHECK_MSG(
        false, "trace record frame does not match the reconstructed stack");
  };

  const bool budgeted = config_.max_simulated_records != 0 ||
                        config_.max_simulated_cycles != 0;
  const std::size_t first = consumed_;
  const std::size_t n = records.size();
  std::size_t i = 0;
  const trace::Record* r = nullptr;
  const DecodedInstr* d = nullptr;

  // Advances to the next kInstr record (handling budget checks and loop
  // markers in passing) and predecodes it. Returns false at the end of
  // `records`. Budgets count records from the start of the whole trace.
  // Inlined into every dispatch site: left to the compiler it becomes a
  // call per record, which costs ~8% of replay speed over mapped traces.
  const auto fetch = [&]() SPT_ALWAYS_INLINE -> bool {
    while (i < n) {
      if (budgeted && ((first + i) & 1023u) == 0) {
        const std::size_t at = first + i;
        if (config_.max_simulated_records != 0 &&
            at > config_.max_simulated_records) {
          throw support::SptBudgetExceeded("simulated trace records", at,
                                           config_.max_simulated_records);
        }
        if (config_.max_simulated_cycles != 0 &&
            pipe.cycle() > config_.max_simulated_cycles) {
          throw support::SptBudgetExceeded("simulated cycles", pipe.cycle(),
                                           config_.max_simulated_cycles);
        }
      }
      const trace::Record& rec = records[i];
      ++i;
      if (rec.kind == trace::RecordKind::kInstr) [[likely]] {
        r = &rec;
        d = &decode[rec.sid];
        return true;
      }
      loops.onMarker(rec, pipe.cycle());
    }
    return false;
  };

  // Per-class handlers. Each issues through the Pipeline::issue variant of
  // its class, so every data-dependent branch of the dynamic issue is
  // resolved at dispatch.
  using Access = Pipeline::Access;
  const auto doValue = [&] {
    checkFrame(*r);
    pipe.issue<Access::kNone>(*d, *r);
  };
  const auto doLoad = [&] {
    checkFrame(*r);
    pipe.issue<Access::kLoad>(*d, *r);
  };
  const auto doStore = [&] {
    checkFrame(*r);
    pipe.issue<Access::kStore>(*d, *r);
  };
  const auto doCondBr = [&] {
    checkFrame(*r);
    pipe.issue<Access::kBranch>(*d, *r);
  };
  const auto doJump = [&] {
    checkFrame(*r);
    pipe.issue<Access::kNone>(*d, *r);
  };
  const auto doCall = [&] {
    const std::uint64_t done = pipe.issue<Access::kNone>(*d, *r);
    checkFrame(*r);
    stack.push_back({r->callee_frame, d->instr->dst});
    cur_frame = r->callee_frame;
    // Parameters materialize in the callee when the call issues.
    for (std::uint32_t p = 0; p < d->callee_params; ++p) {
      pipe.setRegReady(Pipeline::regKey(r->callee_frame, p), done, false);
    }
    ++fallbacks;
  };
  const auto doRet = [&] {
    const std::uint64_t done = pipe.issue<Access::kNone>(*d, *r);
    checkFrame(*r);
    const ir::Reg dst = stack.back().ret_dst;
    stack.pop_back();
    if (!stack.empty()) {
      cur_frame = stack.back().id;
      if (dst.valid()) {
        pipe.setRegReady(Pipeline::regKey(stack.back().id, dst.index), done,
                         false);
      }
    } else {
      cur_frame = kDead;
    }
    ++fallbacks;
  };
  const auto doGeneric = [&] {
    pipe.issue(*d, *r);
    checkFrame(*r);
    ++fallbacks;
  };

#if defined(__GNUC__) || defined(__clang__)
  // Computed-goto threaded dispatch: each handler jumps straight to the
  // next record's handler through a label table indexed by the predecoded
  // dispatch class, giving the host branch predictor one indirect-jump
  // site per handler instead of a single shared switch dispatch point.
  {
    static const void* const kTargets[kDispatchClassCount] = {
        /* kValue   */ &&lbl_value,
        /* kLoad    */ &&lbl_load,
        /* kStore   */ &&lbl_store,
        /* kCondBr  */ &&lbl_condbr,
        /* kJump    */ &&lbl_jump,
        /* kCall    */ &&lbl_call,
        /* kRet     */ &&lbl_ret,
        /* kFork    */ &&lbl_jump,   // timing-wise an ordinary jump here
        /* kKill    */ &&lbl_jump,
        /* kHalloc  */ &&lbl_value,  // producer with a live destination
        /* kGeneric */ &&lbl_generic,
    };
#define SPT_DISPATCH_NEXT()                 \
  do {                                      \
    if (!fetch()) goto lbl_done;            \
    goto* kTargets[d->klass];               \
  } while (0)
    SPT_DISPATCH_NEXT();
  lbl_value:
    doValue();
    SPT_DISPATCH_NEXT();
  lbl_load:
    doLoad();
    SPT_DISPATCH_NEXT();
  lbl_store:
    doStore();
    SPT_DISPATCH_NEXT();
  lbl_condbr:
    doCondBr();
    SPT_DISPATCH_NEXT();
  lbl_jump:
    doJump();
    SPT_DISPATCH_NEXT();
  lbl_call:
    doCall();
    SPT_DISPATCH_NEXT();
  lbl_ret:
    doRet();
    SPT_DISPATCH_NEXT();
  lbl_generic:
    doGeneric();
    SPT_DISPATCH_NEXT();
#undef SPT_DISPATCH_NEXT
  lbl_done:;
  }
#else
  // Portable fallback: a jump-table switch over the same handlers.
  while (fetch()) {
    switch (static_cast<DispatchClass>(d->klass)) {
      case DispatchClass::kValue:
      case DispatchClass::kHalloc:
        doValue();
        break;
      case DispatchClass::kLoad:
        doLoad();
        break;
      case DispatchClass::kStore:
        doStore();
        break;
      case DispatchClass::kCondBr:
        doCondBr();
        break;
      case DispatchClass::kJump:
      case DispatchClass::kFork:
      case DispatchClass::kKill:
        doJump();
        break;
      case DispatchClass::kCall:
        doCall();
        break;
      case DispatchClass::kRet:
        doRet();
        break;
      case DispatchClass::kGeneric:
        doGeneric();
        break;
    }
  }
#endif

  cur_frame_ = cur_frame;
  fallbacks_ = fallbacks;
  consumed_ = first + n;
}

MachineResult BaselineMachine::finish() {
  pipe_.finish();
  loops_.finish(pipe_.cycle());

  MachineResult result;
  result.cycles = pipe_.cycle();
  result.instrs = pipe_.instrsIssued();
  result.breakdown = pipe_.breakdown();
  result.loops = loops_.stats();
  result.l1d = memory_.l1d().stats();
  result.l2 = memory_.l2().stats();
  result.l3 = memory_.l3().stats();
  result.branch_mispredict_ratio = pipe_.predictor().mispredictRatio();
  result.hotpath.dispatch_fallback = fallbacks_;
  result.hotpath.dispatch_fast = pipe_.instrsIssued() - fallbacks_;
  return result;
}

}  // namespace spt::sim

#undef SPT_ALWAYS_INLINE
