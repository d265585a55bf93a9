// Unit and integration tests for src/sim: caches, predictor, pipeline,
// baseline machine, and the SPT machine's speculation mechanics.
#include <gtest/gtest.h>

#include <iterator>

#include "interp/interpreter.h"
#include "ir/builder.h"
#include "ir/verifier.h"
#include "sim/baseline.h"
#include "sim/branch_predictor.h"
#include "sim/cache.h"
#include "sim/pipeline.h"
#include "sim/spt_machine.h"
#include "support/rng.h"
#include "test_programs.h"

namespace spt::sim {
namespace {

using namespace ir;
using support::MachineConfig;

// ---------------------------------------------------------------- caches

TEST(Cache, HitAfterFill) {
  Cache c(support::CacheConfig{1024, 2, 64, 1});
  EXPECT_FALSE(c.access(0x100, 0));
  EXPECT_TRUE(c.access(0x100, 1));
  EXPECT_TRUE(c.access(0x13f, 2));   // same 64B block
  EXPECT_FALSE(c.access(0x140, 3));  // next block
  EXPECT_EQ(c.stats().hits, 2u);
  EXPECT_EQ(c.stats().misses, 2u);
}

TEST(Cache, LruEviction) {
  // 2-way, 64B blocks, 8 sets (1024/64/2). Three blocks mapping to the
  // same set: the least recently used one is evicted.
  Cache c(support::CacheConfig{1024, 2, 64, 1});
  const std::uint64_t set_stride = 64 * c.numSets();
  c.access(0, 0);                // way A
  c.access(set_stride, 1);       // way B
  c.access(0, 2);                // A now more recent than B
  c.access(2 * set_stride, 3);   // evicts B
  EXPECT_TRUE(c.probe(0));
  EXPECT_FALSE(c.probe(set_stride));
  EXPECT_TRUE(c.probe(2 * set_stride));
}

TEST(MemorySystem, LatenciesPerLevel) {
  MachineConfig config;
  MemorySystem mem(config);
  // Cold access: L1 + L2 + L3 + memory.
  const std::uint32_t cold = mem.accessData(0x8000, 0);
  EXPECT_EQ(cold, 1u + 5u + 12u + 150u);
  // Now everything is warm: L1 hit.
  EXPECT_EQ(mem.accessData(0x8000, 1), 1u);
  // Instruction side is independent.
  const std::uint32_t icold = mem.accessInstr(0x8000, 2);
  EXPECT_GT(icold, 1u);
}

TEST(MemorySystem, L2HitAfterL1Eviction) {
  MachineConfig config;
  MemorySystem mem(config);
  mem.accessData(0, 0);
  // Evict set 0 of L1D (4 ways, 64 sets => stride 4096) with 4 new blocks.
  for (int w = 1; w <= 4; ++w) {
    mem.accessData(static_cast<std::uint64_t>(w) * 16 * 1024, w);
  }
  // Original block: L1 miss, L2 hit.
  EXPECT_EQ(mem.accessData(0, 10), 1u + 5u);
}

// ------------------------------------------------------------- predictor

TEST(BranchPredictor, LearnsAllTaken) {
  BranchPredictor bp(1024);
  for (int i = 0; i < 1000; ++i) bp.predictAndUpdate(true);
  EXPECT_LT(bp.mispredictRatio(), 0.01);
}

TEST(BranchPredictor, LearnsAlternatingViaHistory) {
  BranchPredictor bp(1024);
  for (int i = 0; i < 4000; ++i) bp.predictAndUpdate(i % 2 == 0);
  // GAg keys on global history, so a strict alternation becomes perfectly
  // predictable after warm-up.
  EXPECT_LT(bp.mispredictRatio(), 0.05);
}

TEST(BranchPredictor, RandomIsHard) {
  BranchPredictor bp(1024);
  support::Rng rng(7);
  int mis = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    mis += !bp.predictAndUpdate(rng.nextBool(0.5));
  }
  EXPECT_GT(static_cast<double>(mis) / n, 0.3);
}

// -------------------------------------------------------------- pipeline

/// A hand-built decoded entry and the record that issues it, in frame 0.
struct IssuedOp {
  DecodedInstr d;
  trace::Record r;
};

IssuedOp simpleOp(StaticId sid, std::uint32_t dst,
                  std::uint32_t src = Reg::kInvalidIndex,
                  std::uint32_t latency = 1) {
  IssuedOp op;
  op.r.sid = sid;
  op.d.op = Opcode::kAdd;
  op.d.base_latency = latency;
  op.d.dst_reg = dst;
  if (src != Reg::kInvalidIndex) {
    op.d.src_regs[0] = src;
    op.d.src_count = 1;
  }
  return op;
}

IssuedOp loadOp(StaticId sid, std::uint32_t dst, std::uint64_t addr) {
  IssuedOp op;
  op.r.sid = sid;
  op.r.mem_addr = addr;
  op.d.op = Opcode::kLoad;
  op.d.is_load = true;
  op.d.dst_reg = dst;
  return op;
}

std::uint64_t issue(Pipeline& pipe, const IssuedOp& op) {
  return pipe.issue(op.d, op.r);
}

TEST(Pipeline, IssueWidthBoundsThroughput) {
  MachineConfig config;
  MemorySystem mem(config);
  Pipeline pipe(config, mem);
  // Warm the I-cache first, then measure: 60 independent single-cycle ops
  // at width 6 take 10 cycles.
  for (std::uint32_t i = 0; i < 60; ++i) {
    issue(pipe, simpleOp(i % 4, 100 + i));
  }
  const std::uint64_t warm = pipe.cycle();
  for (std::uint32_t i = 0; i < 60; ++i) {
    issue(pipe, simpleOp(i % 4, 200 + i));
  }
  pipe.finish();
  const std::uint64_t delta = pipe.cycle() - warm;
  EXPECT_GE(delta, 10u);
  EXPECT_LE(delta, 12u);
  EXPECT_EQ(pipe.instrsIssued(), 120u);
}

TEST(Pipeline, DependencyChainSerializes) {
  MachineConfig config;
  MemorySystem mem(config);
  Pipeline pipe(config, mem);
  // Chain of 20 dependent 3-cycle ops: ~60 cycles.
  std::uint32_t prev = Reg::kInvalidIndex;
  for (std::uint32_t i = 0; i < 20; ++i) {
    issue(pipe, simpleOp(0, 200 + i, prev, 3));
    prev = 200 + i;
  }
  pipe.finish();
  EXPECT_GE(pipe.cycle(), 20u * 3 - 5);
  EXPECT_GT(pipe.breakdown().pipeline_stall, 20u);
}

TEST(Pipeline, LoadConsumerStallsAreDCache) {
  MachineConfig config;
  MemorySystem mem(config);
  Pipeline pipe(config, mem);
  issue(pipe, loadOp(0, 7, 0x10000));  // cold: 168 cycles
  issue(pipe, simpleOp(1, 8, 7));      // consumer
  pipe.finish();
  EXPECT_GT(pipe.breakdown().dcache_stall, 100u);
}

TEST(Pipeline, BreakdownCoversTotalCycles) {
  MachineConfig config;
  MemorySystem mem(config);
  Pipeline pipe(config, mem);
  support::Rng rng(3);
  std::uint32_t prev = Reg::kInvalidIndex;
  for (std::uint32_t i = 0; i < 500; ++i) {
    if (rng.nextBool(0.2)) {
      issue(pipe, loadOp(i % 64, 1000 + i, rng.nextBelow(1 << 20) & ~7ull));
      prev = 1000 + i;
    } else {
      issue(pipe, simpleOp(i % 64, 1000 + i,
                           rng.nextBool(0.5) ? prev : Reg::kInvalidIndex));
    }
  }
  pipe.finish();
  EXPECT_EQ(pipe.breakdown().total(), pipe.cycle());
}

TEST(Pipeline, MispredictAddsPenalty) {
  MachineConfig config;
  MemorySystem mem(config);
  Pipeline pipe(config, mem);
  support::Rng rng(9);
  IssuedOp br;
  br.r.sid = 0;
  br.d.op = Opcode::kCondBr;
  br.d.is_cond_branch = true;
  std::uint64_t mispredicted_before = 0;
  for (int i = 0; i < 200; ++i) {
    br.r.taken = rng.nextBool(0.5);
    issue(pipe, br);
  }
  (void)mispredicted_before;
  pipe.finish();
  const std::uint64_t mis = pipe.predictor().mispredictions();
  EXPECT_GT(mis, 20u);
  EXPECT_GE(pipe.breakdown().pipeline_stall,
            mis * config.branch_mispredict_penalty);
}

TEST(Pipeline, SpecializedIssueMatchesDynamic) {
  // One seeded stream of records, issued on one pipeline through the
  // variant the machines' handlers use for the record's dispatch class and
  // on a twin through the dynamic variant. The twins must agree after
  // every record.
  using Access = Pipeline::Access;
  enum class Case {
    kClass,          // a record of `klass`, issued as its handler does
    kForwardedLoad,  // a speculative load forwarded from the SSB
    kSpecStore,      // a speculative store (stays in the SSB)
    kEmulatedLoad,   // a speculative load at its emulated address
  };
  struct Shape {
    Case c;
    DispatchClass klass;
    Opcode op;
    Access access;  // the specialized variant
    bool dst;
  };
  const Shape kShapes[] = {
      {Case::kClass, DispatchClass::kValue, Opcode::kAdd, Access::kNone, true},
      {Case::kClass, DispatchClass::kValue, Opcode::kMul, Access::kNone, true},
      {Case::kClass, DispatchClass::kValue, Opcode::kDiv, Access::kNone, true},
      {Case::kClass, DispatchClass::kLoad, Opcode::kLoad, Access::kLoad, true},
      {Case::kClass, DispatchClass::kStore, Opcode::kStore, Access::kStore,
       false},
      {Case::kClass, DispatchClass::kCondBr, Opcode::kCondBr, Access::kBranch,
       false},
      {Case::kClass, DispatchClass::kJump, Opcode::kBr, Access::kNone, false},
      {Case::kClass, DispatchClass::kJump, Opcode::kSub, Access::kNone, false},
      {Case::kClass, DispatchClass::kCall, Opcode::kCall, Access::kNone, false},
      {Case::kClass, DispatchClass::kRet, Opcode::kRet, Access::kNone, false},
      {Case::kClass, DispatchClass::kFork, Opcode::kSptFork, Access::kNone,
       false},
      {Case::kClass, DispatchClass::kKill, Opcode::kSptKill, Access::kNone,
       false},
      {Case::kClass, DispatchClass::kHalloc, Opcode::kHalloc, Access::kNone,
       true},
      // A load without a live destination.
      {Case::kClass, DispatchClass::kGeneric, Opcode::kLoad, Access::kLoad,
       false},
      {Case::kForwardedLoad, DispatchClass::kLoad, Opcode::kLoad,
       Access::kNone, true},
      {Case::kSpecStore, DispatchClass::kStore, Opcode::kStore, Access::kNone,
       false},
      {Case::kEmulatedLoad, DispatchClass::kLoad, Opcode::kLoad,
       Access::kLoad, true},
  };
  constexpr std::size_t kShapeCount = std::size(kShapes);

  MachineConfig config;
  MemorySystem mem_known(config);
  MemorySystem mem_dyn(config);
  Pipeline known(config, mem_known);
  Pipeline dyn(config, mem_dyn);
  support::Rng rng(31);
  std::size_t issued[kShapeCount] = {};
  for (int i = 0; i < 20000; ++i) {
    const std::size_t k = rng.nextBelow(kShapeCount);
    const Shape& shape = kShapes[k];
    IssuedOp op;
    op.d.op = shape.op;
    op.d.klass = static_cast<std::uint8_t>(shape.klass);
    op.d.base_latency = baseLatency(shape.op);
    op.d.is_load = shape.op == Opcode::kLoad;
    op.d.is_store = shape.op == Opcode::kStore;
    op.d.is_cond_branch = shape.op == Opcode::kCondBr;
    op.d.src_count = static_cast<std::uint32_t>(rng.nextBelow(5));
    for (std::uint32_t s = 0; s < op.d.src_count; ++s) {
      op.d.src_regs[s] = static_cast<std::uint32_t>(rng.nextBelow(24));
    }
    if (shape.dst) op.d.dst_reg = static_cast<std::uint32_t>(rng.nextBelow(24));
    op.r.op = shape.op;
    op.r.sid = static_cast<StaticId>(rng.nextBelow(2048));
    op.r.frame = static_cast<trace::FrameId>(rng.nextBelow(3));
    op.r.taken = rng.nextBool(0.6);
    if (op.d.is_load || op.d.is_store) {
      op.r.mem_addr = rng.nextBelow(1 << 22) & ~7ull;
    }

    std::uint64_t ready_known = 0;
    std::uint64_t ready_dyn = 0;
    switch (shape.c) {
      case Case::kClass:
        switch (shape.access) {
          case Access::kNone:
            ready_known = known.issue<Access::kNone>(op.d, op.r);
            break;
          case Access::kLoad:
            ready_known = known.issue<Access::kLoad>(op.d, op.r);
            break;
          case Access::kStore:
            ready_known = known.issue<Access::kStore>(op.d, op.r);
            break;
          case Access::kBranch:
            ready_known = known.issue<Access::kBranch>(op.d, op.r);
            break;
          case Access::kDynamic:
            FAIL() << "no specialized variant";
        }
        ready_dyn = dyn.issue(op.d, op.r);
        break;
      case Case::kForwardedLoad:
      case Case::kSpecStore:
        ready_known = known.issue<Access::kNone>(op.d, op.r);
        ready_dyn = dyn.issue(op.d, op.r, 0, /*dcache=*/false);
        break;
      case Case::kEmulatedLoad: {
        // An emulated address of 0 keeps the record's.
        const std::uint64_t addr =
            rng.nextBool(0.1) ? 0 : rng.nextBelow(1 << 22) & ~7ull;
        ready_known = known.issue<Access::kLoad>(op.d, op.r, addr);
        ready_dyn = dyn.issue(op.d, op.r, addr);
        break;
      }
    }
    ++issued[k];
    ASSERT_EQ(ready_known, ready_dyn) << "record " << i << " shape " << k;
    ASSERT_EQ(known.cycle(), dyn.cycle()) << "record " << i;
    ASSERT_EQ(known.breakdown().execution, dyn.breakdown().execution);
    ASSERT_EQ(known.breakdown().pipeline_stall, dyn.breakdown().pipeline_stall);
    ASSERT_EQ(known.breakdown().dcache_stall, dyn.breakdown().dcache_stall);
    ASSERT_EQ(known.instrsIssued(), dyn.instrsIssued());
  }
  for (std::size_t k = 0; k < kShapeCount; ++k) {
    EXPECT_GT(issued[k], 100u) << "shape " << k;
  }
  // The stream exercised every stall kind and the D-cache.
  EXPECT_GT(known.breakdown().pipeline_stall, 0u);
  EXPECT_GT(known.breakdown().dcache_stall, 0u);
  EXPECT_GT(mem_known.l1d().stats().misses, 0u);
  EXPECT_EQ(mem_known.l1d().stats().hits, mem_dyn.l1d().stats().hits);
  EXPECT_EQ(mem_known.l1d().stats().misses, mem_dyn.l1d().stats().misses);
}

// --------------------------------------------------------------- helpers

struct Traced {
  Module module{"sim"};
  trace::TraceBuffer buf;
  interp::RunResult run_result;
};

void traceModule(Traced& t) {
  t.module.finalize();
  ASSERT_TRUE(verifyModule(t.module).empty());
  interp::ProgramContext ctx(t.module);
  interp::Memory mem;
  interp::Interpreter interp(ctx, mem, t.buf);
  t.run_result = interp.runMain();
}

/// An SPT-transformed loop with NO cross-iteration dependence left in the
/// post-fork region (the induction variable advances pre-fork): every
/// speculative thread should fast-commit.
///   i = 0
///   head: if (i >= n) { spt_kill; ret }
///   body: i_cur = i; i = i + 1; spt_fork head;
///         w = i_cur*3+1 ; buf[i_cur] = w ; plus `filler` arith instrs
///   br head
void buildGoodSptLoop(Module& m, std::int64_t n, bool with_fork,
                      int filler = 4) {
  const FuncId f = m.addFunction("main", 0);
  IrBuilder b(m, f);
  const BlockId entry = b.createBlock("entry");
  const BlockId head = b.createBlock("good_loop");
  const BlockId body = b.createBlock("body");
  const BlockId ex = b.createBlock("exit");
  const Reg i = b.func().newReg();
  const Reg nr = b.func().newReg();
  const Reg buf = b.func().newReg();

  b.setInsertPoint(entry);
  {
    Instr h;
    h.op = Opcode::kHalloc;
    h.dst = buf;
    h.imm = (n + 1) * 8;
    b.append(h);
  }
  b.constTo(i, 0);
  b.constTo(nr, n);
  b.br(head);

  b.setInsertPoint(head);
  const Reg c = b.cmpLt(i, nr);
  b.condBr(c, body, ex);

  b.setInsertPoint(body);
  const Reg i_cur = b.mov(i);
  const Reg one = b.iconst(1);
  const Reg i_next = b.add(i, one);
  b.movTo(i, i_next);
  if (with_fork) b.sptFork(head);
  const Reg three = b.iconst(3);
  const Reg w0 = b.mul(i_cur, three);
  const Reg w1 = b.add(w0, one);
  const Reg eight = b.iconst(8);
  const Reg off = b.mul(i_cur, eight);
  const Reg addr = b.add(buf, off);
  b.store(addr, 0, w1);
  // Filler computation to give the iteration some body.
  Reg acc = b.xor_(w1, i_cur);
  for (int k = 0; k < filler; ++k) {
    acc = (k % 2 == 0) ? b.add(acc, w0) : b.sub(b.mul(acc, three), w1);
  }
  b.store(addr, 8, acc);
  b.br(head);

  b.setInsertPoint(ex);
  if (with_fork) b.sptKill();
  b.ret(i);
  m.setMainFunc(f);
}

/// An SPT loop whose accumulator is read and written in the post-fork
/// region: every speculative thread reads a stale value and must replay.
void buildViolatingSptLoop(Module& m, std::int64_t n, bool with_fork) {
  const FuncId f = m.addFunction("main", 0);
  IrBuilder b(m, f);
  const BlockId entry = b.createBlock("entry");
  const BlockId head = b.createBlock("bad_loop");
  const BlockId body = b.createBlock("body");
  const BlockId ex = b.createBlock("exit");
  const Reg i = b.func().newReg();
  const Reg s = b.func().newReg();
  const Reg nr = b.func().newReg();

  b.setInsertPoint(entry);
  b.constTo(i, 0);
  b.constTo(s, 0);
  b.constTo(nr, n);
  b.br(head);

  b.setInsertPoint(head);
  const Reg c = b.cmpLt(i, nr);
  b.condBr(c, body, ex);

  b.setInsertPoint(body);
  const Reg i_cur = b.mov(i);
  const Reg one = b.iconst(1);
  const Reg i_next = b.add(i, one);
  b.movTo(i, i_next);
  if (with_fork) b.sptFork(head);
  // Post-fork accumulator: cross-iteration flow dependence on s.
  const Reg t0 = b.mul(i_cur, i_cur);
  const Reg s2 = b.add(s, t0);
  b.movTo(s, s2);
  b.br(head);

  b.setInsertPoint(ex);
  if (with_fork) b.sptKill();
  b.ret(s);
  m.setMainFunc(f);
}

MachineResult runSpt(Traced& t, const MachineConfig& config) {
  const trace::LoopIndex index(t.module, t.buf);
  SptMachine machine(t.module, t.buf, index, config);
  return machine.run();
}

MachineResult runBaseline(Traced& t, const MachineConfig& config) {
  BaselineMachine machine(t.module, t.buf, config);
  return machine.run();
}

// ------------------------------------------------------ baseline machine

TEST(BaselineMachine, RunsArraySum) {
  Traced t;
  testing::buildArraySum(t.module, 200);
  traceModule(t);
  const MachineResult r = runBaseline(t, MachineConfig{});
  EXPECT_EQ(r.instrs, t.run_result.dynamic_instrs);
  EXPECT_GT(r.cycles, r.instrs / 6);  // cannot beat issue width
  EXPECT_EQ(r.breakdown.total(), r.cycles);
  EXPECT_TRUE(r.loops.contains("main.sum_loop"));
  EXPECT_TRUE(r.loops.contains("main.init_loop"));
  EXPECT_EQ(r.loops.at("main.sum_loop").episodes, 1u);
  EXPECT_EQ(r.loops.at("main.sum_loop").iterations, 201u);
  EXPECT_GT(r.loops.at("main.sum_loop").cycles, 0u);
}

TEST(BaselineMachine, DeterministicAcrossRuns) {
  Traced t;
  testing::buildFib(t.module, 12);
  traceModule(t);
  const MachineResult a = runBaseline(t, MachineConfig{});
  const MachineResult b = runBaseline(t, MachineConfig{});
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.breakdown.execution, b.breakdown.execution);
}

TEST(BaselineMachine, ColdCachesCostCycles) {
  // 10000 * 8B = 80KB exceeds the 16KB L1D, so the sum loop's loads miss
  // L1 and their consumers stall on the D-cache.
  Traced t;
  testing::buildArraySum(t.module, 10000);
  traceModule(t);
  const MachineResult r = runBaseline(t, MachineConfig{});
  EXPECT_GT(r.l1d.misses, 1000u);
  EXPECT_GT(r.breakdown.dcache_stall, 0u);
}

// ----------------------------------------------------------- SPT machine

TEST(SptMachine, NoForksMatchesBaselineCycles) {
  Traced t;
  testing::buildArraySum(t.module, 100);
  traceModule(t);
  const MachineResult base = runBaseline(t, MachineConfig{});
  const MachineResult spt = runSpt(t, MachineConfig{});
  EXPECT_EQ(spt.threads.spawned, 0u);
  EXPECT_EQ(spt.cycles, base.cycles);
}

TEST(SptMachine, GoodLoopFastCommits) {
  Traced t;
  buildGoodSptLoop(t.module, 300, /*with_fork=*/true);
  traceModule(t);
  const MachineResult r = runSpt(t, MachineConfig{});
  EXPECT_GT(r.threads.spawned, 100u);
  // Nearly all threads commit without violation.
  EXPECT_GT(r.threads.fastCommitRatio(), 0.9);
  EXPECT_EQ(r.threads.misspec_instrs, 0u);
}

TEST(SptMachine, GoodLoopBeatsBaseline) {
  Traced withFork, noFork;
  buildGoodSptLoop(withFork.module, 300, true);
  buildGoodSptLoop(noFork.module, 300, false);
  traceModule(withFork);
  traceModule(noFork);
  const MachineResult base = runBaseline(noFork, MachineConfig{});
  const MachineResult spt = runSpt(withFork, MachineConfig{});
  EXPECT_LT(spt.cycles, base.cycles);
  const double speedup = speedupOf(base.cycles, spt.cycles);
  EXPECT_GT(speedup, 0.10) << "speedup " << speedup;
}

TEST(SptMachine, ViolatingLoopReplays) {
  Traced t;
  buildViolatingSptLoop(t.module, 300, true);
  traceModule(t);
  const MachineResult r = runSpt(t, MachineConfig{});
  EXPECT_GT(r.threads.spawned, 100u);
  EXPECT_GT(r.threads.replays, 100u);
  EXPECT_GT(r.threads.misspec_instrs, 0u);
  EXPECT_LT(r.threads.fastCommitRatio(), 0.1);
  // Selective re-execution keeps most speculative work: the misspeculated
  // fraction stays well below half (only the accumulator chain replays).
  EXPECT_LT(r.threads.misspeculationRatio(), 0.7);
  EXPECT_GT(r.threads.committed_instrs, 0u);
}

TEST(SptMachine, SelectiveReplayBeatsFullSquash) {
  Traced t;
  buildViolatingSptLoop(t.module, 300, true);
  traceModule(t);
  MachineConfig srx;
  MachineConfig squash;
  squash.recovery = support::RecoveryMechanism::kFullSquash;
  const MachineResult a = runSpt(t, srx);
  const MachineResult b = runSpt(t, squash);
  EXPECT_GT(b.threads.squashes, 0u);
  EXPECT_LE(a.cycles, b.cycles);
}

TEST(SptMachine, FastCommitBeatsPlainReplayOnCleanLoopWithDeepBuffers) {
  // With a large loop body the buffer is deep at arrival; the bulk fast
  // commit (5 cycles) beats walking the buffer at replay width.
  Traced t;
  buildGoodSptLoop(t.module, 300, true, /*filler=*/150);
  traceModule(t);
  MachineConfig fc;
  MachineConfig no_fc;
  no_fc.recovery = support::RecoveryMechanism::kSelectiveReplay;
  const MachineResult a = runSpt(t, fc);
  const MachineResult b = runSpt(t, no_fc);
  EXPECT_GT(a.threads.fast_commits, 0u);
  EXPECT_EQ(b.threads.fast_commits, 0u);
  EXPECT_LT(a.cycles, b.cycles);
}

TEST(SptMachine, ValueBasedCheckForgivesSameValueWrites) {
  // Post-fork writes x = x | 0 (same value). Scoreboard mode flags a
  // violation; value-based mode does not.
  Module m("t");
  const FuncId f = m.addFunction("main", 0);
  IrBuilder b(m, f);
  const BlockId entry = b.createBlock("entry");
  const BlockId head = b.createBlock("same_loop");
  const BlockId body = b.createBlock("body");
  const BlockId ex = b.createBlock("exit");
  const Reg i = b.func().newReg();
  const Reg x = b.func().newReg();
  const Reg nr = b.func().newReg();
  b.setInsertPoint(entry);
  b.constTo(i, 0);
  b.constTo(x, 42);
  b.constTo(nr, 100);
  b.br(head);
  b.setInsertPoint(head);
  const Reg c = b.cmpLt(i, nr);
  b.condBr(c, body, ex);
  b.setInsertPoint(body);
  const Reg one = b.iconst(1);
  const Reg i2 = b.add(i, one);
  b.movTo(i, i2);
  b.sptFork(head);
  const Reg zero = b.iconst(0);
  const Reg x2 = b.or_(x, zero);  // rewrites x with the same value
  b.movTo(x, x2);
  // A long chain of consumers of x: under scoreboard checking all of these
  // re-execute; under value-based checking none do.
  Reg y = b.add(x, i2);
  for (int k = 0; k < 40; ++k) {
    y = (k % 2 == 0) ? b.mul(y, one) : b.add(y, x);
  }
  b.store(b.addImm(b.iconst(1024), 0), 0, y);
  b.br(head);
  b.setInsertPoint(ex);
  b.sptKill();
  b.ret(x);
  m.setMainFunc(f);

  Traced t;
  t.module = std::move(m);
  // Memory address 1024+ needs allocation; grow the heap first via halloc
  // in a fresh build — instead just use Memory default (store target within
  // bounds is required). Address 1032 is inside the 64MB space and aligned.
  traceModule(t);

  MachineConfig value_mode;
  MachineConfig scoreboard_mode;
  scoreboard_mode.register_check = support::RegisterCheckMode::kScoreboard;
  const MachineResult a = runSpt(t, value_mode);
  const MachineResult b2 = runSpt(t, scoreboard_mode);
  EXPECT_GT(a.threads.fastCommitRatio(), 0.9);
  EXPECT_LT(b2.threads.fastCommitRatio(), 0.1);
  EXPECT_GT(b2.threads.misspec_instrs, 40u * 50);
  EXPECT_EQ(a.threads.misspec_instrs, 0u);
  EXPECT_LT(a.cycles, b2.cycles);
}

TEST(SptMachine, SrbSizeLimitsSpeculationDepth) {
  Traced t;
  buildGoodSptLoop(t.module, 300, true);
  traceModule(t);
  MachineConfig big;
  MachineConfig tiny;
  tiny.speculation_result_buffer_entries = 4;
  const MachineResult a = runSpt(t, big);
  const MachineResult b = runSpt(t, tiny);
  // A 4-entry SRB cripples the speculative thread's run-ahead.
  EXPECT_LT(a.cycles, b.cycles);
}

TEST(SptMachine, LoopCycleStatsPresentInBothRuns) {
  Traced withFork, noFork;
  buildGoodSptLoop(withFork.module, 200, true);
  buildGoodSptLoop(noFork.module, 200, false);
  traceModule(withFork);
  traceModule(noFork);
  const MachineResult base = runBaseline(noFork, MachineConfig{});
  const MachineResult spt = runSpt(withFork, MachineConfig{});
  ASSERT_TRUE(base.loops.contains("main.good_loop"));
  ASSERT_TRUE(spt.loops.contains("main.good_loop"));
  EXPECT_LT(spt.loops.at("main.good_loop").cycles,
            base.loops.at("main.good_loop").cycles);
  ASSERT_TRUE(spt.loop_threads.contains("main.good_loop"));
  EXPECT_GT(spt.loop_threads.at("main.good_loop").spawned, 0u);
}

TEST(SptMachine, WrongPathForkIsKilledByKillInstr) {
  // Single-trip bottom-test loop: the only iteration's fork has no next
  // iteration (the fork is executed directly by the main thread), and the
  // spt_kill on the exit path must terminate the wrong-path thread.
  Module m("t");
  const FuncId f = m.addFunction("main", 0);
  IrBuilder b(m, f);
  const BlockId entry = b.createBlock("entry");
  const BlockId head = b.createBlock("dw_loop");
  const BlockId ex = b.createBlock("exit");
  const Reg i = b.func().newReg();
  const Reg nr = b.func().newReg();
  b.setInsertPoint(entry);
  b.constTo(i, 0);
  b.constTo(nr, 1);
  b.br(head);
  b.setInsertPoint(head);
  const Reg i_cur = b.mov(i);
  const Reg one = b.iconst(1);
  const Reg i2 = b.add(i, one);
  b.movTo(i, i2);
  b.sptFork(head);
  const Reg w = b.mul(i_cur, i_cur);
  const Reg w2 = b.add(w, one);
  (void)w2;
  const Reg c = b.cmpLt(i, nr);
  b.condBr(c, head, ex);
  b.setInsertPoint(ex);
  b.sptKill();
  b.ret(i);
  m.setMainFunc(f);

  Traced t;
  t.module = std::move(m);
  traceModule(t);
  const MachineResult r = runSpt(t, MachineConfig{});
  EXPECT_GE(r.threads.wrong_path, 1u);
  EXPECT_GE(r.threads.killed, 1u);
}

TEST(SptMachine, IgnoredForksAttributedToActiveLoopStats) {
  // Two forks per iteration: the first spawns a speculative thread, the
  // second always finds the speculative core busy and must be ignored.
  // Regression: ignored forks used to bump the whole-program counter but
  // not the active loop's ThreadStats, so the per-loop view disagreed
  // with the global one.
  Module m("t");
  const FuncId f = m.addFunction("main", 0);
  IrBuilder b(m, f);
  const BlockId entry = b.createBlock("entry");
  const BlockId head = b.createBlock("twin_fork_loop");
  const BlockId body = b.createBlock("body");
  const BlockId ex = b.createBlock("exit");
  const Reg i = b.func().newReg();
  const Reg nr = b.func().newReg();
  b.setInsertPoint(entry);
  b.constTo(i, 0);
  b.constTo(nr, 50);
  b.br(head);
  b.setInsertPoint(head);
  const Reg c = b.cmpLt(i, nr);
  b.condBr(c, body, ex);
  b.setInsertPoint(body);
  const Reg one = b.iconst(1);
  b.movTo(i, b.add(i, one));
  b.sptFork(head);
  b.sptFork(head);
  b.br(head);
  b.setInsertPoint(ex);
  b.sptKill();
  b.ret(i);
  m.setMainFunc(f);

  Traced t;
  t.module = std::move(m);
  traceModule(t);
  const MachineResult r = runSpt(t, MachineConfig{});
  EXPECT_GT(r.threads.forks_ignored, 0u);
  ASSERT_TRUE(r.loop_threads.contains("main.twin_fork_loop"));
  EXPECT_EQ(r.loop_threads.at("main.twin_fork_loop").forks_ignored,
            r.threads.forks_ignored);
  // Every per-thread counter must aggregate to the whole-program stats.
  ThreadStats agg;
  for (const auto& [name, ts] : r.loop_threads) agg.accumulate(ts);
  EXPECT_EQ(agg.forks_ignored, r.threads.forks_ignored);
  EXPECT_EQ(agg.spawned, r.threads.spawned);
  EXPECT_EQ(agg.fast_commits, r.threads.fast_commits);
  EXPECT_EQ(agg.replays, r.threads.replays);
  EXPECT_EQ(agg.killed, r.threads.killed);
}

TEST(SptMachine, SemanticsUnaffectedByConfig) {
  // The machine only times the trace; whatever the configuration, the
  // instruction count and loop structure must match the trace.
  Traced t;
  buildGoodSptLoop(t.module, 100, true);
  traceModule(t);
  for (const auto recovery :
       {support::RecoveryMechanism::kSelectiveReplayFastCommit,
        support::RecoveryMechanism::kSelectiveReplay,
        support::RecoveryMechanism::kFullSquash}) {
    MachineConfig config;
    config.recovery = recovery;
    const MachineResult r = runSpt(t, config);
    EXPECT_TRUE(r.loops.contains("main.good_loop"));
    EXPECT_EQ(r.loops.at("main.good_loop").iterations, 101u);
  }
}

}  // namespace
}  // namespace spt::sim
