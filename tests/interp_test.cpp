// Unit tests for src/interp and src/trace: execution semantics, trace
// records, loop markers, fork resolution.
#include <gtest/gtest.h>

#include <cstring>
#include <random>

#include "interp/interpreter.h"
#include "interp/memory.h"
#include "interp/program_context.h"
#include "ir/builder.h"
#include "ir/verifier.h"
#include "support/check.h"
#include "support/error.h"
#include "test_programs.h"
#include "trace/trace.h"

namespace spt::interp {
namespace {

using namespace ir;

RunResult runModule(Module& m, trace::TraceSink& sink) {
  m.finalize();
  EXPECT_TRUE(verifyModule(m).empty());
  ProgramContext ctx(m);
  Memory mem;
  Interpreter interp(ctx, mem, sink);
  return interp.runMain();
}

TEST(Memory, LoadStoreRoundTrip) {
  Memory mem;
  const auto a = mem.alloc(64);
  EXPECT_NE(a, 0u);
  EXPECT_EQ(a % 8, 0u);
  mem.store64(a, -12345);
  EXPECT_EQ(mem.load64(a), -12345);
  EXPECT_EQ(mem.load64(a + 8), 0);  // zero-initialized
}

TEST(Memory, AllocationsDisjoint) {
  Memory mem;
  const auto a = mem.alloc(24);
  const auto b = mem.alloc(8);
  EXPECT_GE(b, a + 24);
  const auto c = mem.alloc(1);  // rounds to 8
  EXPECT_GE(c, b + 8);
}

TEST(Memory, HashChangesWithContent) {
  Memory mem;
  const auto a = mem.alloc(8);
  const auto h0 = mem.hash();
  mem.store64(a, 7);
  EXPECT_NE(mem.hash(), h0);
}

TEST(Memory, UnallocatedWordsReadZero) {
  Memory mem;
  mem.alloc(64);
  // Above brk() but inside size(): never allocated, never written.
  EXPECT_EQ(mem.load64(mem.brk() + 4096), 0);
  EXPECT_EQ(mem.load64(mem.size() - 8), 0);
}

TEST(Memory, LastWordRoundTrips) {
  Memory mem;
  const std::uint64_t last = mem.size() - 8;
  mem.store64(last, -42);
  EXPECT_EQ(mem.load64(last), -42);
  EXPECT_EQ(mem.load64(last - 8), 0);
}

TEST(Memory, BadAccessesAndHeapOverflowThrow) {
  const support::ScopedCheckThrowMode throwing(true);
  Memory mem;
  EXPECT_THROW(mem.load64(0), support::SptInternalError);
  EXPECT_THROW(mem.store64(0, 1), support::SptInternalError);
  EXPECT_THROW(mem.load64(12), support::SptInternalError);
  EXPECT_THROW(mem.store64(mem.size() - 4, 1), support::SptInternalError);
  EXPECT_THROW(mem.load64(mem.size()), support::SptInternalError);
  EXPECT_THROW(mem.store64(mem.size(), 1), support::SptInternalError);
  // addr + 8 wraps to 0 here.
  EXPECT_THROW(mem.load64(~7ull), support::SptInternalError);

  EXPECT_THROW(mem.alloc(mem.size()), support::SptInternalError);
  // bytes + 7 wraps to a tiny block here.
  EXPECT_THROW(mem.alloc(~0ull), support::SptInternalError);
  mem.alloc(mem.size() - mem.brk());  // exactly fills the heap
  EXPECT_EQ(mem.brk(), mem.size());
  EXPECT_THROW(mem.alloc(1), support::SptInternalError);
}

/// FNV-1a over [0, brk()) one byte at a time: the definition hash() must
/// reproduce. Word 0 is the null slot and always zero.
std::uint64_t bytewiseFnv(const Memory& mem) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint64_t addr = 0; addr < mem.brk(); addr += 8) {
    const std::int64_t word = addr == 0 ? 0 : mem.load64(addr);
    unsigned char bytes[8];
    std::memcpy(bytes, &word, 8);
    for (const unsigned char b : bytes) {
      h ^= b;
      h *= 1099511628211ull;
    }
  }
  return h;
}

TEST(Memory, HashMatchesBytewiseFnvOnSparseContents) {
  std::mt19937_64 rng(20261016);
  for (int trial = 0; trial < 50; ++trial) {
    Memory mem;
    // Blocks of odd sizes, so the runs of zero words end at brk() values
    // that are not multiples of any larger block.
    const int blocks = 1 + static_cast<int>(rng() % 4);
    for (int b = 0; b < blocks; ++b) mem.alloc(1 + rng() % 3000);
    for (std::uint64_t addr = 8; addr < mem.brk(); addr += 8) {
      const std::uint64_t pick = rng() % 8;
      if (pick == 0) {
        mem.store64(addr, static_cast<std::int64_t>(rng()));
      } else if (pick == 1) {
        // One non-zero byte: a non-zero word that is mostly zero bytes.
        const std::uint64_t byte = 1 + rng() % 255;
        const std::uint64_t shift = 8 * (rng() % 8);
        mem.store64(addr, static_cast<std::int64_t>(byte << shift));
      }
    }
    EXPECT_EQ(mem.hash(), bytewiseFnv(mem)) << "trial " << trial;
  }
}

TEST(Interpreter, ArraySumComputesCorrectValue) {
  Module m("t");
  testing::buildArraySum(m, 100);
  trace::NullSink sink;
  const RunResult r = runModule(m, sink);
  EXPECT_EQ(r.return_value, 99 * 100 / 2);
  EXPECT_GT(r.dynamic_instrs, 100u);
}

TEST(Interpreter, RecursiveFib) {
  Module m("t");
  testing::buildFib(m, 10);
  trace::NullSink sink;
  const RunResult r = runModule(m, sink);
  EXPECT_EQ(r.return_value, 55);
}

TEST(Interpreter, ArithmeticSemantics) {
  Module m("t");
  const FuncId f = m.addFunction("main", 0);
  IrBuilder b(m, f);
  b.setInsertPoint(b.createBlock("entry"));
  const Reg seven = b.iconst(7);
  const Reg three = b.iconst(3);
  const Reg q = b.div(seven, three);       // 2
  const Reg r = b.rem(seven, three);       // 1
  const Reg minus = b.sub(r, seven);       // -6
  const Reg shifted = b.shl(three, q);     // 12
  const Reg ored = b.or_(q, r);            // 3
  const Reg cmp = b.cmpLe(minus, ored);    // 1
  const Reg t1 = b.mul(shifted, cmp);      // 12
  const Reg t2 = b.xor_(t1, ored);         // 15
  b.ret(t2);
  m.setMainFunc(f);
  trace::NullSink sink;
  EXPECT_EQ(runModule(m, sink).return_value, 15);
}

TEST(Interpreter, ShiftAmountsMasked) {
  Module m("t");
  const FuncId f = m.addFunction("main", 0);
  IrBuilder b(m, f);
  b.setInsertPoint(b.createBlock("entry"));
  const Reg one = b.iconst(1);
  const Reg sixty_five = b.iconst(65);
  b.ret(b.shl(one, sixty_five));  // 65 & 63 == 1 -> 2
  m.setMainFunc(f);
  trace::NullSink sink;
  EXPECT_EQ(runModule(m, sink).return_value, 2);
}

TEST(Interpreter, TraceContainsEveryDynamicInstr) {
  Module m("t");
  testing::buildArraySum(m, 10);
  trace::TraceBuffer buf;
  const RunResult r = runModule(m, buf);
  EXPECT_EQ(buf.instrCount(), r.dynamic_instrs);
  EXPECT_GT(buf.size(), buf.instrCount());  // markers present
}

TEST(Interpreter, LoopMarkersWellFormed) {
  Module m("t");
  testing::buildArraySum(m, 10);
  trace::TraceBuffer buf;
  runModule(m, buf);

  int iter_begins = 0;
  int loop_exits = 0;
  for (const auto& rec : buf.records()) {
    if (rec.kind == trace::RecordKind::kIterBegin) ++iter_begins;
    if (rec.kind == trace::RecordKind::kLoopExit) ++loop_exits;
  }
  // Two loops, each: 10 body iterations + 1 final header check = 11
  // header arrivals.
  EXPECT_EQ(iter_begins, 22);
  EXPECT_EQ(loop_exits, 2);
}

TEST(Interpreter, IterationIndicesAscend) {
  Module m("t");
  testing::buildArraySum(m, 5);
  trace::TraceBuffer buf;
  runModule(m, buf);
  std::int64_t last = -1;
  for (const auto& rec : buf.records()) {
    if (rec.kind != trace::RecordKind::kIterBegin) continue;
    if (rec.value == 0) last = -1;  // new episode
    EXPECT_EQ(rec.value, last + 1);
    last = rec.value;
  }
}

TEST(Interpreter, StoreRecordsKeepOldValue) {
  Module m("t");
  const FuncId f = m.addFunction("main", 0);
  IrBuilder b(m, f);
  b.setInsertPoint(b.createBlock("entry"));
  const Reg buf_reg = b.halloc(8);
  const Reg v1 = b.iconst(111);
  b.store(buf_reg, 0, v1);
  const Reg v2 = b.iconst(222);
  b.store(buf_reg, 0, v2);
  b.ret();
  m.setMainFunc(f);
  trace::TraceBuffer buf;
  runModule(m, buf);
  std::vector<const trace::Record*> stores;
  for (const auto& rec : buf.records()) {
    if (rec.kind == trace::RecordKind::kInstr && rec.op == Opcode::kStore) {
      stores.push_back(&rec);
    }
  }
  ASSERT_EQ(stores.size(), 2u);
  EXPECT_EQ(stores[0]->mem_old, 0);
  EXPECT_EQ(stores[0]->value, 111);
  EXPECT_EQ(stores[1]->mem_old, 111);
  EXPECT_EQ(stores[1]->value, 222);
  EXPECT_EQ(stores[0]->mem_addr, stores[1]->mem_addr);
}

TEST(Interpreter, CallRecordsCarryCalleeFrame) {
  Module m("t");
  testing::buildFib(m, 5);
  trace::TraceBuffer buf;
  runModule(m, buf);
  // Frames referenced by call records must all be distinct and fresh.
  std::vector<trace::FrameId> callee_frames;
  for (const auto& rec : buf.records()) {
    if (rec.kind == trace::RecordKind::kInstr && rec.op == Opcode::kCall) {
      callee_frames.push_back(rec.callee_frame);
    }
  }
  std::sort(callee_frames.begin(), callee_frames.end());
  EXPECT_TRUE(std::adjacent_find(callee_frames.begin(), callee_frames.end()) ==
              callee_frames.end());
  EXPECT_FALSE(callee_frames.empty());
}

TEST(LoopIndex, EpisodesAndTripCounts) {
  Module m("t");
  testing::buildArraySum(m, 10);
  m.finalize();
  ProgramContext ctx(m);
  Memory mem;
  trace::TraceBuffer buf;
  Interpreter interp(ctx, mem, buf);
  interp.runMain();
  const trace::LoopIndex index(m, buf);
  ASSERT_EQ(index.episodes().size(), 2u);
  for (const auto& ep : index.episodes()) {
    EXPECT_EQ(ep.iter_begins.size(), 11u);
    EXPECT_LT(ep.iter_begins.back(), ep.exit_index);
    const std::string name = index.loopName(ep.header_sid);
    EXPECT_TRUE(name == "main.init_loop" || name == "main.sum_loop") << name;
  }
}

TEST(LoopIndex, ForkResolvesToNextIteration) {
  Module m("t");
  testing::buildForkLoop(m, 5);
  m.finalize();
  ProgramContext ctx(m);
  Memory mem;
  trace::TraceBuffer buf;
  Interpreter interp(ctx, mem, buf);
  const RunResult r = interp.runMain();
  EXPECT_EQ(r.return_value, 10);  // 0+1+2+3+4

  const trace::LoopIndex index(m, buf);
  std::vector<std::size_t> fork_indices;
  for (std::size_t i = 0; i < buf.size(); ++i) {
    if (buf[i].kind == trace::RecordKind::kInstr &&
        buf[i].op == Opcode::kSptFork) {
      fork_indices.push_back(i);
    }
  }
  ASSERT_EQ(fork_indices.size(), 5u);  // fork in each of 5 body executions
  // In a top-test loop every fork resolves: the fork of body iteration k
  // points at header arrival k+1 (the last one merely evaluates the exit
  // condition — legitimate control speculation).
  for (std::size_t k = 0; k < fork_indices.size(); ++k) {
    const std::size_t start = index.startOfFork(fork_indices[k]);
    ASSERT_NE(start, trace::LoopIndex::kNoStart);
    EXPECT_GT(start, fork_indices[k]);
    EXPECT_EQ(buf[start].kind, trace::RecordKind::kIterBegin);
    EXPECT_EQ(buf[start].value, static_cast<std::int64_t>(k) + 1);
  }
}

TEST(LoopIndex, BottomTestLoopLastForkUnresolved) {
  // do { spt_fork head; i += 1; } while (i < n): the final iteration exits
  // from the body without reaching the header again, so its fork has no
  // start-point (wrong-path fork).
  Module m("t");
  const FuncId f = m.addFunction("main", 0);
  IrBuilder b(m, f);
  const BlockId entry = b.createBlock("entry");
  const BlockId head = b.createBlock("dw_loop");
  const BlockId ex = b.createBlock("exit");
  const Reg i = b.func().newReg();
  const Reg n = b.func().newReg();

  b.setInsertPoint(entry);
  b.constTo(i, 0);
  b.constTo(n, 4);
  b.br(head);
  b.setInsertPoint(head);
  b.sptFork(head);
  const Reg one = b.iconst(1);
  const Reg i2 = b.add(i, one);
  b.movTo(i, i2);
  const Reg c = b.cmpLt(i, n);
  b.condBr(c, head, ex);
  b.setInsertPoint(ex);
  b.sptKill();
  b.ret(i);
  m.setMainFunc(f);

  m.finalize();
  ProgramContext ctx(m);
  Memory mem;
  trace::TraceBuffer buf;
  Interpreter interp(ctx, mem, buf);
  const RunResult r = interp.runMain();
  EXPECT_EQ(r.return_value, 4);

  const trace::LoopIndex index(m, buf);
  std::vector<std::size_t> fork_indices;
  for (std::size_t k = 0; k < buf.size(); ++k) {
    if (buf[k].kind == trace::RecordKind::kInstr &&
        buf[k].op == Opcode::kSptFork) {
      fork_indices.push_back(k);
    }
  }
  ASSERT_EQ(fork_indices.size(), 4u);
  for (std::size_t k = 0; k + 1 < fork_indices.size(); ++k) {
    EXPECT_NE(index.startOfFork(fork_indices[k]), trace::LoopIndex::kNoStart);
  }
  EXPECT_EQ(index.startOfFork(fork_indices.back()),
            trace::LoopIndex::kNoStart);
}

TEST(Interpreter, NestedLoopMarkers) {
  // Build nested loops and verify inner episodes restart per outer iter.
  Module m("t");
  const FuncId f = m.addFunction("main", 0);
  IrBuilder b(m, f);
  const BlockId entry = b.createBlock("entry");
  const BlockId oh = b.createBlock("outer");
  const BlockId ih = b.createBlock("inner");
  const BlockId ib = b.createBlock("inner_body");
  const BlockId ol = b.createBlock("outer_latch");
  const BlockId ex = b.createBlock("exit");
  const Reg i = b.func().newReg();
  const Reg j = b.func().newReg();
  const Reg n = b.func().newReg();

  b.setInsertPoint(entry);
  b.constTo(i, 0);
  b.constTo(n, 3);
  b.br(oh);
  b.setInsertPoint(oh);
  b.constTo(j, 0);
  const Reg ci = b.cmpLt(i, n);
  b.condBr(ci, ih, ex);
  b.setInsertPoint(ih);
  const Reg cj = b.cmpLt(j, n);
  b.condBr(cj, ib, ol);
  b.setInsertPoint(ib);
  const Reg one = b.iconst(1);
  const Reg j2 = b.add(j, one);
  b.movTo(j, j2);
  b.br(ih);
  b.setInsertPoint(ol);
  const Reg one2 = b.iconst(1);
  const Reg i2 = b.add(i, one2);
  b.movTo(i, i2);
  b.br(oh);
  b.setInsertPoint(ex);
  b.ret(i);
  m.setMainFunc(f);

  trace::TraceBuffer buf;
  runModule(m, buf);
  const trace::LoopIndex index(m, buf);
  // 1 outer episode + 3 inner episodes.
  int outer = 0, inner = 0;
  for (const auto& ep : index.episodes()) {
    const std::string name = index.loopName(ep.header_sid);
    if (name == "main.outer") {
      ++outer;
      EXPECT_EQ(ep.iter_begins.size(), 4u);
    } else if (name == "main.inner") {
      ++inner;
      EXPECT_EQ(ep.iter_begins.size(), 4u);
    }
  }
  EXPECT_EQ(outer, 1);
  EXPECT_EQ(inner, 3);
}

TEST(Interpreter, MemoryHashDetectsDifferentBehaviour) {
  Module m1("a"), m2("b");
  testing::buildArraySum(m1, 10);
  testing::buildArraySum(m2, 11);
  trace::NullSink sink;
  const auto r1 = runModule(m1, sink);
  const auto r2 = runModule(m2, sink);
  EXPECT_NE(r1.memory_hash, r2.memory_hash);
}

}  // namespace
}  // namespace spt::interp
