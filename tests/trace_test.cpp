// Dedicated tests for src/trace: sinks, loop index, episode structure
// across calls and recursion, and loop naming.
#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "fork_reference.h"
#include "harness/experiment.h"
#include "harness/suite.h"
#include "interp/interpreter.h"
#include "ir/builder.h"
#include "loop_episodes.h"
#include "random_programs.h"
#include "test_programs.h"
#include "trace/trace.h"

namespace spt::trace {
namespace {

using namespace ir;

TEST(TraceSinks, TeeForwardsToAll) {
  TraceBuffer a, b;
  TeeSink tee;
  tee.add(&a);
  tee.add(&b);
  Record r;
  r.kind = RecordKind::kInstr;
  r.sid = 7;
  tee.onRecord(r);
  tee.onRecord(r);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(a[0].sid, 7u);
}

TEST(TraceSinks, NullSinkDiscards) {
  NullSink sink;
  Record r;
  sink.onRecord(r);  // must not crash; nothing observable
}

Record numbered(std::uint32_t i) {
  Record r;
  r.sid = i;
  r.frame = i / 3;
  r.value = -static_cast<std::int64_t>(i);
  r.mem_addr = 8ull * i;
  return r;
}

/// Record is hole-free (record.h), so equal bytes mean equal records.
bool sameRecords(TraceView a, TraceView b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(Record)) == 0);
}

TEST(TraceBuffer, GrowthKeepsThePushedSequence) {
  // 2^18 records (10 MiB): many doublings, and past the size at which the
  // allocator moves the block into a mapping of its own.
  constexpr std::uint32_t kCount = 1u << 18;
  TraceBuffer buf;
  for (std::uint32_t i = 0; i < kCount; ++i) buf.onRecord(numbered(i));
  ASSERT_EQ(buf.size(), kCount);
  std::uint32_t mismatches = 0;
  for (std::uint32_t i = 0; i < kCount; ++i) {
    const Record want = numbered(i);
    mismatches += std::memcmp(&buf[i], &want, sizeof(Record)) != 0;
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(TraceBuffer, MoveLeavesSourceEmptyAndKeepsTheRecords) {
  TraceBuffer a;
  for (std::uint32_t i = 0; i < 5000; ++i) a.onRecord(numbered(i));
  const Record* data = a.view().data();

  TraceBuffer b(std::move(a));
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.view().data(), nullptr);
  EXPECT_EQ(b.size(), 5000u);
  EXPECT_EQ(b.view().data(), data);

  TraceBuffer c;
  c.onRecord(numbered(7));
  c = std::move(b);
  EXPECT_EQ(b.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(c.view().data(), data);
  EXPECT_EQ(c[4999].sid, 4999u);

  // A moved-from buffer is empty and still usable.
  a.onRecord(numbered(1));
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a[0].sid, 1u);
}

TEST(TraceBuffer, CopyComparesEqualRecordForRecord) {
  TraceBuffer a;
  for (std::uint32_t i = 0; i < 5000; ++i) a.onRecord(numbered(i));
  const TraceBuffer b(a);
  EXPECT_NE(b.view().data(), a.view().data());
  EXPECT_TRUE(sameRecords(a, b));

  TraceBuffer c;
  c.onRecord(numbered(99));
  c = a;
  EXPECT_TRUE(sameRecords(a, c));
  c.onRecord(numbered(5000));  // the copy grows on its own
  EXPECT_EQ(c.size(), 5001u);
  EXPECT_EQ(a.size(), 5000u);

  const TraceBuffer empty;
  const TraceBuffer empty_copy(empty);
  EXPECT_EQ(empty_copy.size(), 0u);
}

struct TracedModule {
  Module m{"t"};
  TraceBuffer buf;

  void run() {
    m.finalize();
    interp::ProgramContext ctx(m);
    interp::Memory mem;
    interp::Interpreter interp(ctx, mem, buf);
    interp.runMain();
  }
};

TEST(LoopIndex, LoopInsideCalleeGetsDistinctEpisodesPerCall) {
  TracedModule t;
  // callee(n): loop of n iterations; main calls it 3 times.
  const FuncId callee = t.m.addFunction("callee", 1);
  {
    IrBuilder b(t.m, callee);
    const BlockId entry = b.createBlock("entry");
    const BlockId head = b.createBlock("inner");
    const BlockId body = b.createBlock("body");
    const BlockId ex = b.createBlock("exit");
    const Reg i = b.func().newReg();
    b.setInsertPoint(entry);
    b.constTo(i, 0);
    b.br(head);
    b.setInsertPoint(head);
    const Reg c = b.cmpLt(i, b.param(0));
    b.condBr(c, body, ex);
    b.setInsertPoint(body);
    const Reg one = b.iconst(1);
    const Reg i2 = b.add(i, one);
    b.movTo(i, i2);
    b.br(head);
    b.setInsertPoint(ex);
    b.ret(i);
  }
  const FuncId main_id = t.m.addFunction("main", 0);
  {
    IrBuilder b(t.m, main_id);
    b.setInsertPoint(b.createBlock("entry"));
    const Reg n = b.iconst(4);
    b.call(callee, {n});
    b.call(callee, {n});
    b.call(callee, {n});
    b.ret();
  }
  t.m.setMainFunc(main_id);
  t.run();

  const auto episodes = testing::loopEpisodes(t.buf);
  ASSERT_EQ(episodes.size(), 3u);
  std::set<FrameId> frames;
  for (const auto& ep : episodes) {
    EXPECT_EQ(ep.iter_begins.size(), 5u);  // 4 body + exit check
    frames.insert(ep.frame);
    EXPECT_EQ(loopNameOf(t.m, ep.header_sid), "callee.inner");
  }
  EXPECT_EQ(frames.size(), 3u);  // one frame per call
}

TEST(LoopIndex, RecursiveFramesKeepLoopsSeparate) {
  TracedModule t;
  // rec(n): if n == 0 ret; loop 3 iterations; rec(n-1).
  const FuncId rec = t.m.addFunction("rec", 1);
  {
    IrBuilder b(t.m, rec);
    const BlockId entry = b.createBlock("entry");
    const BlockId head = b.createBlock("recloop");
    const BlockId body = b.createBlock("body");
    const BlockId after = b.createBlock("after");
    const BlockId base = b.createBlock("base");
    b.setInsertPoint(entry);
    const Reg zero = b.iconst(0);
    const Reg stop = b.cmpEq(b.param(0), zero);
    b.condBr(stop, base, head);
    // loop header needs an init: do it via entry path... use head with own
    // counter initialized at function start is awkward; initialize in a
    // preheader block.
    b.setInsertPoint(base);
    b.ret(zero);
    b.setInsertPoint(head);
    // NOTE: reg i is zero-initialized by frame creation.
    const Reg i = b.func().newReg();
    const Reg three = b.iconst(3);
    const Reg c = b.cmpLt(i, three);
    b.condBr(c, body, after);
    b.setInsertPoint(body);
    const Reg one = b.iconst(1);
    const Reg i2 = b.add(i, one);
    b.movTo(i, i2);
    b.br(head);
    b.setInsertPoint(after);
    const Reg one2 = b.iconst(1);
    const Reg nm1 = b.sub(b.param(0), one2);
    const Reg r = b.call(rec, {nm1});
    b.ret(r);
  }
  const FuncId main_id = t.m.addFunction("main", 0);
  {
    IrBuilder b(t.m, main_id);
    b.setInsertPoint(b.createBlock("entry"));
    const Reg n = b.iconst(5);
    b.ret(b.call(rec, {n}));
  }
  t.m.setMainFunc(main_id);
  t.run();

  const auto episodes = testing::loopEpisodes(t.buf);
  // Depths 5..1 run the loop; depth 0 hits the base case.
  EXPECT_EQ(episodes.size(), 5u);
  std::set<FrameId> frames;
  for (const auto& ep : episodes) frames.insert(ep.frame);
  EXPECT_EQ(frames.size(), 5u);
}

TEST(LoopIndex, LoopNameFallsBackToBlockId) {
  TracedModule t;
  const FuncId f = t.m.addFunction("main", 0);
  IrBuilder b(t.m, f);
  const BlockId entry = b.createBlock("entry");
  const BlockId head = b.createBlock("");  // unlabeled
  const BlockId body = b.createBlock("");
  const BlockId ex = b.createBlock("");
  const Reg i = b.func().newReg();
  b.setInsertPoint(entry);
  b.constTo(i, 0);
  b.br(head);
  b.setInsertPoint(head);
  const Reg three = b.iconst(3);
  const Reg c = b.cmpLt(i, three);
  b.condBr(c, body, ex);
  b.setInsertPoint(body);
  const Reg one = b.iconst(1);
  const Reg i2 = b.add(i, one);
  b.movTo(i, i2);
  b.br(head);
  b.setInsertPoint(ex);
  b.ret(i);
  t.m.setMainFunc(f);
  t.run();
  const auto episodes = testing::loopEpisodes(t.buf);
  ASSERT_EQ(episodes.size(), 1u);
  EXPECT_EQ(loopNameOf(t.m, episodes[0].header_sid), "main.B1");
}

TEST(LoopIndex, InstrCountMatchesBuffer) {
  TracedModule t;
  testing::buildArraySum(t.m, 25);
  t.run();
  std::size_t instrs = 0;
  for (const auto& rec : t.buf.records()) {
    instrs += rec.kind == RecordKind::kInstr;
  }
  EXPECT_EQ(t.buf.instrCount(), instrs);
}

// ------------------------------------------------ the fork table

/// Pins resolved()/startOfFork() of `m`'s trace to the look-ahead reference
/// for every record: on the whole-trace index, and on an incremental index
/// after every add() (a fork resolves with the reference's answer no later
/// than its start-point's arrival; no other record ever resolves) and after
/// finish(). Returns the number of forks.
std::size_t checkForkTable(ir::Module& m) {
  const harness::TracedRun run = harness::traceProgram(m);
  const TraceView trace = run.trace.view();
  const std::vector<std::size_t> ref = testing::referenceForkStarts(m, trace);
  const auto isFork = [&](std::size_t i) {
    return ref[i] != testing::kNotFork;
  };

  const LoopIndex whole(m, trace);
  std::size_t forks = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(whole.resolved(i), isFork(i)) << "record " << i;
    if (!isFork(i)) continue;
    ++forks;
    EXPECT_EQ(whole.startOfFork(i), ref[i]) << "record " << i;
  }

  LoopIndex inc(m);
  std::vector<std::size_t> waiting;  // forks inc has not resolved yet
  for (std::size_t i = 0; i < trace.size(); ++i) {
    inc.add(i, trace[i]);
    if (isFork(i)) {
      waiting.push_back(i);
    } else {
      EXPECT_FALSE(inc.resolved(i)) << "record " << i;
    }
    std::erase_if(waiting, [&](std::size_t f) {
      if (!inc.resolved(f)) {
        EXPECT_GT(ref[f], i) << "fork " << f << " unresolved at " << i;
        return false;
      }
      EXPECT_EQ(inc.startOfFork(f), ref[f]) << "fork " << f;
      return true;
    });
  }
  inc.finish();
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(inc.resolved(i), isFork(i)) << "record " << i;
    if (isFork(i)) {
      EXPECT_EQ(inc.startOfFork(i), ref[i]) << "record " << i;
    }
  }
  return forks;
}

TEST(LoopIndexForkTable, SuiteMatchesLookAhead) {
  std::size_t forks = 0;
  for (const harness::SuiteEntry& e : harness::defaultSuite()) {
    SCOPED_TRACE(e.workload.name);
    ir::Module m = e.workload.build(1);
    harness::InterpProfileRunner runner;
    compiler::SptCompiler(e.copts).compile(m, runner);
    forks += checkForkTable(m);
  }
  EXPECT_GT(forks, 0u);
}

TEST(LoopIndexForkTable, RandomProgramsMatchLookAhead) {
  // Every other program with region speculation, for region forks.
  std::size_t forks = 0;
  for (std::uint64_t seed = 4000; seed < 4050; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ir::Module m = testing::generateRandomProgram(seed);
    compiler::CompilerOptions copts;
    copts.enable_region_speculation = seed % 2 == 1;
    harness::InterpProfileRunner runner;
    compiler::SptCompiler(copts).compile(m, runner);
    forks += checkForkTable(m);
  }
  EXPECT_GT(forks, 0u);
}

}  // namespace
}  // namespace spt::trace
