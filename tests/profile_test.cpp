// Unit tests for src/profile: branch, loop, dependence and value profiling.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <random>

#include "interp/interpreter.h"
#include "ir/builder.h"
#include "profile/profiler.h"
#include "test_programs.h"

namespace spt::profile {
namespace {

using namespace ir;

struct Profiled {
  ProfileData data;
  Module module{"p"};
  StaticId headerSidOf(const std::string& func, const std::string& label) {
    const FuncId f = module.findFunction(func);
    for (const auto& block : module.function(f).blocks) {
      if (block.label == label) return block.instrs.front().static_id;
    }
    ADD_FAILURE() << "no block " << label;
    return kInvalidStaticId;
  }
};

void runProfiled(Profiled& p,
                 std::unordered_set<StaticId> value_candidates = {}) {
  p.module.finalize();
  interp::ProgramContext ctx(p.module);
  interp::Memory mem;
  Profiler profiler(p.module, std::move(value_candidates));
  interp::Interpreter interp(ctx, mem, profiler);
  interp.runMain();
  p.data = profiler.take();
}

TEST(Profiler, LoopStatsForArraySum) {
  Profiled p;
  testing::buildArraySum(p.module, 50);
  runProfiled(p);
  const StaticId sum_loop = p.headerSidOf("main", "sum_loop");
  const LoopStats* stats = p.data.loopStats(sum_loop);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->episodes, 1u);
  EXPECT_EQ(stats->iterations, 51u);  // 50 body + 1 exit check
  EXPECT_GT(stats->dyn_instrs, 50u * 5);
  EXPECT_NEAR(stats->avgTripCount(), 51.0, 1e-9);
  EXPECT_GT(stats->avgBodySize(), 5.0);
  EXPECT_LT(stats->avgBodySize(), 20.0);
}

TEST(Profiler, BranchProbabilities) {
  Profiled p;
  testing::buildArraySum(p.module, 99);
  runProfiled(p);
  // Both loop branches are taken 99 times, not-taken once.
  int checked = 0;
  for (const auto& [sid, stats] : p.data.branches) {
    (void)sid;
    if (stats.total() == 100) {
      EXPECT_NEAR(stats.takenProb(), 0.99, 1e-9);
      ++checked;
    }
  }
  EXPECT_EQ(checked, 2);
}

TEST(Profiler, BranchFallbackWhenUnseen) {
  ProfileData data;
  EXPECT_DOUBLE_EQ(data.branchTakenProb(1234), 0.5);
  EXPECT_DOUBLE_EQ(data.branchTakenProb(1234, 0.9), 0.9);
}

TEST(Profiler, CrossIterationMemDepDetected) {
  // for i in 1..n: buf[i] = buf[i-1] + 1  -- the load of buf[i-1] reads the
  // previous iteration's store with probability ~1.
  Profiled p;
  const FuncId f = p.module.addFunction("main", 0);
  IrBuilder b(p.module, f);
  const BlockId entry = b.createBlock("entry");
  const BlockId head = b.createBlock("dep_loop");
  const BlockId body = b.createBlock("body");
  const BlockId ex = b.createBlock("exit");
  const Reg buf = b.func().newReg();
  const Reg i = b.func().newReg();
  const Reg n = b.func().newReg();
  b.setInsertPoint(entry);
  {
    Instr h;
    h.op = Opcode::kHalloc;
    h.dst = buf;
    h.imm = 101 * 8;
    b.append(h);
  }
  b.constTo(i, 1);
  b.constTo(n, 100);
  b.br(head);
  b.setInsertPoint(head);
  const Reg c = b.cmpLe(i, n);
  b.condBr(c, body, ex);
  b.setInsertPoint(body);
  const Reg eight = b.iconst(8);
  const Reg off = b.mul(i, eight);
  const Reg addr = b.add(buf, off);
  const Reg prev = b.load(addr, -8);
  const Reg one = b.iconst(1);
  const Reg next = b.add(prev, one);
  b.store(addr, 0, next);
  const Reg i2 = b.add(i, one);
  b.movTo(i, i2);
  b.br(head);
  b.setInsertPoint(ex);
  b.ret(i);
  p.module.setMainFunc(f);
  runProfiled(p);

  const StaticId header = p.headerSidOf("main", "dep_loop");
  const auto it = p.data.mem_deps.find(header);
  ASSERT_NE(it, p.data.mem_deps.end());
  ASSERT_EQ(it->second.size(), 1u);  // exactly one store->load pair
  const auto& [pair, stat] = *it->second.begin();
  EXPECT_EQ(stat.count, 99u);  // iterations 2..100 read iteration i-1's store
  EXPECT_EQ(stat.tail_instrs, 0u);  // the load is not inside a call
  const double prob = p.data.memDepProb(header, pair.first, pair.second);
  EXPECT_GT(prob, 0.9);
  EXPECT_LE(prob, 1.0);
}

TEST(Profiler, NoFalseMemDeps) {
  // Loads and stores to disjoint addresses must produce no dependence.
  Profiled p;
  testing::buildArraySum(p.module, 20);  // init loop stores, sum loop loads
  runProfiled(p);
  const StaticId sum_loop = p.headerSidOf("main", "sum_loop");
  const StaticId init_loop = p.headerSidOf("main", "init_loop");
  // Within each loop, each address is touched in exactly one iteration.
  EXPECT_EQ(p.data.mem_deps.count(sum_loop), 0u);
  EXPECT_EQ(p.data.mem_deps.count(init_loop), 0u);
}

TEST(Profiler, ValueProfileFindsStride) {
  // x starts at 3 and is incremented by 2 each iteration (via an add whose
  // dst we nominate as the value candidate).
  Profiled p;
  const FuncId f = p.module.addFunction("main", 0);
  IrBuilder b(p.module, f);
  const BlockId entry = b.createBlock("entry");
  const BlockId head = b.createBlock("svp_loop");
  const BlockId body = b.createBlock("body");
  const BlockId ex = b.createBlock("exit");
  const Reg x = b.func().newReg();
  const Reg i = b.func().newReg();
  const Reg n = b.func().newReg();
  b.setInsertPoint(entry);
  b.constTo(x, 3);
  b.constTo(i, 0);
  b.constTo(n, 64);
  b.br(head);
  b.setInsertPoint(head);
  const Reg c = b.cmpLt(i, n);
  b.condBr(c, body, ex);
  b.setInsertPoint(body);
  const Reg two = b.iconst(2);
  const Reg x2 = b.add(x, two);  // <- value candidate
  b.movTo(x, x2);
  const Reg one = b.iconst(1);
  const Reg i2 = b.add(i, one);
  b.movTo(i, i2);
  b.br(head);
  b.setInsertPoint(ex);
  b.ret(x);
  p.module.setMainFunc(f);

  p.module.finalize();
  // Find the sid of "x2 = add x, two": the add writing x2 in block "body".
  StaticId candidate = kInvalidStaticId;
  for (const auto& block : p.module.function(f).blocks) {
    if (block.label != "body") continue;
    for (const auto& instr : block.instrs) {
      if (instr.op == Opcode::kAdd && instr.dst == x2) {
        candidate = instr.static_id;
      }
    }
  }
  ASSERT_NE(candidate, kInvalidStaticId);
  runProfiled(p, {candidate});

  const auto it = p.data.values.find(candidate);
  ASSERT_NE(it, p.data.values.end());
  EXPECT_EQ(it->second.bestStride(), 2);
  EXPECT_DOUBLE_EQ(it->second.predictability(), 1.0);
  EXPECT_EQ(it->second.samples, 63u);
  EXPECT_EQ(it->second.best_count, 63u);
}

TEST(Profiler, TotalInstrsMatchesInterpreter) {
  Profiled p;
  testing::buildFib(p.module, 12);
  p.module.finalize();
  interp::ProgramContext ctx(p.module);
  interp::Memory mem;
  Profiler profiler(p.module);
  interp::Interpreter interp(ctx, mem, profiler);
  const auto result = interp.runMain();
  p.data = profiler.take();
  EXPECT_EQ(p.data.total_instrs, result.dynamic_instrs);
}

// ------------------------------------------------------------------------
// Value profiles keep the mode of each sid's delta histogram.

constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

/// The delta between consecutive values, wrapping as the profiler's does.
std::int64_t deltaOf(std::int64_t prev, std::int64_t next) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(next) -
                                   static_cast<std::uint64_t>(prev));
}

/// The stats an ordered std::map histogram of `values`' deltas gives: the
/// first delta of highest count in ascending order, i.e. the smallest one
/// on a tie.
ValueStats referenceStats(const std::vector<std::int64_t>& values) {
  std::map<std::int64_t, std::uint64_t> histogram;
  for (std::size_t i = 1; i < values.size(); ++i) {
    ++histogram[deltaOf(values[i - 1], values[i])];
  }
  ValueStats stats;
  stats.samples = values.empty() ? 0 : values.size() - 1;
  for (const auto& [delta, count] : histogram) {
    if (count > stats.best_count) {
      stats.best_stride = delta;
      stats.best_count = count;
    }
  }
  return stats;
}

/// Value-profiles stream i as the results of sid i, the streams' records
/// interleaved in a seeded order and handed over in blocks of varying
/// size. The module only sizes the profiler's sid table: the records name
/// no loop, call or memory access, so only value profiling reads them.
ProfileData profileStreams(
    const std::vector<std::vector<std::int64_t>>& streams, std::uint64_t seed) {
  Module module("streams");
  testing::buildArraySum(module, 4);
  module.finalize();
  if (module.staticInstrCount() < streams.size()) {
    ADD_FAILURE() << "too few sids for " << streams.size() << " streams";
    return {};
  }
  std::unordered_set<StaticId> sids;
  std::vector<StaticId> owners;
  for (StaticId sid = 0; sid < streams.size(); ++sid) {
    sids.insert(sid);
    owners.insert(owners.end(), streams[sid].size(), sid);
  }
  std::mt19937_64 rng(seed);
  std::shuffle(owners.begin(), owners.end(), rng);
  std::vector<std::size_t> next(streams.size(), 0);
  std::vector<trace::Record> records;
  for (const StaticId sid : owners) {
    trace::Record r;
    r.op = Opcode::kAdd;
    r.sid = sid;
    r.value = streams[sid][next[sid]++];
    records.push_back(r);
  }
  Profiler profiler(module, sids);
  for (std::size_t at = 0; at < records.size();) {
    const std::size_t n = std::min<std::size_t>(records.size() - at,
                                                1 + rng() % 97);
    profiler.onBlock(trace::TraceView(records.data() + at, n));
    at += n;
  }
  return profiler.take();
}

/// A stream starting at `start` whose deltas are `deltas`, shuffled.
std::vector<std::int64_t> streamOf(std::int64_t start,
                                   std::vector<std::int64_t> deltas,
                                   std::mt19937_64& rng) {
  std::shuffle(deltas.begin(), deltas.end(), rng);
  std::vector<std::int64_t> values{start};
  for (const std::int64_t d : deltas) {
    values.push_back(static_cast<std::int64_t>(
        static_cast<std::uint64_t>(values.back()) +
        static_cast<std::uint64_t>(d)));  // wraps, as the deltas do
  }
  return values;
}

/// `n` copies of `delta`.
std::vector<std::int64_t> times(std::size_t n, std::int64_t delta) {
  return std::vector<std::int64_t>(n, delta);
}

std::vector<std::int64_t> concat(
    std::initializer_list<std::vector<std::int64_t>> parts) {
  std::vector<std::int64_t> out;
  for (const auto& part : parts) {
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

TEST(ValueProfile, ModeMatchesAnOrderedHistogram) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    std::vector<std::vector<std::int64_t>> streams;
    // Ties: a negative and a positive delta, several positives, and the
    // zero delta (FlatMap64's dedicated key-0 slot) against either sign.
    streams.push_back(streamOf(5, concat({times(9, -3), times(9, 3)}), rng));
    streams.push_back(streamOf(
        -40, concat({times(6, 7), times(6, 2), times(6, 5), times(5, -1)}),
        rng));
    streams.push_back(streamOf(0, concat({times(8, 0), times(8, -1)}), rng));
    streams.push_back(streamOf(0, concat({times(8, 0), times(8, 1)}), rng));
    streams.push_back(streamOf(11, concat({times(12, 0), times(3, 9)}), rng));
    // Wrapping deltas next to INT64_MIN/INT64_MAX: MAX -> MIN is +1, MIN
    // -> MAX is -1, and a tie between them.
    {
      std::vector<std::int64_t> values;
      for (int i = 0; i < 41; ++i) values.push_back(i % 2 ? kMin : kMax);
      streams.push_back(values);
    }
    {
      const std::int64_t edges[] = {kMin, kMin + 1, kMax, kMax - 1, -1, 0, 1};
      std::vector<std::int64_t> values;
      for (int i = 0; i < 120; ++i) values.push_back(edges[rng() % 7]);
      streams.push_back(values);
    }
    streams.push_back(
        streamOf(kMax - 2, concat({times(5, kMin), times(5, kMax)}), rng));
    // A single execution observes no delta; a stream of none is absent.
    streams.push_back({42});
    streams.push_back({});
    // Random small deltas over random values.
    for (int i = 0; i < 6; ++i) {
      std::vector<std::int64_t> deltas;
      const std::size_t n = 1 + rng() % 60;
      for (std::size_t k = 0; k < n; ++k) {
        deltas.push_back(static_cast<std::int64_t>(rng() % 7) - 3);
      }
      streams.push_back(
          streamOf(static_cast<std::int64_t>(rng()), deltas, rng));
    }

    const ProfileData data = profileStreams(streams, seed);
    for (StaticId sid = 0; sid < streams.size(); ++sid) {
      SCOPED_TRACE("stream " + std::to_string(sid));
      const ValueStats want = referenceStats(streams[sid]);
      const auto it = data.values.find(sid);
      if (want.samples == 0) {
        EXPECT_EQ(it, data.values.end());
        continue;
      }
      ASSERT_NE(it, data.values.end());
      EXPECT_EQ(it->second.samples, want.samples);
      EXPECT_EQ(it->second.best_stride, want.best_stride);
      EXPECT_EQ(it->second.best_count, want.best_count);
    }
    // The ties resolve to the smallest signed delta.
    EXPECT_EQ(data.values.at(0).best_stride, -3);
    EXPECT_EQ(data.values.at(1).best_stride, 2);
    EXPECT_EQ(data.values.at(2).best_stride, -1);
    EXPECT_EQ(data.values.at(3).best_stride, 0);
    EXPECT_EQ(data.values.at(4).best_stride, 0);
    EXPECT_EQ(data.values.at(5).best_stride, -1);
    EXPECT_EQ(data.values.at(7).best_stride, kMin);
  }
}

TEST(ValueStats, PredictabilityOfMixedDeltas) {
  std::mt19937_64 rng(3);
  const ProfileData data = profileStreams(
      {streamOf(100, concat({times(7, 2), times(3, 5)}), rng)}, 3);
  const ValueStats& stats = data.values.at(0);
  EXPECT_EQ(stats.samples, 10u);
  EXPECT_EQ(stats.best_count, 7u);
  EXPECT_EQ(stats.bestStride(), 2);
  EXPECT_DOUBLE_EQ(stats.predictability(), 0.7);
}

TEST(ValueStats, EmptyIsUnpredictable) {
  ValueStats stats;
  EXPECT_DOUBLE_EQ(stats.predictability(), 0.0);
  EXPECT_EQ(stats.bestStride(), 0);
}

}  // namespace
}  // namespace spt::profile
