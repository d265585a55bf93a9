// One pass over the SPT program: the experiment interprets the compiled
// module straight into the SPT machine, which indexes forks as the records
// arrive and keeps only the window some thread can still read. These
// tests pin that streaming changes nothing: a streamed machine equals a
// replay of the stored trace on every field across the machine grid, the
// incremental fork index gives the batch index's answers as soon as they
// are known, the fork table a trace cache stores answers as the batch
// index does, and the window stays far smaller than the trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "expect_same.h"
#include "fork_reference.h"
#include "harness/cell_codec.h"
#include "harness/experiment.h"
#include "harness/suite.h"
#include "loop_episodes.h"
#include "random_programs.h"
#include "support/error.h"
#include "workloads/workloads.h"

namespace spt::harness {
namespace {

using spt::testing::expectSameMachineResult;
using spt::testing::lookAheadStart;
using spt::testing::OpenLoops;

/// Feeds every record of `trace` to a streaming machine, then finish().
sim::MachineResult streamInto(sim::SptMachine& machine,
                              trace::TraceView trace) {
  for (const trace::Record& r : trace) machine.onRecord(r);
  return machine.finish();
}

/// The fork table `produced` stored as a trace cache's `.forks` blob and
/// decoded again: `produced` is the batch index's table, and the decoded
/// one answers as the batch index does at every fork record of `trace`.
void expectStoredTableAnswersAsBatch(trace::TraceView trace,
                                     const trace::LoopIndex& batch,
                                     const trace::ForkTable& produced) {
  EXPECT_TRUE(produced == batch.forks());
  const trace::TraceFileSummary summary{trace.size(), 0, 0x5eedf0cc, {}};
  const std::optional<trace::ForkTable> stored =
      decodeForkTable(encodeForkTable(produced, summary), trace, summary);
  ASSERT_TRUE(stored.has_value());
  std::size_t forks = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (trace[i].kind != trace::RecordKind::kInstr ||
        trace[i].op != ir::Opcode::kSptFork) {
      continue;
    }
    ++forks;
    ASSERT_TRUE(stored->resolved(i)) << "fork " << i;
    ASSERT_TRUE(batch.resolved(i)) << "fork " << i;
    ASSERT_EQ(stored->startOfFork(i), batch.startOfFork(i)) << "fork " << i;
  }
  EXPECT_EQ(stored->records.size(), forks);
}

struct StreamCase {
  std::string label;
  SuiteEntry entry;
};

/// The ten suite workloads with their compiler options, micro.parser_free
/// with the defaults, and vortex with region speculation (region forks).
std::vector<StreamCase> streamCases() {
  std::vector<StreamCase> cases;
  for (const SuiteEntry& e : defaultSuite()) {
    cases.push_back({e.workload.name, e});
    if (e.workload.name == "vortex") {
      StreamCase regions{"vortex_regions", e};
      regions.entry.copts.enable_region_speculation = true;
      cases.push_back(regions);
    }
  }
  cases.push_back({"micro_parser_free",
                   {workloads::findWorkload("micro.parser_free"), {}}});
  return cases;
}

// --------------------------------------------- streamed versus replayed

/// An SPT-compiled program, its stored trace and its batch fork index.
struct SptProgram {
  ir::Module module;
  TracedRun run;
  std::optional<trace::LoopIndex> index;

  /// `entry` compiled for an N-deep chain: the compiler follows the chain
  /// depth, so chained forks carry their precomputation slices.
  SptProgram(const SuiteEntry& entry, std::uint32_t n)
      : module(entry.workload.build(1)) {
    compiler::CompilerOptions copts = entry.copts;
    copts.spec_threads = n;
    InterpProfileRunner runner;
    compiler::SptCompiler(copts).compile(module, runner);
    run = traceProgram(module);
    index.emplace(module, run.trace);
  }

  /// Runs `config` streamed and replayed, expects identical results and
  /// returns the streamed machine's window high-water mark. The streamed
  /// machine's fork table, stored and read back as a cache hit reads it,
  /// answers as the batch index does.
  std::size_t expectStreamedEqualsReplayed(
      const support::MachineConfig& config) const {
    sim::SptMachine streamed(module, config);
    const sim::MachineResult a = streamInto(streamed, run.trace);
    expectSameMachineResult(
        a, sim::SptMachine(module, run.trace, *index, config).run());
    expectStoredTableAnswersAsBatch(run.trace, *index, streamed.forks());
    EXPECT_EQ(a.faults.escaped, 0u);
    if (config.oracle != support::OracleMode::kOff) {
      EXPECT_GT(a.oracle_checks, 0u);
      EXPECT_EQ(a.arch_digest,
                sim::Oracle::sequentialDigest(module, run.trace));
    }
    return streamed.windowHighWater();
  }
};

/// The grid's chain depths.
constexpr std::uint32_t kDepths[] = {1, 2, 4};

/// A machine configuration from the grid's four axes.
support::MachineConfig gridConfig(std::uint32_t n,
                                  support::RecoveryMechanism recovery,
                                  const std::string& variant,
                                  support::RegisterCheckMode regcheck) {
  support::MachineConfig config;
  config.spec_threads = n;
  config.recovery = recovery;
  config.register_check = regcheck;
  if (variant == "tight") {
    config.speculation_result_buffer_entries = 64;
    config.speculative_store_buffer_entries = 8;
    config.load_address_buffer_entries = 8;
  } else if (variant == "faults") {
    config.fault_plan.enabled = true;
    config.fault_plan.seed = 0x5eed + n;
    config.fault_plan.period = 8;
  }
  return config;
}

using GridParam = std::tuple<std::size_t, int>;  // case, index of N

class StreamedSpt : public ::testing::TestWithParam<GridParam> {};

TEST_P(StreamedSpt, MatchesReplayOnTheMachineGrid) {
  using support::RecoveryMechanism;
  using support::RegisterCheckMode;
  const RecoveryMechanism recoveries[] = {
      RecoveryMechanism::kSelectiveReplayFastCommit,
      RecoveryMechanism::kSelectiveReplay, RecoveryMechanism::kFullSquash};
  const std::string variants[] = {"default", "tight", "faults"};
  const RegisterCheckMode regchecks[] = {RegisterCheckMode::kValueBased,
                                         RegisterCheckMode::kScoreboard,
                                         RegisterCheckMode::kValueBased};
  // The L9 orthogonal array over (N, recovery, variant, regcheck): every
  // pair of values of any two axes appears in some row, at a sixth of the
  // full grid's cost. This test runs the rows of one N.
  constexpr int kRows[9][4] = {{0, 0, 0, 0}, {0, 1, 1, 1}, {0, 2, 2, 2},
                               {1, 0, 1, 2}, {1, 1, 2, 0}, {1, 2, 0, 1},
                               {2, 0, 2, 1}, {2, 1, 0, 2}, {2, 2, 1, 0}};

  const auto [case_index, d] = GetParam();
  const std::uint32_t n = kDepths[d];
  const SptProgram program(streamCases()[case_index].entry, n);
  for (const auto& row : kRows) {
    if (row[0] != d) continue;
    const std::string& variant = variants[row[2]];
    SCOPED_TRACE("recovery " + std::to_string(row[1]) + " " + variant +
                 " regcheck " + std::to_string(row[3] == 1));
    const std::size_t high_water = program.expectStreamedEqualsReplayed(
        gridConfig(n, recoveries[row[1]], variant, regchecks[row[3]]));
    if (variant == "default" && n != 2) {
      // A window that silently grew back into the whole trace would still
      // give the right answers; this bound catches it.
      EXPECT_LE(high_water, std::size_t{1} << 17)
          << "the trace has " << program.run.trace.size() << " records";
    }
  }
  // The digest oracle under injected faults: the streamed machine feeds
  // the reference before it drops records.
  SCOPED_TRACE("digest oracle");
  support::MachineConfig config =
      gridConfig(n, recoveries[d], "faults", RegisterCheckMode::kValueBased);
  config.oracle = support::OracleMode::kDigest;
  program.expectStreamedEqualsReplayed(config);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, StreamedSpt,
    ::testing::Combine(::testing::Range<std::size_t>(0, streamCases().size()),
                       ::testing::Range(0, 3)),
    [](const ::testing::TestParamInfo<GridParam>& info) {
      return streamCases()[std::get<0>(info.param)].label + "_n" +
             std::to_string(kDepths[std::get<1>(info.param)]);
    });

TEST(StreamedSpt, DeepOracle) {
  // O(state) per commit boundary, so only on the small micro-benchmark.
  const SuiteEntry entry{workloads::findWorkload("micro.parser_free"), {}};
  for (const std::uint32_t n : {1u, 4u}) {
    const SptProgram program(entry, n);
    for (const bool faults : {false, true}) {
      SCOPED_TRACE("N=" + std::to_string(n) + (faults ? " faults" : ""));
      support::MachineConfig config = gridConfig(
          n, support::RecoveryMechanism::kSelectiveReplayFastCommit,
          faults ? "faults" : "default",
          support::RegisterCheckMode::kValueBased);
      config.oracle = support::OracleMode::kDeep;
      program.expectStreamedEqualsReplayed(config);
    }
  }
}

TEST(StreamedSpt, BudgetDiagnosticsDoNotDependOnBlocks) {
  // A budget check lands on a step inside a later block; both paths must
  // stop at the same step with the same message.
  ir::Module module = workloads::findWorkload("parser").build(1);
  InterpProfileRunner runner;
  compiler::SptCompiler().compile(module, runner);
  const TracedRun run = traceProgram(module);
  const trace::LoopIndex index(module, run.trace);
  std::vector<support::MachineConfig> configs(4);
  configs[0].max_simulated_records = 5000;
  configs[1].max_simulated_records = 20000;
  configs[2].max_simulated_cycles = 3000;
  configs[3].max_simulated_cycles = 30000;
  for (const support::MachineConfig& config : configs) {
    std::string replayed;
    std::string streamed;
    try {
      sim::SptMachine(module, run.trace, index, config).run();
    } catch (const support::SptBudgetExceeded& e) {
      replayed = e.what();
    }
    try {
      sim::SptMachine machine(module, config);
      streamInto(machine, run.trace);
    } catch (const support::SptBudgetExceeded& e) {
      streamed = e.what();
    }
    EXPECT_FALSE(replayed.empty());
    EXPECT_EQ(streamed, replayed);
  }
}

// ------------------------------------------------ the incremental index

/// Checks `index`'s loop forks against the episodes read from the records:
/// a fork made inside an episode of its target loop (same frame and
/// header) starts at that episode's next kIterBegin, or nowhere when the
/// episode exits first. Returns the number of loop forks seen.
std::size_t expectLoopForksStartInTheirEpisode(const ir::Module& m,
                                               trace::TraceView trace,
                                               const trace::LoopIndex& index) {
  std::size_t loop_forks = 0;
  const auto episodes = spt::testing::loopEpisodes(trace);
  for (const std::size_t f : index.forks().records) {
    const auto& loc = m.locate(trace[f].sid);
    const ir::Function& func = m.function(loc.func);
    const ir::BlockId target = func.blocks[loc.block].instrs[loc.index].target0;
    const ir::StaticId header = func.blocks[target].instrs.front().static_id;
    for (const spt::testing::LoopEpisode& e : episodes) {
      if (e.frame != trace[f].frame || e.header_sid != header ||
          e.iter_begins.front() > f || e.exit_index < f) {
        continue;
      }
      ++loop_forks;
      const auto next =
          std::upper_bound(e.iter_begins.begin(), e.iter_begins.end(), f);
      EXPECT_EQ(index.startOfFork(f), next == e.iter_begins.end()
                                          ? trace::LoopIndex::kNoStart
                                          : *next)
          << "fork " << f;
    }
  }
  return loop_forks;
}

struct IndexCounts {
  std::size_t forks = 0;
  std::size_t region_forks = 0;
  std::size_t resolved_early = 0;  // no start-point, known before the end
};

/// Adds `trace` record by record to an incremental index and checks, after
/// every record, that each fork resolved so far has the batch index's
/// answer (and the look-ahead definition's), that no fork whose
/// start-point has been added is still unresolved, and that finish()
/// leaves the batch index's fork table, whose loop forks start in their
/// episodes, and that, stored, answers as the batch index does.
void checkIncrementalIndex(const ir::Module& m, trace::TraceView trace,
                           IndexCounts& counts) {
  const std::size_t forks_before = counts.forks;
  const std::size_t region_forks_before = counts.region_forks;
  const trace::LoopIndex batch(m, trace);
  trace::LoopIndex inc(m);
  OpenLoops open;
  std::vector<std::size_t> waiting;  // forks inc has not resolved yet
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const trace::Record& r = trace[i];
    inc.add(i, r);
    std::erase_if(waiting, [&](std::size_t f) {
      if (!inc.resolved(f)) {
        // Not yet: the start-point, if any, lies ahead.
        EXPECT_GT(batch.startOfFork(f), i) << "fork " << f;
        return false;
      }
      EXPECT_EQ(inc.startOfFork(f), batch.startOfFork(f)) << "fork " << f;
      if (batch.startOfFork(f) == trace::LoopIndex::kNoStart) {
        ++counts.resolved_early;
      }
      return true;
    });
    if (r.kind == trace::RecordKind::kIterBegin) {
      open.insert({r.frame, r.sid});
    } else if (r.kind == trace::RecordKind::kLoopExit) {
      open.erase({r.frame, r.sid});
    } else if (r.op == ir::Opcode::kSptFork) {
      ++counts.forks;
      EXPECT_EQ(batch.startOfFork(i), lookAheadStart(m, trace, i, open))
          << "fork " << i;
      const auto& loc = m.locate(r.sid);
      const ir::Function& func = m.function(loc.func);
      const ir::BlockId target =
          func.blocks[loc.block].instrs[loc.index].target0;
      if (!open.contains(
              {r.frame, func.blocks[target].instrs.front().static_id})) {
        ++counts.region_forks;
      }
      if (!inc.resolved(i)) waiting.push_back(i);
    }
  }
  inc.finish();
  for (const std::size_t f : waiting) {
    ASSERT_TRUE(inc.resolved(f));
    EXPECT_EQ(inc.startOfFork(f), trace::LoopIndex::kNoStart);
    EXPECT_EQ(batch.startOfFork(f), trace::LoopIndex::kNoStart);
  }
  EXPECT_EQ(inc.forks(), batch.forks());
  EXPECT_EQ(expectLoopForksStartInTheirEpisode(m, trace, inc),
            (counts.forks - forks_before) -
                (counts.region_forks - region_forks_before));
  expectStoredTableAnswersAsBatch(trace, batch, inc.forks());
}

TEST(IncrementalLoopIndex, RandomProgramsWithAndWithoutRegions) {
  IndexCounts counts;
  for (const bool regions : {false, true}) {
    for (std::uint64_t seed = 2000; seed < 2030; ++seed) {
      SCOPED_TRACE("seed " + std::to_string(seed) +
                    (regions ? " regions" : ""));
      ir::Module m = testing::generateRandomProgram(seed);
      compiler::CompilerOptions copts;
      copts.enable_region_speculation = regions;
      InterpProfileRunner runner;
      compiler::SptCompiler(copts).compile(m, runner);
      checkIncrementalIndex(m, traceProgram(m).trace, counts);
    }
  }
  EXPECT_GT(counts.forks, 0u);
}

TEST(IncrementalLoopIndex, RegionForksResolveAtFrameReturn) {
  // vortex with region speculation: region forks that reach their target.
  IndexCounts counts;
  for (const SuiteEntry& e : defaultSuite()) {
    if (e.workload.name != "vortex") continue;
    ir::Module m = e.workload.build(1);
    compiler::CompilerOptions copts = e.copts;
    copts.enable_region_speculation = true;
    InterpProfileRunner runner;
    compiler::SptCompiler(copts).compile(m, runner);
    checkIncrementalIndex(m, traceProgram(m).trace, counts);
  }
  EXPECT_GT(counts.region_forks, 0u);

  // f(x) forks to a block only odd x reaches: on even calls the fork waits
  // for a target its frame never runs again, and resolves at the return.
  ir::Module m("cond_region");
  const ir::FuncId f = m.addFunction("f", 1);
  {
    ir::IrBuilder b(m, f);
    const ir::BlockId entry = b.createBlock("entry");
    const ir::BlockId odd = b.createBlock("odd");
    const ir::BlockId even = b.createBlock("even");
    b.setInsertPoint(entry);
    b.sptFork(odd);
    b.condBr(b.and_(b.param(0), b.iconst(1)), odd, even);
    b.setInsertPoint(odd);
    b.ret(b.mul(b.param(0), b.iconst(3)));
    b.setInsertPoint(even);
    b.ret(b.param(0));
  }
  const ir::FuncId main_id = m.addFunction("main", 0);
  {
    ir::IrBuilder b(m, main_id);
    const ir::BlockId entry = b.createBlock("entry");
    const ir::BlockId head = b.createBlock("loop");
    const ir::BlockId body = b.createBlock("loop_body");
    const ir::BlockId exit = b.createBlock("exit");
    b.setInsertPoint(entry);
    const ir::Reg i = b.newReg();
    const ir::Reg sum = b.newReg();
    b.constTo(i, 0);
    b.constTo(sum, 0);
    b.br(head);
    b.setInsertPoint(head);
    b.condBr(b.cmpLt(i, b.iconst(20)), body, exit);
    b.setInsertPoint(body);
    b.movTo(sum, b.add(sum, b.call(f, {i})));
    b.movTo(i, b.add(i, b.iconst(1)));
    b.br(head);
    b.setInsertPoint(exit);
    b.ret(sum);
  }
  m.setMainFunc(main_id);
  const TracedRun run = traceProgram(m);
  IndexCounts cond;
  checkIncrementalIndex(m, run.trace, cond);
  EXPECT_EQ(cond.forks, 20u);
  EXPECT_EQ(cond.region_forks, 20u);
  EXPECT_EQ(cond.resolved_early, 10u);

  // The machine runs those forks streamed exactly as replayed.
  const trace::LoopIndex index(m, run.trace);
  for (const std::uint32_t n : {1u, 2u}) {
    support::MachineConfig config;
    config.spec_threads = n;
    sim::SptMachine streamed(m, config);
    expectSameMachineResult(
        streamInto(streamed, run.trace),
        sim::SptMachine(m, run.trace, index, config).run());
  }
}

}  // namespace
}  // namespace spt::harness
