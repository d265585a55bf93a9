// Where a block ends carries no meaning. The interpreter hands its sink
// whole blocks of trace::kBlockRecords, so a consumer that depended on
// where blocks end would pass every other test. Here one stored trace
// arrives in blocks of 1, 7, 4095, 4096 and 4097 records and all at once,
// each block copied into a buffer that is clobbered once the call returns
// (a view is valid only during the call). Every sink must give the output
// it gives when the whole trace arrives at once: both machines (result and
// fork table), the profiler (encoded bytes), the trace file writer (file
// bytes and summary), the trace buffer and the coverage sink, each on its
// own and all behind one TeeSink.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "expect_same.h"
#include "harness/coverage.h"
#include "harness/experiment.h"
#include "harness/suite.h"
#include "trace/trace_io.h"
#include "workloads/workloads.h"

namespace spt::harness {
namespace {

using spt::testing::expectSameMachineResult;

/// Everything the sinks under test produce from one trace.
struct Outputs {
  sim::MachineResult baseline;
  sim::MachineResult spt1;
  trace::ForkTable forks1;
  sim::MachineResult spt4;
  trace::ForkTable forks4;
  std::string profile;
  std::string file;
  trace::TraceFileSummary summary;
  std::vector<trace::Record> buffered;
  std::map<std::int64_t, std::uint64_t> coverage;
  std::uint64_t covered_instrs = 0;
};

/// Hands `trace` to `sinks` in blocks of `block` records. Each block is a
/// copy that is overwritten once every sink has had it.
void deliver(trace::TraceView trace, std::size_t block,
             const std::vector<trace::TraceSink*>& sinks) {
  std::vector<trace::Record> copy(block);
  for (std::size_t i = 0; i < trace.size(); i += block) {
    const std::size_t n = std::min(block, trace.size() - i);
    std::memcpy(copy.data(), trace.data() + i, n * sizeof(trace::Record));
    for (trace::TraceSink* sink : sinks) sink->onBlock({copy.data(), n});
    std::memset(static_cast<void*>(copy.data()), 0xa5,
                n * sizeof(trace::Record));
  }
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

class SinkBlocks : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    module_ = std::make_unique<ir::Module>(
        workloads::findWorkload("micro.parser_free").build(1));
    InterpProfileRunner runner;
    compiler::SptCompiler().compile(*module_, runner);
    if (!module_->finalized()) module_->finalize();
    run_ = std::make_unique<TracedRun>(traceProgram(*module_));
    profile::Profiler profiler(*module_);
    profiler.onBlock(run_->trace);
    loop_stats_ = profiler.take().loops;
    spec4_.spec_threads = 4;
  }
  static void TearDownTestSuite() {
    run_.reset();
    module_.reset();
  }

  /// The outputs when `trace` arrives in blocks of `block`: one TeeSink
  /// in front of every sink, or each sink fed on its own.
  static Outputs feed(std::size_t block, bool tee) {
    const ir::Module& module = *module_;
    sim::BaselineMachine baseline(module, config_);
    sim::SptMachine spt1(module, config_);
    sim::SptMachine spt4(module, spec4_);
    profile::Profiler profiler(module);
    // Named after the test too: ctest runs the tests side by side.
    const std::string path =
        ::testing::TempDir() + "sink_blocks_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        "_" + std::to_string(block) + (tee ? "_tee" : "") + ".spt3";
    trace::TraceFileWriter writer(path, path + ".tmp");
    trace::TraceBuffer buffer;
    CoverageSink coverage(loop_stats_);
    const std::vector<trace::TraceSink*> sinks = {
        &baseline, &spt1, &spt4, &profiler, &writer, &buffer, &coverage};
    if (tee) {
      trace::TeeSink all;
      for (trace::TraceSink* sink : sinks) all.add(sink);
      deliver(run_->trace, block, {&all});
    } else {
      for (trace::TraceSink* sink : sinks) deliver(run_->trace, block, {sink});
    }

    Outputs out;
    out.baseline = baseline.finish();
    out.spt1 = spt1.finish();
    out.forks1 = spt1.forks();
    out.spt4 = spt4.finish();
    out.forks4 = spt4.forks();
    out.profile = profile::encodeProfile({profiler.take(), {}});
    const auto summary = writer.finish({7, 9});
    EXPECT_TRUE(summary.has_value());
    if (summary) out.summary = *summary;
    out.file = readFile(path);
    std::filesystem::remove(path);
    out.buffered.assign(buffer.view().begin(), buffer.view().end());
    out.coverage = coverage.histogram().bins();
    out.covered_instrs = coverage.totalInstrs();
    return out;
  }

  static void expectSame(const Outputs& a, const Outputs& b) {
    expectSameMachineResult(a.baseline, b.baseline);
    expectSameMachineResult(a.spt1, b.spt1);
    EXPECT_EQ(a.forks1, b.forks1);
    expectSameMachineResult(a.spt4, b.spt4);
    EXPECT_EQ(a.forks4, b.forks4);
    EXPECT_EQ(a.profile, b.profile);
    EXPECT_EQ(a.summary, b.summary);
    EXPECT_EQ(a.file, b.file);
    ASSERT_EQ(a.buffered.size(), b.buffered.size());
    EXPECT_EQ(std::memcmp(a.buffered.data(), b.buffered.data(),
                          a.buffered.size() * sizeof(trace::Record)),
              0);
    EXPECT_EQ(a.coverage, b.coverage);
    EXPECT_EQ(a.covered_instrs, b.covered_instrs);
  }

  static inline std::unique_ptr<ir::Module> module_;
  static inline std::unique_ptr<TracedRun> run_;
  static inline std::unordered_map<ir::StaticId, profile::LoopStats>
      loop_stats_;
  static inline const support::MachineConfig config_{};
  static inline support::MachineConfig spec4_{};
};

TEST_F(SinkBlocks, WholeTraceMatchesTheReplayPaths) {
  const Outputs whole = feed(run_->trace.size(), false);
  // More than one block's worth, so the sizes below cut it differently.
  ASSERT_GT(run_->trace.size(), 4 * trace::kBlockRecords);
  expectSameMachineResult(
      whole.baseline,
      sim::BaselineMachine(*module_, run_->trace, config_).run());
  const trace::LoopIndex index(*module_, run_->trace);
  EXPECT_EQ(whole.forks1, index.forks());
  expectSameMachineResult(
      whole.spt1, sim::SptMachine(*module_, run_->trace, index, config_).run());
  expectSameMachineResult(
      whole.spt4, sim::SptMachine(*module_, run_->trace, index, spec4_).run());
  EXPECT_EQ(whole.summary.records, run_->trace.size());
  EXPECT_EQ(whole.summary.instrs, run_->result.dynamic_instrs);
  EXPECT_EQ(whole.covered_instrs, run_->result.dynamic_instrs);
}

TEST_F(SinkBlocks, EveryBlockSizeGivesTheSameOutputs) {
  const Outputs whole = feed(run_->trace.size(), false);
  for (const std::size_t block :
       {std::size_t{1}, std::size_t{7}, trace::kBlockRecords - 1,
        trace::kBlockRecords, trace::kBlockRecords + 1,
        run_->trace.size()}) {
    for (const bool tee : {false, true}) {
      SCOPED_TRACE("blocks of " + std::to_string(block) +
                   (tee ? " through a TeeSink" : ", each sink alone"));
      expectSame(feed(block, tee), whole);
    }
  }
}

}  // namespace
}  // namespace spt::harness
