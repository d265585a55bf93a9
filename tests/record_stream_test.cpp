// The interpreter's record stream, pinned. Golden digests pin only what
// the machines simulate, so an interpreter change that reorders markers
// could pass them while both machines happen to agree. These tests hash
// every record the interpreter emits, together with each run's return
// value, memory hash and instruction count, for every suite workload at
// scale 1 (the baseline program and the compiled SPT program at
// spec_threads 1 and 4) and for eight generated programs.
//
// The digests were computed by the interpreter that ran each function's IR
// block by block, before the decoded program replaced it. A change that
// moves one of them changes what every layer downstream sees.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>

#include "harness/experiment.h"
#include "harness/suite.h"
#include "random_programs.h"
#include "support/hash.h"
#include "workloads/workloads.h"

namespace spt::harness {
namespace {

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Every record of `module`'s run, then its return value, memory hash,
/// instruction count and record count.
std::string streamDigest(ir::Module& module) {
  const TracedRun run = traceProgram(module);
  support::WordLanes lanes;
  lanes.fold(run.trace.view().data(),
             run.trace.size() * sizeof(trace::Record) / sizeof(std::uint64_t));
  std::uint64_t h = support::fnv1aWord(support::kFnvOffsetBasis,
                                       lanes.digest());
  h = support::fnv1aWord(h, static_cast<std::uint64_t>(run.result.return_value));
  h = support::fnv1aWord(h, run.result.memory_hash);
  h = support::fnv1aWord(h, run.result.dynamic_instrs);
  h = support::fnv1aWord(h, run.trace.size());
  return hex64(h);
}

/// The SPT program the suite's compile makes of `name` at `spec_threads`.
ir::Module compiled(const std::string& name, std::uint32_t spec_threads) {
  for (const SuiteEntry& entry : defaultSuite()) {
    if (entry.workload.name != name) continue;
    ir::Module module = entry.workload.build(1);
    compiler::CompilerOptions copts = entry.copts;
    copts.spec_threads = spec_threads;
    InterpProfileRunner runner;
    compiler::SptCompiler(copts).compile(module, runner);
    if (!module.finalized()) module.finalize();
    return module;
  }
  ADD_FAILURE() << "no suite entry " << name;
  return ir::Module("missing");
}

struct Pinned {
  const char* baseline;
  const char* spt1;
  const char* spt4;
};

const std::map<std::string, Pinned>& pinnedWorkloads() {
  static const std::map<std::string, Pinned> pins = {
      {"bzip2", {"dbf365c2337eb86c", "f275eb41f27ec18f", "f275eb41f27ec18f"}},
      {"crafty", {"6e3626eabce7e522", "2099906e51c266f5", "2099906e51c266f5"}},
      {"gap", {"4f16fc5ba7a51650", "5b02ed0a5386df04", "5b02ed0a5386df04"}},
      {"gcc", {"a52b2cad0773e571", "4b5649315736f46d", "4b5649315736f46d"}},
      {"gzip", {"e2e6d16ae99bcd21", "f00824855798b52c", "f00824855798b52c"}},
      {"mcf", {"78bda5d065ae0ffd", "eec1cf12f33f29c2", "eec1cf12f33f29c2"}},
      {"parser", {"488e26bbc6987702", "8a0f93778c188ee8", "8a0f93778c188ee8"}},
      {"twolf", {"ff463b65a96c8109", "6c7bcde36295d9ad", "6c7bcde36295d9ad"}},
      {"vortex", {"a97fbd20aa38778b", "a97fbd20aa38778b", "a97fbd20aa38778b"}},
      {"vpr", {"227e74c38dbfa69f", "c6d3d9429c3402d2", "c6d3d9429c3402d2"}},
  };
  return pins;
}

class RecordStream : public ::testing::TestWithParam<std::string> {};

TEST_P(RecordStream, SuiteProgramsEmitThePinnedRecords) {
  const Pinned& pin = pinnedWorkloads().at(GetParam());
  ir::Module baseline = workloads::findWorkload(GetParam()).build(1);
  EXPECT_EQ(streamDigest(baseline), pin.baseline) << "baseline program";
  ir::Module spt1 = compiled(GetParam(), 1);
  EXPECT_EQ(streamDigest(spt1), pin.spt1) << "SPT program, spec_threads 1";
  ir::Module spt4 = compiled(GetParam(), 4);
  EXPECT_EQ(streamDigest(spt4), pin.spt4) << "SPT program, spec_threads 4";
}

INSTANTIATE_TEST_SUITE_P(Workloads, RecordStream,
                         ::testing::Values("bzip2", "crafty", "gap", "gcc",
                                           "gzip", "mcf", "parser", "twolf",
                                           "vortex", "vpr"));

TEST(RecordStream, GeneratedProgramsEmitThePinnedRecords) {
  const std::map<std::uint64_t, std::string> pins = {
      {1000, "30f9ebcc9c7c3588"},
      {1001, "b262cdb9ca3eb26c"},
      {1002, "89f20ef0d91e604e"},
      {1003, "1d167d3be722a7be"},
      {1004, "bfdbdaae934001d0"},
      {1005, "584fc4996bada793"},
      {1006, "74e6986b9de70dac"},
      {1007, "a6a1a91ba68dbbf2"},
  };
  for (const auto& [seed, digest] : pins) {
    ir::Module module = spt::testing::generateRandomProgram(seed);
    EXPECT_EQ(streamDigest(module), digest) << "seed " << seed;
  }
}

}  // namespace
}  // namespace spt::harness
