// Tests for the shared mmap-backed trace store (harness/trace_cache.h) and
// the cached experiment path built on it: production/adoption/hit counter
// semantics, v3 meta-word round trips, and — the property the whole
// subsystem hangs on — bit-identical simulation results whether a machine
// consumes the in-memory text-built TraceBuffer or the mmap'd v3 file.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>

#include "expect_same.h"
#include "harness/experiment.h"
#include "harness/suite.h"
#include "harness/trace_cache.h"
#include "test_programs.h"
#include "workloads/workloads.h"

namespace spt::harness {
namespace {

using spt::testing::expectSameMachineResult;

std::string freshDir(const std::string& tag) {
  // TempDir() survives across test-binary runs, so an earlier run's trace
  // files would be silently adopted (that adoption is the *subject* of
  // AdoptsFileWrittenByAnotherCache, not a fixture default); start empty.
  const std::string dir = ::testing::TempDir() + "spt_trace_cache_test/" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

TracedRun tracedArraySum(int n) {
  ir::Module m("t");
  spt::testing::buildArraySum(m, n);
  return traceProgram(m);
}

TEST(TraceCache, ProducesOnceThenServesFromMemory) {
  TraceCache cache(freshDir("produce_once"));
  const TracedRun run = tracedArraySum(64);
  int producer_calls = 0;
  const auto produce = [&](trace::TraceFileMeta* meta) {
    ++producer_calls;
    meta->word0 = 0xfeedbeefull;
    meta->word1 = 0x1234abcdull;
    return run.trace;
  };

  const TraceCache::Entry& first = cache.get("arraysum.a", produce);
  EXPECT_EQ(producer_calls, 1);
  EXPECT_EQ(cache.produced(), 1u);
  EXPECT_EQ(cache.memoryHits(), 0u);
  ASSERT_EQ(first.view.size(), run.trace.size());
  // The meta words written by the producer come back through the v3
  // header, not through producer-local state.
  EXPECT_EQ(first.meta.word0, 0xfeedbeefull);
  EXPECT_EQ(first.meta.word1, 0x1234abcdull);

  const TraceCache::Entry& second = cache.get("arraysum.a", produce);
  EXPECT_EQ(producer_calls, 1) << "second get must not re-produce";
  EXPECT_EQ(cache.memoryHits(), 1u);
  EXPECT_EQ(&first, &second) << "entry references are stable";

  // The mapped view carries the same records the producer returned.
  for (std::size_t i = 0; i < run.trace.size(); ++i) {
    EXPECT_EQ(first.view[i].kind, run.trace[i].kind);
    EXPECT_EQ(first.view[i].value, run.trace[i].value);
    EXPECT_EQ(first.view[i].mem_addr, run.trace[i].mem_addr);
  }
}

TEST(TraceCache, AdoptsFileWrittenByAnotherCache) {
  // Two caches over one directory model two processes sharing the store:
  // the second must adopt the first's file without running its producer.
  const std::string dir = freshDir("adopt");
  const TracedRun run = tracedArraySum(32);
  {
    TraceCache writer(dir);
    writer.get("arraysum.b", [&](trace::TraceFileMeta* meta) {
      meta->word0 = static_cast<std::uint64_t>(run.result.return_value);
      meta->word1 = run.result.memory_hash;
      return run.trace;
    });
  }

  TraceCache reader(dir);
  const TraceCache::Entry& entry =
      reader.get("arraysum.b", [&](trace::TraceFileMeta*) {
        ADD_FAILURE() << "producer ran despite a valid file on disk";
        return run.trace;
      });
  EXPECT_EQ(reader.fileReuses(), 1u);
  EXPECT_EQ(reader.produced(), 0u);
  ASSERT_EQ(entry.view.size(), run.trace.size());
  EXPECT_EQ(entry.meta.word0,
            static_cast<std::uint64_t>(run.result.return_value));
  EXPECT_EQ(entry.meta.word1, run.result.memory_hash);
}

TEST(TraceCache, DistinctKeysGetDistinctFiles) {
  TraceCache cache(freshDir("keys"));
  const TracedRun small = tracedArraySum(8);
  const TracedRun large = tracedArraySum(200);
  const auto producerOf = [](const TracedRun& run) {
    return [&run](trace::TraceFileMeta*) { return run.trace; };
  };
  const TraceCache::Entry& a = cache.get("k.small", producerOf(small));
  const TraceCache::Entry& b = cache.get("k.large", producerOf(large));
  EXPECT_EQ(cache.produced(), 2u);
  EXPECT_NE(a.path, b.path);
  EXPECT_EQ(a.view.size(), small.trace.size());
  EXPECT_EQ(b.view.size(), large.trace.size());
}

// ------------------------------------------------------------------------
// Text-built vs binary-mapped simulation equality.

std::string remarksJson(const compiler::CompilationRemarks& remarks) {
  std::ostringstream os;
  remarks.writeJson(os);
  return os.str();
}

TEST(TraceCache, CachedExperimentMatchesPlainExperiment) {
  TraceCache cache(freshDir("experiment"));
  const workloads::Workload w = workloads::findWorkload("gzip");

  // The cache miss profiles through the run that produces the baseline
  // trace, the hit and the plain path interpret; the compiler sees the
  // same profiles either way, so remarks (profile counts included) match.
  compiler::CompilationRemarks plain_remarks;
  compiler::CompilationRemarks cached_remarks;
  compiler::CompilationRemarks again_remarks;
  const ExperimentResult plain =
      runSptExperiment(w.build(1), {}, {}, {}, &plain_remarks);
  const ExperimentResult cached = runSptExperiment(
      w.build(1), cache, "gzip.x1", {}, {}, {}, &cached_remarks);
  EXPECT_EQ(cache.produced(), 2u);  // one baseline trace + one SPT trace
  EXPECT_EQ(remarksJson(cached_remarks), remarksJson(plain_remarks));

  EXPECT_EQ(plain.baseline_run.return_value, cached.baseline_run.return_value);
  EXPECT_EQ(plain.baseline_run.memory_hash, cached.baseline_run.memory_hash);
  EXPECT_EQ(plain.baseline_run.dynamic_instrs,
            cached.baseline_run.dynamic_instrs);
  EXPECT_EQ(plain.spt_run.return_value, cached.spt_run.return_value);
  EXPECT_EQ(plain.spt_run.memory_hash, cached.spt_run.memory_hash);
  EXPECT_EQ(plain.spt_run.dynamic_instrs, cached.spt_run.dynamic_instrs);
  EXPECT_EQ(plain.plan.fingerprint(), cached.plan.fingerprint());
  expectSameMachineResult(plain.baseline, cached.baseline);
  expectSameMachineResult(plain.spt, cached.spt);

  // A second cached run hits memory for both traces and — the whole point
  // — still reproduces the plain results without any interpretation.
  const ExperimentResult again = runSptExperiment(
      w.build(1), cache, "gzip.x1", {}, {}, {}, &again_remarks);
  EXPECT_EQ(cache.produced(), 2u);
  EXPECT_EQ(cache.memoryHits(), 2u);
  EXPECT_EQ(remarksJson(again_remarks), remarksJson(plain_remarks));
  expectSameMachineResult(plain.baseline, again.baseline);
  expectSameMachineResult(plain.spt, again.spt);
}

TEST(TraceCache, SuiteGoldenDigestsMatchTextVsBinary) {
  // The satellite gate: for every suite workload, simulating over the
  // mmap'd v3 file must be bit-identical to simulating over the in-memory
  // trace — baseline and SPT machines both. This is the suite-wide
  // extension of golden_digest_test's pins: those pin absolute values for
  // three workloads; this pins text-vs-binary equality for all ten.
  TraceCache cache(freshDir("suite"));
  for (const SuiteEntry& entry : defaultSuite()) {
    SCOPED_TRACE(entry.workload.name);
    const ExperimentResult text = runSuiteEntry(entry);
    const ExperimentResult binary =
        runSuiteEntry(entry, {}, 1, nullptr, &cache);
    expectSameMachineResult(text.baseline, binary.baseline);
    expectSameMachineResult(text.spt, binary.spt);
  }
}

}  // namespace
}  // namespace spt::harness
