// Tests for the shared mmap-backed trace store (harness/trace_cache.h) and
// the cached experiment path built on it: production/adoption/hit counter
// semantics, header meta-word round trips, the profile sidecar and its codec,
// the stored baseline results, their codec and the config projection that
// keys them, and — the property the whole subsystem hangs on —
// bit-identical simulation results whether a machine consumes the
// in-memory text-built TraceBuffer or the mmap'd trace file.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "expect_same.h"
#include "harness/cell_codec.h"
#include "harness/experiment.h"
#include "harness/suite.h"
#include "harness/trace_cache.h"
#include "profile/profile_codec.h"
#include "sim/baseline.h"
#include "spt/loop_analysis.h"
#include "support/error.h"
#include "support/wire.h"
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

  // The plain path and the cache miss profile through the baseline run,
  // the hit reads that profile from the sidecar; the compiler sees the same
  // profiles either way, so remarks (profile counts included) match.
  compiler::CompilationRemarks plain_remarks;
  compiler::CompilationRemarks cached_remarks;
  compiler::CompilationRemarks again_remarks;
  const ExperimentResult plain =
      runSptExperiment(w.build(1), {}, {}, {}, &plain_remarks);
  const ExperimentResult cached = runSptExperiment(
      w.build(1), {}, {}, {}, &cached_remarks, &cache, "gzip.x1");
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
      w.build(1), {}, {}, {}, &again_remarks, &cache, "gzip.x1");
  EXPECT_EQ(cache.produced(), 2u);
  EXPECT_EQ(cache.memoryHits(), 2u);
  EXPECT_EQ(remarksJson(again_remarks), remarksJson(plain_remarks));
  // The instruction counts come from the files' validating opens.
  EXPECT_EQ(plain.baseline_run.dynamic_instrs,
            again.baseline_run.dynamic_instrs);
  EXPECT_EQ(plain.spt_run.dynamic_instrs, again.spt_run.dynamic_instrs);
  expectSameMachineResult(plain.baseline, again.baseline);
  expectSameMachineResult(plain.spt, again.spt);
}

TEST(TraceCache, SuiteGoldenDigestsMatchTextVsBinary) {
  // The satellite gate: for every suite workload, simulating over the
  // mmap'd trace file must be bit-identical to simulating over the in-memory
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

// ------------------------------------------------------------------------
// The profile sidecar a baseline trace keeps beside it.

profile::TrackedProfile supersetProfileOf(const std::string& workload) {
  ir::Module m = workloads::findWorkload(workload).build(1);
  m.finalize();
  profile::TrackedProfile out;
  out.tracked = compiler::svpSuperset(m);
  out.data = InterpProfileRunner().run(m, out.tracked);
  return out;
}

std::string readBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

void writeBytes(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

TEST(ProfileCodec, RoundTripsToIdenticalBytes) {
  for (const char* name : {"mcf", "gap", "micro.svp_stride"}) {
    SCOPED_TRACE(name);
    const profile::TrackedProfile original = supersetProfileOf(name);
    ASSERT_FALSE(original.data.values.empty());
    const std::string bytes = profile::encodeProfile(original);
    std::string error;
    const std::optional<profile::TrackedProfile> decoded =
        profile::decodeProfile(bytes, &error);
    ASSERT_TRUE(decoded.has_value()) << error;
    EXPECT_EQ(decoded->tracked, original.tracked);
    spt::testing::expectSameProfile(decoded->data, original.data);
    EXPECT_EQ(profile::encodeProfile(*decoded), bytes);
  }

  // Equal profiles whose hash tables iterate in different orders encode to
  // the same bytes: every table is written in key order.
  profile::TrackedProfile a;
  profile::TrackedProfile b;
  b.data.branches.reserve(4096);
  b.data.loops.reserve(4096);
  b.tracked.reserve(4096);
  for (ir::StaticId sid = 0; sid < 200; ++sid) {
    a.data.branches[sid] = {sid, 1};
    a.data.loops[sid * 7] = {1, sid, 2 * sid};
    a.tracked.insert(sid * 3);
  }
  for (ir::StaticId sid = 200; sid-- > 0;) {
    b.data.branches[sid] = {sid, 1};
    b.data.loops[sid * 7] = {1, sid, 2 * sid};
    b.tracked.insert(sid * 3);
  }
  EXPECT_EQ(profile::encodeProfile(a), profile::encodeProfile(b));
}

TEST(ProfileCodec, RejectsDamagedBytes) {
  const std::string bytes =
      profile::encodeProfile(supersetProfileOf("micro.parser_free"));
  std::string flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x10;
  for (const std::string& damaged :
       {std::string(), bytes.substr(0, bytes.size() - 1), flipped,
        bytes + '\0'}) {
    std::string error;
    EXPECT_FALSE(profile::decodeProfile(damaged, &error).has_value());
    EXPECT_FALSE(error.empty());
  }
}

TEST(TraceCache, MissingOrDamagedSidecarIsReproduced) {
  const workloads::Workload w = workloads::findWorkload("parser");
  compiler::CompilationRemarks plain_remarks;
  const ExperimentResult plain =
      runSptExperiment(w.build(1), {}, {}, {}, &plain_remarks);
  const std::string dir = freshDir("sidecar");
  std::string sidecar;
  {
    TraceCache cache(dir);
    runSptExperiment(w.build(1), {}, {}, {}, nullptr, &cache, "parser.x1");
    EXPECT_EQ(cache.produced(), 2u);
    for (const auto& e : std::filesystem::directory_iterator(dir)) {
      if (e.path().extension() == ".prof") sidecar = e.path().string();
    }
  }
  ASSERT_FALSE(sidecar.empty());
  const std::string good = readBytes(sidecar);

  std::string flipped = good;
  flipped[flipped.size() / 2] ^= 0x01;
  const std::vector<std::pair<std::string, std::string>> damages = {
      {"missing", ""},
      {"truncated", good.substr(0, good.size() / 2)},
      {"bit-flipped", flipped},
  };
  for (const auto& [what, bytes] : damages) {
    SCOPED_TRACE(what);
    if (what == "missing") {
      std::filesystem::remove(sidecar);
    } else {
      writeBytes(sidecar, bytes);
    }
    TraceCache cache(dir);
    compiler::CompilationRemarks remarks;
    const ExperimentResult again = runSptExperiment(
        w.build(1), {}, {}, {}, &remarks, &cache, "parser.x1");
    // The baseline is produced again, trace and sidecar; the SPT trace is
    // adopted.
    EXPECT_EQ(cache.produced(), 1u);
    EXPECT_EQ(cache.fileReuses(), 1u);
    EXPECT_EQ(readBytes(sidecar), good);
    EXPECT_EQ(remarksJson(remarks), remarksJson(plain_remarks));
    EXPECT_EQ(again.plan.fingerprint(), plain.plan.fingerprint());
    spt::testing::expectSameRun(again.baseline_run, plain.baseline_run);
    spt::testing::expectSameRun(again.spt_run, plain.spt_run);
    expectSameMachineResult(again.baseline, plain.baseline);
    expectSameMachineResult(again.spt, plain.spt);
  }
}

// A trace file that fails validation is written again by the next cache
// that needs it: one left by the previous container version (its version
// byte rewritten to 3) and one cut short.
TEST(TraceCache, StaleOrTruncatedTraceFileIsReproduced) {
  const TracedRun run = tracedArraySum(48);
  const auto produce = [&](trace::TraceFileMeta* meta) {
    meta->word0 = static_cast<std::uint64_t>(run.result.return_value);
    meta->word1 = run.result.memory_hash;
    return run.trace;
  };
  const std::string dir = freshDir("stale");
  std::string path;
  {
    TraceCache cache(dir);
    path = cache.get("arraysum.c", produce).path;
  }
  const std::string good = readBytes(path);
  std::string old_version = good;
  old_version[8] = 3;  // version field (little-endian low byte)
  const std::vector<std::pair<std::string, std::string>> damages = {
      {"version 3", old_version},
      {"truncated", good.substr(0, good.size() - 7)},
  };
  for (const auto& [what, bytes] : damages) {
    SCOPED_TRACE(what);
    writeBytes(path, bytes);
    std::string error;
    ASSERT_FALSE(trace::MappedTrace::open(path, &error).has_value());
    TraceCache cache(dir);
    const TraceCache::Entry& entry = cache.get("arraysum.c", produce);
    EXPECT_EQ(cache.produced(), 1u);
    EXPECT_EQ(cache.fileReuses(), 0u);
    EXPECT_EQ(entry.path, path);
    EXPECT_EQ(entry.view.size(), run.trace.size());
    EXPECT_EQ(entry.instr_count, run.result.dynamic_instrs);
    EXPECT_EQ(readBytes(path), good);
    EXPECT_TRUE(trace::MappedTrace::open(path, &error).has_value()) << error;
  }
}

// ------------------------------------------------------------------------
// Blobs, and the baseline results a cached experiment keeps in them.

TEST(TraceCache, BlobIsProducedOnceThenServedFromMemoryAndFile) {
  const std::string dir = freshDir("blob");
  int producer_calls = 0;
  const auto produce = [&] {
    ++producer_calls;
    return std::string("blob-bytes");
  };
  const auto valid = [](const std::string& b) { return b == "blob-bytes"; };
  {
    TraceCache cache(dir);
    const std::string& first = cache.getBlob("k.res", produce, valid);
    const std::string& second = cache.getBlob("k.res", produce, valid);
    EXPECT_EQ(first, "blob-bytes");
    EXPECT_EQ(&first, &second) << "blob references are stable";
    EXPECT_EQ(producer_calls, 1);
    EXPECT_EQ(cache.blobsProduced(), 1u);
    EXPECT_EQ(cache.blobHits(), 1u);
    // Blobs are counted apart from traces.
    EXPECT_EQ(cache.produced(), 0u);
    EXPECT_EQ(cache.memoryHits(), 0u);
  }
  EXPECT_EQ(readBytes(dir + "/k.res"), "blob-bytes");
  {
    TraceCache cache(dir);
    EXPECT_EQ(cache.getBlob("k.res", produce, valid), "blob-bytes");
    EXPECT_EQ(producer_calls, 1) << "a valid file is adopted";
    EXPECT_EQ(cache.blobHits(), 1u);
  }
  writeBytes(dir + "/k.res", "blob-bytez");
  TraceCache cache(dir);
  EXPECT_EQ(cache.getBlob("k.res", produce, valid), "blob-bytes");
  EXPECT_EQ(producer_calls, 2) << "an invalid file is made again";
  EXPECT_EQ(cache.blobsProduced(), 1u);
  EXPECT_EQ(readBytes(dir + "/k.res"), "blob-bytes");
}

/// A result with every field set, maps and telemetry included.
sim::MachineResult fullResult() {
  sim::MachineResult r;
  r.cycles = 1001;
  r.instrs = 702;
  r.breakdown = {500, 300, 201};
  r.loops["f.loop1"] = {400, 3, 90};
  r.loops["g.loop2"] = {50, 1, 7};
  r.threads.spawned = 11;
  r.threads.committed_instrs = 99;
  r.loop_threads["f.loop1"].fast_commits = 4;
  r.loop_threads["f.loop1"].misspec_instrs = 13;
  r.loop_threads["g.loop2"].killed = 2;
  r.l1d = {1000, 24};
  r.l2 = {20, 4};
  r.l3 = {3, 1};
  r.branch_mispredict_ratio = 1.0 / 3.0;
  r.hotpath = {600, 102, 5, 6, 7, 8, 9, 10, 11};
  r.faults = {5, 2, 1, 2, 0};
  r.arch_digest = 0x0123456789abcdefull;
  r.oracle_checks = 17;
  return r;
}

TEST(MachineResultCodec, RoundTripsEveryField) {
  const sim::MachineResult original = fullResult();
  const std::string bytes = encodeMachineResult(original);
  const std::optional<sim::MachineResult> decoded =
      decodeMachineResult(bytes);
  ASSERT_TRUE(decoded.has_value());
  expectSameMachineResult(*decoded, original);
  EXPECT_EQ(std::memcmp(&decoded->branch_mispredict_ratio,
                        &original.branch_mispredict_ratio, sizeof(double)),
            0)
      << "the ratio round-trips bit-exact";
  EXPECT_EQ(encodeMachineResult(*decoded), bytes);

  // A real baseline result, with the loop map a suite workload fills.
  ir::Module m = workloads::findWorkload("bzip2").build(1);
  const TracedRun run = traceProgram(m);
  const sim::MachineResult real =
      sim::BaselineMachine(m, run.trace.view(), {}).run();
  ASSERT_FALSE(real.loops.empty());
  const std::optional<sim::MachineResult> real_decoded =
      decodeMachineResult(encodeMachineResult(real));
  ASSERT_TRUE(real_decoded.has_value());
  expectSameMachineResult(*real_decoded, real);
}

TEST(MachineResultCodec, DecodingIsStrict) {
  const std::string bytes = encodeMachineResult(fullResult());
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    EXPECT_FALSE(decodeMachineResult(bytes.substr(0, n)).has_value()) << n;
  }
  EXPECT_FALSE(decodeMachineResult(bytes + '\0').has_value());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string flipped = bytes;
    flipped[i] ^= 0x40;
    EXPECT_FALSE(decodeMachineResult(flipped).has_value()) << i;
  }
  // A profile is a frame too, under another magic.
  EXPECT_FALSE(decodeMachineResult(
                   profile::encodeProfile(profile::TrackedProfile{}))
                   .has_value());
}

/// The one stored baseline result in `dir`.
std::string storedResultIn(const std::string& dir) {
  std::string found;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() == ".res") {
      EXPECT_TRUE(found.empty()) << "more than one stored result";
      found = e.path().string();
    }
  }
  return found;
}

TEST(TraceCache, DamagedStoredResultIsRecomputed) {
  const workloads::Workload w = workloads::findWorkload("vpr");
  const ExperimentResult plain = runSptExperiment(w.build(1));
  const std::string dir = freshDir("stored_result");
  {
    TraceCache cache(dir);
    runSptExperiment(w.build(1), {}, {}, {}, nullptr, &cache, "vpr.x1");
    EXPECT_EQ(cache.blobsProduced(), 1u);
  }
  const std::string path = storedResultIn(dir);
  ASSERT_FALSE(path.empty());
  const std::string good = readBytes(path);
  ASSERT_TRUE(decodeMachineResult(good).has_value());

  std::string flipped = good;
  flipped[support::wire::kFrameHeaderBytes + 3] ^= 0x01;  // the payload
  std::string other_version = good;
  other_version[4] = 2;  // the frame version's low byte
  const std::vector<std::pair<std::string, std::string>> damages = {
      {"missing", ""},
      {"bit-flipped", flipped},
      {"truncated", good.substr(0, good.size() - 5)},
      {"version 2", other_version},
  };
  for (const auto& [what, bytes] : damages) {
    SCOPED_TRACE(what);
    if (what == "missing") {
      std::filesystem::remove(path);
    } else {
      writeBytes(path, bytes);
    }
    TraceCache cache(dir);
    const ExperimentResult again =
        runSptExperiment(w.build(1), {}, {}, {}, nullptr, &cache, "vpr.x1");
    EXPECT_EQ(cache.blobsProduced(), 1u);
    EXPECT_EQ(cache.blobHits(), 0u);
    EXPECT_EQ(cache.produced(), 0u) << "both traces are adopted";
    EXPECT_EQ(readBytes(path), good);
    spt::testing::expectSameRun(again.baseline_run, plain.baseline_run);
    expectSameMachineResult(again.baseline, plain.baseline);
    expectSameMachineResult(again.spt, plain.spt);
  }
}

/// One machine config field, perturbed.
struct Perturbation {
  const char* field;
  void (*apply)(support::MachineConfig&);
};

#define SPT_PERTURB(field, ...) \
  Perturbation { #field, [](support::MachineConfig& c) { __VA_ARGS__; } }

/// Every MachineConfig field, each moved off its default to a value the
/// machines accept; cache levels keep a power-of-two set count.
const Perturbation kPerturbations[] = {
    SPT_PERTURB(l1i.size_bytes, c.l1i.size_bytes *= 2),
    SPT_PERTURB(l1i.associativity, c.l1i.associativity /= 2),
    SPT_PERTURB(l1i.block_bytes, c.l1i.block_bytes /= 2),
    SPT_PERTURB(l1i.latency_cycles, c.l1i.latency_cycles += 2),
    SPT_PERTURB(l1d.size_bytes, c.l1d.size_bytes /= 4),
    SPT_PERTURB(l1d.associativity, c.l1d.associativity /= 4),
    SPT_PERTURB(l1d.block_bytes, c.l1d.block_bytes /= 2),
    SPT_PERTURB(l1d.latency_cycles, c.l1d.latency_cycles += 2),
    SPT_PERTURB(l2.size_bytes, c.l2.size_bytes /= 8),
    SPT_PERTURB(l2.associativity, c.l2.associativity /= 8),
    SPT_PERTURB(l2.block_bytes, c.l2.block_bytes /= 2),
    SPT_PERTURB(l2.latency_cycles, c.l2.latency_cycles += 4),
    SPT_PERTURB(l3.size_bytes, c.l3.size_bytes /= 16),
    SPT_PERTURB(l3.associativity, c.l3.associativity /= 4),
    SPT_PERTURB(l3.block_bytes, c.l3.block_bytes /= 2),
    SPT_PERTURB(l3.latency_cycles, c.l3.latency_cycles += 8),
    SPT_PERTURB(memory_latency_cycles, c.memory_latency_cycles += 100),
    SPT_PERTURB(fetch_width, c.fetch_width = 2),
    SPT_PERTURB(issue_width, c.issue_width = 2),
    SPT_PERTURB(replay_fetch_width, c.replay_fetch_width = 3),
    SPT_PERTURB(replay_issue_width, c.replay_issue_width = 3),
    SPT_PERTURB(rf_ports, c.rf_ports = 4),
    SPT_PERTURB(branch_predictor_entries, c.branch_predictor_entries = 16),
    SPT_PERTURB(branch_mispredict_penalty, c.branch_mispredict_penalty = 20),
    SPT_PERTURB(rf_copy_overhead, c.rf_copy_overhead = 30),
    SPT_PERTURB(fast_commit_overhead, c.fast_commit_overhead = 40),
    SPT_PERTURB(speculation_result_buffer_entries,
                c.speculation_result_buffer_entries = 8),
    SPT_PERTURB(speculative_store_buffer_entries,
                c.speculative_store_buffer_entries = 2),
    SPT_PERTURB(load_address_buffer_entries,
                c.load_address_buffer_entries = 2),
    SPT_PERTURB(spec_threads, c.spec_threads = 16),
    SPT_PERTURB(recovery,
                c.recovery = support::RecoveryMechanism::kFullSquash),
    SPT_PERTURB(register_check,
                c.register_check = support::RegisterCheckMode::kScoreboard),
    SPT_PERTURB(max_trace_records, c.max_trace_records = 1),
    SPT_PERTURB(max_simulated_records, c.max_simulated_records = 5000),
    SPT_PERTURB(max_simulated_cycles, c.max_simulated_cycles = 5000),
    SPT_PERTURB(oracle, c.oracle = support::OracleMode::kDeep),
    SPT_PERTURB(fault_plan.enabled, c.fault_plan.enabled = true),
    SPT_PERTURB(fault_plan.seed, c.fault_plan.seed = 99),
    SPT_PERTURB(fault_plan.period, c.fault_plan.period = 1),
    SPT_PERTURB(fault_plan.ssb_value_flip, c.fault_plan.ssb_value_flip = false),
    SPT_PERTURB(fault_plan.lab_drop, c.fault_plan.lab_drop = false),
    SPT_PERTURB(fault_plan.fork_reg_flip, c.fault_plan.fork_reg_flip = false),
    SPT_PERTURB(fault_plan.srb_payload_flip,
                c.fault_plan.srb_payload_flip = false),
    SPT_PERTURB(fault_plan.cache_meta_flip,
                c.fault_plan.cache_meta_flip = false),
    SPT_PERTURB(fault_plan.bp_meta_flip, c.fault_plan.bp_meta_flip = false),
};

#undef SPT_PERTURB

/// The baseline result's bytes under `config`, or a marker when a budget
/// stops the machine.
std::string baselineBytes(const ir::Module& module, trace::TraceView trace,
                          const support::MachineConfig& config) {
  try {
    return encodeMachineResult(
        sim::BaselineMachine(module, trace, config).run());
  } catch (const support::SptBudgetExceeded& e) {
    return std::string("budget: ") + e.what();
  }
}

TEST(BaselineConfigDigest, ChangesWheneverTheBaselineResultDoes) {
  const support::MachineConfig defaults;
  const std::uint64_t default_digest = baselineConfigDigest(defaults);
  std::set<std::string> moved_somewhere;
  for (const char* name : {"vortex", "bzip2", "crafty"}) {
    SCOPED_TRACE(name);
    ir::Module module = workloads::findWorkload(name).build(1);
    const TracedRun run = traceProgram(module);
    const std::string reference =
        baselineBytes(module, run.trace.view(), defaults);
    for (const Perturbation& p : kPerturbations) {
      SCOPED_TRACE(p.field);
      support::MachineConfig config;
      p.apply(config);
      if (baselineBytes(module, run.trace.view(), config) != reference) {
        moved_somewhere.insert(p.field);
        EXPECT_NE(baselineConfigDigest(config), default_digest);
      }
    }
  }
  // The check has teeth: the geometry, latency, width, predictor and
  // budget fields do move the one-core result.
  for (const char* field :
       {"l1d.size_bytes", "l2.latency_cycles", "memory_latency_cycles",
        "issue_width", "branch_predictor_entries",
        "branch_mispredict_penalty", "max_simulated_records"}) {
    EXPECT_TRUE(moved_somewhere.contains(field)) << field;
  }
}

TEST(BaselineConfigDigest, SptOnlyFieldsShareOneDigest) {
  const std::uint64_t digest = baselineConfigDigest({});
  std::size_t configs = 0;
  for (const std::uint32_t threads : {1u, 2u, 4u, 16u}) {
    for (const support::RecoveryMechanism recovery :
         {support::RecoveryMechanism::kSelectiveReplayFastCommit,
          support::RecoveryMechanism::kSelectiveReplay,
          support::RecoveryMechanism::kFullSquash}) {
      for (const support::RegisterCheckMode check :
           {support::RegisterCheckMode::kValueBased,
            support::RegisterCheckMode::kScoreboard}) {
        for (const std::uint32_t entries : {1024u, 64u, 16u}) {
          for (const support::OracleMode oracle :
               {support::OracleMode::kOff, support::OracleMode::kDigest,
                support::OracleMode::kDeep}) {
            for (const bool faults : {false, true}) {
              support::MachineConfig c;
              c.spec_threads = threads;
              c.recovery = recovery;
              c.register_check = check;
              c.speculation_result_buffer_entries = entries;
              c.speculative_store_buffer_entries = entries / 4;
              c.load_address_buffer_entries = entries / 2;
              c.rf_copy_overhead = entries % 7;
              c.fast_commit_overhead = entries % 5;
              c.oracle = oracle;
              c.fault_plan.enabled = faults;
              c.fault_plan.seed = threads;
              c.fault_plan.period = entries;
              c.fault_plan.lab_drop = !faults;
              EXPECT_EQ(baselineConfigDigest(c), digest);
              ++configs;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(configs, 432u);
  // A field the one-core machine reads does not share it.
  support::MachineConfig slow_memory;
  slow_memory.memory_latency_cycles = 151;
  EXPECT_NE(baselineConfigDigest(slow_memory), digest);
}

TEST(TraceCache, CachedGridSimulatesTheBaselineOnce) {
  const workloads::Workload w = workloads::findWorkload("twolf");
  const ExperimentResult plain = runSptExperiment(w.build(1));
  std::vector<support::MachineConfig> grid;
  for (const std::uint32_t threads : {1u, 2u, 4u, 16u}) {
    for (const support::RecoveryMechanism recovery :
         {support::RecoveryMechanism::kSelectiveReplayFastCommit,
          support::RecoveryMechanism::kFullSquash}) {
      support::MachineConfig c;
      c.spec_threads = threads;
      c.recovery = recovery;
      grid.push_back(c);
    }
  }
  support::MachineConfig tight;
  tight.register_check = support::RegisterCheckMode::kScoreboard;
  tight.speculation_result_buffer_entries = 64;
  tight.speculative_store_buffer_entries = 16;
  tight.load_address_buffer_entries = 16;
  grid.push_back(tight);
  support::MachineConfig checked;
  checked.oracle = support::OracleMode::kDigest;
  checked.fault_plan.enabled = true;
  checked.fault_plan.seed = 7;
  grid.push_back(checked);

  TraceCache cache(freshDir("grid"));
  for (const support::MachineConfig& config : grid) {
    SCOPED_TRACE(config.spec_threads);
    compiler::CompilerOptions copts;
    copts.spec_threads = config.spec_threads;
    const ExperimentResult cell = runSptExperiment(
        w.build(1), copts, config, {}, nullptr, &cache, "twolf.x1");
    expectSameMachineResult(cell.baseline, plain.baseline);
  }
  EXPECT_EQ(cache.blobsProduced(), 1u) << "one baseline simulation";
  EXPECT_EQ(cache.blobHits(), grid.size() - 1);
}

}  // namespace
}  // namespace spt::harness
