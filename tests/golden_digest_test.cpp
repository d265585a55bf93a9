// Cycle-exactness golden digests for the trace-driven co-simulation.
//
// The simulator hot path is aggressively optimized (predecoded instruction
// table, flat scoreboards, open-addressing SSB/LAB — see docs/PERF.md), and
// the defining invariant of every such change is that it must not move a
// single reported cycle. These tests pin an FNV-1a digest of the *complete*
// MachineResult — cycles, breakdown, per-loop cycle stats, whole-program
// and per-loop thread stats, cache stats, and the branch mispredict ratio —
// for three seeded workloads under two machine configurations covering both
// register-check modes and all hot recovery paths (kGolden), and of the SPT
// machine over the whole suite and the chained machine grid, replayed and
// streamed (kGrid). The golden values were captured from the
// implementation before each optimization; any optimization that changes
// them is wrong, full stop.
//
// If a future change *intentionally* alters reported results (new stat,
// timing-model fix), re-pin the constants in kGolden and kGrid (the tests
// print them), bump sim::kTimingModelVersion and kPinnedTimingModelVersion
// with them, and say why in the commit message. A trace cache keys its
// stored baseline results by that version, so none stored by the old
// model is read back.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <iomanip>
#include <sstream>
#include <tuple>

#include "harness/experiment.h"
#include "harness/suite.h"
#include "harness/trace_cache.h"
#include "workloads/workloads.h"

namespace spt::sim {
namespace {

// ------------------------------------------------------------- digesting

class Digest {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void f64(double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void str(const std::string& s) {
    u64(s.size());
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }
  std::uint64_t value() const { return h_; }

 private:
  void byte(unsigned char b) { h_ = (h_ ^ b) * 1099511628211ull; }

  std::uint64_t h_ = 14695981039346656037ull;  // FNV-1a offset basis
};

void addThreadStats(Digest& d, const ThreadStats& t) {
  d.u64(t.spawned);
  d.u64(t.forks_ignored);
  d.u64(t.wrong_path);
  d.u64(t.fast_commits);
  d.u64(t.replays);
  d.u64(t.squashes);
  d.u64(t.killed);
  d.u64(t.spec_instrs);
  d.u64(t.misspec_instrs);
  d.u64(t.committed_instrs);
}

std::uint64_t digestOf(const MachineResult& r) {
  Digest d;
  d.u64(r.cycles);
  d.u64(r.instrs);
  d.u64(r.breakdown.execution);
  d.u64(r.breakdown.pipeline_stall);
  d.u64(r.breakdown.dcache_stall);
  d.u64(r.loops.size());
  for (const auto& [name, s] : r.loops) {
    d.str(name);
    d.u64(s.cycles);
    d.u64(s.episodes);
    d.u64(s.iterations);
  }
  addThreadStats(d, r.threads);
  d.u64(r.loop_threads.size());
  for (const auto& [name, t] : r.loop_threads) {
    d.str(name);
    addThreadStats(d, t);
  }
  for (const CacheStats* c : {&r.l1d, &r.l2, &r.l3}) {
    d.u64(c->hits);
    d.u64(c->misses);
  }
  d.f64(r.branch_mispredict_ratio);
  return d.value();
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << std::setfill('0') << std::setw(16) << v;
  return os.str();
}

// ------------------------------------------------------- the golden table

/// "default": the paper Table 1 machine (value-based checking, selective
/// replay + fast commit). "stress": scoreboard checking, plain selective
/// replay (every arrival walks the SRB), and tight SRB/SSB/LAB capacities,
/// exercising the stall and replay paths the default config rarely hits.
support::MachineConfig configNamed(const std::string& name) {
  support::MachineConfig config;
  if (name == "stress") {
    config.register_check = support::RegisterCheckMode::kScoreboard;
    config.recovery = support::RecoveryMechanism::kSelectiveReplay;
    config.speculation_result_buffer_entries = 64;
    config.speculative_store_buffer_entries = 16;
    config.load_address_buffer_entries = 16;
  }
  return config;
}

struct GoldenCase {
  const char* workload;
  const char* config;
  std::uint64_t baseline_digest;
  std::uint64_t spt_digest;
};

/// The timing model the pins in this file were captured from.
constexpr std::uint32_t kPinnedTimingModelVersion = 1;
static_assert(kTimingModelVersion == kPinnedTimingModelVersion,
              "re-pin the golden digests together with the timing model "
              "version, and only then");

// Captured from the pre-optimization implementation (PR 2); see the header
// comment for the re-pinning policy.
const GoldenCase kGolden[] = {
    {"micro.parser_free", "default", 0xd4e6a4014dbf9afbull,
     0x2321c921502a6340ull},
    {"micro.parser_free", "stress", 0xd4e6a4014dbf9afbull,
     0xc22aad22243e9c02ull},
    {"gzip", "default", 0x21386e62ce6593b0ull, 0x18936190d718c2d4ull},
    {"gzip", "stress", 0x21386e62ce6593b0ull, 0x760ca8951bcc6494ull},
    {"mcf", "default", 0x48bb2d88ec4662c9ull, 0xd6b796ebcf6f4110ull},
    {"mcf", "stress", 0x48bb2d88ec4662c9ull, 0x88ea2c6674e515daull},
};

TEST(GoldenDigest, MachineResultsAreBitIdenticalToPinnedRuns) {
  for (const GoldenCase& c : kGolden) {
    SCOPED_TRACE(std::string(c.workload) + " / " + c.config);
    const auto result = harness::runSptExperiment(
        workloads::findWorkload(c.workload).build(1), {},
        configNamed(c.config));
    const std::uint64_t base = digestOf(result.baseline);
    const std::uint64_t spt = digestOf(result.spt);
    std::cout << "GOLDEN {\"" << c.workload << "\", \"" << c.config << "\", "
              << hex(base) << "ull, " << hex(spt) << "ull},\n";
    EXPECT_EQ(hex(base), hex(c.baseline_digest));
    EXPECT_EQ(hex(spt), hex(c.spt_digest));
  }
}

TEST(GoldenDigest, CachedHitsReadPinnedBaselineDigests) {
  // A cold cache simulates each workload's one-core machine once ("stress"
  // differs from "default" only in SPT machine fields, so it reads the
  // stored result); a warm one simulates none. Every baseline a cache
  // serves still has its pinned digest.
  const std::string dir = ::testing::TempDir() + "spt_golden_digest_cache";
  std::filesystem::remove_all(dir);
  for (const bool warm : {false, true}) {
    SCOPED_TRACE(warm ? "warm" : "cold");
    harness::TraceCache cache(dir);
    for (const GoldenCase& c : kGolden) {
      SCOPED_TRACE(std::string(c.workload) + " / " + c.config);
      const auto result = harness::runSptExperiment(
          workloads::findWorkload(c.workload).build(1), {},
          configNamed(c.config), {}, nullptr, &cache,
          std::string(c.workload) + ".x1");
      EXPECT_EQ(hex(digestOf(result.baseline)), hex(c.baseline_digest));
      EXPECT_EQ(hex(digestOf(result.spt)), hex(c.spt_digest));
    }
    EXPECT_EQ(cache.blobsProduced(), warm ? 0u : 3u);
    EXPECT_EQ(cache.blobHits(), warm ? 6u : 3u);
  }
  std::filesystem::remove_all(dir);
}

// --------------------------------------------------- the machine grid

/// Every SPT result of the suite over the chained machine grid: the ten
/// suite workloads x spec_threads {1, 2, 4, 16} x recovery {srx_fc, srx,
/// squash} with value-based register checking, plus the scoreboard check
/// at depth 1 (chained threads always check by value). Each program is
/// compiled for its chain depth, as a sweep compiles it.
struct GridCase {
  const char* workload;
  std::uint32_t depth;
  const char* recovery;
  const char* regcheck;
  std::uint64_t spt_digest;
};

/// Captured from the pre-speculative-dispatch implementation; re-pin only
/// with the same policy as kGolden.
const GridCase kGrid[] = {
    {"bzip2", 1, "srx_fc", "value", 0x9626487cdfa48f6dull},
    {"bzip2", 1, "srx", "value", 0x1baf8d21abb270e7ull},
    {"bzip2", 1, "squash", "value", 0x724e861a98cb0779ull},
    {"bzip2", 1, "srx_fc", "scoreboard", 0x321151ace9b0a738ull},
    {"bzip2", 1, "srx", "scoreboard", 0x926d18ad2727653eull},
    {"bzip2", 1, "squash", "scoreboard", 0x724e861a98cb0779ull},
    {"bzip2", 2, "srx_fc", "value", 0xfaf68753a6b9368dull},
    {"bzip2", 2, "srx", "value", 0x789e11def2a6d6b9ull},
    {"bzip2", 2, "squash", "value", 0xb9b3671c5ef9f650ull},
    {"bzip2", 4, "srx_fc", "value", 0x95d07937e20ee603ull},
    {"bzip2", 4, "srx", "value", 0xda4ff68d2563af66ull},
    {"bzip2", 4, "squash", "value", 0x7e918b957256ed19ull},
    {"bzip2", 16, "srx_fc", "value", 0x9b65c9b3d2db19b1ull},
    {"bzip2", 16, "srx", "value", 0x8afa4252bd2da426ull},
    {"bzip2", 16, "squash", "value", 0xa8484789fe036f2full},
    {"crafty", 1, "srx_fc", "value", 0xb79152e13be61458ull},
    {"crafty", 1, "srx", "value", 0x58098caf4b9c266aull},
    {"crafty", 1, "squash", "value", 0xb79152e13be61458ull},
    {"crafty", 1, "srx_fc", "scoreboard", 0xb79152e13be61458ull},
    {"crafty", 1, "srx", "scoreboard", 0x58098caf4b9c266aull},
    {"crafty", 1, "squash", "scoreboard", 0xb79152e13be61458ull},
    {"crafty", 2, "srx_fc", "value", 0x7d92e37e3d703659ull},
    {"crafty", 2, "srx", "value", 0x40191c94a259fc8dull},
    {"crafty", 2, "squash", "value", 0x7d92e37e3d703659ull},
    {"crafty", 4, "srx_fc", "value", 0x90874aad53a46000ull},
    {"crafty", 4, "srx", "value", 0x8d61bf1b2a7937beull},
    {"crafty", 4, "squash", "value", 0x90874aad53a46000ull},
    {"crafty", 16, "srx_fc", "value", 0x2fdba8fd23500a70ull},
    {"crafty", 16, "srx", "value", 0x6c0a76ee1709c2b6ull},
    {"crafty", 16, "squash", "value", 0x2fdba8fd23500a70ull},
    {"gap", 1, "srx_fc", "value", 0xba6f4cb87f1754d5ull},
    {"gap", 1, "srx", "value", 0xc7f1dcdc7d543fbbull},
    {"gap", 1, "squash", "value", 0x919e31112544cd5aull},
    {"gap", 1, "srx_fc", "scoreboard", 0x8407497906a66e68ull},
    {"gap", 1, "srx", "scoreboard", 0xa82dc9c439762bcbull},
    {"gap", 1, "squash", "scoreboard", 0x919e31112544cd5aull},
    {"gap", 2, "srx_fc", "value", 0x237a7dc7810a06afull},
    {"gap", 2, "srx", "value", 0xbed44eed8552c85cull},
    {"gap", 2, "squash", "value", 0xa8339c1f6faee429ull},
    {"gap", 4, "srx_fc", "value", 0xaccb25440ce156dbull},
    {"gap", 4, "srx", "value", 0x53d8f935febf4d92ull},
    {"gap", 4, "squash", "value", 0x522504c6f77e98f8ull},
    {"gap", 16, "srx_fc", "value", 0x2c0948cc49d12554ull},
    {"gap", 16, "srx", "value", 0x3067078ccc8260fcull},
    {"gap", 16, "squash", "value", 0xdc47376d4aa1e2deull},
    {"gcc", 1, "srx_fc", "value", 0x38544edfc0ecf20dull},
    {"gcc", 1, "srx", "value", 0x86219eef764df8ddull},
    {"gcc", 1, "squash", "value", 0x80897159c050ad12ull},
    {"gcc", 1, "srx_fc", "scoreboard", 0x8d38413b04964cadull},
    {"gcc", 1, "srx", "scoreboard", 0xcaf7e2ff64e90f58ull},
    {"gcc", 1, "squash", "scoreboard", 0x33f26f9efac0d9c3ull},
    {"gcc", 2, "srx_fc", "value", 0x0da72de617b3fcb4ull},
    {"gcc", 2, "srx", "value", 0xdc549ed7c6a1fec0ull},
    {"gcc", 2, "squash", "value", 0x844d9c48ac78359cull},
    {"gcc", 4, "srx_fc", "value", 0x70a147015368a9f9ull},
    {"gcc", 4, "srx", "value", 0x2eef5401b0d09cceull},
    {"gcc", 4, "squash", "value", 0x75a3e1c35cf1322cull},
    {"gcc", 16, "srx_fc", "value", 0xf9c1d85222d125edull},
    {"gcc", 16, "srx", "value", 0x4b1df224cff9c78aull},
    {"gcc", 16, "squash", "value", 0x10eea29c63e371e6ull},
    {"gzip", 1, "srx_fc", "value", 0x18936190d718c2d4ull},
    {"gzip", 1, "srx", "value", 0x8990b9eec7e78a7eull},
    {"gzip", 1, "squash", "value", 0x13dd11590aa07e14ull},
    {"gzip", 1, "srx_fc", "scoreboard", 0x39e8f022dbecbbf0ull},
    {"gzip", 1, "srx", "scoreboard", 0x760ca8951bcc6494ull},
    {"gzip", 1, "squash", "scoreboard", 0xc85cb1217d74500aull},
    {"gzip", 2, "srx_fc", "value", 0x91c4e7183b488cb1ull},
    {"gzip", 2, "srx", "value", 0x5a261d3e6364e0e6ull},
    {"gzip", 2, "squash", "value", 0x43231a4350888388ull},
    {"gzip", 4, "srx_fc", "value", 0xb839ee37ff56529dull},
    {"gzip", 4, "srx", "value", 0x1118e1d53d17b60aull},
    {"gzip", 4, "squash", "value", 0x8faad9dcf23e62c8ull},
    {"gzip", 16, "srx_fc", "value", 0xd88269430c543b35ull},
    {"gzip", 16, "srx", "value", 0xa86ac79e61cf7b9aull},
    {"gzip", 16, "squash", "value", 0x546c3c54303f2f07ull},
    {"mcf", 1, "srx_fc", "value", 0xd6b796ebcf6f4110ull},
    {"mcf", 1, "srx", "value", 0x99c94d8569a50c95ull},
    {"mcf", 1, "squash", "value", 0xc00b21771432b266ull},
    {"mcf", 1, "srx_fc", "scoreboard", 0x85a2b57d128d6376ull},
    {"mcf", 1, "srx", "scoreboard", 0x7c3f1b771c49bfc4ull},
    {"mcf", 1, "squash", "scoreboard", 0xc00b21771432b266ull},
    {"mcf", 2, "srx_fc", "value", 0x6e6817a0773672daull},
    {"mcf", 2, "srx", "value", 0x718caf15fb35371full},
    {"mcf", 2, "squash", "value", 0x85712e9e970d02a3ull},
    {"mcf", 4, "srx_fc", "value", 0x106c57cb64a4e22bull},
    {"mcf", 4, "srx", "value", 0x3c261af8eba245d4ull},
    {"mcf", 4, "squash", "value", 0x63dbf9298a399028ull},
    {"mcf", 16, "srx_fc", "value", 0xfd998f4999042a00ull},
    {"mcf", 16, "srx", "value", 0xf53d5dc530ea03f2ull},
    {"mcf", 16, "squash", "value", 0xfa449fc78ee94f1eull},
    {"parser", 1, "srx_fc", "value", 0x4dde77e3991c5ca4ull},
    {"parser", 1, "srx", "value", 0x8a582c60f9bce8bcull},
    {"parser", 1, "squash", "value", 0x10d921dc1f3e1490ull},
    {"parser", 1, "srx_fc", "scoreboard", 0x9029cc97a462b398ull},
    {"parser", 1, "srx", "scoreboard", 0x42b6e8593265a897ull},
    {"parser", 1, "squash", "scoreboard", 0x07708f5e81fb3854ull},
    {"parser", 2, "srx_fc", "value", 0x15d9e590fefb6794ull},
    {"parser", 2, "srx", "value", 0xab72f357e93d086eull},
    {"parser", 2, "squash", "value", 0xb03a53882de15c0cull},
    {"parser", 4, "srx_fc", "value", 0x64636cb1d3ebac89ull},
    {"parser", 4, "srx", "value", 0x8893bd3ca842bc81ull},
    {"parser", 4, "squash", "value", 0xf07abfd3a6c440d2ull},
    {"parser", 16, "srx_fc", "value", 0x91109bd3b97459b3ull},
    {"parser", 16, "srx", "value", 0x77a22e8ccf5a77b8ull},
    {"parser", 16, "squash", "value", 0x46e208b590934bd1ull},
    {"twolf", 1, "srx_fc", "value", 0x0288c35343197009ull},
    {"twolf", 1, "srx", "value", 0xb87a47e30e7438c3ull},
    {"twolf", 1, "squash", "value", 0xfbaa38403042ea99ull},
    {"twolf", 1, "srx_fc", "scoreboard", 0x0288c35343197009ull},
    {"twolf", 1, "srx", "scoreboard", 0xb87a47e30e7438c3ull},
    {"twolf", 1, "squash", "scoreboard", 0xfbaa38403042ea99ull},
    {"twolf", 2, "srx_fc", "value", 0x58cdd1ef5714a5c5ull},
    {"twolf", 2, "srx", "value", 0xa94fca3c32a185cfull},
    {"twolf", 2, "squash", "value", 0xed04f107ad3f6c9full},
    {"twolf", 4, "srx_fc", "value", 0x90f28c8e7aa33e49ull},
    {"twolf", 4, "srx", "value", 0x5f515db4d1855f65ull},
    {"twolf", 4, "squash", "value", 0xd8dfa0325f4ee1dfull},
    {"twolf", 16, "srx_fc", "value", 0x489bf20ba8c50e39ull},
    {"twolf", 16, "srx", "value", 0xbbfc0c49d48ce7daull},
    {"twolf", 16, "squash", "value", 0x913ea1ffe5266ffbull},
    {"vortex", 1, "srx_fc", "value", 0xeb1a042eed928926ull},
    {"vortex", 1, "srx", "value", 0xeb1a042eed928926ull},
    {"vortex", 1, "squash", "value", 0xeb1a042eed928926ull},
    {"vortex", 1, "srx_fc", "scoreboard", 0xeb1a042eed928926ull},
    {"vortex", 1, "srx", "scoreboard", 0xeb1a042eed928926ull},
    {"vortex", 1, "squash", "scoreboard", 0xeb1a042eed928926ull},
    {"vortex", 2, "srx_fc", "value", 0xeb1a042eed928926ull},
    {"vortex", 2, "srx", "value", 0xeb1a042eed928926ull},
    {"vortex", 2, "squash", "value", 0xeb1a042eed928926ull},
    {"vortex", 4, "srx_fc", "value", 0xeb1a042eed928926ull},
    {"vortex", 4, "srx", "value", 0xeb1a042eed928926ull},
    {"vortex", 4, "squash", "value", 0xeb1a042eed928926ull},
    {"vortex", 16, "srx_fc", "value", 0xeb1a042eed928926ull},
    {"vortex", 16, "srx", "value", 0xeb1a042eed928926ull},
    {"vortex", 16, "squash", "value", 0xeb1a042eed928926ull},
    {"vpr", 1, "srx_fc", "value", 0x74fcc94067faf51aull},
    {"vpr", 1, "srx", "value", 0x6baccbbbcac4652eull},
    {"vpr", 1, "squash", "value", 0x5795d21abb8dedfeull},
    {"vpr", 1, "srx_fc", "scoreboard", 0x6e673925dbb793e6ull},
    {"vpr", 1, "srx", "scoreboard", 0xe647dd541fff482eull},
    {"vpr", 1, "squash", "scoreboard", 0x5795d21abb8dedfeull},
    {"vpr", 2, "srx_fc", "value", 0xdbcffe9c2d350f56ull},
    {"vpr", 2, "srx", "value", 0x9681e21083337816ull},
    {"vpr", 2, "squash", "value", 0x4ffed2c433ea2d60ull},
    {"vpr", 4, "srx_fc", "value", 0x27cf581112b5f488ull},
    {"vpr", 4, "srx", "value", 0x196e275fd3e1e64full},
    {"vpr", 4, "squash", "value", 0xf54efdf910dab72aull},
    {"vpr", 16, "srx_fc", "value", 0x5b1c3ecffcf2a2daull},
    {"vpr", 16, "srx", "value", 0x1f73c040f1af3037ull},
    {"vpr", 16, "squash", "value", 0x5326cc4e569dd319ull},
};

constexpr std::uint32_t kGridDepths[] = {1, 2, 4, support::kMaxSpecThreads};

support::RecoveryMechanism recoveryNamed(const std::string& name) {
  if (name == "srx") return support::RecoveryMechanism::kSelectiveReplay;
  if (name == "squash") return support::RecoveryMechanism::kFullSquash;
  return support::RecoveryMechanism::kSelectiveReplayFastCommit;
}

using GridParam = std::tuple<std::size_t, std::size_t>;  // workload, depth

class GoldenGrid : public ::testing::TestWithParam<GridParam> {};

TEST_P(GoldenGrid, ReplayedAndStreamedMatchPinnedDigests) {
  const harness::SuiteEntry entry =
      harness::defaultSuite()[std::get<0>(GetParam())];
  const std::uint32_t depth = kGridDepths[std::get<1>(GetParam())];
  ir::Module module = entry.workload.build(1);
  compiler::CompilerOptions copts = entry.copts;
  copts.spec_threads = depth;
  harness::InterpProfileRunner runner;
  compiler::SptCompiler(copts).compile(module, runner);
  const harness::TracedRun run = harness::traceProgram(module);
  const trace::LoopIndex index(module, run.trace);

  // Every cell is replayed. One recovery per (workload, depth) is also
  // streamed, rotating with w + d (the scoreboard cells with w + 1), so
  // each pair of values of any two axes is streamed somewhere at a third
  // of the cost.
  const std::size_t w = std::get<0>(GetParam());
  const std::size_t streamed_recovery = (w + std::get<1>(GetParam())) % 3;
  std::size_t checked = 0;
  for (const GridCase& c : kGrid) {
    if (entry.workload.name != c.workload || c.depth != depth) continue;
    SCOPED_TRACE(std::string(c.recovery) + " / " + c.regcheck);
    const bool scoreboard = std::string(c.regcheck) == "scoreboard";
    support::MachineConfig config;
    config.spec_threads = depth;
    config.recovery = recoveryNamed(c.recovery);
    config.register_check = scoreboard
                                ? support::RegisterCheckMode::kScoreboard
                                : support::RegisterCheckMode::kValueBased;
    const std::uint64_t replayed =
        digestOf(SptMachine(module, run.trace, index, config).run());
    std::cout << "GRID {\"" << c.workload << "\", " << depth << ", \""
              << c.recovery << "\", \"" << c.regcheck << "\", "
              << hex(replayed) << "ull},\n";
    EXPECT_EQ(hex(replayed), hex(c.spt_digest));
    if (static_cast<std::size_t>(config.recovery) ==
        (streamed_recovery + (scoreboard ? 1 : 0)) % 3) {
      SptMachine streaming(module, config);
      for (const trace::Record& r : run.trace.view()) streaming.onRecord(r);
      EXPECT_EQ(hex(digestOf(streaming.finish())), hex(c.spt_digest))
          << "streamed";
    }
    ++checked;
  }
  EXPECT_EQ(checked, depth == 1 ? 6u : 3u);
}

INSTANTIATE_TEST_SUITE_P(
    Suite, GoldenGrid,
    ::testing::Combine(
        ::testing::Range<std::size_t>(0, harness::defaultSuite().size()),
        ::testing::Range<std::size_t>(0, std::size(kGridDepths))),
    [](const ::testing::TestParamInfo<GridParam>& info) {
      return harness::defaultSuite()[std::get<0>(info.param)].workload.name +
             "_n" + std::to_string(kGridDepths[std::get<1>(info.param)]);
    });

TEST(GoldenDigest, DigestIsSensitiveToEveryField) {
  // Sanity for the digest itself: flipping any single field must move it
  // (otherwise the golden pins above prove less than they claim).
  MachineResult r;
  r.cycles = 7;
  r.loops["l"] = {10, 2, 30};
  r.loop_threads["l"].spawned = 3;
  const std::uint64_t base = digestOf(r);

  MachineResult t = r;
  t.cycles = 8;
  EXPECT_NE(digestOf(t), base);
  t = r;
  t.breakdown.dcache_stall = 1;
  EXPECT_NE(digestOf(t), base);
  t = r;
  t.loops["l"].iterations = 31;
  EXPECT_NE(digestOf(t), base);
  t = r;
  t.loop_threads["l"].forks_ignored = 1;
  EXPECT_NE(digestOf(t), base);
  t = r;
  t.l2.misses = 5;
  EXPECT_NE(digestOf(t), base);
  t = r;
  t.branch_mispredict_ratio = 0.25;
  EXPECT_NE(digestOf(t), base);
}

}  // namespace
}  // namespace spt::sim
