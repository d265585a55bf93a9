// Tests for the process-isolation supervisor stack: the chaos plan, the
// worker frame protocol, the cell payload codec, crash/hang/garbage
// containment with retry/backoff, supervised sweeps, campaigns and perf
// measurements, and checkpoint-format compatibility between the
// supervised and in-process paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>

#include "harness/cell_codec.h"
#include "harness/durable_log.h"
#include "harness/fault_campaign.h"
#include "harness/parallel_sweep.h"
#include "harness/perf.h"
#include "harness/suite.h"
#include "harness/supervisor.h"
#include "sim/decode.h"
#include "sim/oracle.h"
#include "support/chaos.h"
#include "support/check.h"
#include "support/error.h"
#include "support/wire.h"

#if defined(__unix__) || (defined(__APPLE__) && defined(__MACH__))
#include <poll.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace spt::harness {
namespace {

SuiteEntry entryByName(const std::string& name) {
  for (const SuiteEntry& e : defaultSuite()) {
    if (e.workload.name == name) return e;
  }
  ADD_FAILURE() << "no suite entry named " << name;
  return defaultSuite().front();
}

std::string readWholeFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::size_t countLines(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::size_t n = 0;
  while (std::getline(in, line)) ++n;
  return n;
}

// ---- ChaosPlan ------------------------------------------------------------

TEST(ChaosPlan, ParsesSpecAndRoundTrips) {
  std::string error;
  const auto plan =
      support::ChaosPlan::parse("2:crash,5:hang@3,7:garbage", &error);
  ASSERT_TRUE(plan.has_value()) << error;
  ASSERT_EQ(plan->directives.size(), 3u);
  EXPECT_TRUE(plan->enabled());

  EXPECT_EQ(plan->actionFor(2, 1), support::ChaosAction::kCrash);
  EXPECT_EQ(plan->actionFor(2, 99), support::ChaosAction::kCrash);
  EXPECT_EQ(plan->actionFor(5, 3), support::ChaosAction::kHang);
  EXPECT_EQ(plan->actionFor(5, 4), support::ChaosAction::kNone);
  EXPECT_EQ(plan->actionFor(7, 1), support::ChaosAction::kGarbage);
  EXPECT_EQ(plan->actionFor(0, 1), support::ChaosAction::kNone);

  const auto reparsed = support::ChaosPlan::parse(plan->toSpec(), &error);
  ASSERT_TRUE(reparsed.has_value()) << error;
  EXPECT_EQ(reparsed->toSpec(), plan->toSpec());
}

TEST(ChaosPlan, LastMatchingDirectiveWins) {
  const auto plan = support::ChaosPlan::parse("1:crash,1:hang");
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->actionFor(1, 1), support::ChaosAction::kHang);
}

TEST(ChaosPlan, RejectsMalformedSpecs) {
  for (const char* bad :
       {"1", "1:", ":crash", "1:frobnicate", "x:crash", "1:crash@0",
        "1:crash@x",
        // Numbers are decimal digits only: no sign, no whitespace, no
        // overflow, and @ATTEMPTS must fit the 32-bit attempt counter.
        "-1:crash", " 3:crash", "+3:crash", "3 :crash",
        "18446744073709551616:crash", "1:crash@4294967296", "1:crash@-1",
        "1:crash@+2", "1:crash@ 2"}) {
    std::string error;
    EXPECT_FALSE(support::ChaosPlan::parse(bad, &error).has_value())
        << "spec '" << bad << "' should not parse";
    EXPECT_FALSE(error.empty()) << bad;
  }
  // The largest values still parse and round-trip.
  const auto widest =
      support::ChaosPlan::parse("18446744073709551615:crash@4294967295");
  ASSERT_TRUE(widest.has_value());
  EXPECT_EQ(widest->directives[0].cell, ~std::size_t{0});
  EXPECT_EQ(widest->directives[0].until_attempt, ~std::uint32_t{0});
  EXPECT_TRUE(support::ChaosPlan::parse(widest->toSpec()).has_value());
  // The client-chaos and service-crash parsers share the number rule.
  std::string error;
  EXPECT_FALSE(
      support::ClientChaosPlan::parse("disconnect@-1", &error).has_value());
  EXPECT_FALSE(error.empty());
  error.clear();
  EXPECT_FALSE(
      support::ServiceCrashPlan::parse("flush@1:+7", &error).has_value());
  EXPECT_FALSE(error.empty());
  // Empty segments (stray/trailing commas) are tolerated, not errors.
  const auto lenient = support::ChaosPlan::parse("1:crash,,2:hang,");
  ASSERT_TRUE(lenient.has_value());
  EXPECT_EQ(lenient->directives.size(), 2u);
  // The three plans share one term grammar, [N:]NAME[@N][:N], but each
  // refuses the parts it has no use for.
  for (const char* bad : {"1:disconnect", "disconnect:3"}) {
    error.clear();
    EXPECT_FALSE(support::ClientChaosPlan::parse(bad, &error).has_value())
        << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
  error.clear();
  EXPECT_FALSE(support::ServiceCrashPlan::parse("2:admit", &error));
  EXPECT_FALSE(error.empty());
  error.clear();
  EXPECT_FALSE(support::ChaosPlan::parse("1:crash:7", &error));
  EXPECT_FALSE(error.empty());
  // Every accepted spelling reads back from its canonical spec.
  for (const char* good : {"admit", "settle@2", "flush@1:7", "append:16"}) {
    const auto plan = support::ServiceCrashPlan::parse(good, &error);
    ASSERT_TRUE(plan.has_value()) << good << ": " << error;
    const auto again = support::ServiceCrashPlan::parse(plan->toSpec());
    ASSERT_TRUE(again.has_value()) << good;
    EXPECT_EQ(again->point, plan->point) << good;
    EXPECT_EQ(again->at, plan->at) << good;
    EXPECT_EQ(again->bytes, plan->bytes) << good;
  }
  for (const char* good : {"disconnect@0", "slow-reader@20"}) {
    const auto plan = support::ClientChaosPlan::parse(good, &error);
    ASSERT_TRUE(plan.has_value()) << good << ": " << error;
    const auto again = support::ClientChaosPlan::parse(plan->toSpec());
    ASSERT_TRUE(again.has_value()) << good;
    EXPECT_EQ(again->action, plan->action) << good;
    EXPECT_EQ(again->after_results, plan->after_results) << good;
    EXPECT_EQ(again->delay_ms, plan->delay_ms) << good;
  }
}

// ---- Frame protocol -------------------------------------------------------

namespace wire = support::wire;

bool decodeSupervisorFrame(const std::string& frame, std::uint8_t* kind,
                           std::string* payload, std::string* error) {
  return wire::decodeFrame(kSupervisorFrameFormat, frame, nullptr, kind,
                           payload, error);
}

wire::FrameScan scanSupervisorFrame(const std::string& buf,
                                    std::size_t* frame_bytes,
                                    std::string* error) {
  return wire::scanFrame(kSupervisorFrameFormat, buf, frame_bytes, error);
}

// Both reply kinds round-trip with the cell-tagged payload a worker
// sends: the reply header (cell, rusage) and the producer's bytes.
TEST(SupervisorFrame, RoundTripsBothKinds) {
  PoolReplyHeader header;
  header.cell = 123456789012ull;
  header.user_seconds = 1.25;
  header.sys_seconds = 0.5;
  header.max_rss_kb = 123456;
  for (const std::uint8_t kind :
       {kFrameKindPooledReply, kFrameKindPooledError}) {
    for (const std::string& inner : {std::string(), std::string("hello"),
                                     std::string(1000, '\x7f')}) {
      const std::string frame =
          encodeSupervisorFrame(kind, encodePoolReply(header, inner));
      std::size_t frame_bytes = 0;
      std::string error;
      ASSERT_EQ(scanSupervisorFrame(frame, &frame_bytes, &error),
                wire::FrameScan::kFrame)
          << error;
      EXPECT_EQ(frame_bytes, frame.size());
      std::uint8_t got_kind = 0xff;
      std::string payload;
      ASSERT_TRUE(decodeSupervisorFrame(frame, &got_kind, &payload, &error))
          << error;
      EXPECT_EQ(got_kind, kind);
      PoolReplyHeader got;
      std::string got_inner;
      ASSERT_TRUE(decodePoolReply(payload, &got, &got_inner));
      EXPECT_EQ(got.cell, header.cell);
      EXPECT_EQ(got.user_seconds, 1.25);
      EXPECT_EQ(got.sys_seconds, 0.5);
      EXPECT_EQ(got.max_rss_kb, 123456);
      EXPECT_EQ(got_inner, inner);
    }
  }
  PoolReplyHeader got;
  std::string inner;
  EXPECT_FALSE(decodePoolReply("too-short", &got, &inner));
}

TEST(SupervisorFrame, DetectsCorruption) {
  const std::string frame =
      encodeSupervisorFrame(kFrameKindPooledReply, "checksummed-payload");
  std::string error;

  // Empty and short replies.
  EXPECT_FALSE(decodeSupervisorFrame("", nullptr, nullptr, &error));
  EXPECT_NE(error.find("too short"), std::string::npos) << error;
  EXPECT_FALSE(decodeSupervisorFrame(frame.substr(0, 10), nullptr, nullptr,
                                     &error));
  EXPECT_NE(error.find("too short"), std::string::npos) << error;

  // Truncated past the header: the length field disagrees.
  EXPECT_FALSE(decodeSupervisorFrame(frame.substr(0, frame.size() - 3),
                                     nullptr, nullptr, &error));
  EXPECT_NE(error.find("does not match"), std::string::npos) << error;

  // Trailing junk is corruption too, not ignored.
  EXPECT_FALSE(decodeSupervisorFrame(frame + "x", nullptr, nullptr, &error));

  // A flipped payload byte fails the checksum.
  std::string flipped = frame;
  flipped[20] = static_cast<char>(flipped[20] ^ 0x40);
  EXPECT_FALSE(decodeSupervisorFrame(flipped, nullptr, nullptr, &error));
  EXPECT_NE(error.find("checksum mismatch"), std::string::npos) << error;

  // Bad magic and unsupported version.
  std::string bad_magic = frame;
  bad_magic[0] = 'X';
  EXPECT_FALSE(decodeSupervisorFrame(bad_magic, nullptr, nullptr, &error));
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
  std::string bad_version = frame;
  bad_version[4] = 9;
  EXPECT_FALSE(decodeSupervisorFrame(bad_version, nullptr, nullptr, &error));
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

// SPTW has one version and three kinds. Every other version — the retired
// 1 and 2 included — and kinds 0-2 (or past 5) are refused by the decoder
// and by the stream scanner, which needs only the header bytes that
// carry them.
TEST(SupervisorFrame, ValidatesKindAgainstVersion) {
  const std::string good =
      encodeSupervisorFrame(kFrameKindPooledReply, "x");
  for (const std::uint32_t version :
       {0u, 1u, 2u, 4u, 9u, 0xffffffffu}) {
    std::string frame = good;
    std::memcpy(frame.data() + 4, &version, sizeof version);
    const std::string want =
        "unsupported frame version " + std::to_string(version);
    std::string error;
    EXPECT_FALSE(decodeSupervisorFrame(frame, nullptr, nullptr, &error));
    EXPECT_NE(error.find(want), std::string::npos) << error;
    for (const std::size_t prefix : {std::size_t{8}, frame.size()}) {
      error.clear();
      EXPECT_EQ(scanSupervisorFrame(frame.substr(0, prefix), nullptr, &error),
                wire::FrameScan::kCorrupt)
          << "version " << version << ", " << prefix << " bytes";
      EXPECT_NE(error.find(want), std::string::npos) << error;
    }
  }
  for (const std::uint8_t kind : {std::uint8_t{0}, std::uint8_t{1},
                                  std::uint8_t{2}, std::uint8_t{6},
                                  std::uint8_t{255}}) {
    const std::string frame = encodeSupervisorFrame(kind, "x");
    std::string error;
    EXPECT_FALSE(decodeSupervisorFrame(frame, nullptr, nullptr, &error));
    EXPECT_NE(error.find("not valid in frame version 3"), std::string::npos)
        << error;
    for (const std::size_t prefix : {std::size_t{9}, frame.size()}) {
      error.clear();
      EXPECT_EQ(scanSupervisorFrame(frame.substr(0, prefix), nullptr, &error),
                wire::FrameScan::kCorrupt)
          << "kind " << unsigned{kind} << ", " << prefix << " bytes";
      EXPECT_NE(error.find("not valid in frame version 3"),
                std::string::npos)
          << error;
    }
  }
  // The three assigned kinds pass both.
  for (const std::uint8_t kind : {kFrameKindPooledReply, kFrameKindPooledError,
                                  kFrameKindSpecRequest}) {
    const std::string frame = encodeSupervisorFrame(kind, "x");
    std::string error;
    EXPECT_EQ(scanSupervisorFrame(frame, nullptr, &error),
              wire::FrameScan::kFrame)
        << error;
    EXPECT_TRUE(decodeSupervisorFrame(frame, nullptr, nullptr, &error))
        << error;
  }
}

// Spec requests round-trip: token, attempt, chaos action, and opaque
// spec bytes — and an out-of-range action byte is rejected.
TEST(SupervisorFrame, SpecRequestRoundTrips) {
  const std::string spec("machine\0config\x7f bytes", 21);
  const std::string payload = encodePoolSpecRequest(
      0xfeedface12345678ull, 3, support::ChaosAction::kGarbage, spec);
  std::uint64_t id = 0;
  std::uint32_t attempt = 0;
  support::ChaosAction chaos = support::ChaosAction::kNone;
  std::string got_spec;
  ASSERT_TRUE(decodePoolSpecRequest(payload, &id, &attempt, &chaos, &got_spec));
  EXPECT_EQ(id, 0xfeedface12345678ull);
  EXPECT_EQ(attempt, 3u);
  EXPECT_EQ(chaos, support::ChaosAction::kGarbage);
  EXPECT_EQ(got_spec, spec);

  // Survives the frame layer.
  const std::string frame =
      encodeSupervisorFrame(kFrameKindSpecRequest, payload);
  std::uint8_t kind = 0;
  std::string decoded;
  std::string error;
  ASSERT_TRUE(decodeSupervisorFrame(frame, &kind, &decoded, &error)) << error;
  EXPECT_EQ(kind, kFrameKindSpecRequest);
  EXPECT_EQ(decoded, payload);

  // A corrupt action byte fails the decode instead of casting blind.
  std::string bad = payload;
  bad[12] = 0x7f;
  EXPECT_FALSE(decodePoolSpecRequest(bad, &id, &attempt, &chaos, &got_spec));

  // Truncated prefix fails.
  EXPECT_FALSE(decodePoolSpecRequest(payload.substr(0, 12), &id, &attempt,
                                     &chaos, &got_spec));
}

TEST(SupervisorFrame, StreamScannerFindsFramesIncrementally) {
  const std::string a = encodeSupervisorFrame(kFrameKindPooledReply, "first");
  const std::string b =
      encodeSupervisorFrame(kFrameKindPooledError, "second");

  // Every strict prefix of a frame scans as need-more, never corrupt.
  for (std::size_t cut = 0; cut < a.size(); ++cut) {
    std::size_t frame_bytes = 0;
    EXPECT_EQ(scanSupervisorFrame(a.substr(0, cut), &frame_bytes, nullptr),
              wire::FrameScan::kNeedMore)
        << "prefix length " << cut;
  }

  // Two concatenated frames come out one at a time.
  std::string stream = a + b;
  std::size_t frame_bytes = 0;
  ASSERT_EQ(scanSupervisorFrame(stream, &frame_bytes, nullptr),
            wire::FrameScan::kFrame);
  EXPECT_EQ(frame_bytes, a.size());
  EXPECT_EQ(stream.substr(0, frame_bytes), a);
  stream.erase(0, frame_bytes);
  ASSERT_EQ(scanSupervisorFrame(stream, &frame_bytes, nullptr),
            wire::FrameScan::kFrame);
  EXPECT_EQ(frame_bytes, b.size());

  // Garbage is rejected from the very first wrong byte.
  std::string error;
  EXPECT_EQ(scanSupervisorFrame("Z", nullptr, &error),
            wire::FrameScan::kCorrupt);
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
  std::string bad_version = a;
  bad_version[4] = 9;
  EXPECT_EQ(scanSupervisorFrame(bad_version, nullptr, &error),
            wire::FrameScan::kCorrupt);
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

// ---- Cell payload codec ---------------------------------------------------

TEST(CellCodec, SweepRowRoundTrips) {
  SweepRow row;
  row.benchmark = "bzip2";
  row.config = "srb=64";
  row.status = CellStatus::kBudgetExceeded;
  row.diagnostic = "budget exceeded: simulated cycles 1001/1000";
  row.result.baseline.cycles = 320728;
  row.result.baseline.instrs = 123456;
  row.result.baseline.breakdown.execution = 7;
  row.result.spt.cycles = 254740;
  row.result.spt.threads.spawned = 3449;
  row.result.spt.threads.fast_commits = 2738;
  row.result.spt.faults.injected = 5;
  row.result.spt.arch_digest = 0xdeadbeefcafe;
  row.extra["coverage"] = 0.625;
  row.extra["ratio"] = -1.5;

  SweepRow got;
  ASSERT_TRUE(decodeSweepRow(encodeSweepRow(row), &got));
  EXPECT_EQ(got.benchmark, row.benchmark);
  EXPECT_EQ(got.config, row.config);
  EXPECT_EQ(got.status, row.status);
  EXPECT_EQ(got.diagnostic, row.diagnostic);
  EXPECT_EQ(got.result.baseline.cycles, row.result.baseline.cycles);
  EXPECT_EQ(got.result.baseline.breakdown.execution,
            row.result.baseline.breakdown.execution);
  EXPECT_EQ(got.result.spt.cycles, row.result.spt.cycles);
  EXPECT_EQ(got.result.spt.threads.spawned, row.result.spt.threads.spawned);
  EXPECT_EQ(got.result.spt.threads.fast_commits,
            row.result.spt.threads.fast_commits);
  EXPECT_EQ(got.result.spt.faults.injected, row.result.spt.faults.injected);
  EXPECT_EQ(got.result.spt.arch_digest, row.result.spt.arch_digest);
  EXPECT_EQ(got.extra, row.extra);
}

TEST(CellCodec, CampaignCellRoundTrips) {
  FaultCampaignCell cell;
  cell.benchmark = "mcf";
  cell.fault_seed = 0x5eed5eed;
  cell.status = CellStatus::kInternalError;
  cell.diagnostic = "architectural oracle divergence at fast_commit";
  cell.faults.injected = 12;
  cell.faults.detected_by_net = 10;
  cell.faults.benign = 2;
  cell.arch_digest = 111;
  cell.sequential_digest = 222;
  cell.oracle_checks = 99;
  cell.digest_match = false;
  cell.diverged = true;
  cell.divergence_pos = 4242;
  cell.divergence_boundary = "fast_commit";
  cell.divergence_diff = "reg r3: 7 != 9";

  FaultCampaignCell got;
  ASSERT_TRUE(decodeCampaignCell(encodeCampaignCell(cell), &got));
  EXPECT_EQ(got.benchmark, cell.benchmark);
  EXPECT_EQ(got.fault_seed, cell.fault_seed);
  EXPECT_EQ(got.status, cell.status);
  EXPECT_EQ(got.diagnostic, cell.diagnostic);
  EXPECT_EQ(got.faults.injected, cell.faults.injected);
  EXPECT_EQ(got.faults.detected_by_net, cell.faults.detected_by_net);
  EXPECT_EQ(got.faults.benign, cell.faults.benign);
  EXPECT_EQ(got.arch_digest, cell.arch_digest);
  EXPECT_EQ(got.sequential_digest, cell.sequential_digest);
  EXPECT_EQ(got.oracle_checks, cell.oracle_checks);
  EXPECT_FALSE(got.digest_match);
  EXPECT_TRUE(got.diverged);
  EXPECT_EQ(got.divergence_pos, cell.divergence_pos);
  EXPECT_EQ(got.divergence_boundary, cell.divergence_boundary);
  EXPECT_EQ(got.divergence_diff, cell.divergence_diff);
}

TEST(CellCodec, RejectsCorruptPayloads) {
  SweepRow row;
  row.benchmark = "gzip";
  const std::string payload = encodeSweepRow(row);

  SweepRow out;
  // Truncation at every prefix length must fail, never crash or zero-fill.
  for (const std::size_t cut : {std::size_t{0}, std::size_t{1},
                                payload.size() / 2, payload.size() - 1}) {
    EXPECT_FALSE(decodeSweepRow(payload.substr(0, cut), &out)) << cut;
  }
  // Trailing bytes and a wrong tag fail too.
  EXPECT_FALSE(decodeSweepRow(payload + "z", &out));
  std::string wrong_tag = payload;
  wrong_tag[0] = 'F';
  EXPECT_FALSE(decodeSweepRow(wrong_tag, &out));
  // A sweep payload is not a campaign payload.
  FaultCampaignCell cell;
  EXPECT_FALSE(decodeCampaignCell(payload, &cell));
}

// ---- Supervisor containment ----------------------------------------------

// The full chaos matrix: every sabotaged worker dies in its own way and
// lands in its own containment status while the healthy cell completes.
TEST(Supervisor, ChaosMatrixYieldsExtendedStatuses) {
  if (!Supervisor::isolationSupported()) {
    GTEST_SKIP() << "no fork on this platform";
  }
  SupervisorOptions opts;
  opts.isolate = true;
  opts.jobs = 3;
  opts.cell_timeout_seconds = 2.0;
  opts.chaos =
      *support::ChaosPlan::parse("1:crash,2:hang,3:garbage,4:partial,5:exit");
  const Supervisor sup(opts);

  Supervisor::PoolStats stats;
  const auto outcomes = sup.run(
      6, [](std::size_t cell) { return "cell-" + std::to_string(cell); },
      nullptr, &stats);
  ASSERT_EQ(outcomes.size(), 6u);

  // Healthy cell: valid frame, payload intact.
  EXPECT_EQ(outcomes[0].status, CellStatus::kOk);
  EXPECT_EQ(outcomes[0].payload, "cell-0");
  EXPECT_EQ(outcomes[0].worker.attempts, 1u);
  EXPECT_EQ(outcomes[0].worker.exit_code, 0);

  // Segfault: signal death with the signal recorded.
  EXPECT_EQ(outcomes[1].status, CellStatus::kCrashed);
  EXPECT_EQ(outcomes[1].worker.term_signal, SIGSEGV);
  EXPECT_NE(outcomes[1].diagnostic.find("signal"), std::string::npos)
      << outcomes[1].diagnostic;

  // Hang: the watchdog SIGKILLs it at the deadline.
  EXPECT_EQ(outcomes[2].status, CellStatus::kTimeout);
  EXPECT_TRUE(outcomes[2].worker.timed_out);
  EXPECT_EQ(outcomes[2].worker.term_signal, SIGKILL);
  EXPECT_NE(outcomes[2].diagnostic.find("wall-clock"), std::string::npos)
      << outcomes[2].diagnostic;

  // Garbage reply: frame validation fails, first bytes are dumped.
  EXPECT_EQ(outcomes[3].status, CellStatus::kProtocolError);
  EXPECT_NE(outcomes[3].diagnostic.find("magic"), std::string::npos)
      << outcomes[3].diagnostic;
  EXPECT_FALSE(outcomes[3].worker.partial_reply.empty());

  // Truncated frame prefix.
  EXPECT_EQ(outcomes[4].status, CellStatus::kProtocolError);
  EXPECT_NE(outcomes[4].diagnostic.find("short reply"), std::string::npos)
      << outcomes[4].diagnostic;
  EXPECT_FALSE(outcomes[4].worker.partial_reply.empty());

  // Exit without replying: protocol error carrying the exit code.
  EXPECT_EQ(outcomes[5].status, CellStatus::kProtocolError);
  EXPECT_EQ(outcomes[5].worker.exit_code, 3);
  EXPECT_NE(outcomes[5].diagnostic.find("empty reply"), std::string::npos)
      << outcomes[5].diagnostic;

  // Dead workers are replaced one for one while cells remain: the crash
  // lands while the hang is still in flight, and the last death need not
  // be replaced.
  EXPECT_GE(stats.workers_respawned, 1u);
  EXPECT_LE(stats.workers_respawned, 5u);
  EXPECT_EQ(stats.workers_spawned, 3u + stats.workers_respawned);
}

// An empty run (a fully resumed sweep or campaign) forks no worker.
TEST(Supervisor, EmptyRunForksNoWorker) {
  if (!Supervisor::isolationSupported()) {
    GTEST_SKIP() << "no fork on this platform";
  }
  SupervisorOptions opts;
  opts.isolate = true;
  opts.jobs = 4;
  const Supervisor sup(opts);
  Supervisor::PoolStats stats;
  stats.workers_spawned = 99;  // run() must reset it
  const auto outcomes = sup.run(
      0, [](std::size_t) -> std::string { throw std::logic_error("no cell"); },
      nullptr, &stats);
  EXPECT_TRUE(outcomes.empty());
  EXPECT_EQ(stats.workers_spawned, 0u);
  EXPECT_EQ(stats.workers_respawned, 0u);
}

TEST(Supervisor, RetriesTransientFailureThenSucceeds) {
  if (!Supervisor::isolationSupported()) {
    GTEST_SKIP() << "no fork on this platform";
  }
  SupervisorOptions opts;
  opts.isolate = true;
  opts.retries = 2;
  opts.backoff_base_seconds = 0.01;
  opts.chaos = *support::ChaosPlan::parse("0:crash@1");  // first attempt only
  const Supervisor sup(opts);

  const auto outcomes =
      sup.run(1, [](std::size_t) { return std::string("recovered"); });
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].status, CellStatus::kOk);
  EXPECT_EQ(outcomes[0].payload, "recovered");
  EXPECT_EQ(outcomes[0].worker.attempts, 2u);
}

TEST(Supervisor, RetryExhaustionKeepsFinalStatus) {
  if (!Supervisor::isolationSupported()) {
    GTEST_SKIP() << "no fork on this platform";
  }
  SupervisorOptions opts;
  opts.isolate = true;
  opts.retries = 2;
  opts.backoff_base_seconds = 0.01;
  opts.chaos = *support::ChaosPlan::parse("0:exit");  // every attempt
  const Supervisor sup(opts);

  const auto outcomes =
      sup.run(1, [](std::size_t) { return std::string("never"); });
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].status, CellStatus::kProtocolError);
  EXPECT_EQ(outcomes[0].worker.attempts, 3u);  // 1 + 2 retries
}

TEST(Supervisor, WorkerExceptionBecomesStructuredInternalError) {
  if (!Supervisor::isolationSupported()) {
    GTEST_SKIP() << "no fork on this platform";
  }
  const Supervisor sup(SupervisorOptions{});
  const auto outcomes = sup.run(2, [](std::size_t cell) -> std::string {
    if (cell == 1) throw std::runtime_error("boom in worker 1");
    return "fine";
  });
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].status, CellStatus::kOk);
  EXPECT_EQ(outcomes[1].status, CellStatus::kInternalError);
  EXPECT_NE(outcomes[1].diagnostic.find("boom in worker 1"),
            std::string::npos)
      << outcomes[1].diagnostic;
  // A structured worker error is the cell's own failure, not a transport
  // failure: it must not be retried.
  EXPECT_EQ(outcomes[1].worker.attempts, 1u);
}

TEST(Supervisor, BackoffIsDeterministicAndExponential) {
  SupervisorOptions opts;
  opts.backoff_base_seconds = 0.25;
  for (std::size_t cell = 0; cell < 4; ++cell) {
    for (std::uint32_t attempt = 2; attempt <= 5; ++attempt) {
      const double d = backoffSeconds(opts, cell, attempt);
      EXPECT_EQ(d, backoffSeconds(opts, cell, attempt));
      // base * 2^(attempt-2) * (1 + jitter), jitter in [0, 1).
      const double floor = 0.25 * static_cast<double>(1u << (attempt - 2));
      EXPECT_GE(d, floor) << "cell " << cell << " attempt " << attempt;
      EXPECT_LT(d, 2.0 * floor) << "cell " << cell << " attempt " << attempt;
    }
  }
  // A different seed produces different jitter somewhere.
  SupervisorOptions other = opts;
  other.backoff_seed = 0x1234;
  bool any_diff = false;
  for (std::size_t cell = 0; cell < 4 && !any_diff; ++cell) {
    any_diff =
        backoffSeconds(opts, cell, 2) != backoffSeconds(other, cell, 2);
  }
  EXPECT_TRUE(any_diff);
  // First attempt needs no backoff.
  EXPECT_EQ(backoffSeconds(opts, 0, 1), 0.0);
}

// Regression for the old `cell * 64 + attempt` jitter seed: (cell 0,
// attempt 66) and (cell 1, attempt 2) packed to the same seed and shared
// a jitter stream, and `1ull << (attempt - 2)` was UB from attempt 66 on.
TEST(Supervisor, BackoffSeedDoesNotCollideAcrossCells) {
  const SupervisorOptions opts{};
  // The old packing's collision pairs must now differ (modulo the scaled
  // floor): compare the jitter fraction, which is seed-determined.
  const auto jitter = [&](std::size_t cell, std::uint32_t attempt) {
    const double floor =
        0.25 * static_cast<double>(1ull << std::min<std::uint32_t>(
                                       attempt - 2, 62));
    return backoffSeconds(opts, cell, attempt) / floor - 1.0;
  };
  EXPECT_NE(jitter(0, 66), jitter(1, 2));
  EXPECT_NE(jitter(0, 130), jitter(2, 2));
  EXPECT_NE(jitter(1, 66), jitter(2, 2));

  // Huge attempt numbers are finite (clamped exponent), monotone-capped,
  // and UBSan-clean.
  const double capped = backoffSeconds(opts, 0, 64);
  for (const std::uint32_t attempt : {66u, 80u, 1000u, ~0u}) {
    const double d = backoffSeconds(opts, 0, attempt);
    EXPECT_TRUE(std::isfinite(d)) << attempt;
    EXPECT_GT(d, 0.0) << attempt;
    // Past the clamp, only the jitter varies: within 2x of the cap value.
    EXPECT_LT(d, 2.0 * capped) << attempt;
  }
}

TEST(Supervisor, SettleHookFiresOncePerCellWithRusage) {
  if (!Supervisor::isolationSupported()) {
    GTEST_SKIP() << "no fork on this platform";
  }
  const Supervisor sup(SupervisorOptions{});
  std::vector<int> settled(4, 0);
  const auto outcomes = sup.run(
      4, [](std::size_t cell) { return std::to_string(cell * cell); },
      [&](std::size_t cell, const Supervisor::Outcome& oc) {
        ASSERT_LT(cell, settled.size());
        settled[cell] += 1;
        EXPECT_EQ(oc.status, CellStatus::kOk);
      });
  for (const int count : settled) EXPECT_EQ(count, 1);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].payload, std::to_string(i * i));
    // wait4 rusage made it into the diagnostics.
    EXPECT_GT(outcomes[i].worker.host_max_rss_kb, 0);
  }
}

// ---- Warm worker pool -----------------------------------------------------

TEST(SupervisorPool, WorkersAreReusedAcrossCells) {
  if (!Supervisor::isolationSupported()) {
    GTEST_SKIP() << "no fork on this platform";
  }
  SupervisorOptions opts;
  opts.isolate = true;
  opts.jobs = 3;
  const Supervisor sup(opts);

  Supervisor::PoolStats stats;
  const auto outcomes = sup.run(
      12, [](std::size_t) { return std::to_string(::getpid()); }, nullptr,
      &stats);
  ASSERT_EQ(outcomes.size(), 12u);

  std::set<std::string> pids;
  for (const auto& oc : outcomes) {
    ASSERT_EQ(oc.status, CellStatus::kOk) << oc.diagnostic;
    EXPECT_EQ(oc.worker.exit_code, 0);
    pids.insert(oc.payload);
  }
  // 12 cells ran on at most 3 long-lived processes: the pool reused
  // workers instead of forking per cell.
  EXPECT_LE(pids.size(), 3u);
  EXPECT_EQ(stats.workers_spawned, 3u);
  EXPECT_EQ(stats.workers_respawned, 0u);
}

TEST(SupervisorPool, PoolIsCappedAtCellCount) {
  if (!Supervisor::isolationSupported()) {
    GTEST_SKIP() << "no fork on this platform";
  }
  SupervisorOptions opts;
  opts.isolate = true;
  opts.jobs = 8;
  const Supervisor sup(opts);
  Supervisor::PoolStats stats;
  const auto outcomes =
      sup.run(2, [](std::size_t c) { return std::to_string(c); }, nullptr,
              &stats);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(stats.workers_spawned, 2u);  // no idle workers for a 2-cell run
}

// Regression: RLIMIT_CPU counts cumulative process CPU, so a pooled
// worker re-arms its soft limit before every cell. The re-arm must leave
// the hard limit alone — an unprivileged process cannot raise rlim_max,
// so setting it would freeze the CPU window at the first cell's budget
// and SIGXCPU-kill a healthy worker once total CPU crossed it (reported
// as a spurious kTimeout).
TEST(SupervisorPool, CpuLimitReArmsAcrossCells) {
  if (!Supervisor::isolationSupported()) {
    GTEST_SKIP() << "no fork on this platform";
  }
  SupervisorOptions opts;
  opts.isolate = true;
  opts.jobs = 1;                // one long-lived worker accumulates CPU
  opts.rlimit_cpu_seconds = 1;  // per-cell budget, above one cell's burn
  const Supervisor sup(opts);

  // 8 cells x ~0.7s CPU: cumulative ~5.6s, far past any window frozen at
  // the first re-arm (2s soft / 3s hard) even on kernels that deliver
  // RLIMIT_CPU signals a couple of seconds late, while each cell stays
  // well inside its own re-armed window.
  constexpr std::size_t kCells = 8;
  Supervisor::PoolStats stats;
  const auto outcomes = sup.run(
      kCells,
      [](std::size_t cell) {
        if (cell == 0) {
          // Drop root inside the long-lived worker (best-effort; a no-op
          // when the test already runs unprivileged). Root may raise its
          // own hard limit, which would mask the frozen-window failure
          // mode this test exists to catch.
          (void)!::setuid(65534);
        }
        rusage ru{};
        ::getrusage(RUSAGE_SELF, &ru);
        const double start = ru.ru_utime.tv_sec + ru.ru_utime.tv_usec / 1e6 +
                             ru.ru_stime.tv_sec + ru.ru_stime.tv_usec / 1e6;
        volatile std::uint64_t sink = 0;
        for (;;) {
          for (int i = 0; i < 1'000'000; ++i) {
            sink += static_cast<std::uint64_t>(i);
          }
          ::getrusage(RUSAGE_SELF, &ru);
          const double now = ru.ru_utime.tv_sec + ru.ru_utime.tv_usec / 1e6 +
                             ru.ru_stime.tv_sec + ru.ru_stime.tv_usec / 1e6;
          if (now - start >= 0.7) break;
        }
        return std::to_string(cell);
      },
      nullptr, &stats);

  ASSERT_EQ(outcomes.size(), kCells);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].status, CellStatus::kOk)
        << "cell " << i << ": " << outcomes[i].diagnostic;
    EXPECT_EQ(outcomes[i].payload, std::to_string(i));
  }
  // No SIGXCPU deaths: the single worker survived the whole run.
  EXPECT_EQ(stats.workers_spawned, 1u);
  EXPECT_EQ(stats.workers_respawned, 0u);
}

// Each chaos action against a pooled worker must kill and respawn exactly
// one worker while the rest of the pool keeps draining the queue.
TEST(SupervisorPool, ChaosKillsAndRespawnsExactlyOneWorker) {
  if (!Supervisor::isolationSupported()) {
    GTEST_SKIP() << "no fork on this platform";
  }
  for (const char* action : {"crash", "abort", "garbage", "partial", "exit"}) {
    SupervisorOptions opts;
    opts.isolate = true;
    opts.jobs = 2;
    opts.chaos = *support::ChaosPlan::parse(std::string("1:") + action);
    const Supervisor sup(opts);

    Supervisor::PoolStats stats;
    const auto outcomes = sup.run(
        6, [](std::size_t c) { return "cell-" + std::to_string(c); }, nullptr,
        &stats);
    ASSERT_EQ(outcomes.size(), 6u) << action;
    for (std::size_t i = 0; i < 6; ++i) {
      if (i == 1) {
        EXPECT_TRUE(isTransportFailure(outcomes[i].status))
            << action << ": " << toString(outcomes[i].status);
      } else {
        EXPECT_EQ(outcomes[i].status, CellStatus::kOk)
            << action << " cell " << i << ": " << outcomes[i].diagnostic;
        EXPECT_EQ(outcomes[i].payload, "cell-" + std::to_string(i));
      }
    }
    // Initial fill of 2, plus exactly the one replacement for the worker
    // the sabotaged cell took down.
    EXPECT_EQ(stats.workers_respawned, 1u) << action;
    EXPECT_EQ(stats.workers_spawned, 3u) << action;
  }
}

// The chaos matrix contains each cell the same way whether every cell gets
// its own freshly forked worker (jobs == cells, the fork-per-cell shape) or
// one pooled worker serves the healthy cell and is respawned after every
// sabotaged one.
TEST(SupervisorPool, ChaosMatrixMatchesForkedStatuses) {
  if (!Supervisor::isolationSupported()) {
    GTEST_SKIP() << "no fork on this platform";
  }
  constexpr std::size_t kCells = 6;
  const auto runMatrix = [](std::size_t jobs, Supervisor::PoolStats* stats) {
    SupervisorOptions opts;
    opts.isolate = true;
    opts.jobs = jobs;
    opts.cell_timeout_seconds = 2.0;
    opts.chaos = *support::ChaosPlan::parse(
        "1:crash,2:hang,3:garbage,4:partial,5:exit");
    const Supervisor sup(opts);
    return sup.run(
        kCells, [](std::size_t cell) { return "cell-" + std::to_string(cell); },
        nullptr, stats);
  };

  Supervisor::PoolStats forked_stats;
  Supervisor::PoolStats pooled_stats;
  const auto forked = runMatrix(kCells, &forked_stats);
  const auto pooled = runMatrix(1, &pooled_stats);
  ASSERT_EQ(forked.size(), kCells);
  ASSERT_EQ(pooled.size(), kCells);

  // The initial fill is one worker per cell in the forked shape and a
  // single worker in the pooled one, which must be replaced after each of
  // the first four deaths for the next cell to run at all.
  EXPECT_EQ(forked_stats.workers_spawned,
            kCells + forked_stats.workers_respawned);
  EXPECT_EQ(pooled_stats.workers_spawned,
            1u + pooled_stats.workers_respawned);
  EXPECT_GE(pooled_stats.workers_respawned, 4u);
  EXPECT_LE(pooled_stats.workers_respawned, 5u);

  for (std::size_t i = 0; i < kCells; ++i) {
    EXPECT_EQ(pooled[i].status, forked[i].status)
        << "cell " << i << ": " << pooled[i].diagnostic << " vs "
        << forked[i].diagnostic;
    EXPECT_EQ(pooled[i].payload, forked[i].payload) << "cell " << i;
    EXPECT_EQ(pooled[i].worker.attempts, forked[i].worker.attempts)
        << "cell " << i;
    EXPECT_EQ(pooled[i].worker.timed_out, forked[i].worker.timed_out)
        << "cell " << i;
    EXPECT_EQ(pooled[i].worker.partial_reply.empty(),
              forked[i].worker.partial_reply.empty())
        << "cell " << i;
  }

  // A worker that replied garbage or a torn frame may exit on its own or
  // be killed first, so only the deaths that define a cell's status are
  // compared field by field.
  EXPECT_EQ(pooled[0].worker.exit_code, forked[0].worker.exit_code);
  EXPECT_EQ(pooled[1].worker.term_signal, forked[1].worker.term_signal);
  EXPECT_EQ(pooled[2].worker.term_signal, forked[2].worker.term_signal);
  EXPECT_EQ(pooled[5].worker.exit_code, forked[5].worker.exit_code);

  EXPECT_EQ(pooled[0].status, CellStatus::kOk);
  EXPECT_EQ(pooled[0].payload, "cell-0");
  EXPECT_EQ(pooled[1].status, CellStatus::kCrashed);
  EXPECT_EQ(pooled[1].worker.term_signal, SIGSEGV);
  EXPECT_EQ(pooled[2].status, CellStatus::kTimeout);
  EXPECT_EQ(pooled[2].worker.term_signal, SIGKILL);
  EXPECT_NE(pooled[2].diagnostic.find("wall-clock"), std::string::npos)
      << pooled[2].diagnostic;
  EXPECT_EQ(pooled[3].status, CellStatus::kProtocolError);
  EXPECT_NE(pooled[3].diagnostic.find("magic"), std::string::npos)
      << pooled[3].diagnostic;
  EXPECT_EQ(pooled[4].status, CellStatus::kProtocolError);
  EXPECT_NE(pooled[4].diagnostic.find("short reply"), std::string::npos)
      << pooled[4].diagnostic;
  EXPECT_EQ(pooled[5].status, CellStatus::kProtocolError);
  EXPECT_EQ(pooled[5].worker.exit_code, 3);
  EXPECT_NE(pooled[5].diagnostic.find("empty reply"), std::string::npos)
      << pooled[5].diagnostic;
}

// Chaos targets (cell, attempt), not worker processes: a
// first-attempt-only crash retries onto a healthy respawned worker.
TEST(SupervisorPool, RetriesTransientFailureOnRespawnedWorker) {
  if (!Supervisor::isolationSupported()) {
    GTEST_SKIP() << "no fork on this platform";
  }
  SupervisorOptions opts;
  opts.isolate = true;
  opts.jobs = 2;
  opts.retries = 2;
  opts.backoff_base_seconds = 0.01;
  opts.chaos = *support::ChaosPlan::parse("0:crash@1");
  const Supervisor sup(opts);

  Supervisor::PoolStats stats;
  const auto outcomes = sup.run(
      2, [](std::size_t) { return std::string("recovered"); }, nullptr,
      &stats);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].status, CellStatus::kOk);
  EXPECT_EQ(outcomes[0].payload, "recovered");
  EXPECT_EQ(outcomes[0].worker.attempts, 2u);
  EXPECT_EQ(outcomes[1].status, CellStatus::kOk);
  EXPECT_GE(stats.workers_respawned, 1u);
}

TEST(SupervisorPool, WorkerExceptionBecomesStructuredInternalError) {
  if (!Supervisor::isolationSupported()) {
    GTEST_SKIP() << "no fork on this platform";
  }
  SupervisorOptions opts;
  const Supervisor sup(opts);
  Supervisor::PoolStats stats;
  const auto outcomes = sup.run(
      3,
      [](std::size_t cell) -> std::string {
        if (cell == 1) throw std::runtime_error("boom in pooled worker");
        return "fine";
      },
      nullptr, &stats);
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_EQ(outcomes[0].status, CellStatus::kOk);
  EXPECT_EQ(outcomes[1].status, CellStatus::kInternalError);
  EXPECT_NE(outcomes[1].diagnostic.find("boom in pooled worker"),
            std::string::npos)
      << outcomes[1].diagnostic;
  EXPECT_EQ(outcomes[1].worker.attempts, 1u);  // cell failure: no retry
  EXPECT_EQ(outcomes[2].status, CellStatus::kOk);
  // A structured error crosses the pipe as a frame; the worker survives.
  EXPECT_EQ(stats.workers_respawned, 0u);
}

TEST(SupervisorPool, PooledRepliesCarrySelfReportedRusage) {
  if (!Supervisor::isolationSupported()) {
    GTEST_SKIP() << "no fork on this platform";
  }
  SupervisorOptions opts;
  const Supervisor sup(opts);
  const auto outcomes =
      sup.run(2, [](std::size_t c) { return std::to_string(c); });
  for (const auto& oc : outcomes) {
    ASSERT_EQ(oc.status, CellStatus::kOk);
    EXPECT_GT(oc.worker.host_max_rss_kb, 0);
    EXPECT_GE(oc.worker.host_user_seconds, 0.0);
    EXPECT_GE(oc.worker.host_sys_seconds, 0.0);
  }
}

// ---- Supervised sweep end-to-end -----------------------------------------

TEST(SupervisedSweep, ContainsChaosWhileOtherCellsComplete) {
  if (!Supervisor::isolationSupported()) {
    GTEST_SKIP() << "no fork on this platform";
  }
  std::vector<SweepCase> cases;
  {
    SweepCase healthy;
    healthy.benchmark = "crafty";
    healthy.entry = entryByName("crafty");
    cases.push_back(std::move(healthy));
  }
  {
    SweepCase sabotaged;
    sabotaged.benchmark = "vortex";
    sabotaged.entry = entryByName("vortex");
    cases.push_back(std::move(sabotaged));
  }
  {
    SweepCase blowout;
    blowout.benchmark = "bzip2";
    blowout.config = "tiny-budget";
    blowout.entry = entryByName("bzip2");
    blowout.machine.max_simulated_cycles = 1000;
    cases.push_back(std::move(blowout));
  }

  SweepOptions opts;
  opts.checkpoint_path = ::testing::TempDir() + "/spt_supervised_ck.txt";
  opts.supervisor.isolate = true;
  opts.supervisor.cell_timeout_seconds = 240.0;
  opts.supervisor.chaos = *support::ChaosPlan::parse("1:crash");
  const auto rows = runSweep(ParallelSweep(3), cases, opts);
  ASSERT_EQ(rows.size(), 3u);

  // The healthy cell's full result crossed the pipe.
  EXPECT_EQ(rows[0].status, CellStatus::kOk);
  EXPECT_GT(rows[0].result.spt.cycles, 0u);
  EXPECT_GT(rows[0].result.spt.threads.spawned, 0u);
  EXPECT_EQ(rows[0].worker.attempts, 1u);

  // The sabotaged worker died on SIGSEGV; its row says so.
  EXPECT_EQ(rows[1].status, CellStatus::kCrashed);
  EXPECT_EQ(rows[1].worker.term_signal, SIGSEGV);
  EXPECT_EQ(rows[1].benchmark, "vortex");

  // The in-worker budget blowout came back as a *cell* status through the
  // payload, not as a transport failure.
  EXPECT_EQ(rows[2].status, CellStatus::kBudgetExceeded);
  EXPECT_NE(rows[2].diagnostic.find("budget exceeded"), std::string::npos)
      << rows[2].diagnostic;
  EXPECT_EQ(rows[2].worker.attempts, 1u);

  // All three cells were checkpointed, crashes included.
  EXPECT_EQ(countLines(opts.checkpoint_path), 3u);
  std::set<CellStatus> logged;
  for (const auto& [key, payload] :
       readDurableLog(opts.checkpoint_path).rows) {
    SweepRow row;
    ASSERT_TRUE(decodeSweepRow(payload, &row));
    logged.insert(row.status);
  }
  EXPECT_EQ(logged, (std::set<CellStatus>{CellStatus::kOk,
                                          CellStatus::kCrashed,
                                          CellStatus::kBudgetExceeded}));

  // JSON carries the worker diagnostics for supervised cells.
  const std::string json_path =
      ::testing::TempDir() + "/spt_supervised.json";
  ASSERT_TRUE(writeSweepJson(json_path, rows));
  const std::string json = readWholeFile(json_path);
  EXPECT_NE(json.find("\"worker\""), std::string::npos);
  EXPECT_NE(json.find("\"crashed\""), std::string::npos);
  EXPECT_NE(json.find("\"term_signal\""), std::string::npos);
}

// Checkpoint-format compatibility: a supervisor-written checkpoint resumes
// in-process, re-running exactly the failed cells.
TEST(SupervisedSweep, SupervisedCheckpointResumesInProcess) {
  if (!Supervisor::isolationSupported()) {
    GTEST_SKIP() << "no fork on this platform";
  }
  auto counted = std::make_shared<std::atomic<int>>(0);
  const auto countingEntry = [&](const std::string& name) {
    SuiteEntry e = entryByName(name);
    const auto inner = e.workload.build;
    e.workload.build = [counted, inner](std::uint64_t scale) {
      counted->fetch_add(1, std::memory_order_relaxed);
      return inner(scale);
    };
    return e;
  };

  std::vector<SweepCase> cases;
  {
    SweepCase a;
    a.benchmark = "crafty";
    a.entry = countingEntry("crafty");
    cases.push_back(std::move(a));
  }
  {
    SweepCase b;
    b.benchmark = "vortex";
    b.entry = countingEntry("vortex");
    cases.push_back(std::move(b));
  }

  SweepOptions opts;
  opts.checkpoint_path = ::testing::TempDir() + "/spt_xcompat_ck.txt";
  opts.supervisor.isolate = true;
  opts.supervisor.cell_timeout_seconds = 240.0;
  opts.supervisor.chaos = *support::ChaosPlan::parse("1:crash");
  const auto first = runSweep(ParallelSweep(2), cases, opts);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_TRUE(first[0].ok());
  EXPECT_EQ(first[1].status, CellStatus::kCrashed);
  // Forked workers increment their own copy of the counter; the parent's
  // stays untouched — which is itself evidence the cells ran isolated.
  EXPECT_EQ(counted->load(), 0);

  // Resume the supervisor's checkpoint on the in-process path: only the
  // crashed cell re-runs (observable via the build counter this time).
  opts.resume = true;
  opts.supervisor = SupervisorOptions{};  // --no-isolate
  opts.quarantine = true;
  const auto second = runSweep(ParallelSweep(2), cases, opts);
  ASSERT_EQ(second.size(), 2u);
  EXPECT_EQ(counted->load(), 1);
  EXPECT_TRUE(second[0].ok());
  EXPECT_TRUE(second[1].ok());  // no chaos in-process; the cell is healthy
  EXPECT_EQ(second[0].result.baseline.cycles,
            first[0].result.baseline.cycles);
  EXPECT_EQ(second[0].result.spt.cycles, first[0].result.spt.cycles);
}

// And the other direction: an in-process checkpoint resumes under the
// supervisor, without forking workers for the resumed ok rows.
TEST(SupervisedSweep, InProcessCheckpointResumesSupervised) {
  if (!Supervisor::isolationSupported()) {
    GTEST_SKIP() << "no fork on this platform";
  }
  std::vector<SweepCase> cases;
  {
    SweepCase a;
    a.benchmark = "crafty";
    a.entry = entryByName("crafty");
    cases.push_back(std::move(a));
  }
  {
    SweepCase failing;
    failing.benchmark = "bzip2";
    failing.config = "tiny-budget";
    failing.entry = entryByName("bzip2");
    failing.machine.max_simulated_cycles = 1000;
    cases.push_back(std::move(failing));
  }

  SweepOptions opts;
  opts.quarantine = true;
  opts.checkpoint_path = ::testing::TempDir() + "/spt_xcompat2_ck.txt";
  const auto first = runSweep(ParallelSweep(2), cases, opts);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_TRUE(first[0].ok());
  EXPECT_EQ(first[1].status, CellStatus::kBudgetExceeded);

  opts.resume = true;
  opts.supervisor.isolate = true;
  opts.supervisor.cell_timeout_seconds = 240.0;
  const auto second = runSweep(ParallelSweep(2), cases, opts);
  ASSERT_EQ(second.size(), 2u);
  EXPECT_TRUE(second[0].ok());
  // Resumed rows never went through a worker.
  EXPECT_EQ(second[0].worker.attempts, 0u);
  EXPECT_EQ(second[0].result.spt.cycles, first[0].result.spt.cycles);
  // The failed cell re-ran in a forked worker and failed the same way.
  EXPECT_EQ(second[1].status, CellStatus::kBudgetExceeded);
  EXPECT_EQ(second[1].worker.attempts, 1u);
}

// ---- Supervised fault campaign -------------------------------------------

TEST(SupervisedCampaign, MatchesInProcessResults) {
  if (!Supervisor::isolationSupported()) {
    GTEST_SKIP() << "no fork on this platform";
  }
  FaultCampaignOptions base;
  base.seeds = 1;
  base.jobs = 4;

  FaultCampaignOptions isolated = base;
  isolated.supervisor.isolate = true;
  isolated.supervisor.cell_timeout_seconds = 240.0;

  const FaultCampaignResult in_process = runFaultCampaign(base);
  const FaultCampaignResult supervised = runFaultCampaign(isolated);

  ASSERT_EQ(in_process.cells.size(), supervised.cells.size());
  for (std::size_t i = 0; i < in_process.cells.size(); ++i) {
    const FaultCampaignCell& a = in_process.cells[i];
    const FaultCampaignCell& b = supervised.cells[i];
    EXPECT_EQ(a.benchmark, b.benchmark);
    EXPECT_EQ(a.fault_seed, b.fault_seed);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.faults.injected, b.faults.injected);
    EXPECT_EQ(a.faults.detected_by_net, b.faults.detected_by_net);
    EXPECT_EQ(a.faults.detected_by_oracle, b.faults.detected_by_oracle);
    EXPECT_EQ(a.faults.benign, b.faults.benign);
    EXPECT_EQ(a.faults.escaped, b.faults.escaped);
    EXPECT_EQ(a.arch_digest, b.arch_digest);
    EXPECT_EQ(a.sequential_digest, b.sequential_digest);
    EXPECT_EQ(a.digest_match, b.digest_match);
    EXPECT_GT(b.worker.attempts, 0u);  // really went through a worker
  }
  EXPECT_TRUE(supervised.allCellsOk());
  EXPECT_TRUE(supervised.allDetectedOrBenign());
  EXPECT_TRUE(supervised.allDigestsMatch());
}

// `sptc inject --resume` semantics: ok logged rows are reused without
// re-running their cells (proved by planting a marker value in the log),
// failed rows re-run, and the log is the sweep's durable log.
TEST(SupervisedCampaign, CheckpointResumeReusesOkCells) {
  FaultCampaignOptions opts;
  opts.seeds = 1;
  opts.jobs = 4;
  opts.checkpoint_path = ::testing::TempDir() + "/spt_campaign_ck.txt";

  const FaultCampaignResult first = runFaultCampaign(opts);
  ASSERT_TRUE(first.allCellsOk());
  ASSERT_EQ(countLines(opts.checkpoint_path), first.cells.size());

  // Tamper with the log: append a *later* row for cell 0 with a marker
  // injected-count (last row wins), and a failed row for cell 1 (must
  // re-run).
  {
    const auto key = [&](std::size_t c) {
      return campaignCellConfigKey(c, first.cells[c].fault_seed);
    };
    FaultCampaignCell marked = first.cells[0];
    marked.faults.injected = 999999;
    FaultCampaignCell poisoned = first.cells[1];
    poisoned.status = CellStatus::kInternalError;
    poisoned.diagnostic = "poisoned for the resume test";
    CheckpointLog log(opts.checkpoint_path, /*resume=*/true);
    log.append(marked.benchmark, key(0), encodeCampaignCell(marked));
    log.append(poisoned.benchmark, key(1), encodeCampaignCell(poisoned));
    EXPECT_EQ(log.failure(), "");
  }

  opts.resume = true;
  const FaultCampaignResult second = runFaultCampaign(opts);
  ASSERT_EQ(second.cells.size(), first.cells.size());
  // Cell 0 was reused from the tampered row — it did not re-run.
  EXPECT_EQ(second.cells[0].faults.injected, 999999u);
  // Cell 1's failed row forced a re-run; it is healthy again and its
  // numbers match the first run.
  EXPECT_TRUE(second.cells[1].ok());
  EXPECT_EQ(second.cells[1].faults.injected, first.cells[1].faults.injected);
  EXPECT_EQ(second.cells[1].arch_digest, first.cells[1].arch_digest);
  // Every other cell was reused verbatim.
  for (std::size_t i = 2; i < second.cells.size(); ++i) {
    EXPECT_EQ(second.cells[i].arch_digest, first.cells[i].arch_digest);
    EXPECT_TRUE(second.cells[i].ok());
  }
}

// Strips the host-dependent members — exactly what CI's determinism diff
// greps away — so supervised and in-process JSON can be compared
// byte-for-byte.
std::string filterHostDependentLines(const std::string& json) {
  std::istringstream is(json);
  std::ostringstream os;
  std::string line;
  while (std::getline(is, line)) {
    if (line.find("\"host_") != std::string::npos) continue;
    if (line.find("\"diagnostic\"") != std::string::npos) continue;
    if (line.find("\"partial_reply\"") != std::string::npos) continue;
    os << line << '\n';
  }
  return os.str();
}

// ---- Resumed rows render exactly like fresh rows ---------------------------

/// Cuts a log to half its bytes: mid-record, so resuming from it also
/// drops a torn tail.
void halveLog(const std::string& path) {
  const std::string full = readWholeFile(path);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(full.data(), static_cast<std::streamsize>(full.size() / 2));
}

/// Filtered sweep JSON. With `drop_worker`, the worker diagnostics go too:
/// they describe the process a cell ran in, which a resumed row never had.
std::string renderSweep(std::vector<SweepRow> rows, bool drop_worker) {
  if (drop_worker) {
    for (SweepRow& row : rows) row.worker = WorkerDiagnostics{};
  }
  const std::string path = ::testing::TempDir() + "/spt_render_sweep.json";
  EXPECT_TRUE(writeSweepJson(path, rows));
  return filterHostDependentLines(readWholeFile(path));
}

TEST(SupervisedSweep, ResumedRowsRenderLikeFreshRows) {
  const std::vector<SweepCase> cases = buildSuiteSweepCases(
      {}, {}, 1, {"crafty", "gzip", "parser", "vortex"});
  const std::string ck = ::testing::TempDir() + "/spt_render_ck.txt";
  SweepOptions opts;
  opts.checkpoint_path = ck;
  const auto fresh = runSweep(ParallelSweep(2), cases, opts);
  const std::string fresh_json = renderSweep(fresh, /*drop_worker=*/false);

  halveLog(ck);
  ASSERT_FALSE(readDurableLog(ck).rows.empty());
  opts.resume = true;
  EXPECT_EQ(renderSweep(runSweep(ParallelSweep(2), cases, opts), false),
            fresh_json);

  if (!Supervisor::isolationSupported()) return;
  SweepOptions iso;
  iso.checkpoint_path = ::testing::TempDir() + "/spt_render_iso_ck.txt";
  iso.supervisor.isolate = true;
  iso.supervisor.cell_timeout_seconds = 240.0;
  const auto iso_fresh = runSweep(ParallelSweep(2), cases, iso);
  halveLog(iso.checkpoint_path);
  iso.resume = true;
  const auto iso_resumed = runSweep(ParallelSweep(2), cases, iso);
  std::size_t reused = 0;
  for (const SweepRow& row : iso_resumed) {
    if (row.worker.attempts == 0) {
      ++reused;
    } else {
      EXPECT_EQ(row.worker.attempts, 1u) << row.benchmark;
    }
  }
  EXPECT_GT(reused, 0u);
  EXPECT_LT(reused, cases.size());
  EXPECT_EQ(renderSweep(iso_resumed, /*drop_worker=*/true),
            renderSweep(iso_fresh, /*drop_worker=*/true));
  EXPECT_EQ(renderSweep(iso_fresh, /*drop_worker=*/true), fresh_json);
}

TEST(SupervisedCampaign, ResumedCellsRenderLikeFreshCells) {
  FaultCampaignOptions opts;
  opts.seeds = 1;
  opts.jobs = 4;
  opts.checkpoint_path = ::testing::TempDir() + "/spt_render_campaign_ck.txt";
  const auto render = [](const FaultCampaignResult& result) {
    const std::string path =
        ::testing::TempDir() + "/spt_render_campaign.json";
    EXPECT_TRUE(writeFaultCampaignJson(path, result));
    return filterHostDependentLines(readWholeFile(path));
  };
  const std::string fresh = render(runFaultCampaign(opts));
  halveLog(opts.checkpoint_path);
  ASSERT_FALSE(readDurableLog(opts.checkpoint_path).rows.empty());
  opts.resume = true;
  EXPECT_EQ(render(runFaultCampaign(opts)), fresh);
}

// ---- Supervised perf measurement ----------------------------------------

// `sptc perf --isolate` runs each workload in a single-cell supervised run
// of its own, serially: rows come back in workload order, and every
// deterministic field matches the in-process measurement.
TEST(SupervisedPerf, IsolatedRowsMatchInProcessInOrder) {
  if (!Supervisor::isolationSupported()) {
    GTEST_SKIP() << "no fork on this platform";
  }
  PerfOptions opts;
  opts.workloads = {"vortex", "micro.parser_free"};
  opts.repetitions = 1;
  const std::vector<PerfRow> in_process = runSimThroughput(opts);

  opts.supervisor.isolate = true;
  opts.supervisor.cell_timeout_seconds = 240.0;
  std::vector<PerfPassRow> passes = {{"stale", 1, 0, 0.0}};
  const std::vector<PerfRow> isolated = runSimThroughput(opts, &passes);
  ASSERT_EQ(isolated.size(), 2u);
  EXPECT_EQ(isolated[0].workload, "vortex");
  EXPECT_EQ(isolated[1].workload, "micro.parser_free");
  EXPECT_GT(isolated[1].spt_cycles, 0u);
  EXPECT_TRUE(passes.empty());  // compiles ran in the workers

  const std::string local_path =
      ::testing::TempDir() + "/spt_perf_in_process.json";
  const std::string isolated_path =
      ::testing::TempDir() + "/spt_perf_isolated.json";
  ASSERT_TRUE(writeSimThroughputJson(local_path, in_process));
  ASSERT_TRUE(writeSimThroughputJson(isolated_path, isolated));
  EXPECT_EQ(filterHostDependentLines(readWholeFile(local_path)),
            filterHostDependentLines(readWholeFile(isolated_path)));

  // Chaos still targets the workload's index: only workload 1's worker
  // crashes, and the failure names it.
  opts.supervisor.chaos = *support::ChaosPlan::parse("1:crash");
  const support::ScopedCheckThrowMode throwing(true);
  try {
    runSimThroughput(opts);
    ADD_FAILURE() << "a crashed perf worker must fail the measurement";
  } catch (const support::SptInternalError& e) {
    EXPECT_NE(std::string(e.what()).find("micro.parser_free failed (crashed)"),
              std::string::npos)
        << e.what();
  }
}

// ---- Checkpoint rows with hostile fields -----------------------------------

TEST(Checkpoint, HostileDiagnosticsSurviveFormatParseRoundTrip) {
  const std::vector<std::string> hostile = {
      "multi-line oracle divergence:\n  frame 3 reg r5: 17 != 19\n  "
      "frame 4 reg r6: 1 != 2",
      "worker stderr:\tassert failed\r\nbacktrace:\n#0 main",
      "backslash soup \\t \\n \\\\ \\",
      std::string(1, '\0') + "embedded nul",
  };
  for (const std::string& diag : hostile) {
    SweepRow row;
    row.status = CellStatus::kInternalError;
    row.benchmark = "bench\twith\ttabs";
    row.config = "config\nwith\nnewlines";
    row.result.spt.cycles = 3;
    row.diagnostic = diag;
    LogRecord rec;
    rec.benchmark = row.benchmark;
    rec.config = row.config;
    rec.payload = encodeSweepRow(row);

    const std::string text = formatLogRecord(rec);
    // The formatted row is exactly one line of the file.
    EXPECT_EQ(text.find('\n'), std::string::npos);
    EXPECT_EQ(text.find('\r'), std::string::npos);

    LogRecord parsed;
    ASSERT_TRUE(parseLogRecord(text, &parsed)) << diag;
    EXPECT_EQ(parsed.benchmark, rec.benchmark);
    EXPECT_EQ(parsed.config, rec.config);
    SweepRow back;
    ASSERT_TRUE(decodeSweepRow(parsed.payload, &back)) << diag;
    EXPECT_EQ(back.status, row.status);
    EXPECT_EQ(back.result.spt.cycles, 3u);
    EXPECT_EQ(back.diagnostic, diag);
  }
}

TEST(Checkpoint, HostileFieldsSurviveARealFileViaLoadCheckpoint) {
  const std::string path = ::testing::TempDir() + "/spt_hostile_ck.txt";
  SweepRow row;
  row.status = CellStatus::kCrashed;
  row.benchmark = "gzip";
  row.config = "srb=64";
  row.diagnostic =
      "worker killed by signal 6 (Aborted)\nstderr:\tassertion `x != "
      "nullptr' failed\r\n(core dumped)";
  {
    CheckpointLog log(path, /*resume=*/false);
    log.append(row.benchmark, row.config, encodeSweepRow(row));
    // A second, hostile-keyed row exercises last-row-wins keying too.
    log.append("bench\nnewline", row.config, encodeSweepRow(row));
    EXPECT_EQ(log.failure(), "");
  }
  const LogReplay replay = readDurableLog(path);
  ASSERT_EQ(replay.rows.size(), 2u);
  const auto it = replay.rows.find({"gzip", "srb=64"});
  ASSERT_NE(it, replay.rows.end());
  SweepRow back;
  ASSERT_TRUE(decodeSweepRow(it->second, &back));
  EXPECT_EQ(back.diagnostic, row.diagnostic);
  EXPECT_NE(replay.rows.find({"bench\nnewline", "srb=64"}), replay.rows.end());
}

// ---- Per-sweep resource report -------------------------------------------

TEST(ResourceReport, AggregatesOnlySupervisedCells) {
  ResourceReport report;
  WorkerDiagnostics in_process;  // attempts == 0: never supervised
  report.add(in_process);
  EXPECT_EQ(report.supervised_cells, 0u);

  WorkerDiagnostics a;
  a.attempts = 2;
  a.host_user_seconds = 1.5;
  a.host_sys_seconds = 0.25;
  a.host_max_rss_kb = 10000;
  WorkerDiagnostics b;
  b.attempts = 1;
  b.host_user_seconds = 0.5;
  b.host_sys_seconds = 0.75;
  b.host_max_rss_kb = 42000;
  report.add(a);
  report.add(b);
  EXPECT_EQ(report.supervised_cells, 2u);
  EXPECT_EQ(report.attempts, 3u);
  EXPECT_DOUBLE_EQ(report.host_user_seconds, 2.0);
  EXPECT_DOUBLE_EQ(report.host_sys_seconds, 1.0);
  EXPECT_EQ(report.host_max_rss_kb, 42000);
}

TEST(ResourceReport, SweepJsonCarriesItOnlyWhenSupervised) {
  std::vector<SweepRow> rows(2);
  rows[0].benchmark = "gzip";
  rows[1].benchmark = "mcf";

  // In-process rows: no resource object, output unchanged.
  const std::string plain = ::testing::TempDir() + "/spt_resource_off.json";
  ASSERT_TRUE(writeSweepJson(plain, rows));
  EXPECT_EQ(readWholeFile(plain).find("\"resource\""), std::string::npos);

  rows[0].worker.attempts = 1;
  rows[0].worker.host_user_seconds = 0.5;
  rows[0].worker.host_max_rss_kb = 31000;
  rows[1].worker.attempts = 3;
  rows[1].worker.host_max_rss_kb = 52000;
  const std::string supervised =
      ::testing::TempDir() + "/spt_resource_on.json";
  ASSERT_TRUE(writeSweepJson(supervised, rows));
  const std::string json = readWholeFile(supervised);
  EXPECT_NE(json.find("\"resource\""), std::string::npos);
  EXPECT_NE(json.find("\"supervised_cells\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"attempts\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"host_max_rss_kb\": 52000"), std::string::npos);
}

// ---- Oracle first-divergence report --------------------------------------

TEST(OracleDivergence, ThrowsStructuredReport) {
  SuiteEntry entry = entryByName("crafty");
  ir::Module module = entry.workload.build(1);
  const TracedRun run = traceProgram(module);
  const sim::DecodeTable decode(module);

  // Find a position past at least one instruction record, so a fresh
  // (empty) machine state must diverge from the advanced reference.
  std::size_t pos = 0;
  std::size_t instrs = 0;
  for (; pos < run.trace.size() && instrs < 3; ++pos) {
    if (run.trace[pos].kind == trace::RecordKind::kInstr) ++instrs;
  }
  ASSERT_GT(instrs, 0u);

  sim::Oracle oracle(module, decode, support::OracleMode::kDigest);
  oracle.advance({run.trace.view().data(), pos});
  sim::ArchState machine(module);
  machine.enableDigest();
  try {
    oracle.checkAt(pos, machine, "fast_commit");
    FAIL() << "expected SptOracleDivergence";
  } catch (const support::SptOracleDivergence& e) {
    EXPECT_EQ(e.tracePos(), pos);
    EXPECT_EQ(e.boundary(), "fast_commit");
    EXPECT_FALSE(e.diff().empty());
    EXPECT_NE(std::string(e.what()).find("architectural oracle divergence"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("trace position " +
                                         std::to_string(pos)),
              std::string::npos)
        << e.what();
  }
}

TEST(OracleDivergence, CampaignJsonCarriesDivergenceReport) {
  FaultCampaignResult result;
  FaultCampaignCell cell;
  cell.benchmark = "synthetic";
  cell.fault_seed = 7;
  cell.status = CellStatus::kInternalError;
  cell.diagnostic = "architectural oracle deep divergence at fast_commit";
  cell.diverged = true;
  cell.divergence_pos = 1234;
  cell.divergence_boundary = "fast_commit";
  cell.divergence_diff = "frame 3 reg r5: 17 != 19";
  result.cells.push_back(cell);

  const std::string path =
      ::testing::TempDir() + "/spt_divergence_campaign.json";
  ASSERT_TRUE(writeFaultCampaignJson(path, result));
  const std::string json = readWholeFile(path);
  EXPECT_NE(json.find("\"divergence\""), std::string::npos);
  EXPECT_NE(json.find("\"pos\": 1234"), std::string::npos);
  EXPECT_NE(json.find("\"boundary\": \"fast_commit\""), std::string::npos);
  EXPECT_NE(json.find("frame 3 reg r5: 17 != 19"), std::string::npos);
  EXPECT_NE(json.find("\"all_cells_ok\": false"), std::string::npos);
}


// A sweep row and a campaign cell may share one log (the service writes
// both), and neither codec accepts the other's payload, so each resume
// path keeps only its own shape.
TEST(Checkpoint, MixedMetricShapesDoNotCrossParse) {
  SweepRow sweep_row;
  sweep_row.benchmark = "mcf";
  sweep_row.config = "default";
  FaultCampaignCell campaign_cell;
  campaign_cell.benchmark = "mcf";
  const std::string sweep_payload = encodeSweepRow(sweep_row);
  const std::string campaign_payload = encodeCampaignCell(campaign_cell);
  SweepRow row;
  FaultCampaignCell cell;
  EXPECT_TRUE(decodeSweepRow(sweep_payload, &row));
  EXPECT_TRUE(decodeCampaignCell(campaign_payload, &cell));
  EXPECT_FALSE(decodeSweepRow(campaign_payload, &row));
  EXPECT_FALSE(decodeCampaignCell(sweep_payload, &cell));
}

#if defined(__unix__) || (defined(__APPLE__) && defined(__MACH__))

// ---- Parent-side signal robustness ----------------------------------------

// An EINTR storm (a 2 ms ITIMER_REAL with a no-op handler and no
// SA_RESTART) aimed at the parent while a pooled run is in flight: every
// blocking poll/read/write/wait in the supervisor loop gets interrupted
// over and over, and the run must still complete with every cell intact.
namespace {
extern "C" void noopAlarmHandler(int) {}
}  // namespace

TEST(SupervisorPool, SurvivesParentEintrStorm) {
  if (!Supervisor::isolationSupported()) {
    GTEST_SKIP() << "no fork on this platform";
  }
  struct sigaction storm;
  std::memset(&storm, 0, sizeof(storm));
  storm.sa_handler = noopAlarmHandler;
  sigemptyset(&storm.sa_mask);
  storm.sa_flags = 0;  // deliberately NOT SA_RESTART
  struct sigaction saved;
  ASSERT_EQ(::sigaction(SIGALRM, &storm, &saved), 0);
  itimerval tick{};
  tick.it_interval.tv_usec = 2000;
  tick.it_value.tv_usec = 2000;
  ASSERT_EQ(::setitimer(ITIMER_REAL, &tick, nullptr), 0);

  SupervisorOptions opts;
  opts.isolate = true;
  opts.jobs = 2;
  opts.cell_timeout_seconds = 60.0;
  const Supervisor sup(opts);
  const auto outcomes = sup.run(12, [](std::size_t cell) {
    // Enough work per cell that frames routinely straddle an interrupt.
    std::string payload;
    for (int i = 0; i < 2000; ++i) {
      payload += std::to_string(cell * 31 + static_cast<std::size_t>(i));
    }
    return payload;
  });

  itimerval off{};
  ASSERT_EQ(::setitimer(ITIMER_REAL, &off, nullptr), 0);
  ASSERT_EQ(::sigaction(SIGALRM, &saved, nullptr), 0);

  ASSERT_EQ(outcomes.size(), 12u);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].status, CellStatus::kOk)
        << "cell " << i << ": " << outcomes[i].diagnostic;
    EXPECT_FALSE(outcomes[i].payload.empty());
  }
}

// SIGPIPE regression: workers that exit without ever reading (or after a
// truncated reply) leave the parent writing request frames into pipes
// with no reader. With SIGPIPE at its default disposition that write
// kills the whole process; the supervisor must instead settle each
// sabotaged cell as a contained protocol_error. The default disposition
// is explicitly restored around the run so a latent regression cannot
// hide behind gtest's own handlers.
TEST(Supervisor, WritesToDeadWorkersDoNotRaiseSigpipe) {
  if (!Supervisor::isolationSupported()) {
    GTEST_SKIP() << "no fork on this platform";
  }
  struct sigaction dfl;
  std::memset(&dfl, 0, sizeof(dfl));
  dfl.sa_handler = SIG_DFL;
  sigemptyset(&dfl.sa_mask);
  struct sigaction saved;
  ASSERT_EQ(::sigaction(SIGPIPE, &dfl, &saved), 0);

  SupervisorOptions opts;
  opts.isolate = true;
  opts.jobs = 2;
  opts.cell_timeout_seconds = 30.0;
  // Every cell's worker exits instantly without writing a reply; the
  // parent races its request/ack traffic against the deaths.
  opts.chaos = *support::ChaosPlan::parse(
      "0:exit,1:exit,2:exit,3:exit,4:exit,5:exit,6:exit,7:exit");
  const Supervisor sup(opts);
  const auto outcomes = sup.run(8, [](std::size_t cell) {
    return "cell-" + std::to_string(cell);
  });
  ASSERT_EQ(outcomes.size(), 8u);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].status, CellStatus::kProtocolError)
        << "cell " << i << ": " << outcomes[i].diagnostic;
  }

  ASSERT_EQ(::sigaction(SIGPIPE, &saved, nullptr), 0);
}

// A worker that dies mid-frame (truncated reply, then the pipe closes)
// settles as protocol_error without disturbing its neighbours — the
// parent's scanner treats the EOF'd partial frame as corrupt input, not
// as a reason to die or to poison the shared poll loop.
TEST(SupervisorPool, MidFramePipeCloseIsContainedPerCell) {
  if (!Supervisor::isolationSupported()) {
    GTEST_SKIP() << "no fork on this platform";
  }
  SupervisorOptions opts;
  opts.isolate = true;
  opts.jobs = 2;
  opts.cell_timeout_seconds = 60.0;
  opts.chaos = *support::ChaosPlan::parse("2:partial,5:partial");
  const Supervisor sup(opts);
  const auto outcomes = sup.run(8, [](std::size_t cell) {
    return std::string(4096, static_cast<char>('a' + cell % 26));
  });
  ASSERT_EQ(outcomes.size(), 8u);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (i == 2 || i == 5) {
      EXPECT_EQ(outcomes[i].status, CellStatus::kProtocolError)
          << "cell " << i << ": " << outcomes[i].diagnostic;
    } else {
      EXPECT_EQ(outcomes[i].status, CellStatus::kOk) << "cell " << i;
      EXPECT_EQ(outcomes[i].payload.size(), 4096u);
    }
  }
}

// ---- CellScheduler: lanes, retry order, interrupt, spawn failure ----------

/// Drives `s` the way its callers do until every queued and in-flight
/// cell has settled.
void runToIdle(CellScheduler& s) {
  for (;;) {
    s.dispatch();
    if (s.counts().queued + s.counts().running == 0) return;
    std::vector<pollfd> fds;
    for (const int fd : s.busyReplyFds()) fds.push_back(pollfd{fd, POLLIN, 0});
    ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
           s.pollTimeoutMs(1000));
    s.service();
  }
}

/// Settle order of a one-worker scheduler over lanes 'A' (4 cells) and 'B'
/// (2 cells); every worker echoes its spec, and lane A follows `chaos`.
std::vector<std::string> laneSettleOrder(SupervisorOptions opts,
                                         const support::ChaosPlan& chaos) {
  std::vector<std::string> order;
  CellScheduler s(
      opts, [](const std::string& spec) { return spec; },
      [&](CellScheduler::Lane lane, std::uint64_t cell, std::uint32_t attempt) {
        CellScheduler::Job job;
        job.spec = std::string(1, static_cast<char>(lane)) +
                   std::to_string(cell);
        if (lane == 'A') {
          job.chaos = chaos.actionFor(static_cast<std::size_t>(cell), attempt);
        }
        return job;
      },
      [&](CellScheduler::Lane lane, std::uint64_t cell,
          const Supervisor::Outcome& oc) {
        const std::string name =
            std::string(1, static_cast<char>(lane)) + std::to_string(cell);
        EXPECT_EQ(oc.status, CellStatus::kOk) << name << ": " << oc.diagnostic;
        EXPECT_EQ(oc.payload, name);
        order.push_back(name);
      });
  for (std::uint64_t i = 0; i < 4; ++i) s.enqueue('A', i);
  for (std::uint64_t i = 0; i < 2; ++i) s.enqueue('B', i);
  EXPECT_TRUE(s.fill(1));
  runToIdle(s);
  EXPECT_EQ(s.counts('A').dispatched, 4u + opts.retries);
  EXPECT_EQ(s.counts('B').dispatched, 2u);
  return order;
}

// One cell per lane per rotation, so the short lane is not starved; a
// retry re-enters at the front of its own lane once its backoff passes.
TEST(CellScheduler, LanesAreFairAndRetriesRunFirstInTheirLane) {
  if (!Supervisor::isolationSupported()) {
    GTEST_SKIP() << "no fork on this platform";
  }
  SupervisorOptions opts;
  opts.jobs = 1;
  EXPECT_EQ(laneSettleOrder(opts, {}),
            (std::vector<std::string>{"A0", "B0", "A1", "B1", "A2", "A3"}));

  opts.retries = 1;
  opts.backoff_base_seconds = 0.0;
  // A1 crashes on attempt 1; B1 takes the next turn, then A1's retry runs
  // ahead of A2.
  EXPECT_EQ(laneSettleOrder(opts, *support::ChaosPlan::parse("1:crash@1")),
            (std::vector<std::string>{"A0", "B0", "B1", "A1", "A2", "A3"}));
}

// The batch graceful interrupt: in-flight cells finish, every queued cell
// settles as interrupted without running, and no further worker forks.
TEST(Supervisor, StopFlagCancelsQueuedCellsAfterInFlightOnes) {
  if (!Supervisor::isolationSupported()) {
    GTEST_SKIP() << "no fork on this platform";
  }
  volatile std::sig_atomic_t stop = 0;
  SupervisorOptions opts;
  opts.isolate = true;
  opts.jobs = 1;
  opts.stop = &stop;
  const Supervisor sup(opts);
  std::vector<std::size_t> settle_order;
  Supervisor::PoolStats stats;
  const auto outcomes = sup.run(
      6, [](std::size_t c) { return "cell-" + std::to_string(c); },
      [&](std::size_t cell, const Supervisor::Outcome&) {
        settle_order.push_back(cell);
        if (cell == 0) stop = 1;
      },
      &stats);
  ASSERT_EQ(outcomes.size(), 6u);
  EXPECT_EQ(outcomes[0].status, CellStatus::kOk) << outcomes[0].diagnostic;
  EXPECT_EQ(outcomes[0].payload, "cell-0");
  for (std::size_t i = 1; i < 6; ++i) {
    EXPECT_EQ(outcomes[i].status, CellStatus::kInternalError) << "cell " << i;
    EXPECT_NE(outcomes[i].diagnostic.find("interrupted by signal"),
              std::string::npos)
        << outcomes[i].diagnostic;
    EXPECT_EQ(outcomes[i].worker.attempts, 0u) << "cell " << i;
  }
  EXPECT_EQ(settle_order,
            (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));  // cell order
  EXPECT_EQ(stats.workers_spawned, 1u);
}

/// Runs `body` in a forked child and returns its exit status: 0 pass,
/// 1 fail, 77 skip. The child dies on SIGALRM after 60 s, so a scheduler
/// that waits forever fails the test instead of hanging it.
int inChild(const std::function<int()>& body) {
  const pid_t pid = ::fork();
  if (pid < 0) return 77;
  if (pid == 0) {
    ::alarm(60);
    ::_exit(body());
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 1;
}

/// Makes every later fork() of this process fail with EAGAIN: as root,
/// drop to uid 65534 first (root ignores RLIMIT_NPROC), then allow zero
/// processes. False when this host does not refuse the probe fork.
bool denyFork() {
  if (::geteuid() == 0 && ::setuid(65534) != 0) return false;
  rlimit none{};
  if (::setrlimit(RLIMIT_NPROC, &none) != 0) return false;
  const pid_t probe = ::fork();
  if (probe == 0) ::_exit(0);
  if (probe > 0) {
    ::waitpid(probe, nullptr, 0);
    return false;
  }
  return errno == EAGAIN;
}

bool settledAsSpawnFailed(const Supervisor::Outcome& oc) {
  const bool ok =
      oc.status == CellStatus::kCrashed &&
      oc.diagnostic.rfind("worker pool spawn failed: ", 0) == 0 &&
      oc.diagnostic.find(std::strerror(EAGAIN)) != std::string::npos;
  if (!ok) std::fprintf(stderr, "unexpected outcome: %s\n", oc.diagnostic.c_str());
  return ok;
}

// Empty-pool rule: the only worker dies, no replacement can be forked, and
// the next queued cell settles as a spawn failure instead of waiting for a
// worker that will never exist.
TEST(CellScheduler, EmptyPoolSettlesQueuedCellsAsSpawnFailed) {
  if (!Supervisor::isolationSupported()) {
    GTEST_SKIP() << "no fork on this platform";
  }
  const int verdict = inChild([] {
    std::map<std::uint64_t, Supervisor::Outcome> settled;
    SupervisorOptions opts;
    opts.retries = 0;
    CellScheduler s(
        opts, [](const std::string& spec) { return spec; },
        [](CellScheduler::Lane, std::uint64_t cell, std::uint32_t) {
          CellScheduler::Job job;
          job.spec = std::to_string(cell);
          if (cell == 0) job.chaos = support::ChaosAction::kCrash;
          return job;
        },
        [&](CellScheduler::Lane, std::uint64_t cell,
            const Supervisor::Outcome& oc) { settled[cell] = oc; });
    s.enqueue(0, 0);
    s.enqueue(0, 1);
    if (!s.fill(1)) return 1;
    if (!denyFork()) return 77;
    runToIdle(s);
    if (settled.size() != 2 || settled[0].status != CellStatus::kCrashed ||
        settled[0].worker.term_signal != SIGSEGV) {
      return 1;
    }
    return settledAsSpawnFailed(settled[1]) && settled[1].worker.attempts == 1
               ? 0
               : 1;
  });
  if (verdict == 77) GTEST_SKIP() << "this host does not refuse fork()";
  EXPECT_EQ(verdict, 0);
}

// The same rule at startup of a batch run: no worker can be forked at all.
TEST(Supervisor, UnforkablePoolSettlesEveryCellAsSpawnFailed) {
  if (!Supervisor::isolationSupported()) {
    GTEST_SKIP() << "no fork on this platform";
  }
  const int verdict = inChild([] {
    if (!denyFork()) return 77;
    SupervisorOptions opts;
    opts.isolate = true;
    opts.jobs = 2;
    opts.retries = 2;
    const Supervisor sup(opts);
    Supervisor::PoolStats stats;
    const auto outcomes = sup.run(
        3, [](std::size_t c) { return std::to_string(c); }, nullptr, &stats);
    if (outcomes.size() != 3 || stats.workers_spawned != 0) return 1;
    for (const Supervisor::Outcome& oc : outcomes) {
      if (!settledAsSpawnFailed(oc) || oc.worker.attempts != 1) return 1;
    }
    return 0;
  });
  if (verdict == 77) GTEST_SKIP() << "this host does not refuse fork()";
  EXPECT_EQ(verdict, 0);
}

#endif  // POSIX


}  // namespace
}  // namespace spt::harness
