// Tests for the process-isolation supervisor stack: the chaos plan, the
// worker frame protocol, the cell payload codec, crash/hang/garbage
// containment with retry/backoff, supervised sweeps and campaigns, and
// checkpoint-format compatibility between the supervised and in-process
// paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>

#include "harness/cell_codec.h"
#include "harness/checkpoint.h"
#include "harness/fault_campaign.h"
#include "harness/parallel_sweep.h"
#include "harness/suite.h"
#include "harness/supervisor.h"
#include "sim/decode.h"
#include "sim/oracle.h"
#include "support/chaos.h"
#include "support/error.h"

#if defined(__unix__) || (defined(__APPLE__) && defined(__MACH__))
#include <sys/resource.h>
#include <sys/time.h>
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
  for (const char* bad : {"1", "1:", ":crash", "1:frobnicate", "x:crash",
                          "1:crash@0", "1:crash@x"}) {
    std::string error;
    EXPECT_FALSE(support::ChaosPlan::parse(bad, &error).has_value())
        << "spec '" << bad << "' should not parse";
    EXPECT_FALSE(error.empty()) << bad;
  }
  // Empty segments (stray/trailing commas) are tolerated, not errors.
  const auto lenient = support::ChaosPlan::parse("1:crash,,2:hang,");
  ASSERT_TRUE(lenient.has_value());
  EXPECT_EQ(lenient->directives.size(), 2u);
}

// ---- Frame protocol -------------------------------------------------------

TEST(SupervisorFrame, RoundTripsBothKinds) {
  for (const std::uint8_t kind : {std::uint8_t{0}, std::uint8_t{1}}) {
    for (const std::string& payload : {std::string(), std::string("hello"),
                                       std::string(1000, '\x7f')}) {
      const std::string frame = encodeSupervisorFrame(kind, payload);
      std::uint8_t got_kind = 0xff;
      std::string got_payload;
      std::string error;
      ASSERT_TRUE(
          decodeSupervisorFrame(frame, &got_kind, &got_payload, &error))
          << error;
      EXPECT_EQ(got_kind, kind);
      EXPECT_EQ(got_payload, payload);
    }
  }
}

TEST(SupervisorFrame, DetectsCorruption) {
  const std::string frame = encodeSupervisorFrame(0, "checksummed-payload");
  std::string error;

  // Empty and short replies.
  EXPECT_FALSE(decodeSupervisorFrame("", nullptr, nullptr, &error));
  EXPECT_NE(error.find("empty reply"), std::string::npos) << error;
  EXPECT_FALSE(decodeSupervisorFrame(frame.substr(0, 10), nullptr, nullptr,
                                     &error));
  EXPECT_NE(error.find("short reply"), std::string::npos) << error;

  // Truncated past the header: length mismatch.
  EXPECT_FALSE(decodeSupervisorFrame(frame.substr(0, frame.size() - 3),
                                     nullptr, nullptr, &error));
  EXPECT_NE(error.find("length mismatch"), std::string::npos) << error;

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

TEST(SupervisorFrame, V2RoundTripsPoolKinds) {
  for (const std::uint8_t kind :
       {kFrameKindPayload, kFrameKindWorkerError, kFrameKindRequest,
        kFrameKindPooledReply, kFrameKindPooledError}) {
    const std::string frame =
        encodeSupervisorFrame(kind, "pool-payload", kSupervisorFrameV2);
    std::uint8_t got_kind = 0xff;
    std::string got_payload;
    std::string error;
    ASSERT_TRUE(decodeSupervisorFrame(frame, &got_kind, &got_payload, &error))
        << "kind " << unsigned{kind} << ": " << error;
    EXPECT_EQ(got_kind, kind);
    EXPECT_EQ(got_payload, "pool-payload");
  }
}

// Version negotiation: the decoder accepts v1-v3 but validates the kind
// against the version — a one-shot v1 worker can never smuggle a pool
// frame, a v2 frame can never smuggle a spec request, and a version bump
// beyond v3 is rejected outright.
TEST(SupervisorFrame, ValidatesKindAgainstVersion) {
  std::string error;
  // Pool kinds are invalid in a v1 frame.
  for (const std::uint8_t kind :
       {kFrameKindRequest, kFrameKindPooledReply, kFrameKindPooledError}) {
    const std::string frame =
        encodeSupervisorFrame(kind, "x", kSupervisorFrameV1);
    EXPECT_FALSE(decodeSupervisorFrame(frame, nullptr, nullptr, &error));
    EXPECT_NE(error.find("not valid in frame version"), std::string::npos)
        << error;
  }
  // The spec-request kind is invalid below v3.
  for (const std::uint32_t version : {kSupervisorFrameV1, kSupervisorFrameV2}) {
    std::string frame =
        encodeSupervisorFrame(kFrameKindSpecRequest, "x", kSupervisorFrameV3);
    std::memcpy(frame.data() + 4, &version, sizeof version);
    EXPECT_FALSE(decodeSupervisorFrame(frame, nullptr, nullptr, &error));
    EXPECT_NE(error.find("not valid in frame version"), std::string::npos)
        << error;
  }
  // The v1 reply kinds stay decodable in every version.
  for (const std::uint32_t version :
       {kSupervisorFrameV1, kSupervisorFrameV2, kSupervisorFrameV3}) {
    const std::string frame =
        encodeSupervisorFrame(kFrameKindPayload, "x", version);
    EXPECT_TRUE(decodeSupervisorFrame(frame, nullptr, nullptr, &error))
        << error;
  }
  // Version 4 does not exist yet.
  std::string future =
      encodeSupervisorFrame(kFrameKindPayload, "x", kSupervisorFrameV2);
  future[4] = 4;
  EXPECT_FALSE(decodeSupervisorFrame(future, nullptr, nullptr, &error));
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

// v3 spec requests round-trip: token, attempt, chaos action, and opaque
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

  // Survives the frame layer under the v3 version tag.
  const std::string frame =
      encodeSupervisorFrame(kFrameKindSpecRequest, payload, kSupervisorFrameV3);
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
  const std::string a =
      encodeSupervisorFrame(kFrameKindPooledReply, "first", kSupervisorFrameV2);
  const std::string b = encodeSupervisorFrame(kFrameKindPooledError, "second",
                                              kSupervisorFrameV2);

  // Every strict prefix of a frame scans as need-more, never corrupt.
  for (std::size_t cut = 0; cut < a.size(); ++cut) {
    std::size_t frame_bytes = 0;
    EXPECT_EQ(scanSupervisorFrame(a.substr(0, cut), &frame_bytes, nullptr),
              FrameScan::kNeedMore)
        << "prefix length " << cut;
  }

  // Two concatenated frames come out one at a time.
  std::string stream = a + b;
  std::size_t frame_bytes = 0;
  ASSERT_EQ(scanSupervisorFrame(stream, &frame_bytes, nullptr),
            FrameScan::kFrame);
  EXPECT_EQ(frame_bytes, a.size());
  EXPECT_EQ(stream.substr(0, frame_bytes), a);
  stream.erase(0, frame_bytes);
  ASSERT_EQ(scanSupervisorFrame(stream, &frame_bytes, nullptr),
            FrameScan::kFrame);
  EXPECT_EQ(frame_bytes, b.size());

  // Garbage is rejected from the very first wrong byte.
  std::string error;
  EXPECT_EQ(scanSupervisorFrame("Z", nullptr, &error), FrameScan::kCorrupt);
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
  std::string bad_version = a;
  bad_version[4] = 9;
  EXPECT_EQ(scanSupervisorFrame(bad_version, nullptr, &error),
            FrameScan::kCorrupt);
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST(SupervisorFrame, PoolPayloadsRoundTrip) {
  std::uint64_t cell = 0;
  std::uint32_t attempt = 0;
  ASSERT_TRUE(decodePoolRequest(encodePoolRequest(123456789012ull, 7),
                                &cell, &attempt));
  EXPECT_EQ(cell, 123456789012ull);
  EXPECT_EQ(attempt, 7u);
  EXPECT_FALSE(decodePoolRequest("short", &cell, &attempt));
  EXPECT_FALSE(decodePoolRequest(encodePoolRequest(1, 1) + "x", &cell,
                                 &attempt));

  PoolReplyHeader header;
  header.cell = 42;
  header.user_seconds = 1.25;
  header.sys_seconds = 0.5;
  header.max_rss_kb = 123456;
  PoolReplyHeader got;
  std::string inner;
  ASSERT_TRUE(
      decodePoolReply(encodePoolReply(header, "inner-bytes"), &got, &inner));
  EXPECT_EQ(got.cell, 42u);
  EXPECT_EQ(got.user_seconds, 1.25);
  EXPECT_EQ(got.sys_seconds, 0.5);
  EXPECT_EQ(got.max_rss_kb, 123456);
  EXPECT_EQ(inner, "inner-bytes");
  EXPECT_FALSE(decodePoolReply("too-short", &got, &inner));
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

  const auto outcomes = sup.run(6, [](std::size_t cell) {
    return "cell-" + std::to_string(cell);
  });
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

  // Exit without replying: protocol error carrying the exit code.
  EXPECT_EQ(outcomes[5].status, CellStatus::kProtocolError);
  EXPECT_EQ(outcomes[5].worker.exit_code, 3);
  EXPECT_NE(outcomes[5].diagnostic.find("empty reply"), std::string::npos)
      << outcomes[5].diagnostic;
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
  const Supervisor a(opts);
  const Supervisor b(opts);
  for (std::size_t cell = 0; cell < 4; ++cell) {
    for (std::uint32_t attempt = 2; attempt <= 5; ++attempt) {
      const double d = a.backoffSeconds(cell, attempt);
      EXPECT_EQ(d, b.backoffSeconds(cell, attempt));
      // base * 2^(attempt-2) * (1 + jitter), jitter in [0, 1).
      const double floor = 0.25 * static_cast<double>(1u << (attempt - 2));
      EXPECT_GE(d, floor) << "cell " << cell << " attempt " << attempt;
      EXPECT_LT(d, 2.0 * floor) << "cell " << cell << " attempt " << attempt;
    }
  }
  // A different seed produces different jitter somewhere.
  SupervisorOptions other = opts;
  other.backoff_seed = 0x1234;
  const Supervisor c(other);
  bool any_diff = false;
  for (std::size_t cell = 0; cell < 4 && !any_diff; ++cell) {
    any_diff = a.backoffSeconds(cell, 2) != c.backoffSeconds(cell, 2);
  }
  EXPECT_TRUE(any_diff);
  // First attempt needs no backoff.
  EXPECT_EQ(a.backoffSeconds(0, 1), 0.0);
}

// Regression for the old `cell * 64 + attempt` jitter seed: (cell 0,
// attempt 66) and (cell 1, attempt 2) packed to the same seed and shared
// a jitter stream, and `1ull << (attempt - 2)` was UB from attempt 66 on.
TEST(Supervisor, BackoffSeedDoesNotCollideAcrossCells) {
  const Supervisor sup(SupervisorOptions{});
  // The old packing's collision pairs must now differ (modulo the scaled
  // floor): compare the jitter fraction, which is seed-determined.
  const auto jitter = [&](std::size_t cell, std::uint32_t attempt) {
    const double floor =
        0.25 * static_cast<double>(1ull << std::min<std::uint32_t>(
                                       attempt - 2, 62));
    return sup.backoffSeconds(cell, attempt) / floor - 1.0;
  };
  EXPECT_NE(jitter(0, 66), jitter(1, 2));
  EXPECT_NE(jitter(0, 130), jitter(2, 2));
  EXPECT_NE(jitter(1, 66), jitter(2, 2));

  // Huge attempt numbers are finite (clamped exponent), monotone-capped,
  // and UBSan-clean.
  const double capped = sup.backoffSeconds(0, 64);
  for (const std::uint32_t attempt : {66u, 80u, 1000u, ~0u}) {
    const double d = sup.backoffSeconds(0, attempt);
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
  opts.pool = true;
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
  opts.pool = true;
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
  opts.pool = true;
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
    opts.pool = true;
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

// The full chaos matrix under the pool produces the same containment
// statuses and diagnostics fields as fork-per-cell workers.
TEST(SupervisorPool, ChaosMatrixMatchesForkedStatuses) {
  if (!Supervisor::isolationSupported()) {
    GTEST_SKIP() << "no fork on this platform";
  }
  SupervisorOptions opts;
  opts.isolate = true;
  opts.pool = true;
  opts.jobs = 3;
  opts.cell_timeout_seconds = 2.0;
  opts.chaos =
      *support::ChaosPlan::parse("1:crash,2:hang,3:garbage,4:partial,5:exit");
  const Supervisor sup(opts);

  const auto outcomes = sup.run(6, [](std::size_t cell) {
    return "cell-" + std::to_string(cell);
  });
  ASSERT_EQ(outcomes.size(), 6u);

  EXPECT_EQ(outcomes[0].status, CellStatus::kOk);
  EXPECT_EQ(outcomes[0].payload, "cell-0");
  EXPECT_EQ(outcomes[0].worker.attempts, 1u);
  EXPECT_EQ(outcomes[0].worker.exit_code, 0);

  EXPECT_EQ(outcomes[1].status, CellStatus::kCrashed);
  EXPECT_EQ(outcomes[1].worker.term_signal, SIGSEGV);

  EXPECT_EQ(outcomes[2].status, CellStatus::kTimeout);
  EXPECT_TRUE(outcomes[2].worker.timed_out);
  EXPECT_EQ(outcomes[2].worker.term_signal, SIGKILL);
  EXPECT_NE(outcomes[2].diagnostic.find("wall-clock"), std::string::npos)
      << outcomes[2].diagnostic;

  EXPECT_EQ(outcomes[3].status, CellStatus::kProtocolError);
  EXPECT_NE(outcomes[3].diagnostic.find("magic"), std::string::npos)
      << outcomes[3].diagnostic;
  EXPECT_FALSE(outcomes[3].worker.partial_reply.empty());

  EXPECT_EQ(outcomes[4].status, CellStatus::kProtocolError);
  EXPECT_FALSE(outcomes[4].worker.partial_reply.empty());

  EXPECT_EQ(outcomes[5].status, CellStatus::kProtocolError);
  EXPECT_EQ(outcomes[5].worker.exit_code, 3);
  EXPECT_NE(outcomes[5].diagnostic.find("empty reply"), std::string::npos)
      << outcomes[5].diagnostic;
}

// Chaos targets (cell, attempt) on pooled workers exactly as on one-shot
// workers: a first-attempt-only crash retries onto a healthy worker.
TEST(SupervisorPool, RetriesTransientFailureOnRespawnedWorker) {
  if (!Supervisor::isolationSupported()) {
    GTEST_SKIP() << "no fork on this platform";
  }
  SupervisorOptions opts;
  opts.isolate = true;
  opts.pool = true;
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
  opts.pool = true;
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
  opts.pool = true;
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
  const std::string ck = readWholeFile(opts.checkpoint_path);
  EXPECT_EQ(countLines(opts.checkpoint_path), 3u);
  EXPECT_NE(ck.find("crashed"), std::string::npos);
  EXPECT_NE(ck.find("budget_exceeded"), std::string::npos);

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

// `sptc inject --resume` semantics: ok checkpoint lines are reused without
// re-running their cells (proved by planting a marker value in the file),
// failed lines re-run, and the format is the sweep's spt-sweep-v1.
TEST(SupervisedCampaign, CheckpointResumeReusesOkCells) {
  FaultCampaignOptions opts;
  opts.seeds = 1;
  opts.jobs = 4;
  opts.checkpoint_path = ::testing::TempDir() + "/spt_campaign_ck.txt";

  const FaultCampaignResult first = runFaultCampaign(opts);
  ASSERT_TRUE(first.allCellsOk());
  ASSERT_EQ(countLines(opts.checkpoint_path), first.cells.size());

  // Tamper with the checkpoint: append a *later* line for cell 0 with a
  // marker injected-count (last line wins), and a failed line for cell 1
  // (must re-run).
  {
    CheckpointLine line;
    const auto parsed =
        loadCheckpoint(opts.checkpoint_path, /*expected_metrics=*/11);
    const std::string key0 =
        checkpointKey(first.cells[0].benchmark,
                      "cell:0/seed:" +
                          std::to_string(first.cells[0].fault_seed));
    ASSERT_TRUE(parsed.count(key0));
    line = parsed.at(key0);
    line.metrics[0] = 999999;  // marker injected count
    std::ofstream append(opts.checkpoint_path, std::ios::app);
    append << formatCheckpointLine(line) << '\n';
    line = parsed.at(checkpointKey(
        first.cells[1].benchmark,
        "cell:1/seed:" + std::to_string(first.cells[1].fault_seed)));
    line.status = CellStatus::kInternalError;
    line.diagnostic = "poisoned for the resume test";
    append << formatCheckpointLine(line) << '\n';
  }

  opts.resume = true;
  const FaultCampaignResult second = runFaultCampaign(opts);
  ASSERT_EQ(second.cells.size(), first.cells.size());
  // Cell 0 was reused from the tampered line — it did not re-run.
  EXPECT_EQ(second.cells[0].faults.injected, 999999u);
  // Cell 1's failed line forced a re-run; it is healthy again and its
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
// greps away — so pooled and forked JSON can be compared byte-for-byte.
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

TEST(SupervisorPool, PooledSweepJsonMatchesForkedByteForByte) {
  if (!Supervisor::isolationSupported()) {
    GTEST_SKIP() << "no fork on this platform";
  }
  std::vector<SweepCase> cases;
  for (const char* name : {"crafty", "vortex"}) {
    SweepCase c;
    c.benchmark = name;
    c.entry = entryByName(name);
    cases.push_back(std::move(c));
  }

  SweepOptions opts;
  opts.supervisor.isolate = true;
  opts.supervisor.cell_timeout_seconds = 240.0;
  opts.supervisor.chaos = *support::ChaosPlan::parse("1:crash");
  const auto forked = runSweep(ParallelSweep(2), cases, opts);

  opts.supervisor.pool = true;
  const auto pooled = runSweep(ParallelSweep(2), cases, opts);

  ASSERT_EQ(forked.size(), pooled.size());
  for (std::size_t i = 0; i < forked.size(); ++i) {
    EXPECT_EQ(forked[i].status, pooled[i].status) << i;
    EXPECT_EQ(forked[i].result.baseline.cycles,
              pooled[i].result.baseline.cycles);
    EXPECT_EQ(forked[i].result.spt.cycles, pooled[i].result.spt.cycles);
    EXPECT_EQ(forked[i].worker.attempts, pooled[i].worker.attempts);
    EXPECT_EQ(forked[i].worker.term_signal, pooled[i].worker.term_signal);
  }

  const std::string fork_path = ::testing::TempDir() + "/spt_fork_sweep.json";
  const std::string pool_path = ::testing::TempDir() + "/spt_pool_sweep.json";
  ASSERT_TRUE(writeSweepJson(fork_path, forked));
  ASSERT_TRUE(writeSweepJson(pool_path, pooled));
  EXPECT_EQ(filterHostDependentLines(readWholeFile(fork_path)),
            filterHostDependentLines(readWholeFile(pool_path)));
}

TEST(SupervisorPool, PooledCampaignMatchesForked) {
  if (!Supervisor::isolationSupported()) {
    GTEST_SKIP() << "no fork on this platform";
  }
  FaultCampaignOptions forked_opts;
  forked_opts.seeds = 1;
  forked_opts.jobs = 4;
  forked_opts.supervisor.isolate = true;
  forked_opts.supervisor.cell_timeout_seconds = 240.0;

  FaultCampaignOptions pooled_opts = forked_opts;
  pooled_opts.supervisor.pool = true;

  const FaultCampaignResult forked = runFaultCampaign(forked_opts);
  const FaultCampaignResult pooled = runFaultCampaign(pooled_opts);

  ASSERT_EQ(forked.cells.size(), pooled.cells.size());
  for (std::size_t i = 0; i < forked.cells.size(); ++i) {
    const FaultCampaignCell& a = forked.cells[i];
    const FaultCampaignCell& b = pooled.cells[i];
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
    EXPECT_GT(b.worker.attempts, 0u);
  }

  const std::string fork_path =
      ::testing::TempDir() + "/spt_fork_campaign.json";
  const std::string pool_path =
      ::testing::TempDir() + "/spt_pool_campaign.json";
  ASSERT_TRUE(writeFaultCampaignJson(fork_path, forked));
  ASSERT_TRUE(writeFaultCampaignJson(pool_path, pooled));
  EXPECT_EQ(filterHostDependentLines(readWholeFile(fork_path)),
            filterHostDependentLines(readWholeFile(pool_path)));
}

// ---- Checkpoint field escaping -------------------------------------------

TEST(Checkpoint, EscapeRoundTripsHostileFields) {
  const std::vector<std::string> hostile = {
      "",
      "plain",
      "tab\there",
      "newline\nhere",
      "cr\rhere",
      "back\\slash",
      "\\t literal backslash-t",
      "all\tof\nthem\r\\together\n\t\\",
      "trailing backslash \\",
      std::string(1, '\0') + "embedded nul",
  };
  for (const std::string& s : hostile) {
    const std::string escaped = escapeCheckpointField(s);
    // Escaped text never carries a raw separator byte.
    EXPECT_EQ(escaped.find('\t'), std::string::npos) << s;
    EXPECT_EQ(escaped.find('\n'), std::string::npos) << s;
    EXPECT_EQ(escaped.find('\r'), std::string::npos) << s;
    EXPECT_EQ(unescapeCheckpointField(escaped), s) << s;
  }
}

TEST(Checkpoint, HostileDiagnosticsSurviveFormatParseRoundTrip) {
  const std::vector<std::string> hostile = {
      "multi-line oracle divergence:\n  frame 3 reg r5: 17 != 19\n  "
      "frame 4 reg r6: 1 != 2",
      "worker stderr:\tassert failed\r\nbacktrace:\n#0 main",
      "backslash soup \\t \\n \\\\ \\",
  };
  for (const std::string& diag : hostile) {
    CheckpointLine line;
    line.status = CellStatus::kInternalError;
    line.benchmark = "bench\twith\ttabs";
    line.config = "config\nwith\nnewlines";
    line.metrics = {1, 2, 3};
    line.diagnostic = diag;

    const std::string text = formatCheckpointLine(line);
    // The formatted row is exactly one line of the file.
    EXPECT_EQ(text.find('\n'), std::string::npos);
    EXPECT_EQ(text.find('\r'), std::string::npos);

    CheckpointLine parsed;
    ASSERT_TRUE(parseCheckpointLine(text, 3, &parsed)) << diag;
    EXPECT_EQ(parsed.status, line.status);
    EXPECT_EQ(parsed.benchmark, line.benchmark);
    EXPECT_EQ(parsed.config, line.config);
    EXPECT_EQ(parsed.metrics, line.metrics);
    EXPECT_EQ(parsed.diagnostic, diag);
  }
}

TEST(Checkpoint, HostileFieldsSurviveARealFileViaLoadCheckpoint) {
  const std::string path = ::testing::TempDir() + "/spt_hostile_ck.txt";
  CheckpointLine line;
  line.status = CellStatus::kCrashed;
  line.benchmark = "gzip";
  line.config = "srb=64";
  line.metrics = {7};
  line.diagnostic =
      "worker killed by signal 6 (Aborted)\nstderr:\tassertion `x != "
      "nullptr' failed\r\n(core dumped)";
  {
    std::ofstream out(path, std::ios::trunc);
    out << formatCheckpointLine(line) << '\n';
    // A second, hostile-keyed row exercises last-line-wins keying too.
    CheckpointLine keyed = line;
    keyed.benchmark = "bench\nnewline";
    out << formatCheckpointLine(keyed) << '\n';
  }
  const auto map = loadCheckpoint(path, 1);
  ASSERT_EQ(map.size(), 2u);
  const auto it = map.find(checkpointKey("gzip", "srb=64"));
  ASSERT_NE(it, map.end());
  EXPECT_EQ(it->second.diagnostic, line.diagnostic);
  ASSERT_NE(map.find(checkpointKey("bench\nnewline", "srb=64")), map.end());
}

TEST(Checkpoint, PreEscapingRowsStillParse) {
  // A row written by the old sanitize-to-spaces code: no backslashes, no
  // control bytes. The new parser must read it unchanged.
  const std::string old_row =
      "spt-sweep-v1\tok\tbzip2\tdefault\t42\tdiag with spaces only";
  CheckpointLine parsed;
  ASSERT_TRUE(parseCheckpointLine(old_row, 1, &parsed));
  EXPECT_EQ(parsed.benchmark, "bzip2");
  EXPECT_EQ(parsed.config, "default");
  EXPECT_EQ(parsed.metrics, std::vector<std::uint64_t>{42});
  EXPECT_EQ(parsed.diagnostic, "diag with spaces only");
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


// ---- Checkpoint torn-tail property ----------------------------------------

// Satellite property test for the torn-tail loader: truncating a
// checkpoint file at EVERY byte offset must either resume cleanly or drop
// only the torn trailing record — never crash, never resume a corrupted
// row. The expected map at each offset is exactly the set of records
// whose terminating newline survived the cut.
TEST(Checkpoint, TruncationAtEveryByteOffsetLosesAtMostTheTornTail) {
  const std::size_t kMetrics = 3;
  std::vector<CheckpointLine> lines;
  {
    CheckpointLine a;
    a.status = CellStatus::kOk;
    a.benchmark = "mcf";
    a.config = "default";
    a.metrics = {101, 202, 303};
    lines.push_back(a);
  }
  {
    CheckpointLine b;
    b.status = CellStatus::kCrashed;
    b.benchmark = "gzip";
    b.config = "cell:1/seed:42";
    b.metrics = {7, 0, 999999};
    b.diagnostic = "hostile\tdiag\nwith separators";
    lines.push_back(b);
  }
  {
    CheckpointLine c;
    c.status = CellStatus::kOk;
    c.benchmark = "mcf";
    c.config = "default";  // same key as the first line: last-wins
    c.metrics = {111, 222, 333};
    lines.push_back(c);
  }

  std::string full;
  std::vector<std::size_t> ends;  // byte offset just past each record
  for (const CheckpointLine& l : lines) {
    full += formatCheckpointLine(l) + '\n';
    ends.push_back(full.size());
  }

  const std::string path =
      ::testing::TempDir() + "/spt_truncation_property_ck.txt";
  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(full.data(), static_cast<std::streamsize>(cut));
    }
    // Expected: exactly the records whose '\n' survived, last-line-wins.
    std::map<std::string, CheckpointLine> want;
    std::size_t complete = 0;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (ends[i] <= cut) {
        want[checkpointKey(lines[i].benchmark, lines[i].config)] = lines[i];
        complete = ends[i];
      }
    }
    std::string warning;
    const auto got = loadCheckpoint(path, kMetrics, &warning);
    ASSERT_EQ(got.size(), want.size()) << "cut at byte " << cut;
    for (const auto& [key, wl] : want) {
      const auto it = got.find(key);
      ASSERT_NE(it, got.end()) << "cut at byte " << cut << ", key " << key;
      EXPECT_EQ(it->second.status, wl.status) << "cut at byte " << cut;
      EXPECT_EQ(it->second.metrics, wl.metrics) << "cut at byte " << cut;
      EXPECT_EQ(it->second.diagnostic, wl.diagnostic)
          << "cut at byte " << cut;
    }
    // The loader reports a torn tail iff the cut left one.
    if (cut == complete) {
      EXPECT_TRUE(warning.empty()) << "cut at byte " << cut << ": " << warning;
    } else {
      EXPECT_FALSE(warning.empty()) << "cut at byte " << cut;
    }
  }
}

// A line written with a different metric count never parses under this
// loader's expectation — the sweep service appends sweep (20-metric) and
// campaign (11-metric) records to one file, and each resume path must
// keep only its own shape instead of gluing foreign columns into the
// diagnostic.
TEST(Checkpoint, MixedMetricShapesDoNotCrossParse) {
  CheckpointLine sweep_like;
  sweep_like.benchmark = "mcf";
  sweep_like.config = "default";
  sweep_like.metrics = {1, 2, 3, 4, 5};
  sweep_like.diagnostic = "fine";
  const std::string text = formatCheckpointLine(sweep_like);
  CheckpointLine out;
  EXPECT_TRUE(parseCheckpointLine(text, 5, &out));
  EXPECT_FALSE(parseCheckpointLine(text, 3, &out));  // extra columns
  EXPECT_FALSE(parseCheckpointLine(text, 6, &out));  // missing columns
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
  opts.pool = true;
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
// sabotaged cell as a contained protocol_error. Exercised on both worker
// models, with the default disposition explicitly restored around the
// runs so a latent regression cannot hide behind gtest's own handlers.
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

  for (const bool pooled : {false, true}) {
    SupervisorOptions opts;
    opts.isolate = true;
    opts.pool = pooled;
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
    ASSERT_EQ(outcomes.size(), 8u) << (pooled ? "pooled" : "forked");
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      EXPECT_EQ(outcomes[i].status, CellStatus::kProtocolError)
          << (pooled ? "pooled" : "forked") << " cell " << i << ": "
          << outcomes[i].diagnostic;
    }
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
  opts.pool = true;
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

#endif  // POSIX


}  // namespace
}  // namespace spt::harness
