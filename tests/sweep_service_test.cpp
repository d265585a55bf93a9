// Tests for the resident sweep service (`sptc serve`): the SPTS request
// codec, echo/sweep/campaign round-trips through a live service process,
// admission control (backpressure, validation, chaos opt-in), per-request
// deadlines, client-side sabotage containment, graceful drain, and the
// byte-determinism contract against the one-shot pooled paths.
//
// Every service test forks a real service child (`_exit(service.run())`)
// and talks to it over its Unix-domain socket with submitToService — the
// same client the CLI uses — so the whole socket/poll/drain machinery is
// exercised, not a mock.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness/cell_status.h"
#include "harness/checkpoint.h"
#include "harness/fault_campaign.h"
#include "harness/journal.h"
#include "harness/parallel_sweep.h"
#include "harness/suite.h"
#include "harness/supervisor.h"
#include "harness/sweep_service.h"
#include "support/chaos.h"
#include "support/rng.h"

#if defined(__unix__) || (defined(__APPLE__) && defined(__MACH__))
#define SPT_SERVICE_TEST_POSIX 1
#include <csignal>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace spt::harness {
namespace {

std::string readWholeFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// The CI byte-determinism filter: drop the lines that legitimately differ
// between runs (host-side timings/rss and free-text diagnostics).
std::string filterHostLines(const std::string& json) {
  std::stringstream in(json);
  std::string line;
  std::string out;
  while (std::getline(in, line)) {
    if (line.find("\"host_") != std::string::npos) continue;
    if (line.find("\"diagnostic\"") != std::string::npos) continue;
    if (line.find("\"partial_reply\"") != std::string::npos) continue;
    out += line;
    out += '\n';
  }
  return out;
}

// ---- ServiceRequest codec -------------------------------------------------

ServiceRequest sampleRequest() {
  ServiceRequest req;
  req.kind = ServiceRequest::Kind::kCampaign;
  req.scale = 3;
  req.machine.memory_latency_cycles = 175;
  req.machine.fetch_width = 4;
  req.machine.fault_plan.period = 9;
  req.copts.min_avg_body_size = 5.0;
  req.benchmarks = {"mcf", "gzip"};
  req.seeds = 4;
  req.base_seed = 0xfeedbeef;
  req.period = 16;
  req.oracle = support::OracleMode::kDeep;
  req.echo_cells = 12;
  req.echo_payload = "ping\tpong\n";
  req.deadline_seconds = 2.5;
  req.chaos = *support::ChaosPlan::parse("2:crash@1,5:hang");
  return req;
}

TEST(ServiceRequestCodec, RoundTripsEveryField) {
  const ServiceRequest req = sampleRequest();
  const std::string bytes = encodeServiceRequest(req);
  ServiceRequest back;
  ASSERT_TRUE(decodeServiceRequest(bytes, &back));
  EXPECT_EQ(back.kind, req.kind);
  EXPECT_EQ(back.scale, req.scale);
  EXPECT_EQ(back.machine.memory_latency_cycles,
            req.machine.memory_latency_cycles);
  EXPECT_EQ(back.machine.fetch_width, req.machine.fetch_width);
  EXPECT_EQ(back.machine.fault_plan.period, req.machine.fault_plan.period);
  EXPECT_DOUBLE_EQ(back.copts.min_avg_body_size, req.copts.min_avg_body_size);
  EXPECT_EQ(back.benchmarks, req.benchmarks);
  EXPECT_EQ(back.seeds, req.seeds);
  EXPECT_EQ(back.base_seed, req.base_seed);
  EXPECT_EQ(back.period, req.period);
  EXPECT_EQ(back.oracle, req.oracle);
  EXPECT_EQ(back.echo_cells, req.echo_cells);
  EXPECT_EQ(back.echo_payload, req.echo_payload);
  EXPECT_DOUBLE_EQ(back.deadline_seconds, req.deadline_seconds);
  EXPECT_EQ(back.chaos.toSpec(), req.chaos.toSpec());
}

TEST(ServiceRequestCodec, RejectsEveryTruncationAndTrailingGarbage) {
  const std::string bytes = encodeServiceRequest(sampleRequest());
  ServiceRequest back;
  // Every proper prefix must fail to decode — no silent partial request.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(decodeServiceRequest(bytes.substr(0, len), &back))
        << "prefix of " << len << " bytes decoded";
  }
  // And so must trailing garbage (the decoder requires atEnd()).
  EXPECT_FALSE(decodeServiceRequest(bytes + '\0', &back));
  EXPECT_TRUE(decodeServiceRequest(bytes, &back));
}

#ifdef SPT_SERVICE_TEST_POSIX

// ---- Live-service fixture -------------------------------------------------

volatile std::sig_atomic_t g_service_stop = 0;
extern "C" void serviceStopHandler(int) { g_service_stop = 1; }

struct ServiceHandle {
  pid_t pid = -1;
  std::string socket_path;
};

/// Forks a child that runs a SweepService on `socket_path` until SIGTERM;
/// waits for the socket to answer a status query before returning. The
/// kill/restart tests reuse one socket path across service incarnations,
/// so the path is the caller's (startService generates a fresh one).
ServiceHandle startServiceAt(SweepServiceOptions opts,
                             const std::string& socket_path) {
  ServiceHandle h;
  h.socket_path = socket_path;
  opts.socket_path = h.socket_path;
  if (opts.supervisor.jobs == 0) opts.supervisor.jobs = 2;
  if (opts.supervisor.cell_timeout_seconds == 0.0) {
    opts.supervisor.cell_timeout_seconds = 240.0;
  }
  const pid_t pid = ::fork();
  if (pid == 0) {
    g_service_stop = 0;
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = serviceStopHandler;
    sigemptyset(&sa.sa_mask);
    ::sigaction(SIGTERM, &sa, nullptr);
    opts.stop = &g_service_stop;
    opts.log = nullptr;
    SweepService service(std::move(opts));
    ::_exit(service.run());
  }
  h.pid = pid;
  // Wait (up to ~10 s) for the service to answer on the socket.
  for (int i = 0; i < 200; ++i) {
    if (queryServiceStatus(h.socket_path)) return h;
    ::usleep(50 * 1000);
  }
  ADD_FAILURE() << "service did not come up on " << h.socket_path;
  return h;
}

ServiceHandle startService(SweepServiceOptions opts, const std::string& tag) {
  const std::string path = ::testing::TempDir() + "/spts_" + tag + "_" +
                           std::to_string(::getpid()) + ".sock";
  ::unlink(path.c_str());
  return startServiceAt(std::move(opts), path);
}

/// SIGTERMs the service and returns its exit code (-1 on abnormal death).
int stopService(const ServiceHandle& h) {
  if (h.pid <= 0) return -1;
  ::kill(h.pid, SIGTERM);
  int status = 0;
  if (::waitpid(h.pid, &status, 0) != h.pid) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// ---- Echo, status, drain --------------------------------------------------

TEST(SweepService, EchoRoundTripsInOrderAndDrainsCleanly) {
  if (!SweepService::supported()) GTEST_SKIP() << "no AF_UNIX/fork here";
  const ServiceHandle h = startService({}, "echo");
  ASSERT_GT(h.pid, 0);

  ServiceRequest req;
  req.kind = ServiceRequest::Kind::kEcho;
  req.echo_cells = 8;
  req.echo_payload = "ping";
  std::uint64_t progress_calls = 0;
  SubmitOptions sopts;
  sopts.on_progress = [&](std::uint64_t, std::uint64_t) { ++progress_calls; };
  const SubmitOutcome out = submitToService(h.socket_path, req, sopts);
  EXPECT_TRUE(out.ok) << out.error;
  EXPECT_FALSE(out.busy);
  ASSERT_EQ(out.echoes.size(), 8u);
  for (std::size_t i = 0; i < out.echoes.size(); ++i) {
    EXPECT_EQ(out.echoes[i], "ping:" + std::to_string(i));
  }
  EXPECT_EQ(progress_calls, 8u);

  // Status introspection: well-formed JSON with the advertised sections.
  std::string err;
  const auto status = queryServiceStatus(h.socket_path, &err);
  ASSERT_TRUE(status.has_value()) << err;
  EXPECT_NE(status->find("\"workers\""), std::string::npos) << *status;
  EXPECT_NE(status->find("\"queue\""), std::string::npos) << *status;
  EXPECT_NE(status->find("\"clients\""), std::string::npos) << *status;
  EXPECT_NE(status->find("\"resource\""), std::string::npos) << *status;

  // SIGTERM drains to exit 0 and removes the socket.
  EXPECT_EQ(stopService(h), 0);
  EXPECT_NE(::access(h.socket_path.c_str(), F_OK), 0);
}

// ---- Admission control ----------------------------------------------------

TEST(SweepService, AdmissionRefusalsAreStructuredAndNonFatal) {
  if (!SweepService::supported()) GTEST_SKIP() << "no AF_UNIX/fork here";
  SweepServiceOptions opts;
  opts.max_queue = 4;  // tiny bound so one request overflows it
  const ServiceHandle h = startService(std::move(opts), "admit");
  ASSERT_GT(h.pid, 0);

  // Over-quota request: kBusy with a positive retry_after hint.
  ServiceRequest big;
  big.kind = ServiceRequest::Kind::kEcho;
  big.echo_cells = 50;
  const SubmitOutcome busy = submitToService(h.socket_path, big);
  EXPECT_FALSE(busy.ok);
  EXPECT_TRUE(busy.busy) << busy.error;
  EXPECT_GT(busy.retry_after_seconds, 0.0);

  // Unknown benchmark: kError naming the problem.
  ServiceRequest bad;
  bad.kind = ServiceRequest::Kind::kSweep;
  bad.benchmarks = {"no-such-workload"};
  const SubmitOutcome rejected = submitToService(h.socket_path, bad);
  EXPECT_FALSE(rejected.ok);
  EXPECT_FALSE(rejected.busy);
  EXPECT_NE(rejected.error.find("unknown benchmark"), std::string::npos)
      << rejected.error;

  // Chaos without the service-side opt-in: refused, not run.
  ServiceRequest sab;
  sab.kind = ServiceRequest::Kind::kEcho;
  sab.echo_cells = 2;
  sab.chaos = *support::ChaosPlan::parse("0:crash");
  const SubmitOutcome refused = submitToService(h.socket_path, sab);
  EXPECT_FALSE(refused.ok);
  EXPECT_FALSE(refused.busy);
  EXPECT_NE(refused.error.find("chaos"), std::string::npos) << refused.error;

  // The service survived all three refusals and still does real work.
  ServiceRequest ok_req;
  ok_req.kind = ServiceRequest::Kind::kEcho;
  ok_req.echo_cells = 2;
  ok_req.echo_payload = "after";
  const SubmitOutcome ok_out = submitToService(h.socket_path, ok_req);
  EXPECT_TRUE(ok_out.ok) << ok_out.error;
  ASSERT_EQ(ok_out.echoes.size(), 2u);
  EXPECT_EQ(ok_out.echoes[1], "after:1");

  EXPECT_EQ(stopService(h), 0);
}

// ---- Worker chaos containment --------------------------------------------

TEST(SweepService, WorkerChaosFailsOnlyItsCellAndRetriesRecover) {
  if (!SweepService::supported()) GTEST_SKIP() << "no AF_UNIX/fork here";
  SweepServiceOptions opts;
  opts.allow_chaos = true;
  opts.supervisor.retries = 1;
  opts.supervisor.backoff_base_seconds = 0.01;
  const ServiceHandle h = startService(std::move(opts), "chaos");
  ASSERT_GT(h.pid, 0);

  // Cell 1 crashes its pooled worker on attempt 1 only; the retry (on a
  // respawned worker) succeeds, and the neighbours are untouched.
  ServiceRequest req;
  req.kind = ServiceRequest::Kind::kEcho;
  req.echo_cells = 3;
  req.echo_payload = "x";
  req.chaos = *support::ChaosPlan::parse("1:crash@1");
  const SubmitOutcome out = submitToService(h.socket_path, req);
  EXPECT_TRUE(out.ok) << out.error;
  ASSERT_EQ(out.echoes.size(), 3u);
  EXPECT_EQ(out.echoes[0], "x:0");
  EXPECT_EQ(out.echoes[1], "x:1");  // recovered on attempt 2
  EXPECT_EQ(out.echoes[2], "x:2");

  // With retries exhausted the sabotaged cell fails — alone.
  ServiceRequest fatal;
  fatal.kind = ServiceRequest::Kind::kEcho;
  fatal.echo_cells = 3;
  fatal.echo_payload = "y";
  fatal.chaos = *support::ChaosPlan::parse("0:crash");
  const SubmitOutcome out2 = submitToService(h.socket_path, fatal);
  EXPECT_TRUE(out2.ok) << out2.error;
  ASSERT_EQ(out2.echoes.size(), 3u);
  EXPECT_EQ(out2.echoes[0], "error:crashed");
  EXPECT_EQ(out2.echoes[1], "y:1");
  EXPECT_EQ(out2.echoes[2], "y:2");

  EXPECT_EQ(stopService(h), 0);
}

// ---- Per-request deadlines ------------------------------------------------

TEST(SweepService, DeadlineSettlesQueuedCellsAsTimeout) {
  if (!SweepService::supported()) GTEST_SKIP() << "no AF_UNIX/fork here";
  SweepServiceOptions opts;
  opts.supervisor.jobs = 1;  // force a deep queue
  const ServiceHandle h = startService(std::move(opts), "deadline");
  ASSERT_GT(h.pid, 0);

  // One worker round trip per echo cell takes tens of microseconds, so 64
  // cells could occasionally drain inside 1 ms; 512 cannot.
  constexpr std::size_t kCells = 512;
  ServiceRequest req;
  req.kind = ServiceRequest::Kind::kEcho;
  req.echo_cells = kCells;
  req.echo_payload = "late";
  req.deadline_seconds = 0.001;  // expires before the queue can drain
  const SubmitOutcome out = submitToService(h.socket_path, req);
  // The request still completes — every cell settles and kDone arrives —
  // but cells that never reached a worker report the deadline as timeout.
  EXPECT_TRUE(out.ok) << out.error;
  ASSERT_EQ(out.echoes.size(), kCells);
  std::size_t timed_out = 0;
  for (const std::string& e : out.echoes) {
    if (e == "error:timeout") ++timed_out;
  }
  EXPECT_GT(timed_out, 0u);

  // The service is immediately reusable afterwards.
  ServiceRequest again;
  again.kind = ServiceRequest::Kind::kEcho;
  again.echo_cells = 2;
  again.echo_payload = "ontime";
  const SubmitOutcome out2 = submitToService(h.socket_path, again);
  EXPECT_TRUE(out2.ok) << out2.error;

  EXPECT_EQ(stopService(h), 0);
}

// ---- Client sabotage containment -----------------------------------------

TEST(SweepService, SaboteurClientsDoNotAffectHealthyClients) {
  if (!SweepService::supported()) GTEST_SKIP() << "no AF_UNIX/fork here";
  const ServiceHandle h = startService({}, "sabotage");
  ASSERT_GT(h.pid, 0);

  // A client that vanishes right after sending its request: its queued
  // cells are cancelled server-side, nobody else notices.
  ServiceRequest req;
  req.kind = ServiceRequest::Kind::kEcho;
  req.echo_cells = 20;
  req.echo_payload = "gone";
  SubmitOptions drop;
  drop.chaos.action = support::ClientChaosAction::kDisconnect;
  drop.chaos.after_results = 0;
  const SubmitOutcome dropped = submitToService(h.socket_path, req, drop);
  EXPECT_FALSE(dropped.ok);  // the saboteur itself never saw kDone

  // A client that writes garbage instead of a frame: disconnected.
  SubmitOptions junk;
  junk.chaos.action = support::ClientChaosAction::kGarbage;
  junk.chaos.after_results = 0;
  const SubmitOutcome garbled = submitToService(h.socket_path, req, junk);
  EXPECT_FALSE(garbled.ok);

  // A deliberately slow reader: the service buffers (bounded) and the
  // request still completes.
  ServiceRequest slow_req;
  slow_req.kind = ServiceRequest::Kind::kEcho;
  slow_req.echo_cells = 6;
  slow_req.echo_payload = "slow";
  SubmitOptions slow;
  slow.chaos.action = support::ClientChaosAction::kSlowReader;
  slow.chaos.delay_ms = 5;
  const SubmitOutcome slowed = submitToService(h.socket_path, slow_req, slow);
  EXPECT_TRUE(slowed.ok) << slowed.error;
  ASSERT_EQ(slowed.echoes.size(), 6u);
  EXPECT_EQ(slowed.echoes[5], "slow:5");

  // After all three saboteurs, a healthy client gets exact results.
  ServiceRequest healthy;
  healthy.kind = ServiceRequest::Kind::kEcho;
  healthy.echo_cells = 10;
  healthy.echo_payload = "fine";
  const SubmitOutcome out = submitToService(h.socket_path, healthy);
  EXPECT_TRUE(out.ok) << out.error;
  ASSERT_EQ(out.echoes.size(), 10u);
  for (std::size_t i = 0; i < out.echoes.size(); ++i) {
    EXPECT_EQ(out.echoes[i], "fine:" + std::to_string(i));
  }

  // The status document remembers the casualties.
  const auto status = queryServiceStatus(h.socket_path);
  ASSERT_TRUE(status.has_value());
  EXPECT_NE(status->find("\"clients_disconnected\""), std::string::npos)
      << *status;

  EXPECT_EQ(stopService(h), 0);
}

// ---- Byte-determinism vs the one-shot pooled paths ------------------------

TEST(SweepService, SweepJsonMatchesPooledOneShotByteForByte) {
  if (!SweepService::supported()) GTEST_SKIP() << "no AF_UNIX/fork here";
  const std::vector<std::string> benchmarks = {"mcf", "gzip"};
  support::MachineConfig machine;
  compiler::CompilerOptions copts;

  // Baseline: the exact grid `sptc sweep --pool` runs.
  SweepOptions base;
  base.supervisor.isolate = true;
  base.supervisor.pool = true;
  base.supervisor.cell_timeout_seconds = 240.0;
  base.supervisor.jobs = 2;
  const auto cases = buildSuiteSweepCases(machine, copts, 1, benchmarks);
  const auto baseline = runSweep(ParallelSweep(2), cases, base);

  const ServiceHandle h = startService({}, "bytes");
  ASSERT_GT(h.pid, 0);
  ServiceRequest req;
  req.kind = ServiceRequest::Kind::kSweep;
  req.benchmarks = benchmarks;
  req.machine = machine;
  req.copts = copts;
  const SubmitOutcome out = submitToService(h.socket_path, req);
  EXPECT_EQ(stopService(h), 0);
  ASSERT_TRUE(out.ok) << out.error;
  ASSERT_EQ(out.rows.size(), baseline.size());

  const std::string base_path = ::testing::TempDir() + "/spts_base.json";
  const std::string serve_path = ::testing::TempDir() + "/spts_serve.json";
  ASSERT_TRUE(writeSweepJson(base_path, baseline));
  ASSERT_TRUE(writeSweepJson(serve_path, out.rows));
  EXPECT_EQ(filterHostLines(readWholeFile(serve_path)),
            filterHostLines(readWholeFile(base_path)));
}

TEST(SweepService, CampaignCellsMatchStandaloneWorkers) {
  if (!SweepService::supported()) GTEST_SKIP() << "no AF_UNIX/fork here";
  const ServiceHandle h = startService({}, "campaign");
  ASSERT_GT(h.pid, 0);

  ServiceRequest req;
  req.kind = ServiceRequest::Kind::kCampaign;
  req.benchmarks = {"mcf"};
  req.seeds = 2;
  req.base_seed = 0xc0ffee;
  req.period = 16;
  const SubmitOutcome out = submitToService(h.socket_path, req);
  EXPECT_EQ(stopService(h), 0);
  ASSERT_TRUE(out.ok) << out.error;
  ASSERT_EQ(out.campaign.cells.size(), 2u);

  // Expected cells via the exact worker body the service dispatches.
  FaultCampaignOptions copts;
  copts.seeds = req.seeds;
  copts.base_seed = req.base_seed;
  copts.period = req.period;
  copts.oracle = req.oracle;
  copts.machine = req.machine;
  copts.scale = req.scale;
  for (std::size_t i = 0; i < 2; ++i) {
    const FaultCampaignCell want =
        runFaultCampaignCellStandalone("mcf", i, copts);
    const FaultCampaignCell& got = out.campaign.cells[i];
    EXPECT_EQ(got.benchmark, want.benchmark);
    EXPECT_EQ(got.fault_seed, want.fault_seed);
    EXPECT_EQ(got.status, want.status);
    EXPECT_EQ(got.faults.injected, want.faults.injected);
    EXPECT_EQ(got.faults.detected_by_net, want.faults.detected_by_net);
    EXPECT_EQ(got.faults.detected_by_oracle, want.faults.detected_by_oracle);
    EXPECT_EQ(got.faults.benign, want.faults.benign);
    EXPECT_EQ(got.faults.escaped, want.faults.escaped);
    EXPECT_EQ(got.arch_digest, want.arch_digest);
    EXPECT_EQ(got.sequential_digest, want.sequential_digest);
    EXPECT_EQ(got.oracle_checks, want.oracle_checks);
    EXPECT_EQ(got.digest_match, want.digest_match);
  }
  // Totals accumulate over ok cells exactly as runFaultCampaign's do.
  sim::FaultStats want_totals;
  for (const FaultCampaignCell& c : out.campaign.cells) {
    if (c.ok()) want_totals.accumulate(c.faults);
  }
  EXPECT_EQ(out.campaign.totals.injected, want_totals.injected);
  EXPECT_EQ(out.campaign.totals.escaped, want_totals.escaped);
}

// ---- Checkpointing --------------------------------------------------------

TEST(SweepService, CheckpointCarriesSweepAndCampaignLines) {
  if (!SweepService::supported()) GTEST_SKIP() << "no AF_UNIX/fork here";
  SweepServiceOptions opts;
  opts.checkpoint_path = ::testing::TempDir() + "/spts_service_ck.txt";
  ::unlink(opts.checkpoint_path.c_str());
  const std::string ck = opts.checkpoint_path;
  const ServiceHandle h = startService(std::move(opts), "ck");
  ASSERT_GT(h.pid, 0);

  ServiceRequest sweep;
  sweep.kind = ServiceRequest::Kind::kSweep;
  sweep.benchmarks = {"mcf"};
  const SubmitOutcome s = submitToService(h.socket_path, sweep);
  ASSERT_TRUE(s.ok) << s.error;

  ServiceRequest camp;
  camp.kind = ServiceRequest::Kind::kCampaign;
  camp.benchmarks = {"mcf"};
  camp.seeds = 1;
  const SubmitOutcome c = submitToService(h.socket_path, camp);
  ASSERT_TRUE(c.ok) << c.error;
  EXPECT_EQ(stopService(h), 0);

  // One side file, two line shapes; each loader keeps its own and skips
  // the other's (mismatched metric count), so `--resume` on either path
  // can consume a service-written checkpoint.
  const auto sweep_map = loadCheckpoint(ck, kSweepCheckpointMetrics);
  ASSERT_EQ(sweep_map.size(), 1u);
  EXPECT_EQ(sweep_map.begin()->second.benchmark, "mcf");
  const auto camp_map = loadCheckpoint(ck, kCampaignCheckpointMetrics);
  ASSERT_EQ(camp_map.size(), 1u);
  EXPECT_EQ(camp_map.begin()->second.config,
            campaignCellConfigKey(0, support::deriveSeed(camp.base_seed, 0)));
}

// ---- Drain under load -----------------------------------------------------

TEST(SweepService, SigtermMidRequestDeliversEveryCellAndExitsZero) {
  if (!SweepService::supported()) GTEST_SKIP() << "no AF_UNIX/fork here";
  SweepServiceOptions opts;
  opts.allow_chaos = true;
  opts.supervisor.jobs = 1;  // guarantee queued cells behind the in-flight one
  opts.supervisor.cell_timeout_seconds = 2.0;
  const ServiceHandle h = startService(std::move(opts), "drain");
  ASSERT_GT(h.pid, 0);

  // The client must keep reading while we SIGTERM the service, so it runs
  // in its own process. Cell 0 hangs its worker — it is reliably still
  // in flight when the drain order lands, and cells 1..2 are queued.
  const pid_t client = ::fork();
  if (client == 0) {
    ServiceRequest req;
    req.kind = ServiceRequest::Kind::kEcho;
    req.echo_cells = 3;
    req.echo_payload = "d";
    req.chaos = *support::ChaosPlan::parse("0:hang");
    const SubmitOutcome out = submitToService(h.socket_path, req);
    // Drain semantics: every cell still settles and kDone arrives. The
    // in-flight hung cell runs on under its watchdog (timeout); the
    // queued cells settle as interrupted internal_error.
    if (!out.ok || out.echoes.size() != 3) ::_exit(1);
    if (out.echoes[0] != "error:timeout") ::_exit(2);
    if (out.echoes[1] != "error:internal_error") ::_exit(3);
    if (out.echoes[2] != "error:internal_error") ::_exit(4);
    ::_exit(0);
  }
  ASSERT_GT(client, 0);
  // Let the hung cell reach the worker, then order the drain.
  ::usleep(300 * 1000);
  EXPECT_EQ(stopService(h), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(client, &status, 0), client);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << "client exit " << WEXITSTATUS(status);
}

// ---- Stale-socket recovery ------------------------------------------------

TEST(SweepService, StaleSocketIsReclaimedAndLiveSocketRefused) {
  if (!SweepService::supported()) GTEST_SKIP() << "no AF_UNIX/fork here";
  // SIGKILL leaves the socket file behind (no drain ran to unlink it).
  const ServiceHandle dead = startService({}, "stale");
  ASSERT_GT(dead.pid, 0);
  ::kill(dead.pid, SIGKILL);
  int status = 0;
  ASSERT_EQ(::waitpid(dead.pid, &status, 0), dead.pid);
  ASSERT_EQ(::access(dead.socket_path.c_str(), F_OK), 0)
      << "SIGKILL should leave the socket file";

  // A restart on the same path probes the stale file, unlinks it, binds.
  const ServiceHandle live = startServiceAt({}, dead.socket_path);
  ASSERT_GT(live.pid, 0);
  ASSERT_TRUE(queryServiceStatus(live.socket_path).has_value());

  // A second service on a path owned by a LIVE service must refuse to
  // steal it (exit 1 at startup), and the live service is unharmed.
  const pid_t thief = ::fork();
  if (thief == 0) {
    SweepServiceOptions opts;
    opts.socket_path = live.socket_path;
    opts.supervisor.jobs = 1;
    opts.log = nullptr;
    SweepService service(std::move(opts));
    ::_exit(service.run());
  }
  ASSERT_GT(thief, 0);
  ASSERT_EQ(::waitpid(thief, &status, 0), thief);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 1);
  EXPECT_TRUE(queryServiceStatus(live.socket_path).has_value());
  EXPECT_EQ(stopService(live), 0);
}

// ---- Idempotency tokens ---------------------------------------------------

TEST(SweepService, TokenResubmissionAttachesWithoutDuplicateWork) {
  if (!SweepService::supported()) GTEST_SKIP() << "no AF_UNIX/fork here";
  SweepServiceOptions opts;
  opts.checkpoint_path = ::testing::TempDir() + "/spts_token_ck.txt";
  opts.journal_path = ::testing::TempDir() + "/spts_token_journal.txt";
  ::unlink(opts.checkpoint_path.c_str());
  ::unlink(opts.journal_path.c_str());
  const std::string ck = opts.checkpoint_path;
  const std::string jl = opts.journal_path;
  const ServiceHandle h = startService(std::move(opts), "token");
  ASSERT_GT(h.pid, 0);

  ServiceRequest req;
  req.kind = ServiceRequest::Kind::kSweep;
  req.benchmarks = {"mcf"};

  // First submission vanishes right after sending its request; the token
  // keeps the request running server-side as an orphan.
  SubmitOptions first;
  first.token = "tok-attach";
  first.chaos.action = support::ClientChaosAction::kDisconnect;
  first.chaos.after_results = 0;
  const SubmitOutcome dropped = submitToService(h.socket_path, req, first);
  EXPECT_FALSE(dropped.ok);

  // While the token is bound to the running orphan, the same token with a
  // DIFFERENT grid is a caller bug: refused. (After delivery the token is
  // released — the binding guards the undelivered window, not forever.)
  SubmitOptions again;
  again.token = "tok-attach";
  ServiceRequest other = req;
  other.benchmarks = {"gzip"};
  const SubmitOutcome conflict = submitToService(h.socket_path, other, again);
  EXPECT_FALSE(conflict.ok);
  EXPECT_NE(conflict.error.find("already bound"), std::string::npos)
      << conflict.error;

  // Resubmitting the same token + grid attaches to the orphan and plays
  // the stream to completion; nothing is admitted twice.
  const SubmitOutcome out = submitToService(h.socket_path, req, again);
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_TRUE(out.attached);
  ASSERT_EQ(out.rows.size(), 1u);
  EXPECT_EQ(out.rows[0].benchmark, "mcf");
  EXPECT_TRUE(out.rows[0].ok());

  EXPECT_EQ(stopService(h), 0);

  // Proof of no duplicate work: the sweep ran its one cell exactly once.
  std::size_t checkpoint_lines = 0;
  std::stringstream ck_in(readWholeFile(ck));
  for (std::string line; std::getline(ck_in, line);) {
    if (line.rfind(kCheckpointTag, 0) == 0) ++checkpoint_lines;
  }
  EXPECT_EQ(checkpoint_lines, 1u);
  // And the journal holds one admission, settled at delivery.
  const JournalReplay replay = replayJournal(jl);
  EXPECT_EQ(replay.records_replayed, 2u);
  EXPECT_EQ(replay.requests_settled, 1u);
  EXPECT_TRUE(replay.unsettled.empty());
}

// ---- Kill/restart chaos campaign ------------------------------------------

/// Reaps a service incarnation that scripted its own SIGKILL.
void expectCrashed(const ServiceHandle& h) {
  int status = 0;
  ASSERT_EQ(::waitpid(h.pid, &status, 0), h.pid);
  EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
      << "expected a scripted SIGKILL, got status " << status;
}

TEST(SweepService, KillRestartChaosRecoversByteIdenticalSweep) {
  if (!SweepService::supported()) GTEST_SKIP() << "no AF_UNIX/fork here";
  const std::vector<std::string> benchmarks = {"mcf", "gzip"};

  // Uninterrupted baseline: the exact grid `sptc sweep --pool` runs.
  SweepOptions base;
  base.supervisor.isolate = true;
  base.supervisor.pool = true;
  base.supervisor.cell_timeout_seconds = 240.0;
  base.supervisor.jobs = 2;
  const auto cases = buildSuiteSweepCases({}, {}, 1, benchmarks);
  const auto baseline = runSweep(ParallelSweep(2), cases, base);
  const std::string base_path = ::testing::TempDir() + "/spts_kill_base.json";
  ASSERT_TRUE(writeSweepJson(base_path, baseline));

  const std::string sock = ::testing::TempDir() + "/spts_kill_" +
                           std::to_string(::getpid()) + ".sock";
  const std::string ck = ::testing::TempDir() + "/spts_kill_ck.txt";
  const std::string jl = ::testing::TempDir() + "/spts_kill_journal.txt";
  const std::string serve_path = ::testing::TempDir() + "/spts_kill_serve.json";
  ::unlink(sock.c_str());
  ::unlink(ck.c_str());
  ::unlink(jl.c_str());
  ::unlink(serve_path.c_str());

  const auto incarnation = [&](const char* crash_spec) {
    SweepServiceOptions opts;
    opts.checkpoint_path = ck;
    opts.journal_path = jl;
    if (crash_spec != nullptr) {
      opts.crash = *support::ServiceCrashPlan::parse(crash_spec);
    }
    return startServiceAt(std::move(opts), sock);
  };

  // One persistent client rides out every crash: it resubmits by token
  // (reconnect + re-attach) until the final incarnation delivers.
  ServiceHandle h = incarnation("append:16");  // torn admit record
  ASSERT_GT(h.pid, 0);
  const std::size_t want_rows = baseline.size();
  const pid_t client = ::fork();
  if (client == 0) {
    ServiceRequest req;
    req.kind = ServiceRequest::Kind::kSweep;
    req.benchmarks = benchmarks;
    SubmitOptions sopts;
    sopts.token = "chaos-sweep";
    sopts.retry_for_seconds = 240.0;
    const SubmitOutcome out = submitToServiceWithRetry(sock, req, sopts);
    if (!out.ok) ::_exit(1);
    if (out.rows.size() != want_rows) ::_exit(2);
    if (!writeSweepJson(serve_path, out.rows)) ::_exit(3);
    ::_exit(0);
  }
  ASSERT_GT(client, 0);

  // 1: died mid-append — the journal tail is a torn fragment, dropped and
  //    truncated on restart; the client's retry re-submits from scratch.
  expectCrashed(h);
  // 2: died right after the admit record became durable, before any cell
  //    or reply — restart re-admits from the journal alone.
  h = incarnation("admit");
  ASSERT_GT(h.pid, 0);
  expectCrashed(h);
  // 3: recovered the request, then died after the first cell settled into
  //    the checkpoint (before its result/done reached anyone).
  h = incarnation("settle@1");
  ASSERT_GT(h.pid, 0);
  expectCrashed(h);
  // 4: recovered (first cell replayed from the checkpoint, not re-run),
  //    then died 7 bytes into a reply flush to the re-attached client.
  h = incarnation("flush:7");
  ASSERT_GT(h.pid, 0);
  expectCrashed(h);
  // 5: clean incarnation — recovery finishes the remaining cells and the
  //    client finally takes delivery.
  h = incarnation(nullptr);
  ASSERT_GT(h.pid, 0);
  int status = 0;
  ASSERT_EQ(::waitpid(client, &status, 0), client);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0) << "client exit " << WEXITSTATUS(status);
  EXPECT_EQ(stopService(h), 0);

  // The five-incarnation, four-crash run produced byte-identical filtered
  // JSON to the uninterrupted pooled sweep...
  EXPECT_EQ(filterHostLines(readWholeFile(serve_path)),
            filterHostLines(readWholeFile(base_path)));
  // ...and no cell ever ran twice: one checkpoint line per grid cell.
  std::size_t checkpoint_lines = 0;
  std::stringstream ck_in(readWholeFile(ck));
  for (std::string line; std::getline(ck_in, line);) {
    if (line.rfind(kCheckpointTag, 0) == 0) ++checkpoint_lines;
  }
  EXPECT_EQ(checkpoint_lines, baseline.size());
  // The journal settled the request exactly once, at delivery.
  const JournalReplay replay = replayJournal(jl);
  EXPECT_TRUE(replay.unsettled.empty());
  // Only one admit is ever durable: incarnation 1's record was torn
  // mid-append and truncated away on restart, so the retry's admit (id 1)
  // is the journal's sole request, settled once at delivery.
  EXPECT_EQ(replay.requests_settled, 1u);
}

TEST(SweepService, KillRestartChaosRecoversByteIdenticalCampaign) {
  if (!SweepService::supported()) GTEST_SKIP() << "no AF_UNIX/fork here";
  // Uninterrupted baseline: the exact grid `sptc inject --pool` runs.
  FaultCampaignOptions fc;
  fc.seeds = 2;
  fc.base_seed = 0xc0ffee;
  fc.period = 16;
  fc.jobs = 2;
  fc.supervisor.isolate = true;
  fc.supervisor.pool = true;
  fc.supervisor.cell_timeout_seconds = 240.0;
  fc.supervisor.jobs = 2;
  const FaultCampaignResult baseline = [&] {
    // runFaultCampaign has no benchmark filter; build via the service's
    // own standalone worker body to keep the baseline an independent
    // derivation of the same cells.
    FaultCampaignResult r;
    for (std::size_t i = 0; i < 2; ++i) {
      FaultCampaignCell cell = runFaultCampaignCellStandalone("mcf", i, fc);
      cell.worker.attempts = 1;
      cell.worker.exit_code = 0;
      r.cells.push_back(std::move(cell));
    }
    for (const FaultCampaignCell& c : r.cells) {
      if (c.ok()) r.totals.accumulate(c.faults);
    }
    return r;
  }();
  ASSERT_EQ(baseline.totals.escaped, 0u);
  const std::string base_path =
      ::testing::TempDir() + "/spts_killc_base.json";
  ASSERT_TRUE(writeFaultCampaignJson(base_path, baseline));

  const std::string sock = ::testing::TempDir() + "/spts_killc_" +
                           std::to_string(::getpid()) + ".sock";
  const std::string ck = ::testing::TempDir() + "/spts_killc_ck.txt";
  const std::string jl = ::testing::TempDir() + "/spts_killc_journal.txt";
  const std::string serve_path =
      ::testing::TempDir() + "/spts_killc_serve.json";
  ::unlink(sock.c_str());
  ::unlink(ck.c_str());
  ::unlink(jl.c_str());
  ::unlink(serve_path.c_str());

  const auto incarnation = [&](const char* crash_spec) {
    SweepServiceOptions opts;
    opts.checkpoint_path = ck;
    opts.journal_path = jl;
    if (crash_spec != nullptr) {
      opts.crash = *support::ServiceCrashPlan::parse(crash_spec);
    }
    return startServiceAt(std::move(opts), sock);
  };

  ServiceHandle h = incarnation("settle@1");
  ASSERT_GT(h.pid, 0);
  const pid_t client = ::fork();
  if (client == 0) {
    ServiceRequest req;
    req.kind = ServiceRequest::Kind::kCampaign;
    req.benchmarks = {"mcf"};
    req.seeds = 2;
    req.base_seed = 0xc0ffee;
    req.period = 16;
    SubmitOptions sopts;
    sopts.token = "chaos-campaign";
    sopts.retry_for_seconds = 240.0;
    const SubmitOutcome out = submitToServiceWithRetry(sock, req, sopts);
    if (!out.ok) ::_exit(1);
    if (out.campaign.cells.size() != 2u) ::_exit(2);
    // The robustness claim must hold across the crash: nothing escaped.
    if (out.campaign.totals.escaped != 0) ::_exit(3);
    if (!out.campaign.allDetectedOrBenign()) ::_exit(4);
    if (!writeFaultCampaignJson(serve_path, out.campaign)) ::_exit(5);
    ::_exit(0);
  }
  ASSERT_GT(client, 0);

  // Crash after the first campaign cell checkpointed; the clean restart
  // replays it and runs only the second.
  expectCrashed(h);
  h = incarnation(nullptr);
  ASSERT_GT(h.pid, 0);
  int status = 0;
  ASSERT_EQ(::waitpid(client, &status, 0), client);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0) << "client exit " << WEXITSTATUS(status);
  EXPECT_EQ(stopService(h), 0);

  EXPECT_EQ(filterHostLines(readWholeFile(serve_path)),
            filterHostLines(readWholeFile(base_path)));
  std::size_t checkpoint_lines = 0;
  std::stringstream ck_in(readWholeFile(ck));
  for (std::string line; std::getline(ck_in, line);) {
    if (line.rfind(kCheckpointTag, 0) == 0) ++checkpoint_lines;
  }
  EXPECT_EQ(checkpoint_lines, 2u);
}

#endif  // SPT_SERVICE_TEST_POSIX

}  // namespace
}  // namespace spt::harness
