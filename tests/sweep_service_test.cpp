// Tests for the resident sweep service (`sptc serve`): the SPTS request
// codec, echo/sweep/campaign round-trips through a live service process,
// admission control (the queue bound, validation, chaos opt-in),
// client-side sabotage containment, graceful drain, and the
// byte-determinism contract against the one-shot pooled paths.
//
// Every service test forks a real service child (`_exit(service.run())`)
// and talks to it over its Unix-domain socket with submitToService — the
// same client the CLI uses — so the whole socket/poll/drain machinery is
// exercised, not a mock.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "harness/cell_codec.h"
#include "harness/cell_status.h"
#include "harness/durable_log.h"
#include "harness/fault_campaign.h"
#include "harness/parallel_sweep.h"
#include "harness/suite.h"
#include "harness/supervisor.h"
#include "harness/sweep_service.h"
#include "support/chaos.h"
#include "support/rng.h"

#if defined(__unix__) || (defined(__APPLE__) && defined(__MACH__))
#define SPT_SERVICE_TEST_POSIX 1
#include <csignal>
#include <sys/resource.h>
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

/// Row records in a durable log, duplicates included: one per cell run.
std::size_t rowRecords(const std::string& path) {
  std::stringstream in(readWholeFile(path));
  std::size_t rows = 0;
  for (std::string line; std::getline(in, line);) {
    LogRecord rec;
    if (parseLogRecord(line, &rec) && rec.kind == LogRecord::Kind::kRow) {
      ++rows;
    }
  }
  return rows;
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
  req.chaos = *support::ChaosPlan::parse("2:crash@1,5:hang");
  req.max_body = 500.0;
  return req;
}

TEST(ServiceRequestCodec, RoundTripsEveryField) {
  // A sweep request carries every field, the compiler's included.
  ServiceRequest req = sampleRequest();
  req.kind = ServiceRequest::Kind::kSweep;
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
  EXPECT_EQ(back.chaos.toSpec(), req.chaos.toSpec());
  EXPECT_EQ(back.max_body, req.max_body);

  // No override round-trips as none, not as a limit of 0.
  ServiceRequest plain = req;
  plain.max_body.reset();
  ASSERT_TRUE(decodeServiceRequest(encodeServiceRequest(plain), &back));
  EXPECT_FALSE(back.max_body.has_value());
  EXPECT_NE(encodeServiceRequest(plain), bytes);

  // A campaign's cells compile with the suite's plans, so its request
  // carries no compiler field: two campaign requests that differ only
  // there encode, and so journal, the same bytes.
  const ServiceRequest campaign = sampleRequest();
  ServiceRequest other = campaign;
  other.copts.min_avg_body_size = 9.0;
  other.copts.enable_svp = !other.copts.enable_svp;
  other.max_body.reset();
  const std::string campaign_bytes = encodeServiceRequest(campaign);
  EXPECT_EQ(encodeServiceRequest(other), campaign_bytes);
  EXPECT_LT(campaign_bytes.size(), bytes.size());
  ASSERT_TRUE(decodeServiceRequest(campaign_bytes, &back));
  EXPECT_EQ(back.kind, ServiceRequest::Kind::kCampaign);
  EXPECT_EQ(back.scale, campaign.scale);
  EXPECT_EQ(back.machine.fetch_width, campaign.machine.fetch_width);
  EXPECT_EQ(back.benchmarks, campaign.benchmarks);
  EXPECT_EQ(back.seeds, campaign.seeds);
  EXPECT_EQ(back.base_seed, campaign.base_seed);
  EXPECT_EQ(back.period, campaign.period);
  EXPECT_EQ(back.oracle, campaign.oracle);
  EXPECT_EQ(back.chaos.toSpec(), campaign.chaos.toSpec());
  EXPECT_DOUBLE_EQ(back.copts.min_avg_body_size,
                   compiler::CompilerOptions{}.min_avg_body_size);
  EXPECT_FALSE(back.max_body.has_value());
  // So does an echo request.
  ServiceRequest echo = campaign;
  echo.kind = ServiceRequest::Kind::kEcho;
  ServiceRequest other_echo = other;
  other_echo.kind = ServiceRequest::Kind::kEcho;
  EXPECT_EQ(encodeServiceRequest(other_echo), encodeServiceRequest(echo));
}

TEST(ServiceRequestCodec, RejectsEveryTruncationAndTrailingGarbage) {
  for (const ServiceRequest::Kind kind :
       {ServiceRequest::Kind::kCampaign, ServiceRequest::Kind::kSweep,
        ServiceRequest::Kind::kEcho}) {
    SCOPED_TRACE(static_cast<int>(kind));
    ServiceRequest req = sampleRequest();
    req.kind = kind;
    const std::string bytes = encodeServiceRequest(req);
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
}

TEST(ServiceRequestCodec, VersionOneFramesAreRefusedAtScan) {
  namespace wire = support::wire;
  // SPTS has one version. A version-1 request frame (the tokenless
  // framing older clients sent) and a version-2 one (requests that carried
  // a deadline, kinds that included busy) are refused as soon as their
  // header scans.
  std::size_t frame_bytes = 0;
  std::string error;
  for (const std::uint32_t old_version : {1u, 2u}) {
    const std::string old = wire::encodeFrame(
        kServiceFrameFormat.magic, old_version, kServiceFrameRequest,
        encodeServiceRequest(sampleRequest()));
    EXPECT_EQ(wire::scanFrame(kServiceFrameFormat, old, &frame_bytes, &error),
              wire::FrameScan::kCorrupt);
    EXPECT_NE(error.find("unsupported frame version " +
                         std::to_string(old_version)),
              std::string::npos)
        << error;
  }
  // A tokenless request is the current version's payload with an empty
  // token.
  const std::string current = wire::encodeFrame(
      kServiceFrameFormat.magic, kServiceFrameVersion, kServiceFrameRequest,
      encodeServiceRequestWithToken(sampleRequest(), ""));
  ASSERT_EQ(wire::scanFrame(kServiceFrameFormat, current, &frame_bytes,
                            &error),
            wire::FrameScan::kFrame)
      << error;
  std::string payload;
  ASSERT_TRUE(wire::decodeFrame(kServiceFrameFormat, current, nullptr,
                                nullptr, &payload, &error))
      << error;
  ServiceRequest back;
  std::string token = "stale";
  ASSERT_TRUE(decodeServiceRequestWithToken(payload, &back, &token));
  EXPECT_TRUE(token.empty());
  EXPECT_EQ(encodeServiceRequest(back), encodeServiceRequest(sampleRequest()));
}

#ifdef SPT_SERVICE_TEST_POSIX

// ---- Live-service fixture -------------------------------------------------

volatile std::sig_atomic_t g_service_stop = 0;
extern "C" void serviceStopHandler(int) { g_service_stop = 1; }

struct ServiceHandle {
  pid_t pid = -1;
  std::string socket_path;
};

/// The address space this process maps now, in bytes; 0 when unknown.
std::uint64_t mappedBytes() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t pages = 0;
  if (!(statm >> pages)) return 0;
  return pages * static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
}

/// Forks a child that runs a SweepService on `socket_path` until SIGTERM;
/// waits for the socket to answer a status query before returning. The
/// kill/restart tests reuse one socket path across service incarnations,
/// so the path is the caller's (startService generates a fresh one).
/// A `bounded` service dies on SIGALRM after 60 s and may map at most
/// 1 GiB more than it does at startup, so a request it wrongly admits
/// cannot run the host out of memory.
ServiceHandle startServiceAt(SweepServiceOptions opts,
                             const std::string& socket_path,
                             bool bounded = false) {
  ServiceHandle h;
  h.socket_path = socket_path;
  opts.socket_path = h.socket_path;
  if (opts.supervisor.jobs == 0) opts.supervisor.jobs = 2;
  if (opts.supervisor.cell_timeout_seconds == 0.0) {
    opts.supervisor.cell_timeout_seconds = 240.0;
  }
  const pid_t pid = ::fork();
  if (pid == 0) {
    if (bounded) {
      ::alarm(60);
      const rlim_t cap = mappedBytes() + (1ull << 30);
      const rlimit limit{cap, cap};
      if (::setrlimit(RLIMIT_AS, &limit) != 0) ::_exit(1);
    }
    g_service_stop = 0;
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = serviceStopHandler;
    sigemptyset(&sa.sa_mask);
    ::sigaction(SIGTERM, &sa, nullptr);
    opts.stop = &g_service_stop;
    opts.log = nullptr;
    // An exception escaping the service (a bounded service out of address
    // space) ends the child; it must not unwind into the test body.
    int rc = 1;
    try {
      SweepService service(std::move(opts));
      rc = service.run();
    } catch (...) {
    }
    ::_exit(rc);
  }
  h.pid = pid;
  // Wait until the service answers on the socket, for up to 60 s; a child
  // that exits first fails at once.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!queryServiceStatus(h.socket_path)) {
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      ADD_FAILURE() << "service exited during start-up on " << h.socket_path;
      h.pid = -1;
      return h;
    }
    if (std::chrono::steady_clock::now() > give_up) {
      ADD_FAILURE() << "service did not come up on " << h.socket_path
                    << " within 60 s";
      return h;
    }
    ::usleep(50 * 1000);
  }
  return h;
}

ServiceHandle startService(SweepServiceOptions opts, const std::string& tag,
                           bool bounded = false) {
  const std::string path = ::testing::TempDir() + "/spts_" + tag + "_" +
                           std::to_string(::getpid()) + ".sock";
  ::unlink(path.c_str());
  return startServiceAt(std::move(opts), path, bounded);
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
  const ServiceHandle h = startService({}, "admit");
  ASSERT_GT(h.pid, 0);

  // A request larger than the queue bound: kError naming the queue.
  ServiceRequest big;
  big.kind = ServiceRequest::Kind::kEcho;
  big.echo_cells = 1025;
  static_assert(kServiceMaxQueuedCells == 1024);
  const SubmitOutcome full = submitToService(h.socket_path, big);
  EXPECT_FALSE(full.ok);
  EXPECT_FALSE(full.transport);
  EXPECT_NE(full.error.find("admission queue full"), std::string::npos)
      << full.error;

  // Unknown benchmark: kError naming the problem.
  ServiceRequest bad;
  bad.kind = ServiceRequest::Kind::kSweep;
  bad.benchmarks = {"no-such-workload"};
  const SubmitOutcome rejected = submitToService(h.socket_path, bad);
  EXPECT_FALSE(rejected.ok);
  EXPECT_NE(rejected.error.find("unknown benchmark"), std::string::npos)
      << rejected.error;

  // Chaos without the service-side opt-in: refused, not run.
  ServiceRequest sab;
  sab.kind = ServiceRequest::Kind::kEcho;
  sab.echo_cells = 2;
  sab.chaos = *support::ChaosPlan::parse("0:crash");
  const SubmitOutcome refused = submitToService(h.socket_path, sab);
  EXPECT_FALSE(refused.ok);
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

// Admission arithmetic on client-supplied counts never wraps. A campaign
// whose benchmarks × seeds product overflows is refused, not admitted as
// the wrapped remainder; an echo request of 2^64-1 cells is refused while
// another request's cells are queued, instead of wrapping the queue bound
// and enqueueing until memory runs out (the service runs bounded, so a
// regression fails here instead of exhausting the host).
TEST(SweepService, AdmissionRefusesCellCountsThatWrap) {
  if (!SweepService::supported()) GTEST_SKIP() << "no AF_UNIX/fork here";
  if (mappedBytes() == 0) GTEST_SKIP() << "no /proc/self/statm here";
  SweepServiceOptions opts;
  opts.allow_chaos = true;
  opts.supervisor.jobs = 1;  // cells 1..3 queue behind the hung cell 0
  opts.supervisor.cell_timeout_seconds = 2.0;
  const ServiceHandle h = startService(std::move(opts), "wrap", true);
  ASSERT_GT(h.pid, 0);

  // 2 × (2^63 + 1) wraps to 2 cells.
  ServiceRequest campaign;
  campaign.kind = ServiceRequest::Kind::kCampaign;
  campaign.benchmarks = {"crafty", "vortex"};
  campaign.seeds = (1ull << 63) + 1;
  const SubmitOutcome wrapped = submitToService(h.socket_path, campaign);
  EXPECT_FALSE(wrapped.ok);
  EXPECT_NE(wrapped.error.find("too many cells"), std::string::npos)
      << wrapped.error;

  const pid_t client = ::fork();
  if (client == 0) {
    ServiceRequest req;
    req.kind = ServiceRequest::Kind::kEcho;
    req.echo_cells = 4;
    req.echo_payload = "q";
    req.chaos = *support::ChaosPlan::parse("0:hang");
    const SubmitOutcome out = submitToService(h.socket_path, req);
    ::_exit(out.ok && out.echoes.size() == 4 && out.echoes[3] == "q:3" ? 0
                                                                      : 1);
  }
  ASSERT_GT(client, 0);
  ::usleep(300 * 1000);  // cell 0 hangs its worker; cells 1..3 are queued

  ServiceRequest echo;
  echo.kind = ServiceRequest::Kind::kEcho;
  echo.echo_cells = ~std::uint64_t{0};
  const SubmitOutcome huge = submitToService(h.socket_path, echo);
  EXPECT_FALSE(huge.ok);
  EXPECT_NE(huge.error.find("admission queue full"), std::string::npos)
      << huge.error;

  int status = 0;
  ASSERT_EQ(::waitpid(client, &status, 0), client);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
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
  support::MachineConfig machine;
  compiler::CompilerOptions copts;
  const ServiceHandle h = startService({}, "bytes");
  ASSERT_GT(h.pid, 0);
  // Each suite entry's own limit, then an explicit --max-body below gap's.
  const std::pair<std::vector<std::string>, std::optional<double>> grids[] = {
      {{"mcf", "gzip"}, std::nullopt}, {{"gap"}, 500.0}};
  for (const auto& [benchmarks, max_body] : grids) {
    // Baseline: the exact grid `sptc sweep --isolate` runs.
    SweepOptions base;
    base.supervisor.isolate = true;
    base.supervisor.cell_timeout_seconds = 240.0;
    base.supervisor.jobs = 2;
    const auto cases =
        buildSuiteSweepCases(machine, copts, 1, benchmarks, {}, max_body);
    if (max_body) {
      EXPECT_EQ(cases.front().entry.copts.max_avg_body_size, *max_body);
    }
    const auto baseline = runSweep(ParallelSweep(2), cases, base);

    ServiceRequest req;
    req.kind = ServiceRequest::Kind::kSweep;
    req.benchmarks = benchmarks;
    req.machine = machine;
    req.copts = copts;
    req.max_body = max_body;
    const SubmitOutcome out = submitToService(h.socket_path, req);
    ASSERT_TRUE(out.ok) << out.error;
    ASSERT_EQ(out.rows.size(), baseline.size());

    const std::string base_path = ::testing::TempDir() + "/spts_base.json";
    const std::string serve_path = ::testing::TempDir() + "/spts_serve.json";
    ASSERT_TRUE(writeSweepJson(base_path, baseline));
    ASSERT_TRUE(writeSweepJson(serve_path, out.rows));
    EXPECT_EQ(filterHostLines(readWholeFile(serve_path)),
              filterHostLines(readWholeFile(base_path)));
  }
  EXPECT_EQ(stopService(h), 0);
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

  // The one-shot campaign under the same filter (`sptc inject --benchmarks
  // mcf`) runs exactly the served cells, at one seed and at two.
  for (const std::uint64_t seeds : {1u, 2u}) {
    copts.seeds = seeds;
    copts.benchmarks = req.benchmarks;
    copts.jobs = 2;
    const FaultCampaignResult one_shot = runFaultCampaign(copts);
    ASSERT_EQ(one_shot.cells.size(), seeds);
    for (std::size_t i = 0; i < seeds; ++i) {
      const FaultCampaignCell& got = out.campaign.cells[i];
      const FaultCampaignCell& want = one_shot.cells[i];
      EXPECT_EQ(want.benchmark, "mcf");
      EXPECT_EQ(got.fault_seed, want.fault_seed);
      EXPECT_EQ(got.status, want.status);
      EXPECT_EQ(got.faults.injected, want.faults.injected);
      EXPECT_EQ(got.faults.escaped, want.faults.escaped);
      EXPECT_EQ(got.arch_digest, want.arch_digest);
      EXPECT_EQ(got.sequential_digest, want.sequential_digest);
      EXPECT_EQ(got.oracle_checks, want.oracle_checks);
    }
  }
}

// ---- The journal's rows ---------------------------------------------------

// The service logs every finished cell, sweep and campaign alike, as a row
// record in its journal, and those rows feed a one-shot
// `sptc sweep --resume --checkpoint <journal>`: the served cell is reused,
// not re-run.
TEST(SweepService, CheckpointCarriesSweepAndCampaignLines) {
  if (!SweepService::supported()) GTEST_SKIP() << "no AF_UNIX/fork here";
  SweepServiceOptions opts;
  opts.journal_path = ::testing::TempDir() + "/spts_service_journal.txt";
  ::unlink(opts.journal_path.c_str());
  const std::string jl = opts.journal_path;
  const ServiceHandle h = startService(std::move(opts), "ck");
  ASSERT_GT(h.pid, 0);

  ServiceRequest sweep;
  sweep.kind = ServiceRequest::Kind::kSweep;
  sweep.benchmarks = {"mcf"};
  const SubmitOutcome s = submitToService(h.socket_path, sweep);
  ASSERT_TRUE(s.ok) << s.error;
  ASSERT_EQ(s.rows.size(), 1u);

  ServiceRequest camp;
  camp.kind = ServiceRequest::Kind::kCampaign;
  camp.benchmarks = {"mcf"};
  camp.seeds = 1;
  const SubmitOutcome c = submitToService(h.socket_path, camp);
  ASSERT_TRUE(c.ok) << c.error;
  EXPECT_EQ(stopService(h), 0);

  // One log, both row shapes, each under its cell key.
  const LogReplay replay = readDurableLog(jl);
  ASSERT_EQ(replay.rows.size(), 2u);
  SweepRow logged_row;
  ASSERT_TRUE(decodeRow(replay.rows.at({"mcf", "default"}), &logged_row));
  FaultCampaignCell logged_cell;
  ASSERT_TRUE(decodeRow(
      replay.rows.at({"mcf", campaignCellConfigKey(
                                 0, support::deriveSeed(camp.base_seed, 0))}),
      &logged_cell));
  EXPECT_EQ(logged_cell.arch_digest, c.campaign.cells[0].arch_digest);

  // A one-shot resume over the journal reuses the served row.
  auto builds = std::make_shared<std::atomic<int>>(0);
  std::vector<SweepCase> cases = buildSuiteSweepCases({}, {}, 1, {"mcf"});
  const auto inner = cases[0].entry.workload.build;
  cases[0].entry.workload.build = [builds, inner](std::uint64_t scale) {
    builds->fetch_add(1, std::memory_order_relaxed);
    return inner(scale);
  };
  SweepOptions resume;
  resume.checkpoint_path = jl;
  resume.resume = true;
  const auto rows = runSweep(ParallelSweep(1), cases, resume);
  EXPECT_EQ(builds->load(), 0);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].result.spt.cycles, s.rows[0].result.spt.cycles);
  EXPECT_EQ(rows[0].result.baseline.cycles, s.rows[0].result.baseline.cycles);
  const std::string served = ::testing::TempDir() + "/spts_ck_served.json";
  const std::string resumed = ::testing::TempDir() + "/spts_ck_resumed.json";
  std::vector<SweepRow> served_rows = s.rows;
  served_rows[0].worker = WorkerDiagnostics{};
  ASSERT_TRUE(writeSweepJson(served, served_rows));
  ASSERT_TRUE(writeSweepJson(resumed, rows));
  EXPECT_EQ(filterHostLines(readWholeFile(resumed)),
            filterHostLines(readWholeFile(served)));
}

#if defined(__linux__)
// A failed journal append (/dev/full: ENOSPC) is counted in the status
// document, and the service keeps serving.
TEST(SweepService, FailedJournalAppendIsCountedInStatus) {
  if (!SweepService::supported()) GTEST_SKIP() << "no AF_UNIX/fork here";
  SweepServiceOptions opts;
  opts.journal_path = "/dev/full";
  const ServiceHandle h = startService(std::move(opts), "full");
  ASSERT_GT(h.pid, 0);
  ServiceRequest req;
  req.kind = ServiceRequest::Kind::kEcho;
  req.echo_cells = 2;
  req.echo_payload = "x";
  const SubmitOutcome out = submitToService(h.socket_path, req);
  ASSERT_TRUE(out.ok) << out.error;
  const auto status = queryServiceStatus(h.socket_path);
  ASSERT_TRUE(status.has_value());
  // The admit and the settle both failed; echo cells log no rows.
  EXPECT_NE(status->find("\"append_failures\":2"), std::string::npos)
      << *status;
  EXPECT_EQ(stopService(h), 0);
}
#endif

// A journal in the retired spt-journal-v1 format is refused: the service
// does not start, and the file is left as it was.
TEST(SweepService, OlderJournalFormatIsRefused) {
  if (!SweepService::supported()) GTEST_SKIP() << "no AF_UNIX/fork here";
  const std::string jl = ::testing::TempDir() + "/spts_old_journal.txt";
  const std::string old = "spt-journal-v1\tsettle\t1\tdone\t0\n";
  {
    std::ofstream out(jl, std::ios::trunc);
    out << old;
  }
  SweepServiceOptions opts;
  opts.socket_path = ::testing::TempDir() + "/spts_old_" +
                     std::to_string(::getpid()) + ".sock";
  opts.journal_path = jl;
  std::string log;
  opts.log = [&log](const std::string& m) { log += m + "\n"; };
  const std::string sock = opts.socket_path;
  EXPECT_EQ(SweepService(std::move(opts)).run(), 1);
  EXPECT_NE(log.find(jl), std::string::npos) << log;
  EXPECT_NE(log.find("spt-journal-v1"), std::string::npos) << log;
  EXPECT_NE(log.find(kDurableLogFormat), std::string::npos) << log;
  EXPECT_EQ(readWholeFile(jl), old);
  EXPECT_NE(::access(sock.c_str(), F_OK), 0);  // socket removed again
}

// An admit record that an older service journaled no longer decodes: its
// request bytes still carry the per-request deadline field. Recovery
// settles it as cancelled instead of running it, and the service starts.
TEST(SweepService, OlderAdmitRecordSettlesAsCancelled) {
  if (!SweepService::supported()) GTEST_SKIP() << "no AF_UNIX/fork here";
  ServiceRequest req;
  req.kind = ServiceRequest::Kind::kEcho;
  req.echo_cells = 2;
  req.echo_payload = "older-layout";
  std::string bytes = encodeServiceRequest(req);
  // That layout had an f64 deadline right after the echo payload.
  const std::size_t at = bytes.find(req.echo_payload);
  ASSERT_NE(at, std::string::npos);
  bytes.insert(at + req.echo_payload.size(), std::string(8, '\0'));
  ServiceRequest back;
  ASSERT_FALSE(decodeServiceRequest(bytes, &back));

  const std::string jl = ::testing::TempDir() + "/spts_older_admit.txt";
  {
    LogRecord admit;
    admit.kind = LogRecord::Kind::kAdmit;
    admit.id = 1;
    admit.request_bytes = bytes;
    std::ofstream out(jl, std::ios::trunc);
    out << formatLogRecord(admit) << '\n';
  }
  ASSERT_EQ(readDurableLog(jl).unsettled.size(), 1u);
  SweepServiceOptions opts;
  opts.journal_path = jl;
  const ServiceHandle h = startService(std::move(opts), "older_admit");
  ASSERT_GT(h.pid, 0);
  EXPECT_EQ(stopService(h), 0);
  const LogReplay replay = readDurableLog(jl);
  EXPECT_TRUE(replay.unsettled.empty());
  EXPECT_EQ(replay.requests_settled, 1u);
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
  opts.journal_path = ::testing::TempDir() + "/spts_token_journal.txt";
  ::unlink(opts.journal_path.c_str());
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
  EXPECT_EQ(rowRecords(jl), 1u);
  // And the journal holds one admission, settled at delivery.
  const LogReplay replay = readDurableLog(jl);
  EXPECT_EQ(replay.records_replayed, 3u);
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

  // Uninterrupted baseline: the exact grid `sptc sweep --isolate` runs.
  SweepOptions base;
  base.supervisor.isolate = true;
  base.supervisor.cell_timeout_seconds = 240.0;
  base.supervisor.jobs = 2;
  const auto cases = buildSuiteSweepCases({}, {}, 1, benchmarks);
  const auto baseline = runSweep(ParallelSweep(2), cases, base);
  const std::string base_path = ::testing::TempDir() + "/spts_kill_base.json";
  ASSERT_TRUE(writeSweepJson(base_path, baseline));

  const std::string sock = ::testing::TempDir() + "/spts_kill_" +
                           std::to_string(::getpid()) + ".sock";
  const std::string jl = ::testing::TempDir() + "/spts_kill_journal.txt";
  const std::string serve_path = ::testing::TempDir() + "/spts_kill_serve.json";
  ::unlink(sock.c_str());
  ::unlink(jl.c_str());
  ::unlink(serve_path.c_str());

  const auto incarnation = [&](const char* crash_spec) {
    SweepServiceOptions opts;
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
  // 3: recovered the request, then died after the first cell's row was
  //    synced to the journal (before its result/done reached anyone).
  h = incarnation("settle@1");
  ASSERT_GT(h.pid, 0);
  expectCrashed(h);
  // 4: recovered (first cell replayed from its row, not re-run),
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
  // ...and no cell ever ran twice: one row record per grid cell.
  EXPECT_EQ(rowRecords(jl), baseline.size());
  // The journal settled the request exactly once, at delivery.
  const LogReplay replay = readDurableLog(jl);
  EXPECT_TRUE(replay.unsettled.empty());
  // Only one admit is ever durable: incarnation 1's record was torn
  // mid-append and truncated away on restart, so the retry's admit (id 1)
  // is the journal's sole request, settled once at delivery.
  EXPECT_EQ(replay.requests_settled, 1u);
}

TEST(SweepService, KillRestartChaosRecoversByteIdenticalCampaign) {
  if (!SweepService::supported()) GTEST_SKIP() << "no AF_UNIX/fork here";
  // Uninterrupted baseline: the exact grid `sptc inject --isolate` runs.
  FaultCampaignOptions fc;
  fc.seeds = 2;
  fc.base_seed = 0xc0ffee;
  fc.period = 16;
  fc.jobs = 2;
  fc.supervisor.isolate = true;
  fc.supervisor.cell_timeout_seconds = 240.0;
  fc.supervisor.jobs = 2;
  const FaultCampaignResult baseline = [&] {
    // Built from the service's own standalone worker body, an
    // independent derivation of the cells runFaultCampaign's filter runs.
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
  const std::string jl = ::testing::TempDir() + "/spts_killc_journal.txt";
  const std::string serve_path =
      ::testing::TempDir() + "/spts_killc_serve.json";
  ::unlink(sock.c_str());
  ::unlink(jl.c_str());
  ::unlink(serve_path.c_str());

  const auto incarnation = [&](const char* crash_spec) {
    SweepServiceOptions opts;
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

  // Crash after the first campaign cell's row was synced; the clean
  // restart replays it and runs only the second.
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
  EXPECT_EQ(rowRecords(jl), 2u);
}

// A sweep row's key is only (benchmark, config) and carries none of the
// request's machine options, so recovery must fill a request's cells from
// the rows *that request* logged. Request A (full-squash recovery) settles
// first; request B asks for the same grid under the default SRX+FC
// recovery and the service dies after B's first row. The restart must run
// B's second cell, not reuse A's row for the same key.
TEST(SweepService, KillRestartRecoveryUsesOnlyTheRequestsOwnRows) {
  if (!SweepService::supported()) GTEST_SKIP() << "no AF_UNIX/fork here";
  const std::vector<std::string> benchmarks = {"mcf", "gzip"};
  support::MachineConfig squash;
  squash.recovery = support::RecoveryMechanism::kFullSquash;

  // Uninterrupted baseline of request B.
  SweepOptions base;
  base.supervisor.isolate = true;
  base.supervisor.cell_timeout_seconds = 240.0;
  base.supervisor.jobs = 1;
  const auto baseline =
      runSweep(ParallelSweep(1), buildSuiteSweepCases({}, {}, 1, benchmarks),
               base);
  const std::string base_path = ::testing::TempDir() + "/spts_own_base.json";
  ASSERT_TRUE(writeSweepJson(base_path, baseline));

  const std::string sock = ::testing::TempDir() + "/spts_own_" +
                           std::to_string(::getpid()) + ".sock";
  const std::string jl = ::testing::TempDir() + "/spts_own_journal.txt";
  const std::string serve_path = ::testing::TempDir() + "/spts_own_serve.json";
  ::unlink(sock.c_str());
  ::unlink(jl.c_str());
  ::unlink(serve_path.c_str());
  const auto incarnation = [&](const char* crash_spec) {
    SweepServiceOptions opts;
    opts.journal_path = jl;
    opts.supervisor.jobs = 1;  // B's cells run one at a time
    if (crash_spec != nullptr) {
      opts.crash = *support::ServiceCrashPlan::parse(crash_spec);
    }
    return startServiceAt(std::move(opts), sock);
  };

  // Request A runs to delivery; its rows stay in the journal.
  ServiceHandle h = incarnation(nullptr);
  ASSERT_GT(h.pid, 0);
  ServiceRequest a;
  a.kind = ServiceRequest::Kind::kSweep;
  a.benchmarks = benchmarks;
  a.machine = squash;
  const SubmitOutcome served_a = submitToService(sock, a);
  ASSERT_TRUE(served_a.ok) << served_a.error;
  ASSERT_EQ(served_a.rows.size(), baseline.size());
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    // The two requests' numbers differ in every cell, so a borrowed row
    // shows in the output.
    ASSERT_NE(served_a.rows[i].result.spt.cycles,
              baseline[i].result.spt.cycles)
        << baseline[i].benchmark;
  }
  EXPECT_EQ(stopService(h), 0);

  // Request B: the service dies after B's first row is synced.
  h = incarnation("settle@1");
  ASSERT_GT(h.pid, 0);
  const pid_t client = ::fork();
  if (client == 0) {
    ServiceRequest b;
    b.kind = ServiceRequest::Kind::kSweep;
    b.benchmarks = benchmarks;
    SubmitOptions sopts;
    sopts.token = "own-rows";
    sopts.retry_for_seconds = 240.0;
    const SubmitOutcome out = submitToServiceWithRetry(sock, b, sopts);
    if (!out.ok) ::_exit(1);
    if (!writeSweepJson(serve_path, out.rows)) ::_exit(2);
    ::_exit(0);
  }
  ASSERT_GT(client, 0);
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
  // A's two rows, then B's: its first before the crash and its second
  // after the restart, each cell run once.
  EXPECT_EQ(rowRecords(jl), 2 * baseline.size());
}

#endif  // SPT_SERVICE_TEST_POSIX

}  // namespace
}  // namespace spt::harness
