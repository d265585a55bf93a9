// served_grid: one SweepService (nproc − 1 pooled workers, a request
// journal, a checkpoint and a trace cache warmed during set-up) and one
// client submitting seeded one-benchmark × spec_threads {1,2,4} sweep
// requests in a closed loop: the next request goes out when the previous
// one is done. Traces come from the cache, profile runs still happen per
// cell, and the supervisor's dispatch and IPC, journal fsyncs and
// checkpoint appends run only here. Only client-side spans and the
// workers' per-cell diagnostics are visible from outside the service.
#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "harness/suite.h"
#include "harness/sweep_service.h"
#include "harness/trace_cache.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace spt;

/// One pass of ten requests on the reference host.
constexpr double kPassSeconds = 2.6;

const std::vector<std::uint32_t> kSpecThreads = {1, 2, 4};

volatile std::sig_atomic_t g_service_stop = 0;

void onServiceSignal(int) { g_service_stop = 1; }

struct Service {
  std::string dir;
  std::string socket;
  std::string journal;
  std::string cache;
  std::size_t jobs = 1;
  pid_t pid = -1;
};

/// Forks the service process (the benchmark is single-threaded here, so
/// the fork is safe) and waits until it answers a status query.
void startService(Service& svc) {
  std::filesystem::create_directories(svc.dir);
  std::cout.flush();
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);  // never outlive the benchmark
    struct sigaction sa {};
    sa.sa_handler = onServiceSignal;
    sigemptyset(&sa.sa_mask);
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
    int rc = 1;
    try {
      harness::SweepServiceOptions so;
      so.socket_path = svc.socket;
      so.supervisor.isolate = true;
      so.supervisor.pool = true;
      so.supervisor.jobs = svc.jobs;
      so.supervisor.cell_timeout_seconds = 120.0;
      so.checkpoint_path = svc.dir + "/checkpoint";
      so.journal_path = svc.journal;
      so.trace_cache_dir = svc.cache;
      so.stop = &g_service_stop;
      rc = harness::SweepService(std::move(so)).run();
    } catch (...) {
      rc = 1;
    }
    ::_exit(rc);
  }
  svc.pid = pid;
  const double deadline = nowSeconds() + 60.0;
  while (!harness::queryServiceStatus(svc.socket)) {
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      svc.pid = -1;
      throw std::runtime_error("sweep service exited during start-up");
    }
    if (nowSeconds() > deadline) {
      throw std::runtime_error("sweep service did not come up in 60 s");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

/// Drains the service with SIGTERM and reaps it (SIGKILL after 60 s).
/// Returns true when it exited 0.
bool stopService(Service& svc) {
  if (svc.pid < 0) return true;
  ::kill(svc.pid, SIGTERM);
  const double deadline = nowSeconds() + 60.0;
  int status = 0;
  while (::waitpid(svc.pid, &status, WNOHANG) == 0) {
    if (nowSeconds() > deadline) {
      ::kill(svc.pid, SIGKILL);
      ::waitpid(svc.pid, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  svc.pid = -1;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

/// Stops the service on every exit path, exceptions included.
struct ServiceGuard {
  Service& svc;
  ~ServiceGuard() { stopService(svc); }
};

harness::ServiceRequest sweepRequest(std::vector<std::string> benchmarks,
                                     std::vector<std::uint32_t> threads) {
  harness::ServiceRequest req;
  req.kind = harness::ServiceRequest::Kind::kSweep;
  req.scale = 1;
  req.benchmarks = std::move(benchmarks);
  req.spec_threads = std::move(threads);
  return req;
}

/// (inode, size, mtime) of every file in the cache directory: a producer
/// writes a temp file and renames it into place, so any production shows.
using Snapshot = std::map<std::string,
                          std::tuple<std::uint64_t, std::uint64_t, std::int64_t>>;
Snapshot snapshot(const std::string& dir) {
  Snapshot out;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    struct stat st {};
    if (::stat(e.path().c_str(), &st) != 0) continue;
    out[e.path().filename().string()] = {
        st.st_ino, static_cast<std::uint64_t>(st.st_size),
        static_cast<std::int64_t>(st.st_mtim.tv_sec) * 1000000000 +
            st.st_mtim.tv_nsec};
  }
  return out;
}

/// The number after "<key>": in the status document (0 if absent).
double statusNumber(const std::string& doc, const std::string& key) {
  const std::size_t at = doc.find("\"" + key + "\":");
  if (at == std::string::npos) return 0.0;
  return std::strtod(doc.c_str() + at + key.size() + 3, nullptr);
}

std::string queryStatus(const Service& svc, SpanRecorder& spans) {
  auto s = spans.open("harness.status", 0);
  std::string error;
  const std::optional<std::string> doc =
      harness::queryServiceStatus(svc.socket, &error);
  if (!doc) throw std::runtime_error("status query failed: " + error);
  return *doc;
}

/// Checks a served request's rows against the digest store; returns how
/// many of the `expected` cells failed.
std::uint64_t checkRows(const harness::SubmitOutcome& outcome,
                        std::size_t expected, const std::string& what,
                        DigestStore& store, RunReport& report) {
  if (!outcome.ok || outcome.rows.size() != expected) {
    report.notes.push_back(what + " failed: " + outcome.error);
    return expected;
  }
  std::uint64_t failed = 0;
  for (const harness::SweepRow& row : outcome.rows) {
    if (!row.ok()) {
      ++failed;
      report.notes.push_back(row.benchmark + " " + row.config + ": " +
                             harness::toString(row.status) + " " +
                             row.diagnostic);
      continue;
    }
    store.check(cellKey(row.benchmark, row.config, "sim"),
                simDigest(row.result), report);
  }
  return failed;
}

}  // namespace

void runServedGrid(const Options& options, SpanRecorder& spans,
                   DigestStore& store, RunReport& report) {
  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::vector<harness::SuiteEntry> suite = harness::defaultSuite();

  // Set-up: start the service and warm its trace cache by serving the
  // whole grid once. All but the last set-up are torn down again.
  Service svc;
  ServiceGuard guard{svc};
  for (int rep = 0; rep < kSetups; ++rep) {
    if (svc.pid >= 0) {
      if (!stopService(svc)) report.mismatch("service did not exit cleanly");
      std::filesystem::remove_all(svc.dir);
    }
    svc.dir = options.tmp_dir + "/svc" + std::to_string(rep);
    svc.socket = svc.dir + "/sock";
    svc.journal = svc.dir + "/journal";
    svc.cache = svc.dir + "/traces";
    svc.jobs = nproc > 1 ? nproc - 1 : 1;
    auto s = spans.open("setup", 0);
    const double t0 = nowSeconds();
    startService(svc);
    harness::SubmitOptions so;
    so.timeout_seconds = 150.0;
    const harness::SubmitOutcome warm = harness::submitToService(
        svc.socket, sweepRequest({}, kSpecThreads), so);
    if (checkRows(warm, suite.size() * kSpecThreads.size(), "warm-up sweep",
                  store, report) != 0) {
      report.mismatch("the warm-up sweep failed");
    }
    report.setup_s.push_back(nowSeconds() - t0);
  }

  const Snapshot cache_before = snapshot(svc.cache);
  const auto journalBytes = [&] {
    std::error_code ec;
    const auto n = std::filesystem::file_size(svc.journal, ec);
    return ec ? 0.0 : static_cast<double>(n);
  };
  const double journal_before = journalBytes();
  const std::string status_before = queryStatus(svc, spans);

  double overhead_sum = 0.0;
  double worker_cpu_sum = 0.0;
  double attempts = 0.0;
  double timed_wall = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t cells_timed = 0;
  const int passes = passesFor(options, kPassSeconds);
  for (int pass = 0; pass < passes; ++pass) {
    const bool traced = tracedPass(options, pass);
    const double pass_t0 = nowSeconds();
    const double cpu0 = processCpuSeconds();
    double pass_worker_cpu = 0.0;
    std::uint64_t cells = 0;
    for (const std::size_t b :
         seededOrder(options.seed, static_cast<std::uint64_t>(pass),
                     suite.size())) {
      std::vector<std::uint32_t> threads;
      for (const std::size_t i :
           seededOrder(options.seed,
                       1000 + 100 * static_cast<std::uint64_t>(pass) + b,
                       kSpecThreads.size())) {
        threads.push_back(kSpecThreads[i]);
      }
      const std::uint64_t cell = 1000 * (pass + 1) + 10 * b;
      std::vector<double> arrivals;
      harness::SubmitOptions so;
      so.timeout_seconds = 150.0;
      const double t0 = nowSeconds();
      so.on_progress = [&](std::uint64_t, std::uint64_t) {
        arrivals.push_back(nowSeconds() - t0);
      };
      report.attempted += kSpecThreads.size();
      harness::SubmitOutcome outcome;
      {
        auto s = spans.open("harness.request", cell);
        outcome = harness::submitToService(
            svc.socket, sweepRequest({suite[b].workload.name}, threads), so);
      }
      const double dt = nowSeconds() - t0;
      const std::uint64_t failed =
          checkRows(outcome, kSpecThreads.size(),
                    "request " + suite[b].workload.name, store, report);
      if (failed != 0) {
        report.failed += failed;
        continue;
      }
      double slowest_cpu = 0.0;
      for (const harness::SweepRow& row : outcome.rows) {
        const double cpu =
            row.worker.host_user_seconds + row.worker.host_sys_seconds;
        slowest_cpu = std::max(slowest_cpu, cpu);
        pass_worker_cpu += cpu;
        attempts += row.worker.attempts;
        report.counters.addCell(row.result);
      }
      overhead_sum += dt - slowest_cpu;
      ++requests;
      cells += outcome.rows.size();
      if (traced) {
        report.traced_cell_s.insert(report.traced_cell_s.end(),
                                    arrivals.begin(), arrivals.end());
      } else {
        report.cell_s.insert(report.cell_s.end(), arrivals.begin(),
                             arrivals.end());
        report.request_s.push_back(dt);
      }
    }
    const double wall = nowSeconds() - pass_t0;
    report.pass_s.push_back(wall);
    timed_wall += wall;
    worker_cpu_sum += pass_worker_cpu;
    cells_timed += cells;
    if (!traced) {
      report.untraced_wall_s += wall;
      report.untraced_cpu_s += processCpuSeconds() - cpu0 + pass_worker_cpu;
      report.untraced_cells += cells;
    }
  }

  const std::string status_after = queryStatus(svc, spans);
  if (statusNumber(status_after, "respawned") !=
      statusNumber(status_before, "respawned")) {
    report.mismatch("a pooled worker died during the timed part");
  }
  const Snapshot cache_after = snapshot(svc.cache);
  double produced = 0.0;
  for (const auto& [name, id] : cache_after) {
    const auto it = cache_before.find(name);
    if (it == cache_before.end() || it->second != id) produced += 1.0;
  }
  if (produced != 0.0) {
    report.mismatch("the timed part produced " +
                    std::to_string(static_cast<int>(produced)) +
                    " trace files; the warmed cache should serve them all");
  }
  report.layer["trace.cache_produced"] = produced;
  const double req = static_cast<double>(requests);
  report.layer["harness.service_overhead_s"] = ratio(overhead_sum, req);
  report.layer["harness.pool_busy_share"] =
      ratio(worker_cpu_sum, static_cast<double>(svc.jobs) * timed_wall);
  report.layer["harness.attempts_per_cell"] =
      ratio(attempts, static_cast<double>(cells_timed));
  report.layer["harness.journal_bytes_per_request"] =
      ratio(journalBytes() - journal_before, req);

  // The first benchmark of the first pass once more, in-process over the
  // same cache: its rows must match what the service returned, and the
  // cache must serve every trace.
  const std::string first =
      suite[seededOrder(options.seed, 0, suite.size()).front()].workload.name;
  harness::TraceCache local(svc.cache);
  for (const harness::SweepCase& c : harness::buildSuiteSweepCases(
           support::MachineConfig{}, compiler::CompilerOptions{}, 1, {first},
           kSpecThreads)) {
    const harness::ExperimentResult r =
        harness::runSuiteEntry(c.entry, c.machine, c.scale, nullptr, &local);
    store.check(cellKey(c.benchmark, c.config, "sim"), simDigest(r), report);
    store.check(cellKey(c.benchmark, c.config, "plan"), r.plan.fingerprint(),
                report);
  }
  if (local.produced() != 0) {
    report.mismatch("the in-process check had to produce traces");
  }
  if (!stopService(svc)) report.mismatch("service did not exit cleanly");
  report.notes.push_back(
      "served_grid: " + std::to_string(svc.jobs) + " pooled workers, " +
      std::to_string(requests) + " closed-loop requests from one client");
}

}  // namespace perfbench
