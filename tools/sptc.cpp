// sptc — the SPT command-line driver.
//
//   sptc list
//       List the built-in workloads.
//   sptc run <workload-name | program.spt> [options]
//       Run the full pipeline (profile, cost-driven compile, trace,
//       simulate baseline vs SPT) and print the plan and results.
//   sptc compile <workload-name | program.spt> [options]
//       Print the SPT-transformed IR.
//   sptc parse <program.spt>
//       Parse, verify and re-print a textual IR program.
//   sptc sweep [options]
//       Run the whole SPECint-analog suite under the given machine and
//       compiler options, fanning the independent experiments across
//       worker threads (harness::ParallelSweep), and print the per-
//       benchmark speedup table. Results are identical at any --jobs
//       value.
//   sptc perf [options]
//       Measure the simulator's own host throughput (simulated MIPS per
//       workload, docs/PERF.md) and write BENCH_sim_throughput.json.
//   sptc inject [options]
//       Run the fault-injection campaign (docs/ROBUSTNESS.md): the whole
//       suite under seeded corruption of the speculative structures with
//       the architectural oracle armed. Exits nonzero if any fault
//       escaped or any architectural digest diverged.
//   sptc serve --socket PATH [options]
//       Run the resident sweep service (docs/ROBUSTNESS.md "Sweep
//       service"): listen on a Unix-domain socket and multiplex sweep /
//       campaign requests from many concurrent `sptc submit` clients over
//       one warm worker pool with fair round-robin scheduling, bounded
//       admission, per-request deadlines and graceful SIGTERM drain.
//       --jobs / --cell-timeout / --retries / --rlimit-* size the pool;
//       --journal makes the service restart-safe (docs/ROBUSTNESS.md "The
//       durable log"): requests are recovered and finished after a crash.
//   sptc submit <sweep|inject|status> --socket PATH [options]
//       Submit one request to a running service and print/emit the same
//       table and JSON the one-shot command would (byte-identical filtered
//       JSON — proven in CI). `status` prints the service's status JSON.
//       Exit: 0 done, 1 failed cells or transport error, 3 service busy
//       (backpressure; retry later).
//
// Options for serve:
//   --socket PATH      Unix-domain socket path to listen on (required)
//   --max-queue N      max queued-but-undispatched cells across clients
//                      before requests are refused with a busy/retry-after
//                      reply (default 1024)
//   --allow-chaos      accept request-embedded worker chaos plans (tests)
//   --journal PATH     durable log of admissions, finished cells and
//                      settlements, each fsync'd to PATH (admissions before
//                      any work); on restart unsettled requests are
//                      re-admitted and finished (ok cells replayed from
//                      their logged rows, the rest re-run), even if the
//                      client never returns. Its rows also feed
//                      `sptc sweep --resume --checkpoint PATH`
//   --crash-at SPEC    scripted self-SIGKILL for the kill/restart tests:
//                      POINT[@AT][:BYTES] with POINT one of admit | settle
//                      | flush | append (settle@N dies after the Nth row
//                      record is synced; append:N dies after N bytes of a
//                      torn journal record)
//
// Options for submit:
//   --socket PATH      service socket to connect to (required)
//   --benchmarks LIST  comma-separated workload-name filter (also accepted
//                      by sweep/inject for one-shot runs)
//   --deadline S       whole-request deadline in seconds; queued cells
//                      past it settle as timeout rows (0 = none)
//   --token STR        idempotency token: the request survives client
//                      disconnects, and resubmitting the same token
//                      attaches to the running (or journal-recovered)
//                      request instead of starting a duplicate
//   --retry-for S      keep retrying for up to S seconds of wall clock:
//                      busy replies honor the service's retry-after,
//                      transport failures reconnect and re-attach by
//                      --token with deterministic backoff
//   --client-chaos SPEC  sabotage THIS client for resilience testing:
//                      disconnect[@N] | garbage[@N] | slow-reader[@MS]
//
// Options for inject:
//   --seeds N          fault seeds per workload (default 8)
//   --seed N           campaign base seed (default 0x5eed)
//   --period N         injector firing period, ~1/N per eligible site
//                      (default 32)
//   --oracle M         digest | deep (default digest)
//
// Options for sweep/inject:
//   --checkpoint PATH  append each finished cell to the durable log at PATH
//                      as it completes (fsync'd); a PATH that cannot be
//                      opened stops the run before any cell starts; after
//                      a failed append the results are still printed,
//                      then the command exits 2
//   --resume           reuse ok cells from --checkpoint; re-run the rest
//                      (a file in an older format is refused)
//   --quarantine       report poisoned cells in the results instead of
//                      aborting (arms throwing SPT_CHECK; sweep only)
//   --max-records N    per-cell simulated-record budget (0 = unlimited)
//   --max-cycles N     per-cell simulated-cycle budget (0 = unlimited)
//
// Process isolation for sweep/inject (docs/ROBUSTNESS.md):
//   --isolate          run cells on a warm pool of `--jobs` long-lived
//                      worker processes under the execution supervisor:
//                      a segfault, abort, OOM, hang or corrupt reply
//                      becomes a non-ok row while the rest of the run
//                      completes
//   --no-isolate       force the in-process path (the default)
//   --cell-timeout S   per-worker wall-clock deadline in seconds
//                      (fractional ok; SIGKILL past it; 0 = none)
//   --retries N        extra attempts for crashed / timed-out / corrupt
//                      workers (exponential backoff, deterministic jitter)
//   --rlimit-as MB     worker address-space cap in MiB (kernel-enforced)
//   --rlimit-cpu S     worker CPU-seconds cap (SIGXCPU -> timeout status)
//   --chaos SPEC       deterministic sabotage for testing the containment
//                      paths: comma list of CELL:ACTION[@ATTEMPTS] with
//                      ACTION one of crash | abort | hang | garbage |
//                      partial | exit (requires --isolate)
//
// Options for sweep:
//   --trace-cache DIR  share each workload's SPT trace (an mmap-backed
//                      container v4 file) and its fork table, baseline
//                      result and profiles across all cells (and across
//                      supervised worker processes) through a trace cache
//                      rooted at DIR;
//                      results are identical with or without the cache
//
// Options for sweep/perf:
//   --jobs N           parallel experiment workers (default: SPT_JOBS env
//                      or hardware concurrency); perf parallelizes only
//                      the setup phase, the timed runs are serial
//   --json PATH        also write machine-readable results JSON
//                      (perf default: BENCH_sim_throughput.json)
//
// Options for perf:
//   --reps N           timed repetitions per machine, fastest wins
//                      (default 3)
//
// Options for run/compile/sweep:
//   --scale N          workload input scale (default 1)
//   --spec-threads L   chained speculative thread count(s), each in
//                      1..16. sweep and submit sweep accept a comma list
//                      ("1,2,4") that becomes a grid axis — N == 1 keeps
//                      the "default" config tag, other values are tagged
//                      "n<N>". run/compile/perf/inject take a single
//                      value. N >= 2 also arms the compiler's
//                      precomputation-slice pass (default 1)
//   --srb N            speculation result buffer entries (default 1024)
//   --recovery M       srx_fc | srx | squash (default srx_fc)
//   --regcheck M       value | scoreboard (default value)
//   --no-svp           disable software value prediction
//   --no-unroll        disable loop unrolling preprocessing
//   --select-all       bypass cost-driven selection
//   --max-body N       candidate loop body-size limit (default 1000; gap
//                      2500 when run or compiled by name)
//   --print-ir         also dump the transformed module (run only)
//   --verify-passes    run the IR verifier after every pipeline pass
//
// Options for run and compile:
//   --remarks FILE     write the compilation remarks — the structured
//                      per-loop decision log (docs/COMPILER.md) — as
//                      deterministic JSON to FILE ("-" = stdout), and
//                      print the remarks summary table. --remarks=FILE
//                      also accepted.
#include <algorithm>
#include <csignal>
#include <fstream>
#include <iostream>
#include <sstream>

#include "harness/durable_log.h"
#include "harness/fault_campaign.h"
#include "harness/parallel_sweep.h"
#include "harness/perf.h"
#include "harness/suite.h"
#include "harness/sweep_service.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "support/stats.h"
#include "support/table.h"

namespace {

using namespace spt;

/// Graceful-interrupt flag (docs/ROBUSTNESS.md): SIGINT/SIGTERM ask the
/// supervisor (or the sweep service) to stop dispatching; in-flight cells
/// finish and checkpoint, then the command exits with kInterruptedExit.
volatile std::sig_atomic_t g_interrupted = 0;

/// Distinct exit code for a cleanly interrupted run (EX_TEMPFAIL): the
/// checkpoint is intact and `--resume` re-runs exactly the missing cells.
constexpr int kInterruptedExit = 75;

extern "C" void onInterruptSignal(int) { g_interrupted = 1; }

/// Installs SIGINT/SIGTERM handlers that set the stop flag. Deliberately
/// without SA_RESTART so a signal wakes the supervisor's poll() instead
/// of silently restarting it. Only used for supervised (--isolate)
/// runs and the service — the in-process path keeps default signal
/// behavior (die now; per-record checkpoint fsyncs already make --resume
/// safe, and the reader drops a torn trailing record).
void installInterruptHandlers() {
#if defined(__unix__) || (defined(__APPLE__) && defined(__MACH__))
  struct sigaction sa {};
  sa.sa_handler = onInterruptSignal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: blocked syscalls must return EINTR
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
#else
  std::signal(SIGINT, onInterruptSignal);
  std::signal(SIGTERM, onInterruptSignal);
#endif
}

int usage() {
  std::cerr
      << "usage: sptc "
         "<list|run|compile|parse|sweep|perf|inject|serve|submit> "
         "[target] [options]\n"
         "       see the header of tools/sptc.cpp for details\n";
  return 2;
}

std::optional<ir::Module> loadTarget(const std::string& target,
                                     std::uint64_t scale) {
  if (target.size() > 4 &&
      target.compare(target.size() - 4, 4, ".spt") == 0) {
    std::ifstream in(target);
    if (!in) {
      std::cerr << "sptc: cannot open " << target << "\n";
      return std::nullopt;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    ir::ParseError error;
    auto m = ir::parseModule(ss.str(), &error);
    if (!m) {
      std::cerr << "sptc: parse error at line " << error.line;
      if (error.column != 0) std::cerr << ", column " << error.column;
      std::cerr << ": " << error.message << "\n";
      return std::nullopt;
    }
    m->finalize();
    const auto problems = ir::verifyModule(*m);
    if (!problems.empty()) {
      std::cerr << "sptc: invalid module: " << problems.front() << "\n";
      return std::nullopt;
    }
    if (m->mainFunc() == ir::kInvalidFunc) {
      std::cerr << "sptc: program has no @main function\n";
      return std::nullopt;
    }
    return m;
  }
  for (const auto& entry : harness::defaultSuite()) {
    if (entry.workload.name == target) return entry.workload.build(scale);
  }
  for (const char* micro : {"micro.parser_free", "micro.svp_stride"}) {
    if (target == micro) {
      return workloads::findWorkload(target).build(scale);
    }
  }
  std::cerr << "sptc: unknown workload '" << target
            << "' (try `sptc list`, or pass a .spt file)\n";
  return std::nullopt;
}

struct Options {
  std::uint64_t scale = 1;
  support::MachineConfig machine;
  compiler::CompilerOptions copts;
  bool max_body_given = false;  // --max-body overrides a suite entry's limit
  bool print_ir = false;
  std::string remarks_path;  // run/compile: empty = no remarks output
  std::size_t jobs = 0;   // sweep/perf: 0 = ParallelSweep default
  std::string json_path;  // sweep: empty = no JSON output
  int reps = 3;           // perf: timed repetitions per machine
  // sweep/inject hardening
  std::string checkpoint_path;
  bool resume = false;
  bool quarantine = false;
  std::string trace_cache_dir;  // sweep: empty = no shared trace cache
  // process isolation (sweep/inject)
  harness::SupervisorOptions supervisor;
  // inject
  std::uint64_t seeds = 8;
  std::uint64_t base_seed = 0x5eed;
  std::uint32_t period = 32;
  support::OracleMode oracle = support::OracleMode::kDigest;
  // serve / submit
  std::string socket_path;
  std::size_t max_queue = 1024;
  bool allow_chaos = false;
  std::vector<std::string> benchmarks;  // also filters sweep/inject grids
  double deadline_seconds = 0.0;
  support::ClientChaosPlan client_chaos;
  std::string journal_path;  // serve: empty = no request journal
  support::ServiceCrashPlan service_crash;  // serve: scripted self-SIGKILL
  std::string token;         // submit: empty = no idempotency token
  double retry_for_seconds = 0.0;  // submit: 0 = single attempt
  // --spec-threads: grid axis for sweep/submit-sweep, single value
  // elsewhere (applySpecThreads). Empty = flag absent.
  std::vector<std::uint32_t> spec_threads;
  bool ok = true;
};

/// `chaos_needs_isolate` is relaxed for serve/submit, where a --chaos plan
/// rides the request to the service's own supervised workers.
Options parseOptions(int argc, char** argv, int first,
                     bool chaos_needs_isolate = true) {
  Options o;
  const auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << "sptc: " << argv[i] << " needs a value\n";
      o.ok = false;
      return "0";
    }
    return argv[++i];
  };
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--scale") {
      o.scale = std::strtoull(need_value(i), nullptr, 10);
    } else if (arg == "--srb") {
      o.machine.speculation_result_buffer_entries =
          static_cast<std::uint32_t>(std::strtoul(need_value(i), nullptr, 10));
    } else if (arg == "--recovery") {
      const std::string v = need_value(i);
      if (v == "srx_fc") {
        o.machine.recovery =
            support::RecoveryMechanism::kSelectiveReplayFastCommit;
      } else if (v == "srx") {
        o.machine.recovery = support::RecoveryMechanism::kSelectiveReplay;
      } else if (v == "squash") {
        o.machine.recovery = support::RecoveryMechanism::kFullSquash;
      } else {
        std::cerr << "sptc: unknown recovery '" << v << "'\n";
        o.ok = false;
      }
    } else if (arg == "--regcheck") {
      const std::string v = need_value(i);
      if (v == "value") {
        o.machine.register_check = support::RegisterCheckMode::kValueBased;
      } else if (v == "scoreboard") {
        o.machine.register_check = support::RegisterCheckMode::kScoreboard;
      } else {
        std::cerr << "sptc: unknown regcheck '" << v << "'\n";
        o.ok = false;
      }
    } else if (arg == "--no-svp") {
      o.copts.enable_svp = false;
    } else if (arg == "--regions") {
      o.copts.enable_region_speculation = true;
    } else if (arg == "--no-unroll") {
      o.copts.enable_unrolling = false;
    } else if (arg == "--select-all") {
      o.copts.cost_driven_selection = false;
    } else if (arg == "--max-body") {
      o.copts.max_avg_body_size =
          std::strtod(need_value(i), nullptr);
      o.max_body_given = true;
    } else if (arg == "--print-ir") {
      o.print_ir = true;
    } else if (arg == "--verify-passes") {
      o.copts.verify_between_passes = true;
    } else if (arg == "--remarks") {
      o.remarks_path = need_value(i);
    } else if (arg.rfind("--remarks=", 0) == 0) {
      o.remarks_path = arg.substr(std::string("--remarks=").size());
      if (o.remarks_path.empty()) {
        std::cerr << "sptc: --remarks= needs a file name\n";
        o.ok = false;
      }
    } else if (arg == "--spec-threads") {
      std::stringstream ss(need_value(i));
      std::string tok;
      bool any = false;
      while (std::getline(ss, tok, ',')) {
        any = true;
        char* end = nullptr;
        const unsigned long v = std::strtoul(tok.c_str(), &end, 10);
        if (tok.empty() || end == nullptr || *end != '\0' || v < 1 ||
            v > support::kMaxSpecThreads) {
          std::cerr << "sptc: bad --spec-threads value '" << tok
                    << "' (expected 1.." << support::kMaxSpecThreads
                    << ", e.g. --spec-threads 1,2,4)\n";
          o.ok = false;
        } else {
          o.spec_threads.push_back(static_cast<std::uint32_t>(v));
        }
      }
      if (!any) {
        std::cerr << "sptc: --spec-threads needs at least one value "
                     "(e.g. --spec-threads 1,2,4)\n";
        o.ok = false;
      }
    } else if (arg == "--jobs") {
      o.jobs = static_cast<std::size_t>(
          std::strtoull(need_value(i), nullptr, 10));
    } else if (arg == "--json") {
      o.json_path = need_value(i);
    } else if (arg == "--reps") {
      o.reps = std::max(
          1, static_cast<int>(std::strtol(need_value(i), nullptr, 10)));
    } else if (arg == "--trace-cache") {
      o.trace_cache_dir = need_value(i);
    } else if (arg == "--checkpoint") {
      o.checkpoint_path = need_value(i);
    } else if (arg == "--resume") {
      o.resume = true;
    } else if (arg == "--quarantine") {
      o.quarantine = true;
    } else if (arg == "--isolate") {
      o.supervisor.isolate = true;
    } else if (arg == "--no-isolate") {
      o.supervisor.isolate = false;
    } else if (arg == "--cell-timeout") {
      o.supervisor.cell_timeout_seconds =
          std::strtod(need_value(i), nullptr);
    } else if (arg == "--retries") {
      o.supervisor.retries = static_cast<std::uint32_t>(
          std::strtoul(need_value(i), nullptr, 10));
    } else if (arg == "--rlimit-as") {
      o.supervisor.rlimit_as_bytes =
          std::strtoull(need_value(i), nullptr, 10) * 1024ull * 1024ull;
    } else if (arg == "--rlimit-cpu") {
      o.supervisor.rlimit_cpu_seconds =
          std::strtoull(need_value(i), nullptr, 10);
    } else if (arg == "--chaos") {
      std::string error;
      const auto plan = support::ChaosPlan::parse(need_value(i), &error);
      if (!plan) {
        std::cerr << "sptc: bad --chaos spec: " << error << "\n";
        o.ok = false;
      } else {
        o.supervisor.chaos = *plan;
      }
    } else if (arg == "--max-records") {
      o.machine.max_simulated_records =
          std::strtoull(need_value(i), nullptr, 10);
      o.machine.max_trace_records = o.machine.max_simulated_records;
    } else if (arg == "--max-cycles") {
      o.machine.max_simulated_cycles =
          std::strtoull(need_value(i), nullptr, 10);
    } else if (arg == "--seeds") {
      o.seeds = std::strtoull(need_value(i), nullptr, 10);
    } else if (arg == "--seed") {
      o.base_seed = std::strtoull(need_value(i), nullptr, 10);
    } else if (arg == "--period") {
      o.period = static_cast<std::uint32_t>(
          std::strtoul(need_value(i), nullptr, 10));
    } else if (arg == "--oracle") {
      const std::string v = need_value(i);
      if (v == "digest") {
        o.oracle = support::OracleMode::kDigest;
      } else if (v == "deep") {
        o.oracle = support::OracleMode::kDeep;
      } else {
        std::cerr << "sptc: unknown oracle mode '" << v
                  << "' (expected digest | deep)\n";
        o.ok = false;
      }
    } else if (arg == "--socket") {
      o.socket_path = need_value(i);
    } else if (arg == "--max-queue") {
      o.max_queue = static_cast<std::size_t>(
          std::strtoull(need_value(i), nullptr, 10));
    } else if (arg == "--allow-chaos") {
      o.allow_chaos = true;
    } else if (arg == "--benchmarks") {
      std::stringstream ss(need_value(i));
      std::string name;
      while (std::getline(ss, name, ',')) {
        if (!name.empty()) o.benchmarks.push_back(name);
      }
    } else if (arg == "--deadline") {
      o.deadline_seconds = std::strtod(need_value(i), nullptr);
    } else if (arg == "--journal") {
      o.journal_path = need_value(i);
    } else if (arg == "--crash-at") {
      std::string error;
      const auto plan =
          support::ServiceCrashPlan::parse(need_value(i), &error);
      if (!plan) {
        std::cerr << "sptc: bad --crash-at spec: " << error << "\n";
        o.ok = false;
      } else {
        o.service_crash = *plan;
      }
    } else if (arg == "--token") {
      o.token = need_value(i);
    } else if (arg == "--retry-for") {
      o.retry_for_seconds = std::strtod(need_value(i), nullptr);
    } else if (arg == "--client-chaos") {
      std::string error;
      const auto plan = support::ClientChaosPlan::parse(need_value(i), &error);
      if (!plan) {
        std::cerr << "sptc: bad --client-chaos spec: " << error << "\n";
        o.ok = false;
      } else {
        o.client_chaos = *plan;
      }
    } else {
      std::cerr << "sptc: unknown option '" << arg
                << "' (see `sptc` for usage)\n";
      o.ok = false;
    }
  }
  if (chaos_needs_isolate && o.supervisor.chaos.enabled() &&
      !o.supervisor.isolate) {
    std::cerr << "sptc: --chaos requires --isolate (chaos sabotages forked "
                 "workers)\n";
    o.ok = false;
  }
  return o;
}

/// Validates a --benchmarks filter against the suite (the grid builders
/// silently drop unknown names; the CLI must not).
bool validateBenchmarks(const std::vector<std::string>& benchmarks) {
  if (benchmarks.empty()) return true;
  std::vector<std::string> names;
  for (const auto& entry : harness::defaultSuite()) {
    names.push_back(entry.workload.name);
  }
  for (const std::string& b : benchmarks) {
    if (std::find(names.begin(), names.end(), b) == names.end()) {
      std::cerr << "sptc: unknown benchmark '" << b
                << "' in --benchmarks (try `sptc list`)\n";
      return false;
    }
  }
  return true;
}

/// Applies a single-valued --spec-threads to the machine and compiler
/// options (run/compile/perf/inject take one value; only the sweep grids
/// accept a list).
bool applySpecThreads(Options& o, const char* command) {
  if (o.spec_threads.empty()) return true;
  if (o.spec_threads.size() > 1) {
    std::cerr << "sptc: " << command
              << " takes a single --spec-threads value (a comma list is a "
                 "sweep grid axis)\n";
    return false;
  }
  o.machine.spec_threads = o.spec_threads[0];
  o.copts.spec_threads = o.spec_threads[0];
  return true;
}

/// Degrades --isolate to the in-process path (with a warning) on
/// platforms without fork.
void checkIsolationSupport(Options& o) {
  if (o.supervisor.isolate && !harness::Supervisor::isolationSupported()) {
    std::cerr << "sptc: process isolation is not supported on this "
                 "platform; running in-process\n";
    o.supervisor.isolate = false;
  }
}

int cmdList() {
  std::cout << "built-in workloads (SPECint2000 analogs):\n";
  for (const auto& entry : harness::defaultSuite()) {
    std::cout << "  " << entry.workload.name << " — "
              << entry.workload.description << "\n";
  }
  std::cout << "microkernels:\n";
  for (const char* micro : {"micro.parser_free", "micro.svp_stride"}) {
    const auto w = workloads::findWorkload(micro);
    std::cout << "  " << w.name << " — " << w.description << "\n";
  }
  return 0;
}

/// Prints the remarks summary table and writes the remarks as JSON to
/// `path` ("-" = stdout); 1 when the file cannot be written.
int writeRemarks(const compiler::CompilationRemarks& remarks,
                 const std::string& path) {
  remarks.printSummary(std::cerr);
  if (path == "-") {
    remarks.writeJson(std::cout);
    return 0;
  }
  std::ofstream out(path);
  if (!out) {
    std::cerr << "sptc: could not write " << path << "\n";
    return 1;
  }
  remarks.writeJson(out);
  std::cerr << "remarks: " << path << "\n";
  return 0;
}

/// The compiler options `run` and `compile` use for `target`: a suite
/// benchmark named by target keeps its own body-size limit (gap's 2500,
/// as in every sweep) unless --max-body was given.
compiler::CompilerOptions targetCompilerOptions(const std::string& target,
                                                const Options& options) {
  compiler::CompilerOptions copts = options.copts;
  if (options.max_body_given) return copts;
  for (const harness::SuiteEntry& entry : harness::defaultSuite()) {
    if (entry.workload.name == target) {
      copts.max_avg_body_size = entry.copts.max_avg_body_size;
    }
  }
  return copts;
}

int cmdRun(const std::string& target, const Options& options) {
  auto m = loadTarget(target, options.scale);
  if (!m) return 1;
  const compiler::CompilerOptions copts =
      targetCompilerOptions(target, options);
  compiler::CompilationRemarks remarks;
  const bool want_remarks = !options.remarks_path.empty();
  const auto result = harness::runSptExperiment(
      std::move(*m), copts, options.machine, {},
      want_remarks ? &remarks : nullptr);
  result.plan.print(std::cout);

  const auto& threads = result.spt.threads;
  std::cout << "\nbaseline: " << result.baseline.cycles << " cycles ("
            << result.baseline.instrs << " instructions, IPC "
            << support::fixed(result.baseline.ipc(), 2) << ")\n"
            << "SPT:      " << result.spt.cycles << " cycles\n"
            << "speedup:  " << support::percent(result.programSpeedup(), 1.0)
            << "\nthreads:  " << threads.spawned << " spawned, "
            << support::percent(threads.fastCommitRatio(), 1.0)
            << " fast-committed, "
            << support::percent(threads.misspeculationRatio(), 1.0)
            << " of speculative instructions re-executed\n";
  if (options.print_ir) {
    ir::Module compiled = loadTarget(target, options.scale).value();
    compiler::SptCompiler cc(copts);
    harness::InterpProfileRunner runner;
    cc.compile(compiled, runner);
    std::cout << "\n";
    ir::printModule(std::cout, compiled);
  }
  return want_remarks ? writeRemarks(remarks, options.remarks_path) : 0;
}

int cmdCompile(const std::string& target, const Options& options) {
  auto m = loadTarget(target, options.scale);
  if (!m) return 1;
  compiler::SptCompiler cc(targetCompilerOptions(target, options));
  harness::InterpProfileRunner runner;
  compiler::CompilationRemarks remarks;
  const bool want_remarks = !options.remarks_path.empty();
  const auto plan = cc.compile(*m, runner, want_remarks ? &remarks : nullptr);
  plan.print(std::cerr);
  if (want_remarks) {
    if (const int rc = writeRemarks(remarks, options.remarks_path); rc != 0) {
      return rc;
    }
    if (options.remarks_path == "-") return 0;
  }
  ir::printModule(std::cout, *m);
  return 0;
}

int cmdParse(const std::string& target) {
  auto m = loadTarget(target, 1);
  if (!m) return 1;
  ir::printModule(std::cout, *m);
  return 0;
}

/// Prints the sweep table + per-cell diagnostics and writes the JSON
/// document. Shared by `sptc sweep` and `sptc submit sweep`, so the
/// service path emits exactly the one-shot path's output.
int finishSweep(const std::vector<harness::SweepRow>& rows,
                const Options& options, const std::string& title) {
  support::Table t(title);
  t.setHeader({"benchmark", "baseline cycles", "SPT cycles", "speedup",
               "threads", "fast commits"});
  double sum_speedup = 0.0;
  std::size_t ok_rows = 0;
  std::size_t failed_rows = 0;
  for (const auto& row : rows) {
    if (!row.ok()) {
      ++failed_rows;
      t.addRow({row.benchmark, "-", "-", harness::toString(row.status), "-",
                "-"});
      continue;
    }
    ++ok_rows;
    t.addRow({row.benchmark, std::to_string(row.result.baseline.cycles),
              std::to_string(row.result.spt.cycles),
              support::percent(row.result.programSpeedup(), 1.0),
              std::to_string(row.result.spt.threads.spawned),
              support::percent(row.result.spt.threads.fastCommitRatio(),
                               1.0)});
    sum_speedup += row.result.programSpeedup();
  }
  t.addRow({"Average", "-", "-",
            ok_rows == 0 ? "-"
                         : support::percent(
                               sum_speedup / static_cast<double>(ok_rows),
                               1.0),
            "-", "-"});
  t.print(std::cout);
  for (const auto& row : rows) {
    if (!row.ok()) {
      std::cerr << "sptc: cell " << row.benchmark << "/" << row.config
                << " " << harness::toString(row.status) << ": "
                << row.diagnostic << "\n";
    }
  }

  if (!options.json_path.empty()) {
    if (!harness::writeSweepJson(options.json_path, rows)) {
      std::cerr << "sptc: could not write " << options.json_path << "\n";
      return 1;
    }
    std::cout << "results: " << options.json_path << "\n";
  }
  // Quarantined failures are reported, not fatal — but the exit code still
  // says the sweep was incomplete.
  return failed_rows == 0 ? 0 : 1;
}

int cmdSweep(Options options) {
  checkIsolationSupport(options);
  if (!validateBenchmarks(options.benchmarks)) return 2;
  if (options.supervisor.isolate) {
    installInterruptHandlers();
    options.supervisor.stop = &g_interrupted;
  }
  const harness::ParallelSweep sweep(options.jobs);
  const std::vector<harness::SweepCase> cases = harness::buildSuiteSweepCases(
      options.machine, options.copts, options.scale, options.benchmarks,
      options.spec_threads);

  harness::SweepOptions sweep_opts;
  sweep_opts.quarantine = options.quarantine;
  sweep_opts.checkpoint_path = options.checkpoint_path;
  sweep_opts.resume = options.resume;
  sweep_opts.supervisor = options.supervisor;
  sweep_opts.trace_cache_dir = options.trace_cache_dir;
  std::vector<harness::SweepRow> rows;
  std::string checkpoint_error;
  try {
    rows = harness::runSweep(sweep, cases, sweep_opts, &checkpoint_error);
  } catch (const harness::DurableLogError& e) {
    std::cerr << "sptc: " << e.what() << "\n";
    return 2;
  }

  const int rc = finishSweep(
      rows, options,
      "suite sweep (" + std::to_string(sweep.jobs()) + " jobs)");
  if (!checkpoint_error.empty()) {
    std::cerr << "sptc: " << checkpoint_error << "\n";
    return 2;
  }
  if (g_interrupted) {
    std::cerr << "sptc: sweep interrupted; finished cells are checkpointed, "
                 "re-run with --resume\n";
    return kInterruptedExit;
  }
  return rc;
}

/// Prints the campaign table + diagnostics + PASS/FAIL line and writes the
/// JSON document. Shared by `sptc inject` and `sptc submit inject`.
int finishCampaign(const harness::FaultCampaignResult& result,
                   const Options& options) {
  // Per-benchmark aggregation over the seeds (cells are workload-major).
  support::Table t("fault-injection campaign (" +
                   std::to_string(options.seeds) + " seeds/workload, " +
                   "oracle " + support::toString(options.oracle) + ")");
  t.setHeader({"benchmark", "injected", "net", "oracle", "benign",
               "escaped", "digests"});
  for (std::size_t i = 0; i < result.cells.size();) {
    const std::string& name = result.cells[i].benchmark;
    sim::FaultStats agg;
    bool digests_ok = true;
    for (; i < result.cells.size() && result.cells[i].benchmark == name;
         ++i) {
      agg.accumulate(result.cells[i].faults);
      digests_ok = digests_ok && result.cells[i].digest_match;
    }
    t.addRow({name, std::to_string(agg.injected),
              std::to_string(agg.detected_by_net),
              std::to_string(agg.detected_by_oracle),
              std::to_string(agg.benign), std::to_string(agg.escaped),
              digests_ok ? "match" : "DIVERGED"});
  }
  t.addRow({"Total", std::to_string(result.totals.injected),
            std::to_string(result.totals.detected_by_net),
            std::to_string(result.totals.detected_by_oracle),
            std::to_string(result.totals.benign),
            std::to_string(result.totals.escaped),
            result.allDigestsMatch() ? "match" : "DIVERGED"});
  t.print(std::cout);

  for (const auto& cell : result.cells) {
    if (cell.ok()) continue;
    std::cerr << "sptc: cell " << cell.benchmark << "/seed "
              << cell.fault_seed << " " << harness::toString(cell.status)
              << ": " << cell.diagnostic << "\n";
    if (cell.diverged) {
      std::cerr << "      first divergence at trace position "
                << cell.divergence_pos << " (" << cell.divergence_boundary
                << " boundary): " << cell.divergence_diff << "\n";
    }
  }

  if (!options.json_path.empty()) {
    if (!harness::writeFaultCampaignJson(options.json_path, result)) {
      std::cerr << "sptc: could not write " << options.json_path << "\n";
      return 1;
    }
    std::cout << "results: " << options.json_path << "\n";
  }

  const bool pass = result.allDetectedOrBenign() &&
                    result.allDigestsMatch() && result.allCellsOk();
  std::cout << (pass ? "campaign PASS: every injected fault detected or "
                       "benign; architectural state intact\n"
                     : "campaign FAIL: escaped faults, architectural "
                       "divergence, or failed cells (see table)\n");
  return pass ? 0 : 1;
}

int cmdInject(Options options) {
  checkIsolationSupport(options);
  if (options.supervisor.isolate) {
    installInterruptHandlers();
    options.supervisor.stop = &g_interrupted;
  }
  harness::FaultCampaignOptions fc;
  fc.seeds = options.seeds;
  fc.base_seed = options.base_seed;
  fc.jobs = options.jobs;
  fc.scale = options.scale;
  fc.period = options.period;
  fc.oracle = options.oracle;
  fc.machine = options.machine;
  fc.checkpoint_path = options.checkpoint_path;
  fc.resume = options.resume;
  fc.supervisor = options.supervisor;
  harness::FaultCampaignResult result;
  std::string checkpoint_error;
  try {
    result = harness::runFaultCampaign(fc, &checkpoint_error);
  } catch (const harness::DurableLogError& e) {
    std::cerr << "sptc: " << e.what() << "\n";
    return 2;
  }

  const int rc = finishCampaign(result, options);
  if (!checkpoint_error.empty()) {
    std::cerr << "sptc: " << checkpoint_error << "\n";
    return 2;
  }
  if (g_interrupted) {
    std::cerr << "sptc: campaign interrupted; finished cells are "
                 "checkpointed, re-run with --resume\n";
    return kInterruptedExit;
  }
  return rc;
}

int cmdServe(const Options& options) {
  if (options.socket_path.empty()) {
    std::cerr << "sptc: serve needs --socket PATH\n";
    return 2;
  }
  if (!options.checkpoint_path.empty()) {
    std::cerr << "sptc: serve takes no --checkpoint; finished cells are "
                 "logged in the --journal file\n";
    return 2;
  }
  if (!harness::SweepService::supported()) {
    std::cerr << "sptc: the sweep service needs fork + AF_UNIX sockets, "
                 "which this platform lacks\n";
    return 1;
  }
  installInterruptHandlers();
  harness::SweepServiceOptions so;
  so.socket_path = options.socket_path;
  so.supervisor = options.supervisor;
  so.supervisor.jobs = options.jobs;  // --jobs sizes the worker pool
  so.max_queue = options.max_queue;
  so.allow_chaos = options.allow_chaos;
  so.journal_path = options.journal_path;
  so.crash = options.service_crash;
  so.trace_cache_dir = options.trace_cache_dir;
  so.stop = &g_interrupted;
  so.log = [](const std::string& m) { std::cerr << m << "\n"; };
  harness::SweepService service(std::move(so));
  return service.run();
}

int cmdSubmit(const std::string& mode, const Options& options) {
  if (options.socket_path.empty()) {
    std::cerr << "sptc: submit needs --socket PATH\n";
    return 2;
  }
  if (mode == "status") {
    std::string error;
    const auto status =
        harness::queryServiceStatus(options.socket_path, &error);
    if (!status) {
      std::cerr << "sptc: status query failed: " << error << "\n";
      return 1;
    }
    std::cout << *status << "\n";
    return 0;
  }
  if (mode != "sweep" && mode != "inject") {
    std::cerr << "sptc: submit supports sweep | inject | status\n";
    return 2;
  }
  if (!validateBenchmarks(options.benchmarks)) return 2;

  harness::ServiceRequest req;
  req.kind = mode == "sweep" ? harness::ServiceRequest::Kind::kSweep
                             : harness::ServiceRequest::Kind::kCampaign;
  req.scale = options.scale;
  req.machine = options.machine;
  req.copts = options.copts;
  req.benchmarks = options.benchmarks;
  req.seeds = options.seeds;
  req.base_seed = options.base_seed;
  req.period = options.period;
  req.oracle = options.oracle;
  req.deadline_seconds = options.deadline_seconds;
  req.chaos = options.supervisor.chaos;
  if (mode == "sweep") {
    req.spec_threads = options.spec_threads;
  } else if (!options.spec_threads.empty()) {
    // Campaigns run the whole grid at one chain depth.
    if (options.spec_threads.size() > 1) {
      std::cerr << "sptc: submit inject takes a single --spec-threads "
                   "value\n";
      return 2;
    }
    req.machine.spec_threads = options.spec_threads[0];
    req.copts.spec_threads = options.spec_threads[0];
  }

  harness::SubmitOptions sopts;
  sopts.chaos = options.client_chaos;
  sopts.token = options.token;
  sopts.retry_for_seconds = options.retry_for_seconds;
  if (options.retry_for_seconds > 0.0) {
    // The retry loop sleeps between attempts; SIGINT/SIGTERM must be able
    // to end it cleanly rather than killing mid-print.
    installInterruptHandlers();
    sopts.stop = &g_interrupted;
    sopts.log = [](const std::string& m) {
      std::cerr << "sptc: " << m << "\n";
    };
  }
  const auto outcome =
      harness::submitToServiceWithRetry(options.socket_path, req, sopts);
  if (g_interrupted) {
    std::cerr << "sptc: submit interrupted";
    if (!options.token.empty()) {
      std::cerr << "; resubmit --token " << options.token
                << " to re-attach to the request";
    }
    std::cerr << "\n";
    return kInterruptedExit;
  }
  if (outcome.busy) {
    std::cerr << "sptc: service busy (" << outcome.error << "); retry after "
              << support::fixed(outcome.retry_after_seconds, 2) << "s\n";
    return 3;
  }
  if (!outcome.ok) {
    std::cerr << "sptc: submit failed: " << outcome.error << "\n";
    return 1;
  }
  if (mode == "sweep") {
    return finishSweep(outcome.rows, options, "suite sweep (served)");
  }
  return finishCampaign(outcome.campaign, options);
}

int cmdPerf(const Options& options) {
  harness::PerfOptions perf;
  perf.scale = options.scale;
  perf.repetitions = options.reps;
  perf.setup_jobs = options.jobs;
  perf.machine = options.machine;
  perf.copts = options.copts;
  std::vector<harness::PerfPassRow> passes;
  const auto rows = harness::runSimThroughput(perf, &passes);
  harness::printSimThroughputTable(std::cout, rows);
  harness::printPassTimeTable(std::cout, passes);
  const std::string path = options.json_path.empty()
                               ? "BENCH_sim_throughput.json"
                               : options.json_path;
  if (!harness::writeSimThroughputJson(path, rows, &passes)) {
    std::cerr << "sptc: could not write " << path << "\n";
    return 1;
  }
  std::cout << "results: " << path << " (" << rows.size() << " rows)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "list") return cmdList();
  if (cmd == "sweep") {
    const Options options = parseOptions(argc, argv, 2);
    if (!options.ok) return 2;
    return cmdSweep(options);
  }
  if (cmd == "perf") {
    Options options = parseOptions(argc, argv, 2);
    if (!options.ok || !applySpecThreads(options, "perf")) return 2;
    if (options.supervisor.isolate) {
      std::cerr << "sptc: perf measures in process; --isolate is a "
                   "sweep/inject option\n";
      return 2;
    }
    return cmdPerf(options);
  }
  if (cmd == "inject") {
    Options options = parseOptions(argc, argv, 2);
    if (!options.ok || !applySpecThreads(options, "inject")) return 2;
    return cmdInject(options);
  }
  if (cmd == "serve") {
    const Options options =
        parseOptions(argc, argv, 2, /*chaos_needs_isolate=*/false);
    if (!options.ok) return 2;
    return cmdServe(options);
  }
  if (cmd == "submit") {
    if (argc < 3 || argv[2][0] == '-') {
      std::cerr << "sptc: submit needs a mode: sweep | inject | status\n";
      return usage();
    }
    const std::string mode = argv[2];
    const Options options =
        parseOptions(argc, argv, 3, /*chaos_needs_isolate=*/false);
    if (!options.ok) return 2;
    return cmdSubmit(mode, options);
  }
  if (cmd == "run" || cmd == "compile" || cmd == "parse") {
    if (argc < 3 || argv[2][0] == '-') {
      std::cerr << "sptc: '" << cmd
                << "' needs a workload name or .spt file\n";
      return usage();
    }
    const std::string target = argv[2];
    Options options = parseOptions(argc, argv, 3);
    if (!options.ok || !applySpecThreads(options, cmd.c_str())) return 2;
    if (cmd == "run") return cmdRun(target, options);
    if (cmd == "compile") return cmdCompile(target, options);
    return cmdParse(target);
  }
  std::cerr << "sptc: unknown subcommand '" << cmd << "'\n";
  return usage();
}
