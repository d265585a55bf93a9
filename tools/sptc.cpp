// sptc — the SPT command-line driver. Run `sptc` alone for its usage: the
// subcommands and the options each one reads, printed from kSubcommands
// and kOptions below, the one place either is defined.
#include <charconv>
#include <csignal>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <type_traits>

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
  std::optional<double> max_body;  // wins over a suite entry's own limit
  bool print_ir = false;
  std::string remarks_path;  // empty = no remarks output
  std::size_t jobs = 0;      // 0 = ParallelSweep default
  std::string json_path;     // empty = no JSON output (perf: its default)
  int reps = 3;
  std::string checkpoint_path;
  bool resume = false;
  bool quarantine = false;
  std::string trace_cache_dir;  // empty = no shared trace cache
  harness::SupervisorOptions supervisor;
  std::uint64_t seeds = 8;
  std::uint64_t base_seed = 0x5eed;
  std::uint32_t period = 32;
  support::OracleMode oracle = support::OracleMode::kDigest;
  std::string socket_path;
  std::size_t max_queue = 1024;
  bool allow_chaos = false;
  std::vector<std::string> benchmarks;  // empty = the whole suite
  double deadline_seconds = 0.0;
  support::ClientChaosPlan client_chaos;
  std::string journal_path;  // empty = no request journal
  support::ServiceCrashPlan service_crash;
  std::string token;               // empty = no idempotency token
  double retry_for_seconds = 0.0;  // 0 = single attempt
  /// A comma list for sweep and submit sweep (a grid axis); one value
  /// elsewhere. Empty = flag absent.
  std::vector<std::uint32_t> spec_threads;
  std::string error;  // set by an option's action; ends the parse
};

/// The subcommands; submit's modes count as subcommands of their own.
enum Sub : unsigned {
  kList = 1u << 0,
  kRun = 1u << 1,
  kCompile = 1u << 2,
  kParse = 1u << 3,
  kSweep = 1u << 4,
  kPerf = 1u << 5,
  kInject = 1u << 6,
  kServe = 1u << 7,
  kSubmitSweep = 1u << 8,
  kSubmitInject = 1u << 9,
  kSubmitStatus = 1u << 10,
};

struct Subcommand {
  const char* name;
  Sub sub;
  const char* operand;  // the positional argument, if any
  const char* help;
};

constexpr Subcommand kSubcommands[] = {
    {"list", kList, "", "list the built-in workloads"},
    {"run", kRun, " <workload | program.spt>",
     "profile, compile, trace and simulate baseline vs SPT"},
    {"compile", kCompile, " <workload | program.spt>",
     "print the SPT-transformed IR"},
    {"parse", kParse, " <program.spt>",
     "parse, verify and re-print a textual IR program"},
    {"sweep", kSweep, "",
     "run the suite grid in parallel (same rows at any --jobs)"},
    {"perf", kPerf, "",
     "measure simulator and interpreter host throughput"},
    {"inject", kInject, "",
     "fault-injection campaign with the oracle armed (docs/ROBUSTNESS.md)"},
    {"serve", kServe, "",
     "resident sweep service on a Unix socket (docs/ROBUSTNESS.md)"},
    {"submit sweep", kSubmitSweep, "",
     "a sweep run by the service: sweep's table and JSON (3 = busy)"},
    {"submit inject", kSubmitInject, "",
     "a campaign run by the service: inject's table and JSON"},
    {"submit status", kSubmitStatus, "", "print the service's status JSON"},
};

// Who reads an option group.
constexpr unsigned kSubmit = kSubmitSweep | kSubmitInject;
constexpr unsigned kMachine = kRun | kSweep | kPerf | kInject | kSubmit;
constexpr unsigned kCompiler = kRun | kCompile | kSweep | kPerf | kSubmitSweep;
constexpr unsigned kGrids = kSweep | kInject | kSubmit;
constexpr unsigned kPool = kSweep | kInject | kServe;
constexpr unsigned kCampaign = kInject | kSubmitInject;
constexpr unsigned kSocket = kServe | kSubmit | kSubmitStatus;

struct Arg {
  const char* name;
  std::string value;
};

/// The checked parser every numeric option goes through: all of the value
/// must be a number of T in [lo, hi].
template <typename T>
void number(Options& o, const Arg& a, T* out, std::type_identity_t<T> lo = 0,
            std::type_identity_t<T> hi = std::numeric_limits<T>::max()) {
  T v{};
  const char* end = a.value.data() + a.value.size();
  const auto [ptr, ec] = std::from_chars(a.value.data(), end, v);
  if (ec == std::errc() && ptr == end && v >= lo && v <= hi) {
    *out = v;
    return;
  }
  std::ostringstream why;
  why << "bad " << a.name << " value '" << a.value << "' (expected a "
      << (std::is_integral_v<T> ? "whole " : "") << "number >= " << lo;
  if (hi != std::numeric_limits<T>::max()) why << " and <= " << hi;
  o.error = why.str() + ")";
}

/// Parses a --chaos / --client-chaos / --crash-at plan into `out`.
template <typename Plan>
void plan(Options& o, const Arg& a, Plan* out) {
  std::string error;
  if (const std::optional<Plan> p = Plan::parse(a.value, &error)) {
    *out = *p;
  } else {
    o.error = std::string("bad ") + a.name + " spec: " + error;
  }
}

struct Option {
  const char* name;
  const char* value;  // the value's placeholder; null for a flag
  unsigned readers;   // Sub bits
  const char* help;
  void (*apply)(Options&, const Arg&);
};

constexpr Option kOptions[] = {
    {"--scale", "N", kRun | kCompile | kPerf | kGrids,
     "workload input scale (default 1)",
     [](Options& o, const Arg& a) { number(o, a, &o.scale, 1); }},
    {"--spec-threads", "L", kRun | kCompile | kPerf | kGrids,
     "speculative threads 1..16; sweeps take a comma list",
     [](Options& o, const Arg& a) {
       std::stringstream ss(a.value);
       std::string tok;
       while (std::getline(ss, tok, ',')) {
         std::uint32_t n = 0;
         number(o, {a.name, tok}, &n, 1, support::kMaxSpecThreads);
         if (!o.error.empty()) return;
         o.spec_threads.push_back(n);
       }
     }},
    {"--srb", "N", kMachine,
     "speculation result buffer entries (default 1024)",
     [](Options& o, const Arg& a) {
       number(o, a, &o.machine.speculation_result_buffer_entries);
     }},
    {"--recovery", "M", kMachine, "srx_fc | srx | squash (default srx_fc)",
     [](Options& o, const Arg& a) {
       if (a.value == "srx_fc") {
         o.machine.recovery =
             support::RecoveryMechanism::kSelectiveReplayFastCommit;
       } else if (a.value == "srx") {
         o.machine.recovery = support::RecoveryMechanism::kSelectiveReplay;
       } else if (a.value == "squash") {
         o.machine.recovery = support::RecoveryMechanism::kFullSquash;
       } else {
         o.error = "unknown recovery '" + a.value + "'";
       }
     }},
    {"--regcheck", "M", kMachine, "value | scoreboard (default value)",
     [](Options& o, const Arg& a) {
       if (a.value == "value") {
         o.machine.register_check = support::RegisterCheckMode::kValueBased;
       } else if (a.value == "scoreboard") {
         o.machine.register_check = support::RegisterCheckMode::kScoreboard;
       } else {
         o.error = "unknown regcheck '" + a.value + "'";
       }
     }},
    {"--max-records", "N", kMachine,
     "per-cell simulated-record budget (0 = unlimited)",
     [](Options& o, const Arg& a) {
       number(o, a, &o.machine.max_simulated_records);
       o.machine.max_trace_records = o.machine.max_simulated_records;
     }},
    {"--max-cycles", "N", kMachine,
     "per-cell simulated-cycle budget (0 = unlimited)",
     [](Options& o, const Arg& a) {
       number(o, a, &o.machine.max_simulated_cycles);
     }},
    {"--no-svp", nullptr, kCompiler, "disable software value prediction",
     [](Options& o, const Arg&) { o.copts.enable_svp = false; }},
    {"--regions", nullptr, kCompiler,
     "enable region-based speculation (paper Section 6)",
     [](Options& o, const Arg&) { o.copts.enable_region_speculation = true; }},
    {"--no-unroll", nullptr, kCompiler, "disable loop unrolling",
     [](Options& o, const Arg&) { o.copts.enable_unrolling = false; }},
    {"--select-all", nullptr, kCompiler, "bypass cost-driven loop selection",
     [](Options& o, const Arg&) { o.copts.cost_driven_selection = false; }},
    {"--max-body", "N", kCompiler,
     "loop body-size limit (default 1000; gap 2500)",
     [](Options& o, const Arg& a) {
       double limit = 0.0;
       number(o, a, &limit);
       o.max_body = limit;
     }},
    {"--verify-passes", nullptr, kCompiler,
     "run the IR verifier after every compiler pass",
     [](Options& o, const Arg&) { o.copts.verify_between_passes = true; }},
    {"--print-ir", nullptr, kRun, "also print the transformed module",
     [](Options& o, const Arg&) { o.print_ir = true; }},
    {"--remarks", "FILE", kRun | kCompile,
     "write the compilation remarks JSON to FILE (- = stdout)",
     [](Options& o, const Arg& a) { o.remarks_path = a.value; }},
    {"--jobs", "N", kSweep | kPerf | kInject | kServe,
     "worker count (default: SPT_JOBS, else all cores)",
     [](Options& o, const Arg& a) { number(o, a, &o.jobs); }},
    {"--json", "PATH", kSweep | kPerf | kCampaign | kSubmitSweep,
     "also write results JSON (perf: BENCH_sim_throughput.json)",
     [](Options& o, const Arg& a) { o.json_path = a.value; }},
    {"--reps", "N", kPerf, "timed repetitions, fastest wins (default 3)",
     [](Options& o, const Arg& a) { number(o, a, &o.reps, 1); }},
    {"--benchmarks", "LIST", kGrids, "comma list of suite workloads to run",
     [](Options& o, const Arg& a) {
       std::stringstream ss(a.value);
       std::string name;
       while (std::getline(ss, name, ',')) {
         if (name.empty()) continue;
         if (harness::suiteEntries({name}).empty()) {
           o.error = "unknown benchmark '" + name +
                     "' in --benchmarks (try `sptc list`)";
           return;
         }
         o.benchmarks.push_back(name);
       }
     }},
    {"--trace-cache", "DIR", kSweep | kServe,
     "share traces, fork tables, results and profiles in DIR",
     [](Options& o, const Arg& a) { o.trace_cache_dir = a.value; }},
    {"--checkpoint", "PATH", kSweep | kInject,
     "append each finished cell to the durable log at PATH",
     [](Options& o, const Arg& a) { o.checkpoint_path = a.value; }},
    {"--resume", nullptr, kSweep | kInject,
     "reuse ok cells from --checkpoint; re-run the rest",
     [](Options& o, const Arg&) { o.resume = true; }},
    {"--quarantine", nullptr, kSweep,
     "report poisoned cells as rows instead of aborting",
     [](Options& o, const Arg&) { o.quarantine = true; }},
    {"--isolate", nullptr, kSweep | kInject,
     "run cells on a warm pool of supervised worker processes",
     [](Options& o, const Arg&) { o.supervisor.isolate = true; }},
    {"--no-isolate", nullptr, kSweep | kInject,
     "run cells in this process (the default)",
     [](Options& o, const Arg&) { o.supervisor.isolate = false; }},
    {"--cell-timeout", "S", kPool,
     "per-attempt wall-clock deadline in seconds (0 = none)",
     [](Options& o, const Arg& a) {
       number(o, a, &o.supervisor.cell_timeout_seconds);
     }},
    {"--retries", "N", kPool,
     "extra attempts for crashed, hung or corrupt workers",
     [](Options& o, const Arg& a) { number(o, a, &o.supervisor.retries); }},
    {"--rlimit-as", "MB", kPool, "worker address-space cap in MiB",
     [](Options& o, const Arg& a) {
       std::uint64_t mib = 0;
       number(o, a, &mib, 0, ~0ull >> 20);
       o.supervisor.rlimit_as_bytes = mib << 20;
     }},
    {"--rlimit-cpu", "S", kPool, "worker CPU-seconds cap",
     [](Options& o, const Arg& a) {
       number(o, a, &o.supervisor.rlimit_cpu_seconds);
     }},
    {"--chaos", "SPEC", kSweep | kInject | kSubmit,
     "worker sabotage CELL:ACTION[@ATTEMPTS] (tests)",
     [](Options& o, const Arg& a) { plan(o, a, &o.supervisor.chaos); }},
    {"--seeds", "N", kCampaign, "fault seeds per workload (default 8)",
     [](Options& o, const Arg& a) { number(o, a, &o.seeds, 1); }},
    {"--seed", "N", kCampaign, "campaign base seed (default 24301)",
     [](Options& o, const Arg& a) { number(o, a, &o.base_seed); }},
    {"--period", "N", kCampaign,
     "injector firing period, ~1/N per site (default 32)",
     [](Options& o, const Arg& a) { number(o, a, &o.period, 1); }},
    {"--oracle", "M", kCampaign, "digest | deep (default digest)",
     [](Options& o, const Arg& a) {
       if (a.value == "digest") {
         o.oracle = support::OracleMode::kDigest;
       } else if (a.value == "deep") {
         o.oracle = support::OracleMode::kDeep;
       } else {
         o.error = "unknown oracle mode '" + a.value +
                   "' (expected digest | deep)";
       }
     }},
    {"--socket", "PATH", kSocket, "the service's Unix-domain socket",
     [](Options& o, const Arg& a) { o.socket_path = a.value; }},
    {"--max-queue", "N", kServe,
     "queued cells before a request is refused (default 1024)",
     [](Options& o, const Arg& a) { number(o, a, &o.max_queue); }},
    {"--allow-chaos", nullptr, kServe,
     "accept request-embedded chaos plans (tests)",
     [](Options& o, const Arg&) { o.allow_chaos = true; }},
    {"--journal", "PATH", kServe,
     "durable log that makes the service restart-safe",
     [](Options& o, const Arg& a) { o.journal_path = a.value; }},
    {"--crash-at", "SPEC", kServe,
     "scripted self-SIGKILL POINT[@AT][:BYTES] (tests)",
     [](Options& o, const Arg& a) { plan(o, a, &o.service_crash); }},
    {"--deadline", "S", kSubmit,
     "whole-request deadline in seconds (0 = none)",
     [](Options& o, const Arg& a) { number(o, a, &o.deadline_seconds); }},
    {"--token", "STR", kSubmit,
     "idempotency token: a resubmission re-attaches",
     [](Options& o, const Arg& a) { o.token = a.value; }},
    {"--retry-for", "S", kSubmit,
     "retry busy and failed submissions for up to S seconds",
     [](Options& o, const Arg& a) { number(o, a, &o.retry_for_seconds); }},
    {"--client-chaos", "SPEC", kSubmit,
     "client sabotage disconnect|garbage|slow-reader[@N]",
     [](Options& o, const Arg& a) { plan(o, a, &o.client_chaos); }},
};

/// Prints each option that a subcommand in `readers` reads, one a line
/// with its help text.
void printOptions(unsigned readers) {
  bool any = false;
  for (const Option& opt : kOptions) {
    if ((opt.readers & readers) == 0) continue;
    any = true;
    const std::string head =
        std::string(opt.name) + (opt.value ? std::string(" ") + opt.value : "");
    std::cerr << "  " << std::left << std::setw(20) << head << " " << opt.help
              << "\n";
  }
  if (!any) std::cerr << "  (none)\n";
}

/// `sptc` alone: each subcommand with the options it reads, then what
/// each option means.
int usage() {
  std::cerr << "usage: sptc <subcommand> [options]\n";
  for (const Subcommand& sub : kSubcommands) {
    std::cerr << "\nsptc " << sub.name << sub.operand << "\n    " << sub.help
              << "\n";
    std::string line = "    options:";
    for (const Option& opt : kOptions) {
      if ((opt.readers & sub.sub) == 0) continue;
      if (line.size() + 1 + std::strlen(opt.name) > 78) {
        std::cerr << line << "\n";
        line = "            ";
      }
      line += std::string(" ") + opt.name;
    }
    if (line != "    options:") std::cerr << line << "\n";
  }
  std::cerr << "\noptions:\n";
  printOptions(~0u);
  return 2;
}

/// Fills Options from argv[first..] for `sub`. On an error prints it (and,
/// after an option `sub` does not know or read, `sub`'s option list) and
/// returns nothing.
std::optional<Options> parseOptions(const Subcommand& sub, int argc,
                                    char** argv, int first) {
  Options o;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');  // --name=value
    const std::string name = arg.substr(0, eq);
    const Option* opt = nullptr;
    for (const Option& row : kOptions) {
      if (name == row.name) opt = &row;
    }
    if (opt == nullptr || (eq != std::string::npos && opt->value == nullptr)) {
      std::cerr << "sptc: unknown option '" << arg
                << "' (see `sptc` for usage)\n";
    } else if ((opt->readers & sub.sub) == 0) {
      std::cerr << "sptc: " << sub.name << " does not read " << name << "\n";
    } else {
      Arg a{opt->name, {}};
      if (eq != std::string::npos) {
        a.value = arg.substr(eq + 1);
      } else if (opt->value != nullptr && i + 1 < argc) {
        a.value = argv[++i];
      }
      if (opt->value != nullptr && a.value.empty()) {
        std::cerr << "sptc: " << name << " needs a value\n";
        return std::nullopt;
      }
      opt->apply(o, a);
      if (!o.error.empty()) {
        std::cerr << "sptc: " << o.error << "\n";
        return std::nullopt;
      }
      continue;
    }
    std::cerr << "options of sptc " << sub.name << ":\n";
    printOptions(sub.sub);
    return std::nullopt;
  }
  if ((sub.sub & (kSweep | kInject)) && o.supervisor.chaos.enabled() &&
      !o.supervisor.isolate) {
    std::cerr << "sptc: --chaos requires --isolate (chaos sabotages forked "
                 "workers)\n";
    return std::nullopt;
  }
  if (!o.spec_threads.empty() && (sub.sub & (kSweep | kSubmitSweep)) == 0) {
    if (o.spec_threads.size() > 1) {
      std::cerr << "sptc: " << sub.name
                << " takes a single --spec-threads value (a comma list is a "
                   "sweep grid axis)\n";
      return std::nullopt;
    }
    o.machine.spec_threads = o.copts.spec_threads = o.spec_threads[0];
  }
  return o;
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

int cmdRun(const std::string& target, const Options& options) {
  auto m = loadTarget(target, options.scale);
  if (!m) return 1;
  const compiler::CompilerOptions copts =
      harness::cellCompilerOptions(target, options.copts, options.max_body);
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
  compiler::SptCompiler cc(
      harness::cellCompilerOptions(target, options.copts, options.max_body));
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
  if (options.supervisor.isolate) {
    installInterruptHandlers();
    options.supervisor.stop = &g_interrupted;
  }
  const harness::ParallelSweep sweep(options.jobs);
  const std::vector<harness::SweepCase> cases = harness::buildSuiteSweepCases(
      options.machine, options.copts, options.scale, options.benchmarks,
      options.spec_threads, options.max_body);

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
  fc.benchmarks = options.benchmarks;
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

int cmdSubmit(Sub mode, const Options& options) {
  if (options.socket_path.empty()) {
    std::cerr << "sptc: submit needs --socket PATH\n";
    return 2;
  }
  if (mode == kSubmitStatus) {
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

  harness::ServiceRequest req;
  req.kind = mode == kSubmitSweep ? harness::ServiceRequest::Kind::kSweep
                                  : harness::ServiceRequest::Kind::kCampaign;
  req.scale = options.scale;
  req.machine = options.machine;
  req.copts = options.copts;
  req.max_body = options.max_body;
  req.benchmarks = options.benchmarks;
  req.spec_threads = options.spec_threads;
  req.seeds = options.seeds;
  req.base_seed = options.base_seed;
  req.period = options.period;
  req.oracle = options.oracle;
  req.deadline_seconds = options.deadline_seconds;
  req.chaos = options.supervisor.chaos;

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
  if (mode == kSubmitSweep) {
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
  perf.max_body = options.max_body;
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
  std::string name = argv[1];
  if (name == "submit") {
    if (argc < 3 || argv[2][0] == '-') {
      std::cerr << "sptc: submit needs a mode: sweep | inject | status\n";
      return usage();
    }
    name.append(" ").append(argv[2]);
  }
  const Subcommand* sub = nullptr;
  for (const Subcommand& row : kSubcommands) {
    if (name == row.name) sub = &row;
  }
  if (sub == nullptr) {
    if (name.rfind("submit ", 0) == 0) {
      std::cerr << "sptc: submit supports sweep | inject | status\n";
      return 2;
    }
    std::cerr << "sptc: unknown subcommand '" << name << "'\n";
    return usage();
  }
  int first = (sub->sub & (kSubmit | kSubmitStatus)) != 0 ? 3 : 2;
  std::string target;
  if (*sub->operand != '\0') {
    if (argc < 3 || argv[2][0] == '-') {
      std::cerr << "sptc: '" << name
                << "' needs a workload name or .spt file\n";
      return usage();
    }
    target = argv[first++];
  }
  std::optional<Options> options = parseOptions(*sub, argc, argv, first);
  if (!options) return 2;
  switch (sub->sub) {
    case kList: return cmdList();
    case kRun: return cmdRun(target, *options);
    case kCompile: return cmdCompile(target, *options);
    case kParse: return cmdParse(target);
    case kSweep: return cmdSweep(*options);
    case kPerf: return cmdPerf(*options);
    case kInject: return cmdInject(*options);
    case kServe: return cmdServe(*options);
    default: return cmdSubmit(sub->sub, *options);
  }
}
