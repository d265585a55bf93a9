// Parallel experiment engine (the evaluation loop behind every bench).
//
// The paper's evaluation (Section 5) is a cross-product of workloads ×
// machine configurations × compiler options; each cell is one
// runSptExperiment call, which is fully self-contained (it takes the
// ir::Module by value and owns its traces and simulators, and no layer
// below it has mutable global state). ParallelSweep fans those cells
// across a support::ThreadPool with three guarantees:
//
//  * **ordered aggregation** — results land in submission order
//    regardless of completion order (slot-per-task, no reordering);
//  * **deterministic seeding** — tasks that want randomness receive an
//    Rng seeded by support::deriveSeed(base, task_index), a pure function
//    of the submission index, so the numbers are bit-for-bit identical at
//    any --jobs value;
//  * **error transparency** — a task that throws re-throws from run(), in
//    submission order, after every other task has finished.
//
// runSweep describes its cases as a harness::Grid of SweepRows and hands
// it to the one grid driver (harness/grid.h), which resumes, runs (here or
// in pooled workers), settles and logs the cells; the fault campaign and
// the sweep service drive their grids through the same code.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "harness/cell_status.h"
#include "harness/suite.h"
#include "harness/supervisor.h"
#include "support/rng.h"
#include "support/thread_pool.h"

namespace spt::harness {

class ParallelSweep {
 public:
  /// `jobs` == 0 selects support::ThreadPool::defaultWorkerCount()
  /// (the SPT_JOBS environment variable, else hardware concurrency).
  explicit ParallelSweep(std::size_t jobs = 0)
      : jobs_(jobs == 0 ? support::ThreadPool::defaultWorkerCount() : jobs) {}

  std::size_t jobs() const { return jobs_; }

  /// Runs fn(0..n-1) across the pool; out[i] is fn(i)'s result. jobs()==1
  /// runs inline on the calling thread (no pool, same results).
  template <typename Fn>
  auto run(std::size_t n, Fn&& fn) const
      -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
    using T = std::invoke_result_t<Fn&, std::size_t>;
    std::vector<std::optional<T>> slots(n);
    std::vector<std::exception_ptr> errors(n);
    if (jobs_ <= 1 || n <= 1) {
      // The inline path honors the same error contract as the pool path:
      // every task runs to completion and the first (submission-order)
      // exception is rethrown afterwards — not mid-sweep.
      for (std::size_t i = 0; i < n; ++i) {
        try {
          slots[i].emplace(fn(i));
        } catch (...) {
          errors[i] = std::current_exception();
        }
      }
    } else {
      support::ThreadPool pool(std::min(jobs_, n));
      for (std::size_t i = 0; i < n; ++i) {
        pool.submit([&, i] {
          try {
            slots[i].emplace(fn(i));
          } catch (...) {
            errors[i] = std::current_exception();
          }
        });
      }
      pool.wait();
    }
    for (std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    std::vector<T> out;
    out.reserve(n);
    for (std::optional<T>& s : slots) out.push_back(std::move(*s));
    return out;
  }

  /// run() variant for randomized tasks: fn(i, rng) receives an Rng seeded
  /// by deriveSeed(base_seed, i) — deterministic at any worker count.
  template <typename Fn>
  auto runSeeded(std::size_t n, std::uint64_t base_seed, Fn&& fn) const {
    return run(n, [&](std::size_t i) {
      support::Rng rng(support::deriveSeed(base_seed, i));
      return fn(i, rng);
    });
  }

 private:
  std::size_t jobs_;
};

/// One cell of an evaluation cross-product: a suite entry under a machine
/// configuration, tagged for tables and JSON output.
struct SweepCase {
  std::string benchmark;          // workload name (table row)
  std::string config = "default"; // configuration tag (table column)
  SuiteEntry entry;
  support::MachineConfig machine;
  std::uint64_t scale = 1;
};

/// A finished cell: the case tags plus the full experiment result and any
/// bench-specific extra metrics (coverage fractions, ratios, ...). When
/// `status` is not kOk, `result` is default-constructed and `diagnostic`
/// holds the failure message (file/line/context for internal errors, or
/// the supervisor's containment diagnostic for crashed/timed-out/corrupt
/// workers). CellStatus and WorkerDiagnostics live in
/// harness/cell_status.h, shared with the fault campaign and supervisor.
struct SweepRow {
  std::string benchmark;
  std::string config;
  CellStatus status = CellStatus::kOk;
  std::string diagnostic;
  ExperimentResult result;
  std::map<std::string, double> extra;
  /// Supervisor containment data; worker.attempts == 0 on the in-process
  /// path (and for resumed rows), so JSON output is unchanged there.
  WorkerDiagnostics worker;

  bool ok() const { return status == CellStatus::kOk; }
};

/// Hardening knobs for runSweep (all off by default — the plain overload
/// keeps the historical throw-on-first-error behavior).
struct SweepOptions {
  /// Quarantine poisoned cells: run the whole sweep with SPT_CHECK in
  /// throwing mode, catch per-cell failures, and report them as non-ok
  /// rows instead of propagating.
  bool quarantine = false;
  /// When non-empty, every finished cell is appended as a row record to
  /// this durable log (harness/durable_log.h) and fsync'd as it completes,
  /// so a killed sweep loses at most the cells in flight. runSweep throws
  /// DurableLogError when the log cannot be opened (before any cell runs);
  /// a failed append or fsync is reported on stderr and through
  /// runSweep's `checkpoint_error`, and the rows are still returned.
  std::string checkpoint_path;
  /// Reuse ok rows found in `checkpoint_path` instead of re-running their
  /// cells; failed (non-ok) and missing cells re-run. Keyed by
  /// (benchmark, config); the last row per key wins. A file in an older
  /// format is refused with DurableLogError.
  bool resume = false;
  /// Process isolation (supervisor.h). With supervisor.isolate set, every
  /// non-resumed cell runs in a pooled worker under the watchdog/retry
  /// policy; crashes and hangs become non-ok rows instead of taking the
  /// sweep down. Quarantine semantics are implied in the worker (a cell
  /// exception becomes a non-ok row either way). Checkpoint logs written
  /// by either path resume under the other.
  SupervisorOptions supervisor;
  /// When non-empty, cells share one mmap-backed trace file per
  /// (workload, scale, plan) through a TraceCache rooted here
  /// (harness/trace_cache.h): the first cell to need a trace streams it
  /// and writes it, every later cell — including supervised workers in
  /// other processes — maps the same file, and one that finds another
  /// process writing it computes alone. Results are identical with or
  /// without the cache.
  std::string trace_cache_dir;
};

/// Builds the standard suite sweep grid under one machine/compiler
/// configuration: one case per defaultSuite() entry (in figure order),
/// keeping suite-level per-benchmark overrides — gap's raised body-size
/// limit survives unless the caller's own limit is higher. A non-empty
/// `benchmarks` list filters the grid by workload name (unknown names are
/// silently absent — callers that must reject them validate against
/// defaultSuite() first). `sptc sweep`, the sweep service, and its
/// pooled workers all build cases through this one function, which is
/// what makes their grids — and therefore their JSON — identical.
///
/// A non-empty `spec_threads` list adds a thread-count grid axis: each
/// benchmark expands to one case per N (in list order), with the machine's
/// chain depth and the compiler's slice pass both set to N. N == 1 keeps
/// the "default" config tag so plain grids — and their checkpoint rows —
/// stay byte-identical to the single-threaded sweep; other values are
/// tagged "n<N>".
std::vector<SweepCase> buildSuiteSweepCases(
    const support::MachineConfig& machine,
    const compiler::CompilerOptions& copts, std::uint64_t scale,
    const std::vector<std::string>& benchmarks = {},
    const std::vector<std::uint32_t>& spec_threads = {});

/// Runs one sweep cell in the calling process. With `catch_all`
/// (quarantine, or a pooled worker, where supervision implies it) a cell
/// failure becomes a non-ok row; otherwise it throws. runSweep and the
/// sweep service's workers run every cell through it.
SweepRow runSweepCell(const SweepCase& c, bool catch_all,
                      TraceCache* cache = nullptr);

/// The 20 summary metrics of one sweep row, in a fixed order. Nothing in
/// src/ or tools/ calls it; it stays only because perfbench/report.cpp
/// hashes `.metrics` into its simulation digest, and goes away with the
/// next change to the benchmark.
struct CheckpointLine {
  std::vector<std::uint64_t> metrics;
};
CheckpointLine sweepCheckpointLine(const SweepRow& row);

/// Runs every case through runSptExperiment on `sweep`'s pool; rows come
/// back in `cases` order.
std::vector<SweepRow> runSweep(const ParallelSweep& sweep,
                               const std::vector<SweepCase>& cases);

/// Hardened variant: per-cell quarantine and checkpoint/resume per `opts`.
/// When `checkpoint_error` is non-null it is set to CheckpointLog::failure()
/// after the run: empty unless an append or fsync of a row failed.
std::vector<SweepRow> runSweep(const ParallelSweep& sweep,
                               const std::vector<SweepCase>& cases,
                               const SweepOptions& opts,
                               std::string* checkpoint_error = nullptr);

/// Writes rows as a machine-readable JSON document:
/// {"rows":[{benchmark, config, baseline_cycles, spt_cycles, speedup,
///           breakdown, thread stats, extra...}, ...]}.
/// Returns false on I/O failure.
bool writeSweepJson(const std::string& path,
                    const std::vector<SweepRow>& rows);

}  // namespace spt::harness
