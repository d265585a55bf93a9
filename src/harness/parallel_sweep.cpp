#include "harness/parallel_sweep.h"

#include <fstream>

#include "harness/cell_codec.h"
#include "harness/durable_log.h"
#include "support/check.h"
#include "support/error.h"
#include "support/json.h"

namespace spt::harness {

std::vector<SweepRow> runSweep(const ParallelSweep& sweep,
                               const std::vector<SweepCase>& cases) {
  return sweep.run(cases.size(), [&](std::size_t i) {
    const SweepCase& c = cases[i];
    SweepRow row;
    row.benchmark = c.benchmark;
    row.config = c.config;
    row.result = runSuiteEntry(c.entry, c.machine, c.scale);
    return row;
  });
}

CheckpointLine sweepCheckpointLine(const SweepRow& r) {
  const sim::MachineResult& base = r.result.baseline;
  const sim::MachineResult& spt = r.result.spt;
  CheckpointLine line;
  line.metrics = {
      base.cycles,
      spt.cycles,
      base.instrs,
      spt.instrs,
      base.breakdown.execution,
      base.breakdown.pipeline_stall,
      base.breakdown.dcache_stall,
      spt.breakdown.execution,
      spt.breakdown.pipeline_stall,
      spt.breakdown.dcache_stall,
      spt.threads.spawned,
      spt.threads.fast_commits,
      spt.threads.replays,
      spt.threads.squashes,
      spt.threads.killed,
      spt.threads.spec_instrs,
      spt.threads.misspec_instrs,
      spt.threads.committed_instrs,
      spt.threads.forks_ignored,
      spt.threads.wrong_path,
  };
  return line;
}

std::vector<SweepCase> buildSuiteSweepCases(
    const support::MachineConfig& machine,
    const compiler::CompilerOptions& copts, std::uint64_t scale,
    const std::vector<std::string>& benchmarks,
    const std::vector<std::uint32_t>& spec_threads) {
  std::vector<SweepCase> cases;
  for (auto& entry : defaultSuite()) {
    if (!benchmarks.empty()) {
      bool wanted = false;
      for (const std::string& b : benchmarks) {
        if (b == entry.workload.name) wanted = true;
      }
      if (!wanted) continue;
    }
    SweepCase c;
    c.benchmark = entry.workload.name;
    c.entry = std::move(entry);
    // Suite-level per-benchmark overrides (gap's 2500 body-size limit)
    // survive; every other knob comes from the caller.
    const double per_benchmark_limit = c.entry.copts.max_avg_body_size;
    c.entry.copts = copts;
    if (per_benchmark_limit > c.entry.copts.max_avg_body_size) {
      c.entry.copts.max_avg_body_size = per_benchmark_limit;
    }
    c.machine = machine;
    c.scale = scale;
    if (spec_threads.empty()) {
      cases.push_back(std::move(c));
      continue;
    }
    // Thread-count grid axis: one case per N, tagged "default" for N == 1
    // (so single-threaded grids stay byte-identical to the historical
    // sweep, checkpoints included) and "n<N>" otherwise. Both the machine
    // and the compiler see N — the simulator sizes its chain and the
    // precomputation-slice pass only arms itself at N >= 2.
    for (const std::uint32_t n : spec_threads) {
      SPT_CHECK_MSG(n >= 1 && n <= support::kMaxSpecThreads,
                    "spec_threads out of range");
      SweepCase g = c;
      g.config = n == 1 ? "default" : "n" + std::to_string(n);
      g.machine.spec_threads = n;
      g.entry.copts.spec_threads = n;
      cases.push_back(std::move(g));
    }
  }
  return cases;
}

namespace {

/// Runs one cell in-cell (either path): quarantine-catches per `catch_all`.
SweepRow runCell(const SweepCase& c, bool catch_all, TraceCache* cache) {
  SweepRow row;
  row.benchmark = c.benchmark;
  row.config = c.config;
  if (catch_all) {
    try {
      row.result = runSuiteEntry(c.entry, c.machine, c.scale,
                                 /*remarks=*/nullptr, cache);
    } catch (const support::SptBudgetExceeded& e) {
      row.status = CellStatus::kBudgetExceeded;
      row.diagnostic = e.what();
    } catch (const std::exception& e) {
      row.status = CellStatus::kInternalError;
      row.diagnostic = e.what();
    }
  } else {
    row.result = runSuiteEntry(c.entry, c.machine, c.scale,
                               /*remarks=*/nullptr, cache);
  }
  return row;
}

/// The ok row `log` holds for `c`, if one decodes.
std::optional<SweepRow> resumedRow(const CheckpointLog& log,
                                   const SweepCase& c) {
  const std::string* payload = log.resumed(c.benchmark, c.config);
  SweepRow row;
  if (payload == nullptr || !decodeSweepRow(*payload, &row) || !row.ok()) {
    return std::nullopt;
  }
  return row;
}

/// The supervised sweep path (the warm worker pool). Cells with an ok row
/// in the resumed log are reused; only the remaining cells go to workers.
std::vector<SweepRow> runSweepSupervised(const ParallelSweep& sweep,
                                         const std::vector<SweepCase>& cases,
                                         const SweepOptions& opts,
                                         CheckpointLog& log,
                                         TraceCache* cache) {
  std::vector<SweepRow> rows(cases.size());
  std::vector<std::size_t> to_run;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    if (std::optional<SweepRow> row = resumedRow(log, cases[i])) {
      rows[i] = std::move(*row);
    } else {
      to_run.push_back(i);
    }
  }

  SupervisorOptions sopts = opts.supervisor;
  if (sopts.jobs == 0) sopts.jobs = sweep.jobs();
  const Supervisor supervisor(sopts);

  // The producer runs in a pooled worker. Supervision implies
  // quarantine semantics: a cell exception becomes a non-ok row in the
  // payload either way (the alternative — letting it escape — would just
  // downgrade a structured status into a generic worker error). With a
  // trace cache, workers rendezvous on the cache *files*: whichever
  // worker first needs a workload's trace writes it, every other worker
  // mmaps the same file, so the page cache
  // holds one physical copy per workload across the whole worker fleet.
  const auto produce = [&](std::size_t k) {
    return produceSweepCellPayload(cases[to_run[k]], cache);
  };

  // The settle hook runs in the parent as each cell's retries resolve.
  const auto on_settled = [&](std::size_t k, const Supervisor::Outcome& oc) {
    const SweepCase& c = cases[to_run[k]];
    SweepRow row = sweepRowFromOutcome(c.benchmark, c.config, oc);
    log.append(c.benchmark, c.config, encodeSweepRow(row));
    rows[to_run[k]] = std::move(row);
  };

  supervisor.run(to_run.size(), produce, on_settled);
  return rows;
}

}  // namespace

std::string produceSweepCellPayload(const SweepCase& c, TraceCache* cache) {
  return encodeSweepRow(runCell(c, /*catch_all=*/true, cache));
}

SweepRow sweepRowFromOutcome(const std::string& benchmark,
                             const std::string& config,
                             const Supervisor::Outcome& oc) {
  SweepRow row;
  if (oc.status == CellStatus::kOk) {
    if (!decodeSweepRow(oc.payload, &row)) {
      row.benchmark = benchmark;
      row.config = config;
      row.status = CellStatus::kProtocolError;
      row.diagnostic =
          "worker payload passed frame validation but failed to decode "
          "as a sweep row";
    }
  } else {
    // Transport failure or structured worker error: synthesize the row
    // from the case tags and the supervisor's diagnostic.
    row.benchmark = benchmark;
    row.config = config;
    row.status = oc.status;
    row.diagnostic = oc.diagnostic;
  }
  row.worker = oc.worker;
  return row;
}

std::vector<SweepRow> runSweep(const ParallelSweep& sweep,
                               const std::vector<SweepCase>& cases,
                               const SweepOptions& opts,
                               std::string* checkpoint_error) {
  CheckpointLog log(opts.checkpoint_path, opts.resume);

  // Quarantine runs the whole sweep with SPT_CHECK in throwing mode so a
  // poisoned cell surfaces as SptInternalError on its own worker instead
  // of aborting the process. The flag is process-global, so it brackets
  // the sweep, not each cell; forked workers inherit it.
  std::optional<support::ScopedCheckThrowMode> throw_mode;
  if (opts.quarantine) throw_mode.emplace(true);

  // The cache lives for the whole sweep (in the supervised case: in the
  // parent, from which workers inherit the directory; each process maps
  // the shared files on demand).
  std::optional<TraceCache> cache;
  if (!opts.trace_cache_dir.empty()) cache.emplace(opts.trace_cache_dir);
  TraceCache* cache_ptr = cache ? &*cache : nullptr;

  std::vector<SweepRow> rows;
  if (opts.supervisor.isolate && Supervisor::isolationSupported()) {
    rows = runSweepSupervised(sweep, cases, opts, log, cache_ptr);
  } else {
    rows = sweep.run(cases.size(), [&](std::size_t i) {
      const SweepCase& c = cases[i];
      if (std::optional<SweepRow> row = resumedRow(log, c)) {
        return std::move(*row);
      }
      SweepRow row = runCell(c, /*catch_all=*/opts.quarantine, cache_ptr);
      log.append(c.benchmark, c.config, encodeSweepRow(row));
      return row;
    });
  }
  if (checkpoint_error != nullptr) *checkpoint_error = log.failure();
  return rows;
}

bool writeSweepJson(const std::string& path,
                    const std::vector<SweepRow>& rows) {
  std::ofstream out(path);
  if (!out) return false;
  support::JsonWriter w(out);
  w.beginObject();
  w.key("rows").beginArray();
  for (const SweepRow& r : rows) {
    const sim::MachineResult& base = r.result.baseline;
    const sim::MachineResult& spt = r.result.spt;
    w.beginObject();
    w.member("benchmark", r.benchmark);
    w.member("config", r.config);
    w.member("status", toString(r.status));
    if (!r.diagnostic.empty()) w.member("diagnostic", r.diagnostic);
    w.member("baseline_cycles", base.cycles);
    w.member("spt_cycles", spt.cycles);
    w.member("baseline_instrs", base.instrs);
    w.member("spt_instrs", spt.instrs);
    w.member("speedup", r.result.programSpeedup());
    w.key("baseline_breakdown").beginObject();
    w.member("execution", base.breakdown.execution);
    w.member("pipeline_stall", base.breakdown.pipeline_stall);
    w.member("dcache_stall", base.breakdown.dcache_stall);
    w.endObject();
    w.key("spt_breakdown").beginObject();
    w.member("execution", spt.breakdown.execution);
    w.member("pipeline_stall", spt.breakdown.pipeline_stall);
    w.member("dcache_stall", spt.breakdown.dcache_stall);
    w.endObject();
    w.key("threads").beginObject();
    w.member("spawned", spt.threads.spawned);
    w.member("fast_commits", spt.threads.fast_commits);
    w.member("replays", spt.threads.replays);
    w.member("squashes", spt.threads.squashes);
    w.member("killed", spt.threads.killed);
    w.member("spec_instrs", spt.threads.spec_instrs);
    w.member("misspec_instrs", spt.threads.misspec_instrs);
    w.member("committed_instrs", spt.threads.committed_instrs);
    w.member("fast_commit_ratio", spt.threads.fastCommitRatio());
    w.member("misspeculation_ratio", spt.threads.misspeculationRatio());
    w.endObject();
    if (spt.faults.injected != 0) {
      w.key("faults").beginObject();
      w.member("injected", spt.faults.injected);
      w.member("detected_by_net", spt.faults.detected_by_net);
      w.member("detected_by_oracle", spt.faults.detected_by_oracle);
      w.member("benign", spt.faults.benign);
      w.member("escaped", spt.faults.escaped);
      w.endObject();
    }
    if (!r.extra.empty()) {
      w.key("extra").beginObject();
      for (const auto& [k, v] : r.extra) w.member(k, v);
      w.endObject();
    }
    // Supervisor containment data, only for cells that went through a
    // worker — the in-process path's output is byte-identical to before.
    // host_-prefixed members are host-dependent (CI filters them out of
    // determinism diffs with `grep -v '"host_'`).
    if (r.worker.attempts > 0) {
      w.key("worker").beginObject();
      w.member("attempts", static_cast<std::uint64_t>(r.worker.attempts));
      w.member("exit_code", r.worker.exit_code);
      w.member("term_signal", r.worker.term_signal);
      w.member("timed_out", r.worker.timed_out);
      w.member("host_user_seconds", r.worker.host_user_seconds);
      w.member("host_sys_seconds", r.worker.host_sys_seconds);
      w.member("host_max_rss_kb",
               static_cast<std::int64_t>(r.worker.host_max_rss_kb));
      if (!r.worker.partial_reply.empty()) {
        w.member("partial_reply", r.worker.partial_reply);
      }
      w.endObject();
    }
    w.endObject();
  }
  w.endArray();
  // Sweep-level rusage aggregate; present only when at least one cell ran
  // under the supervisor, so in-process output stays byte-identical to
  // before. Cell/attempt counts are deterministic across worker models;
  // the host_ members are filtered from CI diffs like the per-row ones.
  ResourceReport resource;
  for (const SweepRow& r : rows) resource.add(r.worker);
  if (resource.supervised_cells > 0) {
    w.key("resource").beginObject();
    w.member("supervised_cells",
             static_cast<std::uint64_t>(resource.supervised_cells));
    w.member("attempts", resource.attempts);
    w.member("host_user_seconds", resource.host_user_seconds);
    w.member("host_sys_seconds", resource.host_sys_seconds);
    w.member("host_max_rss_kb", resource.host_max_rss_kb);
    w.endObject();
  }
  w.endObject();
  out << "\n";
  return static_cast<bool>(out);
}

}  // namespace spt::harness
