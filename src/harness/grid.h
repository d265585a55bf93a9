// The one grid driver behind runSweep, runFaultCampaign and the sweep
// service (docs/PARALLEL_SWEEP.md). A grid is n cells, each with a
// durable-log key, a body that runs it in the calling process and catches
// its own cell-level failures, and a blank row carrying its identity.
// runGrid resumes ok rows from the checkpoint log, runs the other cells
// in-process or in pooled workers (whose body is the same cell body,
// encoded), settles each worker outcome through rowFromOutcome and logs
// every settled row, for both row types: SweepRow and FaultCampaignCell.
// The service settles and resumes its cells through the same
// rowFromOutcome and resumableRow.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "harness/cell_codec.h"
#include "harness/cell_status.h"
#include "harness/durable_log.h"
#include "harness/parallel_sweep.h"
#include "harness/supervisor.h"
#include "support/json.h"

namespace spt::harness {

/// One grid of `cells` cells whose results are rows of type Row.
template <typename Row>
struct Grid {
  std::size_t cells = 0;
  /// The cell's durable-log key.
  std::function<RowKey(std::size_t)> key;
  /// Runs the cell in the calling process: the caller's thread, or a pooled
  /// worker under isolation.
  std::function<Row(std::size_t)> run;
  /// The row the cell reports when no worker payload decodes: its identity
  /// fields. rowFromOutcome fills in the status and diagnostic.
  std::function<Row(std::size_t)> blank;
};

/// The ok row `payload` holds, if it is non-null and decodes.
template <typename Row>
std::optional<Row> resumableRow(const std::string* payload) {
  Row row;
  if (payload == nullptr || !decodeRow(*payload, &row) ||
      !row.ok()) {
    return std::nullopt;
  }
  return row;
}

/// Parent-side settle of one supervised cell: a kOk outcome's decoded
/// payload, else `blank` with the transport status and diagnostic (or a
/// protocol error when a valid frame held an undecodable payload). The
/// worker diagnostics are attached either way.
template <typename Row>
Row rowFromOutcome(Row blank, const Supervisor::Outcome& oc) {
  if (oc.status != CellStatus::kOk) {
    blank.status = oc.status;
    blank.diagnostic = oc.diagnostic;
  } else if (!decodeRow(oc.payload, &blank)) {
    blank.status = CellStatus::kProtocolError;
    blank.diagnostic = std::string("worker payload passed frame validation "
                                   "but failed to decode as a ") +
                       kRowName<Row>;
  }
  blank.worker = oc.worker;
  return blank;
}

/// The order in which to hand cells 0..n-1 to workers so that cells of one
/// group run apart: round r holds the r-th cell of each group, and groups
/// come in the order of their first cell. A grid's group is its benchmark
/// (Grid::key(i).first), and the cells of one benchmark share its cache
/// entries, so by the time a benchmark's second cell starts its first has
/// normally stored them. A single group's order is the identity.
template <typename GroupOf>
std::vector<std::size_t> spreadOrder(std::size_t n, const GroupOf& group_of) {
  using Group = std::decay_t<std::invoke_result_t<const GroupOf&, std::size_t>>;
  std::map<Group, std::size_t> index;
  std::vector<std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < n; ++i) {
    const auto [it, fresh] = index.try_emplace(group_of(i), groups.size());
    if (fresh) groups.emplace_back();
    groups[it->second].push_back(i);
  }
  std::vector<std::size_t> order;
  order.reserve(n);
  for (std::size_t round = 0; order.size() < n; ++round) {
    for (const std::vector<std::size_t>& group : groups) {
      if (round < group.size()) order.push_back(group[round]);
    }
  }
  return order;
}

/// Runs `grid`: resumes ok rows from `log`, runs the rest in-process on
/// `sweep` or, when `supervisor.isolate` is set and supported, on a pool of
/// `supervisor.jobs` workers (0: sweep.jobs()), and appends every settled
/// row to `log`. Cells start in spreadOrder over their benchmarks; rows
/// come back in cell order. In-process, a cell body that throws rethrows
/// from here after every other cell has finished (the first in cell order).
template <typename Row>
std::vector<Row> runGrid(const Grid<Row>& grid, const ParallelSweep& sweep,
                         const SupervisorOptions& supervisor,
                         CheckpointLog& log) {
  std::vector<Row> rows(grid.cells);
  std::vector<std::size_t> to_run;
  for (std::size_t i = 0; i < grid.cells; ++i) {
    const RowKey key = grid.key(i);
    if (std::optional<Row> row =
            resumableRow<Row>(log.resumed(key.first, key.second))) {
      rows[i] = std::move(*row);
    } else {
      to_run.push_back(i);
    }
  }
  const auto append = [&](std::size_t i, const Row& row) {
    const RowKey key = grid.key(i);
    log.append(key.first, key.second, encodeRow(row));
  };
  const std::vector<std::size_t> order = spreadOrder(
      to_run.size(), [&](std::size_t k) { return grid.key(to_run[k]).first; });

  if (supervisor.isolate && Supervisor::isolationSupported()) {
    SupervisorOptions sopts = supervisor;
    if (sopts.jobs == 0) sopts.jobs = sweep.jobs();
    // Workers inherit the parent's state (phase-1 traces, the trace cache
    // root) through fork; the settle hook runs in the parent as each
    // cell's retries resolve.
    Supervisor(sopts).run(
        to_run.size(),
        [&](std::size_t k) {
          return encodeRow(grid.run(to_run[k]));
        },
        [&](std::size_t k, const Supervisor::Outcome& oc) {
          const std::size_t i = to_run[k];
          rows[i] = rowFromOutcome(grid.blank(i), oc);
          append(i, rows[i]);
        },
        nullptr, order);
  } else {
    std::vector<std::exception_ptr> errors(to_run.size());
    std::vector<Row> ran = sweep.run(order.size(), [&](std::size_t j) {
      const std::size_t k = order[j];
      try {
        Row row = grid.run(to_run[k]);
        append(to_run[k], row);
        return row;
      } catch (...) {
        errors[k] = std::current_exception();
        return Row{};
      }
    });
    for (const std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    for (std::size_t j = 0; j < order.size(); ++j) {
      rows[to_run[order[j]]] = std::move(ran[j]);
    }
  }
  return rows;
}

/// A row's `worker` object; written only for a cell that went through a
/// worker (attempts > 0), so in-process output carries none. host_
/// members are host-dependent: CI filters them out of determinism diffs.
inline void writeWorkerJson(support::JsonWriter& w,
                            const WorkerDiagnostics& worker) {
  if (worker.attempts == 0) return;
  w.key("worker").beginObject();
  w.member("attempts", static_cast<std::uint64_t>(worker.attempts));
  w.member("exit_code", worker.exit_code);
  w.member("term_signal", worker.term_signal);
  w.member("timed_out", worker.timed_out);
  w.member("host_user_seconds", worker.host_user_seconds);
  w.member("host_sys_seconds", worker.host_sys_seconds);
  w.member("host_max_rss_kb", worker.host_max_rss_kb);
  if (!worker.partial_reply.empty()) {
    w.member("partial_reply", worker.partial_reply);
  }
  w.endObject();
}

/// The `resource` object: the aggregate of the per-cell worker rusage.
inline void writeResourceJson(support::JsonWriter& w,
                              const ResourceReport& resource) {
  w.key("resource").beginObject();
  w.member("supervised_cells",
           static_cast<std::uint64_t>(resource.supervised_cells));
  w.member("attempts", resource.attempts);
  w.member("host_user_seconds", resource.host_user_seconds);
  w.member("host_sys_seconds", resource.host_sys_seconds);
  w.member("host_max_rss_kb", resource.host_max_rss_kb);
  w.endObject();
}

/// The grid-level `resource` object, written only when at least one row ran
/// under the supervisor.
template <typename Row>
void writeGridResourceJson(support::JsonWriter& w,
                           const std::vector<Row>& rows) {
  ResourceReport resource;
  for (const Row& row : rows) resource.add(row.worker);
  if (resource.supervised_cells > 0) writeResourceJson(w, resource);
}

}  // namespace spt::harness
