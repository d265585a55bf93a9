// Tests for the order in which a grid's cells start (harness/grid.h
// spreadOrder): cells that share a benchmark are dispatched apart, in
// process and on the worker pool, while rows, durable-log keys and the
// chaos plan's cell numbering stay keyed by cell index.
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "harness/durable_log.h"
#include "harness/grid.h"
#include "harness/parallel_sweep.h"
#include "harness/supervisor.h"
#include "support/chaos.h"

namespace spt::harness {
namespace {

std::string tempPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/spt_grid_order_" + name;
  std::remove(path.c_str());
  return path;
}

/// A grid of `groups` benchmarks × `depths` configs in benchmark-major
/// order, as buildSuiteSweepCases lays a sweep out. Cell i's body calls
/// `body(i)` and returns the ok row that carries the cell's identity.
Grid<SweepRow> benchmarkGrid(std::size_t groups, std::size_t depths,
                             std::function<void(std::size_t)> body) {
  Grid<SweepRow> grid;
  grid.cells = groups * depths;
  grid.key = [depths](std::size_t i) {
    return RowKey{"bench" + std::to_string(i / depths),
                  "n" + std::to_string(i % depths)};
  };
  grid.blank = [key = grid.key](std::size_t i) {
    SweepRow row;
    std::tie(row.benchmark, row.config) = key(i);
    return row;
  };
  grid.run = [blank = grid.blank, body = std::move(body)](std::size_t i) {
    body(i);
    return blank(i);
  };
  return grid;
}

/// Appends one line to `path` in a single write, so lines that several
/// worker processes append do not interleave.
void appendLine(const std::string& path, const std::string& line) {
  std::ofstream out(path, std::ios::app);
  out << line + "\n" << std::flush;
}

std::vector<std::string> linesOf(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(SpreadOrder, InterleavesGroupsInTheOrderOfTheirFirstCell) {
  const std::vector<std::string> group = {"b", "b", "b", "a", "a",
                                          "c", "c", "c", "c"};
  const std::vector<std::size_t> order =
      spreadOrder(group.size(), [&](std::size_t i) { return group[i]; });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 3, 5, 1, 4, 6, 2, 7, 8}));

  // The 10 x 3 suite grid: every benchmark's default cell, then every n2,
  // then every n4.
  const std::vector<std::size_t> suite =
      spreadOrder(30, [](std::size_t i) { return i / 3; });
  for (std::size_t k = 0; k < 30; ++k) {
    EXPECT_EQ(suite[k], (k % 10) * 3 + k / 10) << "position " << k;
  }
}

TEST(SpreadOrder, OneGroupOrNoCellsKeepCellOrder) {
  std::vector<std::size_t> identity(7);
  std::iota(identity.begin(), identity.end(), std::size_t{0});
  EXPECT_EQ(spreadOrder(7, [](std::size_t) { return std::string("mcf"); }),
            identity);
  EXPECT_TRUE(spreadOrder(0, [](std::size_t i) { return i; }).empty());
  // Groups that are already apart keep their order too.
  EXPECT_EQ(spreadOrder(7, [](std::size_t i) { return i; }), identity);
}

TEST(SpreadOrder, InProcessCellsStartSpreadAndRowsLandByIndex) {
  std::vector<std::size_t> started;
  const Grid<SweepRow> grid =
      benchmarkGrid(3, 2, [&](std::size_t i) { started.push_back(i); });
  CheckpointLog log(tempPath("inproc.log"), false);
  const std::vector<SweepRow> rows =
      runGrid(grid, ParallelSweep(1), SupervisorOptions{}, log);
  EXPECT_EQ(started, (std::vector<std::size_t>{0, 2, 4, 1, 3, 5}));
  ASSERT_EQ(rows.size(), grid.cells);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(RowKey(rows[i].benchmark, rows[i].config), grid.key(i));
  }
}

TEST(SpreadOrder, InProcessErrorIsTheFirstInCellOrder) {
  // Spread, cell 2 starts before cell 1; the error that surfaces is still
  // cell 1's, as it was before cells were spread.
  const Grid<SweepRow> grid = benchmarkGrid(2, 2, [](std::size_t i) {
    if (i == 1 || i == 2) throw std::runtime_error("cell " + std::to_string(i));
  });
  CheckpointLog log(tempPath("throw.log"), false);
  try {
    runGrid(grid, ParallelSweep(1), SupervisorOptions{}, log);
    FAIL() << "runGrid returned although two cells threw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "cell 1");
  }
}

TEST(SpreadOrder, OnePooledWorkerRunsCellsInSpreadOrder) {
  if (!Supervisor::isolationSupported()) {
    GTEST_SKIP() << "no fork on this platform";
  }
  const std::string trail = tempPath("one_worker.txt");
  const Grid<SweepRow> grid = benchmarkGrid(
      4, 3, [&](std::size_t i) { appendLine(trail, std::to_string(i)); });
  SupervisorOptions sup;
  sup.isolate = true;
  sup.jobs = 1;
  CheckpointLog log(tempPath("one_worker.log"), false);
  const std::vector<SweepRow> rows =
      runGrid(grid, ParallelSweep(1), sup, log);
  const std::vector<std::size_t> expected =
      spreadOrder(grid.cells, [&](std::size_t i) { return grid.key(i).first; });
  std::vector<std::size_t> ran;
  for (const std::string& line : linesOf(trail)) ran.push_back(std::stoul(line));
  EXPECT_EQ(ran, expected);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_TRUE(rows[i].ok()) << i;
    EXPECT_EQ(RowKey(rows[i].benchmark, rows[i].config), grid.key(i));
  }
}

TEST(SpreadOrder, NoTwoCellsOfOneBenchmarkRunAtOnce) {
  if (!Supervisor::isolationSupported()) {
    GTEST_SKIP() << "no fork on this platform";
  }
  // Six benchmarks of two cells on three workers: a benchmark's second
  // cell starts a whole wave after its first. In cell order, both cells of
  // a benchmark would start side by side.
  const std::string trail = tempPath("overlap.txt");
  const auto now_us = [] {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  };
  const Grid<SweepRow> grid = benchmarkGrid(6, 2, [&](std::size_t i) {
    const auto start = now_us();
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    appendLine(trail, std::to_string(i) + " " + std::to_string(start) + " " +
                          std::to_string(now_us()));
  });
  SupervisorOptions sup;
  sup.isolate = true;
  sup.jobs = 3;
  CheckpointLog log(tempPath("overlap.log"), false);
  const std::vector<SweepRow> rows =
      runGrid(grid, ParallelSweep(1), sup, log);
  for (const SweepRow& row : rows) EXPECT_TRUE(row.ok());

  struct Span {
    long long start = 0;
    long long end = 0;
  };
  std::map<std::size_t, Span> spans;
  for (const std::string& line : linesOf(trail)) {
    std::istringstream in(line);
    std::size_t cell = 0;
    Span span;
    in >> cell >> span.start >> span.end;
    spans[cell] = span;
  }
  ASSERT_EQ(spans.size(), grid.cells);
  for (std::size_t b = 0; b < 6; ++b) {
    const Span& first = spans[2 * b];
    const Span& second = spans[2 * b + 1];
    EXPECT_TRUE(first.end <= second.start || second.end <= first.start)
        << "bench" << b << "'s cells ran side by side: [" << first.start
        << ", " << first.end << ") and [" << second.start << ", "
        << second.end << ")";
  }
}

TEST(SpreadOrder, ChaosCellsRowsAndLogKeysStayKeyedByCellIndex) {
  if (!Supervisor::isolationSupported()) {
    GTEST_SKIP() << "no fork on this platform";
  }
  // Cell 1 (bench0's second cell) is the fourth cell to start once
  // spread; the crash still lands on cell 1 and its row and log key.
  const Grid<SweepRow> grid = benchmarkGrid(3, 2, [](std::size_t) {});
  ASSERT_EQ(spreadOrder(grid.cells,
                        [&](std::size_t i) { return grid.key(i).first; })[3],
            1u);
  SupervisorOptions sup;
  sup.isolate = true;
  sup.jobs = 2;
  sup.chaos = *support::ChaosPlan::parse("1:crash");
  const std::string log_path = tempPath("chaos.log");
  std::vector<SweepRow> rows;
  {
    CheckpointLog log(log_path, false);
    rows = runGrid(grid, ParallelSweep(1), sup, log);
  }
  ASSERT_EQ(rows.size(), grid.cells);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(RowKey(rows[i].benchmark, rows[i].config), grid.key(i));
    EXPECT_EQ(rows[i].status,
              i == 1 ? CellStatus::kCrashed : CellStatus::kOk)
        << "cell " << i;
  }
  EXPECT_EQ(rows[1].worker.term_signal, SIGSEGV);

  const LogReplay logged = readDurableLog(log_path);
  ASSERT_EQ(logged.rows.size(), grid.cells);
  for (std::size_t i = 0; i < grid.cells; ++i) {
    const auto it = logged.rows.find(grid.key(i));
    ASSERT_NE(it, logged.rows.end()) << "cell " << i;
    SweepRow row;
    ASSERT_TRUE(decodeRow(it->second, &row));
    EXPECT_EQ(row.status, rows[i].status) << "cell " << i;
  }
}

}  // namespace
}  // namespace spt::harness
