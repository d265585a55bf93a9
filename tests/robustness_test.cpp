// Tests for the hardened sweep harness: per-cell budgets, quarantine of
// poisoned cells (budget blowouts and forced internal errors), sweep
// checkpoint/resume and its failure modes, and the ParallelSweep error
// contract on both the inline (jobs<=1) and pooled paths.
#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "harness/cell_codec.h"
#include "harness/durable_log.h"
#include "harness/fault_campaign.h"
#include "harness/parallel_sweep.h"
#include "harness/suite.h"
#include "support/check.h"
#include "support/error.h"
#include "workloads/workloads.h"

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

/// A suite entry whose builds are counted, to observe which cells ran.
SuiteEntry countingEntry(const std::string& name,
                         std::shared_ptr<std::atomic<int>> counter) {
  SuiteEntry e = entryByName(name);
  const auto inner = e.workload.build;
  e.workload.build = [counter, inner](std::uint64_t scale) {
    counter->fetch_add(1, std::memory_order_relaxed);
    return inner(scale);
  };
  return e;
}

// Documented error contract: every task runs to completion and the first
// submission-order exception is rethrown afterwards — not mid-sweep. The
// inline (jobs==1) path must honor the same contract as the pool path.
TEST(ParallelSweep, ErrorContractHoldsInlineAndPooled) {
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    std::atomic<int> ran{0};
    const ParallelSweep sweep(jobs);
    bool threw = false;
    try {
      sweep.run(16, [&ran](std::size_t i) {
        ran.fetch_add(1, std::memory_order_relaxed);
        // Two failures; the one at the *lower submission index* must win
        // even though at jobs=4 either may finish first.
        if (i == 3 || i == 7) {
          throw std::runtime_error("task " + std::to_string(i));
        }
        return i;
      });
    } catch (const std::runtime_error& e) {
      threw = true;
      EXPECT_STREQ(e.what(), "task 3") << "jobs=" << jobs;
    }
    EXPECT_TRUE(threw) << "jobs=" << jobs;
    // All 16 tasks ran despite the mid-sweep throws.
    EXPECT_EQ(ran.load(), 16) << "jobs=" << jobs;
  }
}

// Tracing budget: a capped interpretation throws SptBudgetExceeded with
// the resource name and the used/limit pair, instead of running away.
TEST(Budgets, TraceBudgetThrowsStructuredError) {
  workloads::Workload w = workloads::findWorkload("micro.parser_free");
  ir::Module m = w.build(1);
  try {
    traceProgram(m, {}, /*max_records=*/100);
    FAIL() << "expected SptBudgetExceeded";
  } catch (const support::SptBudgetExceeded& e) {
    EXPECT_EQ(e.resource(), "interpreted instructions");
    EXPECT_GE(e.used(), e.limit());
    EXPECT_EQ(e.limit(), 100u);
    EXPECT_NE(std::string(e.what()).find("budget exceeded"),
              std::string::npos);
  }
}

// Simulated-cycle budget on the machines.
TEST(Budgets, SimulatedCycleBudgetThrows) {
  const SuiteEntry entry = entryByName("bzip2");
  support::MachineConfig mc;
  mc.max_simulated_cycles = 1000;
  EXPECT_THROW(runSuiteEntry(entry, mc), support::SptBudgetExceeded);
}

// The acceptance scenario: a sweep with one healthy cell, one deliberate
// budget blowout, and one cell that trips SPT_CHECK completes, reports
// both failed cells with diagnostics (in the rows and in the JSON), and
// keeps the healthy cell's result intact.
TEST(HardenedSweep, PoisonedCellsAreQuarantinedAndReported) {
  std::vector<SweepCase> cases;
  {
    SweepCase healthy;
    healthy.benchmark = "crafty";
    healthy.entry = entryByName("crafty");
    cases.push_back(std::move(healthy));
  }
  {
    SweepCase blowout;
    blowout.benchmark = "bzip2";
    blowout.config = "tiny-budget";
    blowout.entry = entryByName("bzip2");
    blowout.machine.max_simulated_cycles = 1000;
    cases.push_back(std::move(blowout));
  }
  {
    SweepCase poisoned;
    poisoned.benchmark = "poisoned";
    poisoned.entry = entryByName("crafty");
    poisoned.entry.workload.name = "poisoned";
    poisoned.entry.workload.build = [](std::uint64_t scale) {
      SPT_CHECK_MSG(scale == 0xdead, "deliberately poisoned cell");
      return ir::Module("unreachable");
    };
    cases.push_back(std::move(poisoned));
  }

  SweepOptions opts;
  opts.quarantine = true;
  opts.checkpoint_path = ::testing::TempDir() + "/spt_poisoned_ck.txt";
  const auto rows = runSweep(ParallelSweep(3), cases, opts);

  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].status, CellStatus::kOk);
  EXPECT_TRUE(rows[0].ok());
  EXPECT_GT(rows[0].result.spt.cycles, 0u);

  EXPECT_EQ(rows[1].status, CellStatus::kBudgetExceeded);
  EXPECT_NE(rows[1].diagnostic.find("budget exceeded"), std::string::npos)
      << rows[1].diagnostic;

  EXPECT_EQ(rows[2].status, CellStatus::kInternalError);
  EXPECT_NE(rows[2].diagnostic.find("deliberately poisoned cell"),
            std::string::npos)
      << rows[2].diagnostic;
  // SPT_CHECK diagnostics carry the failure site (file:line).
  EXPECT_NE(rows[2].diagnostic.find("SPT_CHECK failed"), std::string::npos)
      << rows[2].diagnostic;

  // All three cells were checkpointed as they finished.
  const LogReplay logged = readDurableLog(opts.checkpoint_path);
  ASSERT_EQ(logged.rows.size(), 3u);
  SweepRow poisoned;
  ASSERT_TRUE(decodeRow(logged.rows.at({"poisoned", "default"}),
                             &poisoned));
  EXPECT_EQ(poisoned.status, CellStatus::kInternalError);
  SweepRow blowout;
  ASSERT_TRUE(decodeRow(logged.rows.at({"bzip2", "tiny-budget"}),
                             &blowout));
  EXPECT_EQ(blowout.status, CellStatus::kBudgetExceeded);

  // And the JSON report names both failures.
  const std::string json_path = ::testing::TempDir() + "/spt_poisoned.json";
  ASSERT_TRUE(writeSweepJson(json_path, rows));
  const std::string json = readWholeFile(json_path);
  EXPECT_NE(json.find("budget_exceeded"), std::string::npos);
  EXPECT_NE(json.find("internal_error"), std::string::npos);
  EXPECT_NE(json.find("deliberately poisoned cell"), std::string::npos);
}

// --resume semantics: ok rows in the checkpoint are reused (their cells do
// not re-run), failed rows re-run. Build invocations are counted through
// the Workload::build std::function to observe which cells actually ran.
TEST(HardenedSweep, ResumeRerunsOnlyFailedCells) {
  auto counted = std::make_shared<std::atomic<int>>(0);

  std::vector<SweepCase> cases;
  {
    SweepCase a;
    a.benchmark = "crafty";
    a.entry = countingEntry("crafty", counted);
    cases.push_back(std::move(a));
  }
  {
    SweepCase b;
    b.benchmark = "vortex";
    b.entry = countingEntry("vortex", counted);
    cases.push_back(std::move(b));
  }
  {
    SweepCase failing;
    failing.benchmark = "bzip2";
    failing.config = "tiny-budget";
    failing.entry = countingEntry("bzip2", counted);
    failing.machine.max_simulated_cycles = 1000;
    cases.push_back(std::move(failing));
  }

  SweepOptions opts;
  opts.quarantine = true;
  opts.checkpoint_path = ::testing::TempDir() + "/spt_resume_ck.txt";
  const auto first = runSweep(ParallelSweep(2), cases, opts);
  ASSERT_EQ(first.size(), 3u);
  EXPECT_TRUE(first[0].ok());
  EXPECT_TRUE(first[1].ok());
  EXPECT_FALSE(first[2].ok());
  const int builds_after_first = counted->load();
  EXPECT_EQ(builds_after_first, 3);

  opts.resume = true;
  const auto second = runSweep(ParallelSweep(2), cases, opts);
  ASSERT_EQ(second.size(), 3u);
  // Only the failed cell re-ran.
  EXPECT_EQ(counted->load(), builds_after_first + 1);
  EXPECT_TRUE(second[0].ok());
  EXPECT_TRUE(second[1].ok());
  EXPECT_EQ(second[2].status, CellStatus::kBudgetExceeded);

  // Resumed ok rows carry the logged results.
  EXPECT_EQ(second[0].benchmark, first[0].benchmark);
  EXPECT_EQ(second[0].result.baseline.cycles, first[0].result.baseline.cycles);
  EXPECT_EQ(second[0].result.spt.cycles, first[0].result.spt.cycles);
  EXPECT_EQ(second[0].result.spt.threads.fast_commits,
            first[0].result.spt.threads.fast_commits);
  EXPECT_EQ(second[1].result.spt.cycles, first[1].result.spt.cycles);
}

// Keys with embedded tabs/newlines stay one record per line and come back
// unchanged.
TEST(HardenedSweep, CheckpointSurvivesHostileNames) {
  SweepCase c;
  c.benchmark = "bad\tname\nwith breaks";
  c.config = "cfg\ttab";
  c.entry = entryByName("crafty");
  c.machine.max_simulated_cycles = 1000;  // fail fast; we only care about IO

  SweepOptions opts;
  opts.quarantine = true;
  opts.checkpoint_path = ::testing::TempDir() + "/spt_hostile_ck.txt";
  const auto rows = runSweep(ParallelSweep(1), {c}, opts);
  ASSERT_EQ(rows.size(), 1u);

  std::ifstream in(opts.checkpoint_path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    LogRecord rec;
    ASSERT_TRUE(parseLogRecord(line, &rec));
    EXPECT_EQ(rec.benchmark, c.benchmark);
    EXPECT_EQ(rec.config, c.config);
  }
  EXPECT_EQ(lines, 1u);
}

// A bit flip that turns one digit of a logged row into another keeps the
// line well-formed; the record's checksum catches it, so the row is
// skipped with its byte offset and the cell re-runs instead of resuming a
// wrong number.
TEST(HardenedSweep, DigitFlipInALoggedRowReRunsTheCell) {
  auto counted = std::make_shared<std::atomic<int>>(0);
  SweepCase c;
  c.benchmark = "crafty";
  c.entry = countingEntry("crafty", counted);
  SweepOptions opts;
  opts.checkpoint_path = ::testing::TempDir() + "/spt_digit_flip_ck.txt";
  const auto first = runSweep(ParallelSweep(1), {c}, opts);
  ASSERT_TRUE(first[0].ok());

  std::string text = readWholeFile(opts.checkpoint_path);
  std::size_t pos = text.size() / 2;
  while (text[pos] < '0' || text[pos] > '9') ++pos;
  text[pos] = static_cast<char>(text[pos] ^ 1);  // '4' <-> '5', ...
  {
    std::ofstream out(opts.checkpoint_path, std::ios::trunc);
    out << text;
  }

  opts.resume = true;
  ::testing::internal::CaptureStderr();
  const auto second = runSweep(ParallelSweep(1), {c}, opts);
  const std::string warnings = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(warnings.find("skipped record at byte offset 0"),
            std::string::npos)
      << warnings;
  EXPECT_EQ(counted->load(), 2);  // re-ran, not resumed
  ASSERT_TRUE(second[0].ok());
  EXPECT_EQ(second[0].result.baseline.cycles, first[0].result.baseline.cycles);
  EXPECT_EQ(second[0].result.spt.cycles, first[0].result.spt.cycles);
  EXPECT_EQ(second[0].result.spt.threads.spawned,
            first[0].result.spt.threads.spawned);
}

// A checkpoint path that cannot be opened stops the run before any cell
// starts, with an error naming the path; the campaign does the same
// before it compiles anything.
TEST(HardenedSweep, UnopenableCheckpointStopsBeforeAnyCell) {
  auto counted = std::make_shared<std::atomic<int>>(0);
  SweepCase c;
  c.benchmark = "crafty";
  c.entry = countingEntry("crafty", counted);
  SweepOptions opts;
  opts.checkpoint_path = ::testing::TempDir() + "/no/such/dir/ck.txt";
  try {
    runSweep(ParallelSweep(1), {c}, opts);
    ADD_FAILURE() << "an unopenable checkpoint must fail the sweep";
  } catch (const DurableLogError& e) {
    EXPECT_NE(std::string(e.what()).find(opts.checkpoint_path),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(counted->load(), 0);

  FaultCampaignOptions fc;
  fc.seeds = 1;
  fc.checkpoint_path = opts.checkpoint_path;
  EXPECT_THROW(runFaultCampaign(fc), DurableLogError);
}

#if defined(__linux__)
// A failed append (/dev/full: ENOSPC) or fsync (/dev/null: EINVAL) is
// reported on stderr as it happens and through `checkpoint_error` after
// the run; the computed rows are still returned.
TEST(HardenedSweep, FailedAppendOrFsyncFailsTheRun) {
  for (const std::string path : {"/dev/full", "/dev/null"}) {
    auto counted = std::make_shared<std::atomic<int>>(0);
    SweepCase c;
    c.benchmark = "vortex";
    c.entry = countingEntry("vortex", counted);
    SweepOptions opts;
    opts.checkpoint_path = path;
    std::string checkpoint_error;
    ::testing::internal::CaptureStderr();
    const std::vector<SweepRow> rows =
        runSweep(ParallelSweep(1), {c}, opts, &checkpoint_error);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("cannot make the row for vortex/default durable"),
              std::string::npos)
        << err;
    EXPECT_NE(checkpoint_error.find(path), std::string::npos)
        << checkpoint_error;
    EXPECT_EQ(counted->load(), 1);  // the cell itself ran
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_TRUE(rows[0].ok()) << rows[0].diagnostic;
  }

  FaultCampaignOptions fc;
  fc.seeds = 1;
  fc.checkpoint_path = "/dev/full";
  std::string checkpoint_error;
  ::testing::internal::CaptureStderr();
  const FaultCampaignResult result = runFaultCampaign(fc, &checkpoint_error);
  ::testing::internal::GetCapturedStderr();
  EXPECT_NE(checkpoint_error.find("/dev/full"), std::string::npos)
      << checkpoint_error;
  EXPECT_FALSE(result.cells.empty());
  EXPECT_TRUE(result.allCellsOk());
}
#endif

// --resume over a checkpoint in the retired spt-sweep-v1 text format is
// refused with a versioned error; the file is neither read as empty nor
// appended to, and no cell runs.
TEST(HardenedSweep, OlderCheckpointFormatIsRefused) {
  auto counted = std::make_shared<std::atomic<int>>(0);
  SweepCase c;
  c.benchmark = "crafty";
  c.entry = countingEntry("crafty", counted);
  const std::string path = ::testing::TempDir() + "/spt_old_format_ck.txt";
  const std::string old =
      "spt-sweep-v1\tok\tcrafty\tdefault\t1\t2\t3\t\n";
  {
    std::ofstream out(path, std::ios::trunc);
    out << old;
  }
  SweepOptions opts;
  opts.checkpoint_path = path;
  opts.resume = true;
  try {
    runSweep(ParallelSweep(1), {c}, opts);
    ADD_FAILURE() << "an spt-sweep-v1 checkpoint must be refused";
  } catch (const DurableLogError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("spt-sweep-v1"), std::string::npos) << what;
    EXPECT_NE(what.find(kDurableLogFormat), std::string::npos) << what;
  }
  EXPECT_EQ(counted->load(), 0);
  EXPECT_EQ(readWholeFile(path), old);

  FaultCampaignOptions fc;
  fc.seeds = 1;
  fc.checkpoint_path = path;
  fc.resume = true;
  EXPECT_THROW(runFaultCampaign(fc), DurableLogError);
  EXPECT_EQ(readWholeFile(path), old);
}

}  // namespace
}  // namespace spt::harness
