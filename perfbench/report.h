// What a workload run measured, the correctness gate's digest store, and
// the metrics the run prints.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "spans.h"
#include "spt/remarks.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string tmp_dir;     // scratch for traces, sockets, journals
  std::string out_dir;     // run records and span files
  std::string store_path;  // cell digests shared by runs of one binary
  std::string commit;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Counters gathered from the system's own results, in both modes.
struct Counters {
  std::uint64_t compiles = 0;
  std::uint64_t restarts = 0;
  std::uint64_t profile_cache_hits = 0;
  std::uint64_t analysis_hits = 0;
  std::uint64_t analysis_misses = 0;
  std::map<std::string, double> pass_ms;  // summed over compiles

  std::uint64_t sim_cells = 0;
  std::uint64_t spt_dispatch_fast = 0;
  std::uint64_t spt_dispatch_fallback = 0;
  std::uint64_t spt_arena_allocs = 0;
  std::uint64_t fork_site_hits = 0;
  std::uint64_t fork_site_misses = 0;
  std::uint64_t spawned = 0;
  std::uint64_t fast_commits = 0;
  std::uint64_t spec_instrs = 0;
  std::uint64_t misspec_instrs = 0;
  double speedup_sum = 0.0;

  void addCompile(const spt::compiler::CompilationRemarks& remarks);
  void addCell(const spt::harness::ExperimentResult& result);
};

struct RunReport {
  std::uint64_t attempted = 0;  // cells attempted in the measured phase
  std::uint64_t failed = 0;     // of those, cells that were not ok
  std::vector<std::string> mismatches;

  // Times the result reports: scaled by speedFactor() in the in-process
  // workloads, raw host time in served_grid.
  std::vector<double> setup_s;        // one sample per set-up
  std::vector<double> cell_s;         // cells of untraced passes
  std::vector<double> request_s;      // requests of untraced passes
  std::vector<double> traced_cell_s;  // cells of traced passes
  double untraced_wall_s = 0.0;  // time the untraced cells took
  double untraced_cpu_s = 0.0;   // every process's CPU over those cells
  std::uint64_t untraced_cells = 0;

  std::vector<double> pass_s;        // raw wall time of every pass
  std::vector<double> raw_cell_s;    // cell_s before scaling
  std::vector<double> speed_factor;  // every speedFactor() applied

  Counters counters;
  std::map<std::string, double> layer;  // workload-specific layer values
  std::vector<std::string> notes;       // extra human-readable lines

  void mismatch(std::string what) { mismatches.push_back(std::move(what)); }
  bool correct() const { return failed == 0 && mismatches.empty(); }
};

/// Digest of the 20 simulated summary numbers a sweep row carries (the
/// checkpoint line's metrics). Equal digests ⇔ identical simulated results,
/// whichever path — in-process, composed, replayed, or served — made them.
std::uint64_t simDigest(const spt::harness::ExperimentResult& result);

/// Cell digests keyed "<benchmark>|<config>|<what>", shared by every run of
/// one benchmark binary through a file, so a cell must give the same answer
/// across repetitions, across paths, across workloads and across seeds.
class DigestStore {
 public:
  explicit DigestStore(std::string path);

  /// Records `digest` under `key`, or compares it with the value already
  /// there and records a mismatch in `report`.
  void check(const std::string& key, std::uint64_t digest, RunReport& report);

  /// Writes the store back (temp file + rename). False on I/O failure.
  bool save() const;

 private:
  std::string path_;
  std::map<std::string, std::uint64_t> digests_;
};

/// The end-to-end metrics, in BENCHMARK.json order. Throws when a sample is
/// too small for its tail percentile.
std::vector<Metric> endToEndMetrics(const RunReport& report,
                                    double peak_rss_mb);

/// The percentiles cell_s_tail and request_s_tail were taken at, and their
/// sample counts.
std::vector<Metric> tailPercentiles(const RunReport& report);

/// Every per-layer metric, in BENCHMARK.json order; layers a workload does
/// not reach read 0.
std::vector<Metric> perLayerMetrics(const RunReport& report,
                                    const std::vector<Span>& spans);

/// Human-readable lines, then the result as the last line of stdout.
void printResult(const Options& options, const RunReport& report,
                 const std::vector<Metric>& metrics,
                 const std::vector<Metric>& human_only);

}  // namespace perfbench
