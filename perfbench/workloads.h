// The benchmark's three workloads and what they share. Each workload sets
// itself up several times (one setup_s sample per set-up), then runs a
// fixed number of passes over its cells; in a traced run every second pass
// goes through the span-instrumented composition instead.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench_stats.h"
#include "harness/experiment.h"
#include "report.h"
#include "spans.h"
#include "support/rng.h"

namespace perfbench {

void runColdCells(const Options& options, SpanRecorder& spans,
                  DigestStore& store, RunReport& report);
void runSimReplay(const Options& options, SpanRecorder& spans,
                  DigestStore& store, RunReport& report);
void runServedGrid(const Options& options, SpanRecorder& spans,
                   DigestStore& store, RunReport& report);

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetups = 3;

/// A run does a fixed amount of work: the number of passes that take about
/// `--seconds` on the reference host (`reference_pass_s` is one pass there,
/// Release build, 4 cores). The sample count — and so the tail percentile
/// — is then the same on every run and on every commit. At least three
/// passes, so a traced run still has two untraced ones.
inline int passesFor(const Options& options, double reference_pass_s) {
  return std::max(3, static_cast<int>(std::lround(options.seconds /
                                                  reference_pass_s)));
}

/// Every second pass of a traced run is traced; the others give the
/// untraced baseline for the tracing-overhead figure.
inline bool tracedPass(const Options& options, int pass) {
  return options.trace && pass % 2 == 1;
}

/// A seeded permutation of 0..n-1; `stream` separates independent orders.
inline std::vector<std::size_t> seededOrder(std::uint64_t seed,
                                            std::uint64_t stream,
                                            std::size_t n) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  spt::support::Rng rng(spt::support::deriveSeed(seed, stream));
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.nextBelow(i)]);
  }
  return order;
}

/// User + system CPU seconds of this process (all threads) so far.
inline double processCpuSeconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

/// Digest-store key of one cell, matching sweep grids' config tags.
inline std::string cellKey(const std::string& benchmark,
                           const std::string& config, const char* what) {
  return benchmark + "|" + config + "|" + what;
}

/// The harness's profile runner, with each profiling run in its own span.
class TimingProfileRunner final : public spt::compiler::ProfileRunner {
 public:
  TimingProfileRunner(SpanRecorder& spans, std::uint64_t cell)
      : spans_(spans), cell_(cell) {}

  spt::profile::ProfileData run(
      const spt::ir::Module& module,
      const std::unordered_set<spt::ir::StaticId>& value_candidates)
      override {
    auto span = spans_.open("interp.profile", cell_);
    return inner_.run(module, value_candidates);
  }

 private:
  SpanRecorder& spans_;
  std::uint64_t cell_;
  spt::harness::InterpProfileRunner inner_;
};

}  // namespace perfbench
