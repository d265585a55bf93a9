// perfbench: the cell benchmark's driver. perfbench/run.py builds it and
// runs it as
//
//   perfbench --workload <cold_cells|sim_replay|served_grid> --seed N
//             --seconds S --trace 0|1 --tmp DIR --out DIR --store FILE
//             --commit ID
//
// With --trace 0 the last stdout line carries the end-to-end metrics, with
// --trace 1 the per-layer ones (perfbench/README.md). Exit 0 when every
// cell was ok and the correctness gate held, 1 when not, 2 on bad usage.
#include <sys/resource.h>

#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <thread>

#include "bench_stats.h"
#include "support/check.h"
#include "support/json.h"
#include "workloads.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif

namespace perfbench {
namespace {

struct BuildInfo {
  std::string build_type = PERFBENCH_BUILD_TYPE;
  std::string compiler = PERFBENCH_COMPILER;
  unsigned nproc = std::thread::hardware_concurrency();
};

bool parseArgs(int argc, char** argv, Options& o) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = v;
        have_workload = true;
      } else if (flag == "--seed") {
        o.seed = std::stoull(v);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(v);
      } else if (flag == "--trace") {
        if (v != "0" && v != "1") return false;
        o.trace = v == "1";
      } else if (flag == "--tmp") {
        o.tmp_dir = v;
      } else if (flag == "--out") {
        o.out_dir = v;
      } else if (flag == "--store") {
        o.store_path = v;
      } else if (flag == "--commit") {
        o.commit = v;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return have_workload && o.seconds > 0.0 && !o.tmp_dir.empty() &&
         !o.out_dir.empty() && !o.store_path.empty();
}

double peakRssMb() {
  rusage self{};
  rusage children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);  // reaped service and workers
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

void writeRecord(const Options& o, const BuildInfo& b, const RunReport& r,
                 const std::vector<Metric>& metrics,
                 const std::vector<Span>& spans) {
  const std::string path = o.out_dir + "/" + o.workload + "-seed" +
                           std::to_string(o.seed) + "-trace" +
                           (o.trace ? "1" : "0") + ".json";
  std::ofstream os(path, std::ios::trunc);
  spt::support::JsonWriter w(os, 1);
  w.beginObject();
  w.member("workload", o.workload);
  w.member("seed", o.seed);
  w.member("seconds", o.seconds);
  w.member("trace", o.trace);
  w.key("build").beginObject();
  w.member("type", b.build_type);
  w.member("compiler", b.compiler);
  w.member("nproc", static_cast<std::uint64_t>(b.nproc));
  w.member("commit", o.commit);
  w.endObject();
  w.member("correct", r.correct());
  w.member("attempted", r.attempted);
  w.member("failed", r.failed);
  w.key("mismatches").beginArray();
  for (const std::string& m : r.mismatches) w.value(m);
  w.endArray();
  w.key("metrics").beginObject();
  for (const Metric& m : metrics) w.member(m.name, m.value);
  w.endObject();
  w.key("spans").beginArray();
  for (const Span& s : spans) {
    w.beginObject();
    w.member("name", s.name);
    w.member("cell", s.cell);
    w.member("parent", static_cast<std::int64_t>(s.parent));
    w.member("start", s.start);
    w.member("end", s.end);
    w.member("user_s", s.user_s);
    w.member("sys_s", s.sys_s);
    w.member("minor_faults", static_cast<std::int64_t>(s.minor_faults));
    w.member("work", s.work);
    w.endObject();
  }
  w.endArray();
  w.endObject();
  os << '\n';
}

int run(const Options& o) {
  const BuildInfo build;
  std::cout << "# perfbench workload=" << o.workload << " seed=" << o.seed
            << " seconds=" << o.seconds << " trace=" << o.trace << '\n'
            << "# build type=" << build.build_type
            << " compiler=" << build.compiler << " nproc=" << build.nproc
            << " commit=" << o.commit << '\n';
  void (*workload)(const Options&, SpanRecorder&, DigestStore&, RunReport&) =
      nullptr;
  if (o.workload == "cold_cells") workload = runColdCells;
  if (o.workload == "sim_replay") workload = runSimReplay;
  if (o.workload == "served_grid") workload = runServedGrid;
  if (workload == nullptr) {
    std::cerr << "perfbench: unknown workload '" << o.workload << "'\n";
    return 2;
  }

  // A failed SPT_CHECK inside a cell becomes a failed cell, not an abort.
  const spt::support::ScopedCheckThrowMode throw_mode(true);
  std::filesystem::create_directories(o.tmp_dir);
  std::filesystem::create_directories(o.out_dir);
  SpanRecorder spans(o.trace);
  DigestStore store(o.store_path);
  RunReport report;
  workload(o, spans, store, report);
  std::filesystem::remove_all(o.tmp_dir);

  const std::vector<Metric> e2e = endToEndMetrics(report, peakRssMb());
  const std::vector<Span> recorded = spans.spans();
  const std::vector<Metric> layer = perLayerMetrics(report, recorded);
  const std::vector<Metric>& metrics = o.trace ? layer : e2e;
  // Recorded beside the result, not in it: the tail percentiles, and in an
  // untraced run the figures a user reads next to the end-to-end ones.
  std::vector<Metric> human_only = tailPercentiles(report);
  if (!o.trace) {
    for (const Metric& m : layer) {
      if (m.name == "fail_frac" || m.name == "sim.speedup_mean" ||
          m.name == "sim_mips_baseline" || m.name == "sim_mips_spt") {
        human_only.push_back(m);
      }
    }
  }
  for (const Metric& m : metrics) {
    if (!isValidMetricName(m.name)) {
      throw std::logic_error("invalid metric name '" + m.name + "'");
    }
  }
  report.notes.push_back(
      "sim.speedup_mean is simulated, not host, time; the paper reports a "
      "15.6% mean for its N=1 machine. The model is not validated against "
      "hardware, so no error figure is given.");
  if (!store.save()) report.mismatch("could not save the digest store");
  std::vector<Metric> recorded_metrics = metrics;
  recorded_metrics.insert(recorded_metrics.end(), human_only.begin(),
                          human_only.end());
  writeRecord(o, build, report, recorded_metrics, recorded);
  printResult(o, report, metrics, human_only);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
#ifdef PERFBENCH_SANITIZED
  std::cerr << "perfbench: refusing to measure a sanitizer build\n";
  return 2;
#endif
  perfbench::Options options;
  if (!perfbench::parseArgs(argc, argv, options)) {
    std::cerr << "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --tmp DIR --out DIR --store FILE "
                 "[--commit ID]\n";
    return 2;
  }
  try {
    return perfbench::run(options);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    std::error_code ec;
    std::filesystem::remove_all(options.tmp_dir, ec);
    return 2;
  }
}
