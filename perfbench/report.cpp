#include "report.h"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "bench_stats.h"
#include "harness/parallel_sweep.h"

namespace perfbench {

namespace {

// The compiler's eight passes, in pipeline order (spt/passes.cpp).
const char* const kPasses[] = {
    "unroll-preprocess",     "loop-candidate-selection",
    "value-profiling",       "partition-search",
    "good-loop-selection",   "region-speculation",
    "spt-transform",         "precomputation-slice",
};

Tail requireTail(const std::vector<double>& samples, const char* what) {
  const std::optional<Tail> t = tailOf(samples);
  if (!t) {
    throw std::runtime_error(std::string("too few ") + what +
                             " samples for a tail percentile (" +
                             std::to_string(samples.size()) + " < 20)");
  }
  return *t;
}

std::string formatValue(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

}  // namespace

void Counters::addCompile(const spt::compiler::CompilationRemarks& remarks) {
  ++compiles;
  restarts += remarks.restarts;
  profile_cache_hits += remarks.profile_cache_hits;
  analysis_hits += remarks.analysis_cache_hits;
  analysis_misses += remarks.analysis_cache_misses;
  for (const auto& p : remarks.passes) pass_ms[p.name] += p.wall_ms;
}

void Counters::addCell(const spt::harness::ExperimentResult& result) {
  const spt::sim::MachineResult& spt = result.spt;
  ++sim_cells;
  spt_dispatch_fast += spt.hotpath.dispatch_fast;
  spt_dispatch_fallback += spt.hotpath.dispatch_fallback;
  spt_arena_allocs += spt.hotpath.arena_frame_allocs;
  fork_site_hits += spt.hotpath.fork_site_hits;
  fork_site_misses += spt.hotpath.fork_site_misses;
  spawned += spt.threads.spawned;
  fast_commits += spt.threads.fast_commits;
  spec_instrs += spt.threads.spec_instrs;
  misspec_instrs += spt.threads.misspec_instrs;
  speedup_sum += result.programSpeedup();
}

std::uint64_t simDigest(const spt::harness::ExperimentResult& result) {
  spt::harness::SweepRow row;
  row.result = result;
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint64_t v : spt::harness::sweepCheckpointLine(row).metrics) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (i * 8)) & 0xff)) * 1099511628211ull;
    }
  }
  return h;
}

DigestStore::DigestStore(std::string path) : path_(std::move(path)) {
  std::ifstream in(path_);
  std::string key;
  std::string hex;
  while (in >> key >> hex) digests_[key] = std::stoull(hex, nullptr, 16);
}

void DigestStore::check(const std::string& key, std::uint64_t digest,
                        RunReport& report) {
  const auto [it, inserted] = digests_.emplace(key, digest);
  if (inserted || it->second == digest) return;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%016llx != %016llx",
                static_cast<unsigned long long>(digest),
                static_cast<unsigned long long>(it->second));
  report.mismatch(key + ": " + buf + " (recorded earlier)");
}

bool DigestStore::save() const {
  const std::string tmp = path_ + ".tmp" + std::to_string(::getpid());
  {
    std::ofstream out(tmp, std::ios::trunc);
    for (const auto& [key, digest] : digests_) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%016llx",
                    static_cast<unsigned long long>(digest));
      out << key << ' ' << buf << '\n';
    }
    if (!out.flush()) return false;
  }
  return std::rename(tmp.c_str(), path_.c_str()) == 0;
}

std::vector<Metric> tailPercentiles(const RunReport& r) {
  const Tail cell = requireTail(r.cell_s, "cell");
  const Tail request = requireTail(r.request_s, "request");
  return {
      {"cell_s_tail_pct", "%", cell.percentile},
      {"cell_s_samples", "count", static_cast<double>(cell.samples)},
      {"request_s_tail_pct", "%", request.percentile},
      {"request_s_samples", "count", static_cast<double>(request.samples)},
  };
}

std::vector<Metric> endToEndMetrics(const RunReport& r, double peak_rss_mb) {
  const double cells = static_cast<double>(r.untraced_cells);
  return {
      {"cell_s_p50", "s", median(r.cell_s)},
      {"cell_s_tail", "s", requireTail(r.cell_s, "cell").value},
      {"cells_per_s", "1/s", ratio(cells, r.untraced_wall_s)},
      {"cpu_s_per_cell", "s", ratio(r.untraced_cpu_s, cells)},
      {"request_s_p50", "s", median(r.request_s)},
      {"request_s_tail", "s", requireTail(r.request_s, "request").value},
      {"peak_rss_mb", "MB", peak_rss_mb},
      {"setup_s", "s", median(r.setup_s)},
  };
}

std::vector<Metric> perLayerMetrics(const RunReport& r,
                                    const std::vector<Span>& spans) {
  const std::map<std::string, LayerTotals> layers = aggregateLayers(spans);
  const LayerTotals none;
  const auto layer = [&](const char* name) -> const LayerTotals& {
    const auto it = layers.find(name);
    return it == layers.end() ? none : it->second;
  };
  // Mean per cell that ran the layer.
  const auto perCell = [](double total, const LayerTotals& t) {
    return ratio(total, static_cast<double>(t.cells.size()));
  };
  const LayerTotals& profile = layer("interp.profile");
  const LayerTotals& tracing = layer("interp.trace");
  const LayerTotals& compile = layer("spt.compile");
  const LayerTotals& base = layer("sim.baseline");
  const LayerTotals& spt = layer("sim.spt");
  const LayerTotals& cell = layer("cell");
  std::set<std::uint64_t> interp_cells = profile.cells;
  interp_cells.insert(tracing.cells.begin(), tracing.cells.end());
  const double interp_n = static_cast<double>(interp_cells.size());
  const Counters& c = r.counters;
  const double compiles = static_cast<double>(c.compiles);
  const auto value = [&](const char* name) {
    const auto it = r.layer.find(name);
    return it == r.layer.end() ? 0.0 : it->second;
  };
  const double untraced_p50 = r.cell_s.empty() ? 0.0 : median(r.cell_s);
  const double traced_p50 =
      r.traced_cell_s.empty() ? 0.0 : median(r.traced_cell_s);

  std::vector<Metric> m = {
      {"fail_frac", "ratio", failFraction(r.failed, r.attempted)},
      {"harness.trace_overhead_share", "ratio",
       untraced_p50 > 0.0 && traced_p50 > 0.0 ? traced_p50 / untraced_p50 - 1.0
                                               : 0.0},
      {"cell.untraced_s", "s", perCell(cell.self_s, cell)},
      {"cell.untraced_share", "ratio", ratio(cell.self_s, cell.wall_s)},
      {"harness.build_s", "s",
       perCell(layer("harness.build").self_s, layer("harness.build"))},
      {"harness.teardown_s", "s",
       perCell(layer("harness.teardown").self_s, layer("harness.teardown"))},
      {"interp.profile_s", "s", perCell(profile.self_s, profile)},
      {"interp.profile_runs", "count",
       ratio(static_cast<double>(profile.spans),
             static_cast<double>(compile.cells.size()))},
      {"interp.trace_s", "s", perCell(tracing.self_s, tracing)},
      {"interp.records_per_s", "1/s",
       ratio(static_cast<double>(tracing.work), tracing.self_s)},
      {"interp.sys_s", "s", ratio(profile.sys_s + tracing.sys_s, interp_n)},
      {"interp.minor_faults", "count",
       ratio(static_cast<double>(profile.minor_faults + tracing.minor_faults),
             interp_n)},
      {"spt.compile_self_s", "s", perCell(compile.self_s, compile)},
  };
  for (const char* pass : kPasses) {
    const auto it = c.pass_ms.find(pass);
    m.push_back({std::string("spt.pass.") + pass + "_ms", "ms",
                 ratio(it == c.pass_ms.end() ? 0.0 : it->second, compiles)});
  }
  const std::vector<Metric> rest = {
      {"spt.restarts", "count",
       ratio(static_cast<double>(c.restarts), compiles)},
      {"spt.profile_cache_hits", "count",
       ratio(static_cast<double>(c.profile_cache_hits), compiles)},
      {"spt.analysis_cache_hit_ratio", "ratio",
       ratio(static_cast<double>(c.analysis_hits),
             static_cast<double>(c.analysis_hits + c.analysis_misses))},
      {"trace.loop_index_s", "s",
       perCell(layer("trace.loop_index").self_s, layer("trace.loop_index"))},
      {"trace.cache_get_s", "s",
       perCell(layer("trace.cache_get").self_s, layer("trace.cache_get"))},
      {"trace.cache_hits", "count", value("trace.cache_hits")},
      {"trace.cache_file_reuses", "count", value("trace.cache_file_reuses")},
      {"trace.cache_produced", "count", value("trace.cache_produced")},
      {"trace.bytes_per_record", "B", value("trace.bytes_per_record")},
      {"sim.baseline_s", "s", perCell(base.self_s, base)},
      {"sim.spt_s", "s", perCell(spt.self_s, spt)},
      {"sim.baseline_mips", "MIPS",
       ratio(static_cast<double>(base.work), base.self_s) / 1e6},
      {"sim.spt_mips", "MIPS",
       ratio(static_cast<double>(spt.work), spt.self_s) / 1e6},
      {"sim_mips_baseline", "MIPS", value("sim_mips_baseline")},
      {"sim_mips_spt", "MIPS", value("sim_mips_spt")},
      {"sim.spt_dispatch_fallback_share", "ratio",
       ratio(static_cast<double>(c.spt_dispatch_fallback),
             static_cast<double>(c.spt_dispatch_fast +
                                 c.spt_dispatch_fallback))},
      {"sim.spt_records_per_alloc", "count",
       ratio(static_cast<double>(c.spt_dispatch_fast + c.spt_dispatch_fallback),
             static_cast<double>(c.spt_arena_allocs))},
      {"sim.fork_site_hit_ratio", "ratio",
       ratio(static_cast<double>(c.fork_site_hits),
             static_cast<double>(c.fork_site_hits + c.fork_site_misses))},
      {"sim.fast_commit_ratio", "ratio",
       ratio(static_cast<double>(c.fast_commits),
             static_cast<double>(c.spawned))},
      {"sim.misspec_ratio", "ratio",
       ratio(static_cast<double>(c.misspec_instrs),
             static_cast<double>(c.spec_instrs))},
      {"sim.speedup_mean", "ratio",
       ratio(c.speedup_sum, static_cast<double>(c.sim_cells))},
      {"harness.service_overhead_s", "s", value("harness.service_overhead_s")},
      {"harness.pool_busy_share", "ratio", value("harness.pool_busy_share")},
      {"harness.attempts_per_cell", "count",
       value("harness.attempts_per_cell")},
      {"harness.journal_bytes_per_request", "B",
       value("harness.journal_bytes_per_request")},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

void printResult(const Options& options, const RunReport& report,
                 const std::vector<Metric>& metrics,
                 const std::vector<Metric>& human_only) {
  std::ostream& os = std::cout;
  const auto line = [&](const Metric& m) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "  %-36s %16.6g %s", m.name.c_str(),
                  m.value, m.unit.c_str());
    os << buf << '\n';
  };
  os << "# " << (options.trace ? "per-layer" : "end-to-end")
     << " metrics, workload " << options.workload << '\n';
  for (const Metric& m : metrics) line(m);
  if (!human_only.empty()) os << "# also measured (not in the result line)\n";
  for (const Metric& m : human_only) line(m);
  for (const std::string& n : report.notes) os << "# " << n << '\n';
  if (!report.speed_factor.empty()) {
    os << "# times scaled to the reference speed; speed factor median "
       << median(report.speed_factor) << " over "
       << report.speed_factor.size() << " probes";
    if (!report.raw_cell_s.empty()) {
      os << "; unscaled cell_s_p50 " << median(report.raw_cell_s) << " s";
    }
    os << '\n';
  }
  os << "# setup_s:";
  for (const double s : report.setup_s) os << ' ' << s;
  os << "\n# pass_s:";
  for (const double s : report.pass_s) os << ' ' << s;
  os << '\n';
  os << "# attempted " << report.attempted << " cells, failed "
     << report.failed << ", fail_frac "
     << failFraction(report.failed, report.attempted) << '\n';
  for (const std::string& mm : report.mismatches) {
    os << "# MISMATCH " << mm << '\n';
  }
  os << "{\"correct\": " << (report.correct() ? "true" : "false")
     << ", \"attempted\": " << report.attempted
     << ", \"failed\": " << report.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    os << (i == 0 ? "" : ", ") << '"' << m.name << "\": {\"value\": "
       << formatValue(v) << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}" << std::endl;
}

}  // namespace perfbench
