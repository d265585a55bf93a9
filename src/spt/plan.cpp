#include "spt/plan.h"

#include <bit>

#include "support/hash.h"
#include "support/stats.h"
#include "support/table.h"

namespace spt::compiler {
namespace {

/// Incremental FNV-1a folding helpers for SptPlan::fingerprint().
class Fnv {
 public:
  void add(std::uint64_t v) { hash_ = support::fnv1aWord(hash_, v); }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(bool v) { hash_ = support::fnv1aByte(hash_, v ? 1 : 0); }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    hash_ = support::fnv1a(hash_, s.data(), s.size());
  }
  std::uint64_t hash() const { return hash_; }

 private:
  std::uint64_t hash_ = support::kFnvOffsetBasis;
};

}  // namespace

std::size_t SptPlan::candidateCount() const {
  std::size_t n = 0;
  for (const auto& entry : loops) n += entry.candidate;
  return n;
}

std::size_t SptPlan::selectedCount() const {
  std::size_t n = 0;
  for (const auto& entry : loops) n += entry.selected;
  return n;
}

double SptPlan::selectedCoverage() const {
  double c = 0.0;
  for (const auto& entry : loops) {
    if (entry.selected) c += entry.coverage;
  }
  return c;
}

std::uint64_t SptPlan::fingerprint() const {
  Fnv fnv;
  fnv.add(profiled_instrs);
  fnv.add(static_cast<std::uint64_t>(loops.size()));
  for (const LoopPlanEntry& e : loops) {
    fnv.add(e.name);
    fnv.add(static_cast<std::uint64_t>(e.func));
    fnv.add(static_cast<std::uint64_t>(e.header_sid));
    fnv.add(e.coverage);
    fnv.add(e.avg_body_size);
    fnv.add(e.avg_trip);
    fnv.add(e.candidate);
    fnv.add(e.reject_reason);
    fnv.add(static_cast<std::uint64_t>(e.unroll_factor));
    fnv.add(static_cast<std::uint64_t>(e.dep_count));
    fnv.add(static_cast<std::uint64_t>(e.actions.size()));
    for (const DepAction a : e.actions) {
      fnv.add(static_cast<std::uint64_t>(a));
    }
    fnv.add(e.cost.misspec_cost);
    fnv.add(e.cost.prefork_cost);
    fnv.add(e.cost.iter_cost);
    fnv.add(e.cost.est_speedup);
    fnv.add(e.cost.feasible);
    fnv.add(e.evaluated);
    fnv.add(e.selected);
    fnv.add(e.transformed);
    fnv.add(e.transform_detail);
    // Folded only when a slice was actually attached, so every
    // pre-multiway golden fingerprint (fork_mode == "" or the
    // register-copy fallback, both byte-equivalent to the old machine)
    // is preserved bit-identically.
    if (e.fork_mode == "slice") {
      fnv.add(e.fork_mode);
      fnv.add(static_cast<std::uint64_t>(e.slice_cost));
    }
  }
  fnv.add(static_cast<std::uint64_t>(regions.size()));
  for (const RegionPlanEntry& r : regions) {
    fnv.add(r.name);
    fnv.add(static_cast<std::uint64_t>(r.func));
    fnv.add(static_cast<std::uint64_t>(r.block));
    fnv.add(r.prefix_cost);
    fnv.add(r.suffix_cost);
    fnv.add(r.dependence_penalty);
    fnv.add(r.applied);
  }
  return fnv.hash();
}

void SptPlan::print(std::ostream& os) const {
  support::Table table("SPT compilation plan");
  table.setHeader({"loop", "coverage", "body", "trip", "deps", "actions",
                   "misspec", "prefork", "est.speedup", "status"});
  for (const auto& entry : loops) {
    std::string actions;
    for (const DepAction a : entry.actions) {
      actions += a == DepAction::kLeave  ? 'L'
                 : a == DepAction::kHoist ? 'H'
                                          : 'S';
    }
    std::string status;
    if (entry.transformed) {
      status = "SPT " + entry.transform_detail;
      if (entry.unroll_factor > 1) {
        status += " unroll=" + std::to_string(entry.unroll_factor);
      }
      if (entry.fork_mode == "slice") {
        status += " fork=slice(" + std::to_string(entry.slice_cost) + ")";
      } else if (!entry.fork_mode.empty()) {
        status += " fork=" + entry.fork_mode;
      }
    } else if (entry.selected) {
      status = "selected (not applied): " + entry.reject_reason;
    } else {
      status = entry.reject_reason.empty() ? "not selected"
                                           : entry.reject_reason;
    }
    table.addRow({entry.name, support::percent(entry.coverage, 1.0),
                  support::fixed(entry.avg_body_size, 1),
                  support::fixed(entry.avg_trip, 1),
                  std::to_string(entry.dep_count), actions,
                  support::fixed(entry.cost.misspec_cost, 2),
                  support::fixed(entry.cost.prefork_cost, 2),
                  support::percent(entry.cost.est_speedup, 1.0), status});
  }
  table.print(os);

  if (!regions.empty()) {
    support::Table rt("Region-based speculation (Section 6 extension)");
    rt.setHeader({"region", "prefix cost", "suffix cost", "dep penalty",
                  "status"});
    for (const auto& region : regions) {
      rt.addRow({region.name, support::fixed(region.prefix_cost, 1),
                 support::fixed(region.suffix_cost, 1),
                 support::fixed(region.dependence_penalty, 1),
                 region.applied ? "split" : "skipped"});
    }
    rt.print(os);
  }
}

}  // namespace spt::compiler
