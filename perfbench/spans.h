// In-memory spans around the benchmark's calls into each layer.
//
// A span records its layer name, start and end (seconds on the steady
// clock since the recorder was made), its parent span, the cell it belongs
// to, and the getrusage(RUSAGE_THREAD) deltas over its interval, so system
// time and page faults are charged to the layer whose call caused them.
// Spans stay in memory and are written once, when the run ends. A disabled
// recorder reads no clock and stores nothing.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock (arbitrary epoch).
double nowSeconds();

/// Host speed probe for the in-process workloads. The reference host's
/// memory speed swings by tens of percent over seconds to minutes (shared
/// hardware), and page-fault-and-zero work tracks what a cell pays for it:
/// measured there, per-cell time ratios follow this probe with a slope
/// near 1 (correlation 0.77). The probe maps, touches and unmaps 16 MiB.
/// It is the benchmark's own code, so a change to the system never moves it.
double pageProbeSeconds();

/// The probe's time on the reference host in a quiet period.
inline constexpr double kProbeReferenceSeconds = 0.008;

/// kProbeReferenceSeconds ÷ a fresh probe: multiplying a host time measured
/// right after it by this factor expresses it at the reference speed.
inline double speedFactor() {
  return kProbeReferenceSeconds / pageProbeSeconds();
}

/// CPU and fault counters of the calling thread.
struct ThreadUsage {
  double user_s = 0.0;
  double sys_s = 0.0;
  std::int64_t minor_faults = 0;
};
ThreadUsage threadUsage();

struct Span {
  std::string name;
  int parent = -1;
  std::uint64_t cell = 0;
  double start = 0.0;
  double end = 0.0;
  double user_s = 0.0;
  double sys_s = 0.0;
  std::int64_t minor_faults = 0;
  /// Layer-specific amount of work (records traced, instructions
  /// simulated); 0 when the layer has none.
  std::uint64_t work = 0;
};

/// Parents are tracked per thread, so spans opened on pool threads nest
/// under whatever that thread has open. One recorder per process.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);

  class Scope {
   public:
    Scope(SpanRecorder* recorder, std::string name, std::uint64_t cell);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope(Scope&&) = delete;
    Scope& operator=(Scope&&) = delete;

    void setWork(std::uint64_t work);

   private:
    SpanRecorder* recorder_;  // null when disabled
    int id_ = -1;
    int saved_parent_ = -1;
    ThreadUsage usage_;
  };

  /// Opens a span that closes when the returned scope is destroyed.
  Scope open(std::string name, std::uint64_t cell) {
    return Scope(enabled_ ? this : nullptr, std::move(name), cell);
  }

  bool enabled() const { return enabled_; }
  std::vector<Span> spans() const;

 private:
  bool enabled_;
  double epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // index == span id
};

/// Per-layer sums over every span of one name.
struct LayerTotals {
  std::uint64_t spans = 0;
  double self_s = 0.0;
  double wall_s = 0.0;
  double user_s = 0.0;
  double sys_s = 0.0;
  std::int64_t minor_faults = 0;
  std::uint64_t work = 0;
  std::set<std::uint64_t> cells;  // distinct cells the layer ran for
};

std::map<std::string, LayerTotals> aggregateLayers(
    const std::vector<Span>& spans);

}  // namespace perfbench
