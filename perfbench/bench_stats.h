// The benchmark's own arithmetic: medians, the tail percentile, span self
// time, metric-name validation and the failure fraction. Kept free of any
// dependency on the system under test so perfbench_selftest can pin it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace perfbench {

/// Median of `samples` (mean of the two middle values for an even count).
/// Throws std::invalid_argument on an empty sample.
double median(std::vector<double> samples);

/// A tail percentile and its nearest-rank value.
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  std::size_t samples = 0;
};

/// The highest of p50, p75, p90, p95, p99 and p99.9 that still has at least
/// ten samples strictly beyond its nearest-rank value. nullopt when fewer
/// than 20 samples exist, since not even the median then has ten beyond.
std::optional<Tail> tailOf(std::vector<double> samples);

/// One span's interval and its parent's index (-1 for a root).
struct SpanTime {
  int parent = -1;
  double start = 0.0;
  double end = 0.0;
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its direct children covers. Children may nest, overlap
/// each other, or run past the parent's end; overlap is counted once and
/// anything outside the parent's interval is ignored.
std::vector<double> selfTimes(const std::vector<SpanTime>& spans);

/// Metric names: 1 to 64 characters from [A-Za-z0-9_.-], starting with a
/// letter or a digit.
bool isValidMetricName(std::string_view name);

/// failed ÷ attempted. A run that attempted nothing succeeded at nothing,
/// so zero attempts reads as 1.0, never as a perfect 0.
double failFraction(std::uint64_t failed, std::uint64_t attempted);

/// a ÷ b, or 0 when b is 0 (ratios of counters that may all be zero).
double ratio(double a, double b);

}  // namespace perfbench
