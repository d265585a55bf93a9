#include "bench_stats.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace perfbench {

double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median of no samples");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

std::optional<Tail> tailOf(std::vector<double> samples) {
  // Per-mille rungs keep the rank arithmetic exact.
  static constexpr std::size_t kRungs[] = {999, 990, 950, 900, 750, 500};
  const std::size_t n = samples.size();
  for (const std::size_t rung : kRungs) {
    const std::size_t rank = (rung * n + 999) / 1000;  // ceil, 1-based
    if (rank == 0 || n - rank < 10) continue;
    std::sort(samples.begin(), samples.end());
    Tail t;
    t.percentile = static_cast<double>(rung) / 10.0;
    t.value = samples[rank - 1];
    t.samples = n;
    return t;
  }
  return std::nullopt;
}

std::vector<double> selfTimes(const std::vector<SpanTime>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const SpanTime& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start,
                                                                 s.end);
    }
  }
  std::vector<double> out(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start;
    const double hi = spans[i].end;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = lo;  // end of the merged coverage so far
    for (const auto& [a, b] : kids) {
      const double from = std::max(a, reach);
      const double to = std::min(b, hi);
      if (to > from) {
        covered += to - from;
        reach = to;
      }
    }
    out[i] = std::max(0.0, (hi - lo) - covered);
  }
  return out;
}

bool isValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

double failFraction(std::uint64_t failed, std::uint64_t attempted) {
  if (attempted == 0) return 1.0;
  return static_cast<double>(failed) / static_cast<double>(attempted);
}

double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

}  // namespace perfbench
