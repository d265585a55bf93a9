// Self-tests for the benchmark's own arithmetic (bench_stats.h) and span
// bookkeeping (spans.h). run.py runs them after every build.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "bench_stats.h"
#include "spans.h"

namespace perfbench {
namespace {

std::vector<double> oneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(Tail, TooFewSamplesHasNoTail) {
  EXPECT_FALSE(tailOf({}).has_value());
  EXPECT_FALSE(tailOf(oneTo(15)).has_value());
  EXPECT_FALSE(tailOf(oneTo(19)).has_value());
}

TEST(Tail, HighestPercentileWithTenBeyond) {
  const auto t20 = tailOf(oneTo(20));
  ASSERT_TRUE(t20.has_value());
  EXPECT_DOUBLE_EQ(t20->percentile, 50.0);
  EXPECT_DOUBLE_EQ(t20->value, 10.0);  // ten samples (11..20) beyond
  EXPECT_EQ(t20->samples, 20u);

  const auto t60 = tailOf(oneTo(60));  // p90 would leave only 6 beyond
  ASSERT_TRUE(t60.has_value());
  EXPECT_DOUBLE_EQ(t60->percentile, 75.0);
  EXPECT_DOUBLE_EQ(t60->value, 45.0);

  const auto t270 = tailOf(oneTo(270));
  ASSERT_TRUE(t270.has_value());
  EXPECT_DOUBLE_EQ(t270->percentile, 95.0);
  EXPECT_DOUBLE_EQ(t270->value, 257.0);

  const auto t20000 = tailOf(oneTo(20000));
  ASSERT_TRUE(t20000.has_value());
  EXPECT_DOUBLE_EQ(t20000->percentile, 99.9);
  EXPECT_DOUBLE_EQ(t20000->value, 19980.0);
}

TEST(Tail, AlwaysLeavesAtLeastTenBeyond) {
  const double rungs[] = {50.0, 75.0, 90.0, 95.0, 99.0, 99.9};
  for (int n = 20; n <= 3000; ++n) {
    const auto t = tailOf(oneTo(n));
    ASSERT_TRUE(t.has_value()) << n;
    EXPECT_GE(n - t->value, 10.0) << n;
    // The next rung up would leave fewer than ten beyond.
    for (const double next : rungs) {
      if (next <= t->percentile) continue;
      const int rank = static_cast<int>(std::ceil(next * n / 100.0 - 1e-9));
      EXPECT_LT(n - rank, 10) << n << " " << next;
      break;
    }
  }
}

TEST(SelfTime, NestedChildren) {
  // root [0,10] > a [1,4] > b [2,3]
  const std::vector<double> self =
      selfTimes({{-1, 0.0, 10.0}, {0, 1.0, 4.0}, {1, 2.0, 3.0}});
  EXPECT_DOUBLE_EQ(self[0], 7.0);
  EXPECT_DOUBLE_EQ(self[1], 2.0);
  EXPECT_DOUBLE_EQ(self[2], 1.0);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // Children [1,4] and [3,6] overlap on [3,4]; [5,5.5] sits inside [3,6].
  const std::vector<double> self = selfTimes(
      {{-1, 0.0, 10.0}, {0, 1.0, 4.0}, {0, 3.0, 6.0}, {0, 5.0, 5.5}});
  EXPECT_DOUBLE_EQ(self[0], 5.0);  // 10 − |[1,6]|
}

TEST(SelfTime, ChildrenClippedToParent) {
  // A child that starts before and ends after its parent covers it all.
  const std::vector<double> self =
      selfTimes({{-1, 2.0, 4.0}, {0, 1.0, 3.0}, {0, 3.5, 9.0}});
  EXPECT_DOUBLE_EQ(self[0], 0.5);  // only [3, 3.5] is uncovered
}

TEST(SelfTime, RecorderNestsAndAggregates) {
  SpanRecorder rec(true);
  {
    auto outer = rec.open("cell", 7);
    { auto inner = rec.open("sim.spt", 7); inner.setWork(42); }
    { auto inner = rec.open("sim.spt", 7); }
  }
  const std::vector<Span> spans = rec.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 0);
  const auto layers = aggregateLayers(spans);
  EXPECT_EQ(layers.at("sim.spt").spans, 2u);
  EXPECT_EQ(layers.at("sim.spt").work, 42u);
  EXPECT_EQ(layers.at("cell").cells.size(), 1u);
  EXPECT_LE(layers.at("cell").self_s, layers.at("cell").wall_s);

  SpanRecorder off(false);
  { auto s = off.open("cell", 1); }
  EXPECT_TRUE(off.spans().empty());
}

TEST(MetricName, AcceptsTheBenchmarksNames) {
  EXPECT_TRUE(isValidMetricName("cell_s_p50"));
  EXPECT_TRUE(isValidMetricName("spt.pass.unroll-preprocess_ms"));
  EXPECT_TRUE(isValidMetricName("9lives"));
  EXPECT_TRUE(isValidMetricName(std::string(64, 'a')));
}

TEST(MetricName, RejectsOthers) {
  EXPECT_FALSE(isValidMetricName(""));
  EXPECT_FALSE(isValidMetricName(std::string(65, 'a')));
  EXPECT_FALSE(isValidMetricName("-leading"));
  EXPECT_FALSE(isValidMetricName(".leading"));
  EXPECT_FALSE(isValidMetricName("has space"));
  EXPECT_FALSE(isValidMetricName("slash/ed"));
  EXPECT_FALSE(isValidMetricName("quote\""));
}

TEST(FailFraction, ZeroAttemptsIsTotalFailure) {
  EXPECT_DOUBLE_EQ(failFraction(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(failFraction(0, 5), 0.0);
  EXPECT_DOUBLE_EQ(failFraction(1, 4), 0.25);
}

TEST(Ratio, ZeroDenominator) {
  EXPECT_DOUBLE_EQ(ratio(3.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(ratio(3.0, 2.0), 1.5);
}

}  // namespace
}  // namespace perfbench
