// Tests of the benchmark's own statistics and conventions. Run with
//   python3 farmbench/run.py --self-test
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "bench_stats.h"
#include "host_ref.h"

namespace farmbench {
namespace {

TEST(CycleMedianOfMeans, TakesTheMedianOfPerCycleMeans) {
  // Three cycles of a two-mode mix: cheap (1) and expensive (9) ops.
  std::vector<std::vector<double>> cycles = {{1, 9}, {1, 1, 9, 9}, {2, 10}};
  // Means 5, 5, 6 → median 5.
  EXPECT_DOUBLE_EQ(median_of_cycle_means(cycles), 5.0);
  // A single-op median of the same population would sit on one mode.
  EXPECT_DOUBLE_EQ(median({1, 9, 1, 1, 9, 9, 2, 10}), 5.5);
  EXPECT_DOUBLE_EQ(median({1, 9, 9, 1, 9}), 9.0);
}

TEST(CycleMedianOfMeans, IgnoresEmptyCyclesAndAveragesEvenCounts) {
  std::vector<std::vector<double>> cycles = {{}, {2}, {4}, {}, {8}, {10}};
  EXPECT_DOUBLE_EQ(median_of_cycle_means(cycles), 6.0);
  EXPECT_DOUBLE_EQ(median_of_cycle_means({}), 0.0);
}

TEST(Percentile, NeedsTenSamplesBeyondIt) {
  // p95 of n samples has n - ceil(0.95 n) samples beyond it.
  std::vector<double> v;
  for (int i = 1; i <= 199; ++i) v.push_back(i);
  EXPECT_FALSE(percentile_with_tail(v, 95).has_value());  // 9 beyond
  v.push_back(200);
  auto p95 = percentile_with_tail(v, 95);  // 10 beyond
  ASSERT_TRUE(p95.has_value());
  EXPECT_DOUBLE_EQ(*p95, 190.0);
  EXPECT_EQ(samples_for_percentile(95), 200u);
  EXPECT_EQ(samples_for_percentile(90), 100u);
  EXPECT_EQ(samples_for_percentile(99), 1000u);
}

TEST(Percentile, IsNearestRankAndIgnoresOrder) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  auto p90 = percentile_with_tail(v, 90);
  ASSERT_TRUE(p90.has_value());
  EXPECT_DOUBLE_EQ(*p90, 90.0);
  EXPECT_FALSE(percentile_with_tail(v, 91).has_value());  // 9 beyond
  EXPECT_FALSE(percentile_with_tail({}, 50).has_value());
}

TEST(Scaling, TimesGrowAndRatesShrinkOnAFastHost) {
  const double nominal = 20e6;
  const double k = std::pow(2.0, kHostExponent);
  // The reference ran twice as fast as nominal: the host is fast, so the
  // raw time understates what the nominal host would take.
  EXPECT_DOUBLE_EQ(scale_time(10.0, 40e6, nominal), 10.0 * k);
  EXPECT_DOUBLE_EQ(scale_rate(1.0, 40e6, nominal), 1.0 / k);
  // Slow host: the reverse.
  EXPECT_DOUBLE_EQ(scale_time(10.0, 10e6, nominal), 10.0 / k);
  EXPECT_DOUBLE_EQ(scale_rate(1.0, 10e6, nominal), 1.0 * k);
  // At the nominal rate nothing changes.
  EXPECT_DOUBLE_EQ(scale_time(3.5, nominal, nominal), 3.5);
  EXPECT_DOUBLE_EQ(scale_rate(3.5, nominal, nominal), 3.5);
  // Scaling is monotone: a faster reference always means a larger time.
  EXPECT_GT(scale_time(1.0, 21e6, nominal), scale_time(1.0, 20.5e6, nominal));
}

TEST(Scaling, ATimeAndItsRateStayReciprocal) {
  // sim_speed is virtual seconds over a scaled wall time; scaling the wall
  // time and scaling the rate must agree.
  const double virtual_s = 4.0, wall_s = 8.0, ref = 25e6, nominal = 20e6;
  EXPECT_DOUBLE_EQ(virtual_s / scale_time(wall_s, ref, nominal),
                   scale_rate(virtual_s / wall_s, ref, nominal));
}

TEST(Names, MetricNameCharacterSet) {
  EXPECT_TRUE(valid_metric_name("setup_s"));
  EXPECT_TRUE(valid_metric_name("host.raw.install_p95_ms"));
  EXPECT_TRUE(valid_metric_name("9lives-x"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("_leading"));
  EXPECT_FALSE(valid_metric_name(".leading"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("slash/name"));
  EXPECT_FALSE(valid_metric_name("quote\"name"));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
}

TEST(Names, UnitCharacterSet) {
  for (const char* u : {"ms", "s", "1/s", "count", "sim-s/s", "%", "MB"})
    EXPECT_TRUE(valid_unit(u)) << u;
  EXPECT_FALSE(valid_unit(""));
  EXPECT_FALSE(valid_unit("lookups per s"));
  EXPECT_FALSE(valid_unit(std::string(17, 's')));
}

TEST(Digest, IsFnv1a32) {
  Digest d;
  EXPECT_EQ(d.value(), 2166136261u);
  d.add("a");
  EXPECT_EQ(d.value(), 0xE40C292Cu);
  Digest e;
  e.add("foobar");
  EXPECT_EQ(e.value(), 0xBF9CF968u);
}

TEST(HostRef, SlicesAreTimedAndDeterministic) {
  HostRef a, b;
  RefMeter m;
  m.add(a.slice_ns());
  m.add(a.slice_ns());
  b.slice_ns();
  b.slice_ns();
  EXPECT_EQ(a.checksum(), b.checksum());
  EXPECT_EQ(m.slices, 2);
  EXPECT_EQ(m.lookups, 2u * HostRef::kSliceLookups);
  EXPECT_GT(m.rate(), 0.0);
}

}  // namespace
}  // namespace farmbench
