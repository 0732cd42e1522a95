#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "util/export.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/time_series.hpp"

namespace fedco::util {
namespace {

// ----------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a{123};
  Rng b{123};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1};
  Rng b{2};
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a() == b() ? 1 : 0;
  EXPECT_LT(equal, 4);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng{7};
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng{7};
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntIsUnbiasedAcrossSmallRange) {
  Rng rng{11};
  std::vector<int> counts(5, 0);
  const int draws = 50000;
  for (int i = 0; i < draws; ++i) ++counts[rng.uniform_int(std::uint64_t{5})];
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / draws, 0.2, 0.02);
  }
}

TEST(Rng, UniformIntInclusiveRange) {
  Rng rng{13};
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng{17};
  int hits = 0;
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / draws, 0.3, 0.01);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng{17};
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, NormalMomentsAreSane) {
  Rng rng{19};
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng{23};
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.exponential(2.0));
  EXPECT_NEAR(stats.mean(), 0.5, 0.02);
  EXPECT_GE(stats.min(), 0.0);
}

TEST(Rng, PoissonMeanMatches) {
  Rng rng{29};
  RunningStats small;
  RunningStats large;
  for (int i = 0; i < 20000; ++i) {
    small.add(static_cast<double>(rng.poisson(3.0)));
    large.add(static_cast<double>(rng.poisson(100.0)));
  }
  EXPECT_NEAR(small.mean(), 3.0, 0.1);
  EXPECT_NEAR(large.mean(), 100.0, 1.0);
}

TEST(Rng, DirichletSumsToOne) {
  Rng rng{31};
  for (const double alpha : {0.1, 1.0, 10.0}) {
    const auto w = rng.dirichlet(alpha, 8);
    ASSERT_EQ(w.size(), 8u);
    double total = 0.0;
    for (const double x : w) {
      EXPECT_GE(x, 0.0);
      total += x;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(Rng, DirichletSmallAlphaIsSkewed) {
  Rng rng{37};
  double max_share_sum = 0.0;
  const int trials = 200;
  for (int i = 0; i < trials; ++i) {
    const auto w = rng.dirichlet(0.05, 10);
    max_share_sum += *std::max_element(w.begin(), w.end());
  }
  // With alpha = 0.05 one category dominates nearly always.
  EXPECT_GT(max_share_sum / trials, 0.8);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng{41};
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent{43};
  Rng child = parent.fork();
  Rng parent2{43};
  Rng child2 = parent2.fork();
  // Deterministic fork...
  for (int i = 0; i < 10; ++i) EXPECT_EQ(child(), child2());
  // ...and decorrelated from the parent.
  Rng parent3{43};
  (void)parent3.fork();
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += parent3() == child() ? 1 : 0;
  EXPECT_LT(equal, 4);
}

// ----------------------------------------------------------------- stats

TEST(RunningStats, MatchesBatchComputation) {
  Rng rng{47};
  std::vector<double> values;
  RunningStats stats;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.normal(5.0, 2.0);
    values.push_back(v);
    stats.add(v);
  }
  EXPECT_NEAR(stats.mean(), mean(values), 1e-9);
  EXPECT_NEAR(stats.variance(), variance(values), 1e-6);
}

TEST(RunningStats, EmptyAndSingle) {
  RunningStats stats;
  EXPECT_TRUE(stats.empty());
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
  stats.add(42.0);
  EXPECT_EQ(stats.count(), 1u);
  EXPECT_EQ(stats.mean(), 42.0);
  EXPECT_EQ(stats.variance(), 0.0);
  EXPECT_EQ(stats.min(), 42.0);
  EXPECT_EQ(stats.max(), 42.0);
}

TEST(RunningStats, MergeEqualsCombined) {
  Rng rng{53};
  RunningStats a;
  RunningStats b;
  RunningStats all;
  for (int i = 0; i < 500; ++i) {
    const double v = rng.uniform(-1.0, 1.0);
    (i % 2 == 0 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-12);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(Percentile, InterpolatesLinearly) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_NEAR(percentile(v, 0.0), 1.0, 1e-12);
  EXPECT_NEAR(percentile(v, 100.0), 4.0, 1e-12);
  EXPECT_NEAR(percentile(v, 50.0), 2.5, 1e-12);
  EXPECT_THROW((void)percentile(v, 101.0), std::invalid_argument);
  EXPECT_EQ(percentile(std::vector<double>{}, 50.0), 0.0);
}

TEST(Percentile, TripleIsBitEqualToSinglePercentilesAndSortedReference) {
  // percentiles() selects the p50/p90/p99 order statistics instead of
  // sorting; over random spans with heavy duplication and both signed
  // zeros it must return exactly what percentile() and a full sort give.
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const auto sorted_at = [](std::vector<double> v, double q) {
    std::sort(v.begin(), v.end());
    if (v.size() == 1) return v.front();
    const double rank = q / 100.0 * static_cast<double>(v.size() - 1);
    const auto lower = static_cast<std::size_t>(rank);
    const double frac = rank - static_cast<double>(lower);
    if (lower + 1 >= v.size()) return v.back();
    return v[lower] + frac * (v[lower + 1] - v[lower]);
  };
  Rng rng{2024};
  for (int trial = 0; trial < 310; ++trial) {
    // The last trials exceed the copy's gather stride (7919).
    std::vector<double> v(trial < 300 ? 1 + rng.uniform_int(std::uint64_t{5000})
                                      : 7919 + rng.uniform_int(std::uint64_t{40000}));
    const std::uint64_t distinct = 1 + rng.uniform_int(std::uint64_t{50});
    for (double& x : v) {
      const std::uint64_t pick = rng.uniform_int(distinct + 2);
      x = pick == distinct       ? 0.0
          : pick == distinct + 1 ? -0.0
                                 : static_cast<double>(pick) * 0.37 - 5.0;
    }
    const Percentiles p = percentiles(v);
    ASSERT_EQ(bits(p.p50), bits(percentile(v, 50.0))) << "trial " << trial;
    ASSERT_EQ(bits(p.p90), bits(percentile(v, 90.0))) << "trial " << trial;
    ASSERT_EQ(bits(p.p99), bits(percentile(v, 99.0))) << "trial " << trial;
    ASSERT_EQ(bits(p.p50), bits(sorted_at(v, 50.0))) << "trial " << trial;
    ASSERT_EQ(bits(p.p90), bits(sorted_at(v, 90.0))) << "trial " << trial;
    ASSERT_EQ(bits(p.p99), bits(sorted_at(v, 99.0))) << "trial " << trial;
  }
  const Percentiles empty = percentiles(std::vector<double>{});
  EXPECT_EQ(empty.p50, 0.0);
  EXPECT_EQ(empty.p99, 0.0);
}

TEST(Pearson, PerfectAndDegenerate) {
  const std::vector<double> x{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> y{2.0, 4.0, 6.0, 8.0};
  const std::vector<double> neg{8.0, 6.0, 4.0, 2.0};
  const std::vector<double> flat{5.0, 5.0, 5.0, 5.0};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  EXPECT_NEAR(pearson(x, neg), -1.0, 1e-12);
  EXPECT_EQ(pearson(x, flat), 0.0);
}

TEST(HistogramTest, BinsAndClamping) {
  Histogram h{0.0, 10.0, 5};
  h.add(-1.0);   // clamps into bin 0
  h.add(0.5);
  h.add(9.9);
  h.add(25.0);   // clamps into last bin
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(4), 2u);
  EXPECT_NEAR(h.bin_lo(1), 2.0, 1e-12);
  EXPECT_NEAR(h.bin_hi(1), 4.0, 1e-12);
  EXPECT_THROW((void)h.bin_count(5), std::out_of_range);
  EXPECT_THROW(Histogram(0.0, 10.0, 0), std::invalid_argument);
  EXPECT_THROW(Histogram(5.0, 5.0, 3), std::invalid_argument);
}

TEST(EmaTest, SeedsAndSmoothes) {
  Ema ema{0.5};
  EXPECT_FALSE(ema.seeded());
  EXPECT_EQ(ema.add(10.0), 10.0);
  EXPECT_EQ(ema.add(0.0), 5.0);
  EXPECT_EQ(ema.add(5.0), 5.0);
}

// ----------------------------------------------------------------- table

TEST(TextTableTest, AlignsAndCounts) {
  TextTable t{"demo"};
  t.set_header({"a", "long_column"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  EXPECT_EQ(t.row_count(), 2u);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("long_column"), std::string::npos);
  EXPECT_NE(s.find("333"), std::string::npos);
}

TEST(TextTableTest, NumFormatting) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::num(-1.0, 0), "-1");
}

TEST(CsvEscapeTest, Rfc4180) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("with,comma"), "\"with,comma\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

// ----------------------------------------------------------------- export

TEST(ExportTest, CsvDirFromEnvironment) {
  unsetenv("FEDCO_CSV_DIR");
  EXPECT_FALSE(csv_export_dir().has_value());
  setenv("FEDCO_CSV_DIR", "", 1);
  EXPECT_FALSE(csv_export_dir().has_value());
  setenv("FEDCO_CSV_DIR", "/tmp", 1);
  ASSERT_TRUE(csv_export_dir().has_value());
  EXPECT_EQ(*csv_export_dir(), "/tmp");
  unsetenv("FEDCO_CSV_DIR");
}

TEST(ExportTest, WritesSeriesCsv) {
  TimeSeries s{"demo"};
  s.add(0.0, 1.5);
  s.add(10.0, 2.5);
  export_time_series("/tmp", "fedco_export_test", s);
  std::ifstream in{"/tmp/fedco_export_test.csv"};
  ASSERT_TRUE(in.good());
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "time_s,value");
  std::getline(in, line);
  EXPECT_EQ(line, "0,1.5");
  std::getline(in, line);
  EXPECT_EQ(line, "10,2.5");
}

TEST(ExportTest, UnwritablePathThrows) {
  EXPECT_THROW(export_time_series("/nonexistent_dir_xyz", "x", TimeSeries{"x"}),
               std::runtime_error);
}

// ----------------------------------------------------------------- series

TEST(TimeSeriesTest, MonotonicTimeEnforced) {
  TimeSeries s{"x"};
  s.add(0.0, 1.0);
  s.add(1.0, 2.0);
  s.add(1.0, 3.0);  // equal time is allowed
  EXPECT_THROW(s.add(0.5, 4.0), std::invalid_argument);
  EXPECT_EQ(s.size(), 3u);
}

TEST(TimeSeriesTest, SampleAndHoldAt) {
  TimeSeries s{"x"};
  s.add(1.0, 10.0);
  s.add(3.0, 20.0);
  EXPECT_EQ(s.at(0.0), 10.0);  // before first sample
  EXPECT_EQ(s.at(1.0), 10.0);
  EXPECT_EQ(s.at(2.9), 10.0);
  EXPECT_EQ(s.at(3.0), 20.0);
  EXPECT_EQ(s.at(99.0), 20.0);
  EXPECT_EQ(TimeSeries{}.at(5.0), 0.0);
}

TEST(TimeSeriesTest, TimeAverage) {
  TimeSeries s{"x"};
  s.add(0.0, 0.0);
  s.add(10.0, 100.0);  // value 0 held over [0, 10)
  EXPECT_NEAR(s.time_average(), 0.0, 1e-12);
  s.add(20.0, 0.0);    // value 100 held over [10, 20)
  EXPECT_NEAR(s.time_average(), 50.0, 1e-12);
}

TEST(TimeSeriesTest, FirstCrossing) {
  TimeSeries s{"acc"};
  s.add(0.0, 0.1);
  s.add(100.0, 0.4);
  s.add(200.0, 0.55);
  EXPECT_EQ(s.first_crossing(0.4), 100.0);
  EXPECT_EQ(s.first_crossing(0.5), 200.0);
  EXPECT_EQ(s.first_crossing(0.9), -1.0);
}

TEST(TimeSeriesTest, DecimateKeepsEndpoints) {
  TimeSeries s{"x"};
  for (int i = 0; i < 10; ++i) s.add(i, i);
  const TimeSeries d = s.decimate(4);
  ASSERT_EQ(d.size(), 4u);  // t = 0, 4, 8 and the final 9
  EXPECT_EQ(d.time_at(0), 0.0);
  EXPECT_EQ(d.time_at(3), 9.0);
  EXPECT_THROW(s.decimate(0), std::invalid_argument);
}

TEST(TimeSeriesTest, LastValueThrowsOnEmpty) {
  TimeSeries s;
  EXPECT_THROW((void)s.last_value(), std::out_of_range);
  s.add(0.0, 3.0);
  EXPECT_EQ(s.last_value(), 3.0);
}

}  // namespace
}  // namespace fedco::util
