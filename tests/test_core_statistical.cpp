#include "core/statistical.h"

#include "core/model.h"
#include "stats/descriptive.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace ipso {
namespace {

ScalingFactors gustafson_like() {
  return {identity_factor(), constant_factor(1.0), constant_factor(0.0)};
}

TEST(Deterministic, ExpectedMaxIsOne) {
  DeterministicTime d;
  for (std::size_t n : {1u, 10u, 1000u}) {
    EXPECT_DOUBLE_EQ(d.expected_max(n), 1.0);
  }
  EXPECT_TRUE(d.has_bounded_max());
}

TEST(Exponential, ExpectedMaxIsHarmonic) {
  ExponentialTime e;
  EXPECT_DOUBLE_EQ(e.expected_max(1), 1.0);
  EXPECT_DOUBLE_EQ(e.expected_max(2), 1.5);
  EXPECT_NEAR(e.expected_max(4), 1.0 + 0.5 + 1.0 / 3 + 0.25, 1e-12);
  EXPECT_FALSE(e.has_bounded_max());
}

TEST(Exponential, ExpectedMaxGrowsLikeLogN) {
  ExponentialTime e;
  const double h1000 = e.expected_max(1000);
  EXPECT_NEAR(h1000, std::log(1000.0) + 0.5772, 0.01);
}

TEST(Uniform, ExpectedMaxClosedForm) {
  UniformTime u(0.5);
  EXPECT_DOUBLE_EQ(u.expected_max(1), 1.0);
  // n=3: 1 + 0.5 * 2/4 = 1.25.
  EXPECT_DOUBLE_EQ(u.expected_max(3), 1.25);
  // Bounded by 1 + w.
  EXPECT_LT(u.expected_max(100000), 1.5);
  EXPECT_TRUE(u.has_bounded_max());
}

TEST(Uniform, RejectsBadWidth) {
  EXPECT_THROW(UniformTime(0.0), std::invalid_argument);
  EXPECT_THROW(UniformTime(1.5), std::invalid_argument);
}

TEST(Uniform, SamplesMatchMoments) {
  UniformTime u(0.3);
  stats::Rng rng(1);
  stats::Accumulator acc;
  for (int i = 0; i < 100000; ++i) acc.add(u.sample(rng));
  EXPECT_NEAR(acc.mean(), 1.0, 0.01);
  EXPECT_GE(acc.min(), 0.7);
  EXPECT_LE(acc.max(), 1.3);
}

TEST(CappedPareto, ConstructionValidates) {
  EXPECT_THROW(CappedParetoTime(1.0, 4.0), std::invalid_argument);
  EXPECT_THROW(CappedParetoTime(2.0, 1.0), std::invalid_argument);
}

TEST(CappedPareto, UnitMeanAfterNormalization) {
  CappedParetoTime p(2.5, 4.0);
  stats::Rng rng(2);
  stats::Accumulator acc;
  for (int i = 0; i < 200000; ++i) acc.add(p.sample(rng));
  EXPECT_NEAR(acc.mean(), 1.0, 0.01);
}

TEST(CappedPareto, ExpectedMaxOfOneIsMean) {
  CappedParetoTime p(3.0, 4.0);
  EXPECT_NEAR(p.expected_max(1), 1.0, 1e-4);  // Simpson quadrature error
}

TEST(CappedPareto, ExpectedMaxBoundedByCapOverMean) {
  CappedParetoTime p(3.0, 4.0);
  const double limit = 4.0 / p.raw_mean();
  double prev = 0.0;
  for (std::size_t n : {1u, 2u, 8u, 64u, 4096u}) {
    const double m = p.expected_max(n);
    EXPECT_GE(m, prev);  // non-decreasing
    EXPECT_LE(m, limit + 1e-9);
    prev = m;
  }
  // With many tasks the max approaches the cap.
  EXPECT_NEAR(p.expected_max(100000), limit, 0.02 * limit);
}

TEST(CappedPareto, MatchesMonteCarloMax) {
  CappedParetoTime p(2.5, 3.0);
  stats::Rng rng(3);
  const std::size_t n = 16;
  stats::Accumulator acc;
  for (int rep = 0; rep < 20000; ++rep) {
    double mx = 0.0;
    for (std::size_t i = 0; i < n; ++i) mx = std::max(mx, p.sample(rng));
    acc.add(mx);
  }
  EXPECT_NEAR(acc.mean(), p.expected_max(n), 0.02 * p.expected_max(n));
}

// --- statistical speedup

TEST(StatSpeedup, DeterministicDistributionEqualsEqTen) {
  const auto f = gustafson_like();
  DeterministicTime d;
  for (double n : {1.0, 4.0, 32.0, 160.0}) {
    EXPECT_NEAR(speedup_statistical(f, 0.8, d, n),
                speedup_deterministic(f, 0.8, n), 1e-12);
  }
}

TEST(StatSpeedup, StragglersOnlyReduceSpeedup) {
  const auto f = gustafson_like();
  DeterministicTime det;
  CappedParetoTime noisy(3.0, 4.0);
  for (double n : {2.0, 16.0, 128.0}) {
    EXPECT_LT(speedup_statistical(f, 0.9, noisy, n),
              speedup_statistical(f, 0.9, det, n));
  }
}

TEST(StatSpeedup, BoundedTailPreservesQualitativeType) {
  // Paper Section IV: with a finite tail E[max] is bounded, so the
  // statistical curve has the same growth type as the deterministic one.
  // Gustafson-like workload: both must grow linearly (ratio to n bounded
  // away from zero and stabilizing).
  const auto f = gustafson_like();
  CappedParetoTime noisy(2.5, 4.0);
  const double r1 =
      speedup_statistical(f, 1.0, noisy, 512.0) / 512.0;
  const double r2 =
      speedup_statistical(f, 1.0, noisy, 4096.0) / 4096.0;
  EXPECT_GT(r1, 0.2);
  EXPECT_NEAR(r1, r2, 0.05);  // slope has stabilized: still linear
}

TEST(StatSpeedup, UnboundedTailBreaksLinearity) {
  // The caveat made executable: an exponential (unbounded) tail turns the
  // perfectly parallel fixed-time workload sublinear (S ~ n / ln n).
  const auto f = gustafson_like();
  ExponentialTime exp_tail;
  const double r1 = speedup_statistical(f, 1.0, exp_tail, 64.0) / 64.0;
  const double r2 = speedup_statistical(f, 1.0, exp_tail, 4096.0) / 4096.0;
  EXPECT_LT(r2, 0.75 * r1);  // efficiency keeps decaying: not linear
}

TEST(StatSpeedup, FractionalNInterpolatesExpectedMax) {
  // Regression: continuous n used to be silently llround-ed, so S(2.4)
  // evaluated E[max] at n = 2 and jumped discontinuously at half-integers.
  // Now E[max_n X] is linearly interpolated between floor(n) and floor(n)+1,
  // making the curve continuous and strictly inside its integer neighbours.
  const auto f = gustafson_like();
  CappedParetoTime noisy(2.5, 4.0);
  const double s2 = speedup_statistical(f, 0.9, noisy, 2.0);
  const double s24 = speedup_statistical(f, 0.9, noisy, 2.4);
  const double s29 = speedup_statistical(f, 0.9, noisy, 2.9);
  const double s3 = speedup_statistical(f, 0.9, noisy, 3.0);
  EXPECT_GT(s24, s2);
  EXPECT_GT(s29, s24);
  EXPECT_GT(s3, s29);
  // The old rounding collapsed 2.4 onto the integer-2 curve evaluated at
  // n = 2.4; it must now differ from both integer endpoints.
  EXPECT_NE(s24, s2);
  EXPECT_NE(s24, s3);
  // Continuity at the former rounding breakpoint n = 2.5.
  const double below = speedup_statistical(f, 0.9, noisy, 2.5 - 1e-9);
  const double above = speedup_statistical(f, 0.9, noisy, 2.5 + 1e-9);
  EXPECT_NEAR(below, above, 1e-6);
  // Integer n still hits the exact order statistic.
  EXPECT_DOUBLE_EQ(s3, speedup_statistical(f, 0.9, noisy, 3.0));
}

TEST(StatSpeedup, ValidatesArguments) {
  const auto f = gustafson_like();
  DeterministicTime d;
  EXPECT_THROW(static_cast<void>(speedup_statistical(f, 0.5, d, 0.5)),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(speedup_statistical(f, 1.5, d, 2.0)),
               std::invalid_argument);
}

TEST(StatSpeedup, CurveHelper) {
  const auto f = gustafson_like();
  DeterministicTime d;
  const std::vector<double> ns{1, 2, 4};
  const auto s = speedup_statistical_curve(f, 1.0, d, ns, "stat");
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.name(), "stat");
  EXPECT_DOUBLE_EQ(s[2].y, 4.0);
}

}  // namespace
}  // namespace ipso
