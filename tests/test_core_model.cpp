#include "core/model.h"

#include "core/laws.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

namespace ipso {
namespace {

ScalingFactors no_overhead_fixed_time() {
  return {identity_factor(), constant_factor(1.0), constant_factor(0.0)};
}

TEST(WorkloadComponents, SpeedupByEqSeven) {
  WorkloadComponents c;
  c.n = 4;
  c.wp = 80.0;
  c.ws = 20.0;
  c.wo = 5.0;
  c.max_tp = 25.0;
  EXPECT_DOUBLE_EQ(c.sequential_time(), 100.0);
  EXPECT_DOUBLE_EQ(c.parallel_time(), 50.0);
  EXPECT_DOUBLE_EQ(c.speedup(), 2.0);
  EXPECT_DOUBLE_EQ(speedup_from_components(c), 2.0);
}

TEST(WorkloadComponents, ZeroDenominatorYieldsZero) {
  WorkloadComponents c;
  EXPECT_DOUBLE_EQ(c.speedup(), 0.0);
}

TEST(Deterministic, IdentityAtNOne) {
  const auto f = no_overhead_fixed_time();
  EXPECT_DOUBLE_EQ(speedup_deterministic(f, 0.6, 1.0), 1.0);
}

TEST(Deterministic, ThrowsOnBadN) {
  const auto f = no_overhead_fixed_time();
  EXPECT_THROW(static_cast<void>(speedup_deterministic(f, 0.5, 0.5)),
               std::invalid_argument);
}

TEST(Deterministic, ThrowsOnBadEta) {
  const auto f = no_overhead_fixed_time();
  EXPECT_THROW(static_cast<void>(speedup_deterministic(f, 1.5, 2.0)),
               std::invalid_argument);
}

TEST(Deterministic, OverheadReducesSpeedup) {
  ScalingFactors clean = no_overhead_fixed_time();
  ScalingFactors loaded = clean;
  loaded.q = make_q(0.01, 1.5);
  for (double n : {2.0, 8.0, 32.0, 128.0}) {
    EXPECT_LT(speedup_deterministic(loaded, 0.9, n),
              speedup_deterministic(clean, 0.9, n));
  }
}

TEST(Deterministic, InProportionScalingCapsFixedTimeSpeedup) {
  // IN(n) = n makes the merge grow as fast as the map: speedup must level
  // off even for the fixed-time workload (the paper's first new pathology).
  ScalingFactors f{identity_factor(), identity_factor(), constant_factor(0.0)};
  const double eta = 0.9;
  const double s_large = speedup_deterministic(f, eta, 1e7);
  // Bound: (eta*alpha + 1-eta)/(1-eta) with alpha = 1 -> 10.
  EXPECT_NEAR(s_large, 10.0, 1e-4);
  EXPECT_LT(speedup_deterministic(f, eta, 100.0), 10.0);
}

TEST(Statistical, MatchesDeterministicWhenNoVariance) {
  // E[max Tp,i(n)] = tp(1)*EX(n)/n collapses Eq. 8 into Eq. 10.
  ScalingFactors f{identity_factor(), linear_factor(0.3, 0.7),
                   make_q(0.001, 1.0)};
  const double tp1 = 30.0, ts1 = 10.0;
  const double eta = eta_from_times(tp1, ts1);
  for (double n : {1.0, 2.0, 8.0, 64.0}) {
    StatisticalInputs m;
    m.e_tp1 = tp1;
    m.e_ts1 = ts1;
    m.e_max_tp = tp1 * f.ex(n) / n;
    EXPECT_NEAR(speedup_statistical(f, m, n),
                speedup_deterministic(f, eta, n), 1e-12);
  }
}

TEST(Statistical, StragglersReduceSpeedup) {
  ScalingFactors f = no_overhead_fixed_time();
  StatisticalInputs fast{/*e_max_tp=*/10.0, /*e_tp1=*/40.0, /*e_ts1=*/10.0};
  StatisticalInputs slow{/*e_max_tp=*/18.0, /*e_tp1=*/40.0, /*e_ts1=*/10.0};
  EXPECT_GT(speedup_statistical(f, fast, 4.0),
            speedup_statistical(f, slow, 4.0));
}

TEST(Statistical, ThrowsOnZeroBaseline) {
  ScalingFactors f = no_overhead_fixed_time();
  StatisticalInputs m{1.0, 0.0, 0.0};
  EXPECT_THROW(static_cast<void>(speedup_statistical(f, m, 2.0)),
               std::invalid_argument);
}

TEST(Asymptotic, MatchesGustafsonWhenClean) {
  AsymptoticParams p;
  p.type = WorkloadType::kFixedTime;
  p.eta = 0.8;
  p.alpha = 1.0;
  p.delta = 1.0;  // IN(n) = 1
  p.beta = 0.0;
  p.gamma = 0.0;
  for (double n : {1.0, 4.0, 64.0, 256.0}) {
    EXPECT_NEAR(speedup_asymptotic(p, n), laws::gustafson(0.8, n), 1e-12);
  }
}

TEST(Asymptotic, MatchesAmdahlWhenFixedSizeClean) {
  AsymptoticParams p;
  p.type = WorkloadType::kFixedSize;
  p.eta = 0.8;
  p.alpha = 1.0;
  p.delta = 0.0;
  for (double n : {1.0, 4.0, 64.0, 256.0}) {
    EXPECT_NEAR(speedup_asymptotic(p, n), laws::amdahl(0.8, n), 1e-12);
  }
}

TEST(Asymptotic, EtaOneUsesEqSeventeen) {
  AsymptoticParams p;
  p.eta = 1.0;
  p.beta = 0.01;
  p.gamma = 2.0;
  for (double n : {2.0, 10.0, 100.0}) {
    EXPECT_NEAR(speedup_asymptotic(p, n), n / (1.0 + 0.01 * n * n), 1e-12);
  }
}

TEST(Asymptotic, SuperlinearOverheadEventuallyBelowOne) {
  AsymptoticParams p;
  p.eta = 1.0;
  p.beta = 1e-3;
  p.gamma = 2.0;
  // "Negative speedup" in the paper's sense: parallel slower than sequential.
  EXPECT_LT(speedup_asymptotic(p, 5000.0), 1.0);
}

TEST(Asymptotic, AgreesWithMaterializedDeterministicModel) {
  AsymptoticParams p;
  p.type = WorkloadType::kFixedTime;
  p.eta = 0.7;
  p.alpha = 2.0;
  p.delta = 0.5;
  p.beta = 0.005;
  p.gamma = 1.2;
  const ScalingFactors f = p.materialize();
  for (double n : {2.0, 8.0, 32.0, 128.0}) {
    // materialize() normalizes IN(1) = 1/alpha, i.e. workloads where
    // Ws(1) carries the alpha factor; the asymptotic formula absorbs the
    // same constant, so the two must agree exactly for n > 1.
    EXPECT_NEAR(speedup_asymptotic(p, n), speedup_deterministic(f, p.eta, n),
                1e-9);
  }
}

TEST(EtaFromTimes, Basics) {
  EXPECT_DOUBLE_EQ(eta_from_times(30.0, 10.0), 0.75);
  EXPECT_DOUBLE_EQ(eta_from_times(10.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(eta_from_times(0.0, 0.0), 0.0);
}

TEST(Curves, SweepEvaluation) {
  const std::vector<double> ns{1, 2, 4, 8};
  const auto f = no_overhead_fixed_time();
  const SpeedupCurve det = speedup_curve(f, 1.0, ns);
  ASSERT_EQ(det.size(), 4u);
  EXPECT_DOUBLE_EQ(det.ns[3], 8.0);
  EXPECT_DOUBLE_EQ(det.speedups[3], 8.0);

  AsymptoticParams p;
  p.eta = 1.0;
  const SpeedupCurve asym = speedup_curve(p, ns);
  EXPECT_DOUBLE_EQ(asym.speedups[2], 4.0);
}

TEST(Curves, AsSeriesKeepsOrderAndName) {
  const std::vector<double> ns{1, 2, 4};
  AsymptoticParams p;
  p.eta = 1.0;
  const stats::Series s = speedup_curve(p, ns).as_series("model S(n)");
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.name(), "model S(n)");
  EXPECT_DOUBLE_EQ(s[2].x, 4.0);
  EXPECT_DOUBLE_EQ(s[2].y, 4.0);
}

}  // namespace
}  // namespace ipso
