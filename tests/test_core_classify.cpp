#include "core/classify.h"

#include "core/model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace ipso {
namespace {

AsymptoticParams fixed_time(double eta, double alpha, double delta,
                            double beta, double gamma) {
  AsymptoticParams p;
  p.type = WorkloadType::kFixedTime;
  p.eta = eta;
  p.alpha = alpha;
  p.delta = delta;
  p.beta = beta;
  p.gamma = gamma;
  return p;
}

AsymptoticParams fixed_size(double eta, double alpha, double beta,
                            double gamma) {
  AsymptoticParams p;
  p.type = WorkloadType::kFixedSize;
  p.eta = eta;
  p.alpha = alpha;
  p.delta = 0.0;
  p.beta = beta;
  p.gamma = gamma;
  return p;
}

// --- Fixed-time taxonomy (paper Fig. 2)

TEST(ClassifyFixedTime, GustafsonIsTypeIt) {
  const auto c = classify(fixed_time(0.9, 1.0, 1.0, 0.0, 0.0));
  EXPECT_EQ(c.type, ScalingType::kIt);
  EXPECT_EQ(c.shape, GrowthShape::kLinear);
  EXPECT_TRUE(std::isinf(c.bound));
  // Gustafson slope: S(n)/n -> eta.
  EXPECT_NEAR(c.slope, 0.9, 1e-9);
}

TEST(ClassifyFixedTime, NoSerialPortionNoOverheadIsTypeIt) {
  const auto c = classify(fixed_time(1.0, 1.0, 1.0, 0.0, 0.0));
  EXPECT_EQ(c.type, ScalingType::kIt);
  EXPECT_NEAR(c.slope, 1.0, 1e-9);
}

TEST(ClassifyFixedTime, SublinearOverheadIsTypeIIt) {
  const auto c = classify(fixed_time(0.9, 1.0, 1.0, 0.1, 0.5));
  EXPECT_EQ(c.type, ScalingType::kIIt);
  EXPECT_EQ(c.shape, GrowthShape::kSublinear);
  EXPECT_TRUE(std::isinf(c.bound));
}

TEST(ClassifyFixedTime, PartialInProportionNoOverheadIsTypeIIt) {
  // gamma = 0 but 0 < delta < 1: S ~ n^delta, sublinear unbounded.
  const auto c = classify(fixed_time(0.9, 1.0, 0.5, 0.0, 0.0));
  EXPECT_EQ(c.type, ScalingType::kIIt);
}

TEST(ClassifyFixedTime, FullInProportionIsTypeIIItOne) {
  // delta = 0: merge grows as fast as map -> bounded even for fixed-time.
  const auto c = classify(fixed_time(0.9, 4.3, 0.0, 0.0, 0.0));
  EXPECT_EQ(c.type, ScalingType::kIIIt1);
  EXPECT_EQ(c.shape, GrowthShape::kBounded);
  // Bound = (eta*alpha + 1-eta)/(1-eta) = (0.9*4.3 + 0.1)/0.1 = 39.7.
  EXPECT_NEAR(c.bound, 39.7, 1e-9);
}

TEST(ClassifyFixedTime, LinearOverheadIsTypeIIItTwo) {
  const auto c = classify(fixed_time(0.9, 1.0, 1.0, 0.05, 1.0));
  EXPECT_EQ(c.type, ScalingType::kIIIt2);
  // Bound = 1/beta for delta > 0.
  EXPECT_NEAR(c.bound, 20.0, 1e-9);
}

TEST(ClassifyFixedTime, LinearOverheadDeltaZeroBound) {
  const auto c = classify(fixed_time(0.8, 2.0, 0.0, 0.5, 1.0));
  EXPECT_EQ(c.type, ScalingType::kIIIt2);
  // Bound = (eta*alpha + 1-eta)/(eta*alpha*beta + 1-eta) = 1.8 / 1.0.
  EXPECT_NEAR(c.bound, 1.8, 1e-9);
}

TEST(ClassifyFixedTime, SuperlinearOverheadIsTypeIVt) {
  const auto c = classify(fixed_time(0.9, 1.0, 1.0, 0.001, 2.0));
  EXPECT_EQ(c.type, ScalingType::kIVt);
  EXPECT_EQ(c.shape, GrowthShape::kPeaked);
  EXPECT_GT(c.peak_n, 1.0);
  EXPECT_GT(c.peak_speedup, 1.0);
}

TEST(ClassifyFixedTime, SuperlinearOverheadDominatesOtherFactors) {
  // IVt occurs regardless of delta/eta when gamma > 1.
  for (double delta : {0.0, 0.5, 1.0}) {
    for (double eta : {0.5, 1.0}) {
      const auto c = classify(fixed_time(eta, 1.0, delta, 0.01, 1.5));
      EXPECT_EQ(c.shape, GrowthShape::kPeaked)
          << "delta=" << delta << " eta=" << eta;
    }
  }
}

// --- Fixed-size taxonomy (paper Fig. 3)

TEST(ClassifyFixedSize, PerfectlyParallelIsTypeIs) {
  const auto c = classify(fixed_size(1.0, 1.0, 0.0, 0.0));
  EXPECT_EQ(c.type, ScalingType::kIs);
  EXPECT_NEAR(c.slope, 1.0, 1e-9);  // S(n) = n
}

TEST(ClassifyFixedSize, SublinearOverheadNoSerialIsTypeIIs) {
  const auto c = classify(fixed_size(1.0, 1.0, 0.2, 0.5));
  EXPECT_EQ(c.type, ScalingType::kIIs);
}

TEST(ClassifyFixedSize, AmdahlIsTypeIIIsOne) {
  const auto c = classify(fixed_size(0.9, 1.0, 0.0, 0.0));
  EXPECT_EQ(c.type, ScalingType::kIIIs1);
  EXPECT_NEAR(c.bound, 10.0, 1e-9);  // Amdahl bound 1/(1-eta)
}

TEST(ClassifyFixedSize, SublinearOverheadWithSerialIsStillIIIsOne) {
  const auto c = classify(fixed_size(0.9, 1.0, 0.1, 0.5));
  EXPECT_EQ(c.type, ScalingType::kIIIs1);
  EXPECT_NEAR(c.bound, 10.0, 1e-9);
}

TEST(ClassifyFixedSize, LinearOverheadIsTypeIIIsTwo) {
  const auto c = classify(fixed_size(0.9, 1.0, 0.5, 1.0));
  EXPECT_EQ(c.type, ScalingType::kIIIs2);
  // Bound = (0.9 + 0.1)/(0.9*0.5 + 0.1) = 1/0.55.
  EXPECT_NEAR(c.bound, 1.0 / 0.55, 1e-9);
}

TEST(ClassifyFixedSize, QuadraticBroadcastIsTypeIVs) {
  // The Collaborative Filtering case: eta = 1, gamma = 2.
  const auto c = classify(fixed_size(1.0, 1.0, 3.74e-4, 2.0));
  EXPECT_EQ(c.type, ScalingType::kIVs);
  // Peak of n/(1+beta n^2) is at n = 1/sqrt(beta) ~ 51.7, S ~ 25.9.
  EXPECT_NEAR(c.peak_n, 1.0 / std::sqrt(3.74e-4), 1.0);
  EXPECT_NEAR(c.peak_speedup, 0.5 / std::sqrt(3.74e-4), 0.5);
}

// --- Taxonomy boundaries: exact parameter values on the type borders

TEST(ClassifyBoundary, GammaExactlyOneIsTypeIIItTwo) {
  // gamma = 1 sits exactly on the IIt / IVt border: the scale-out term's
  // denominator exponent ties the parallel term's, so growth is exactly 0
  // -> bounded with the scale-out term in the bound, bound = 1/beta.
  const auto c = classify(fixed_time(1.0, 1.0, 1.0, 1e-3, 1.0));
  EXPECT_EQ(c.type, ScalingType::kIIIt2);
  EXPECT_EQ(c.shape, GrowthShape::kBounded);
  EXPECT_NEAR(c.bound, 1000.0, 1e-6);
}

TEST(ClassifyBoundary, DeltaZeroWithEtaOneIsTypeIs) {
  // delta = 0 normally forces in-proportion scaling (IIIt,1), but at
  // eta = 1 there is no serial term to cap the speedup: the classification
  // must come out linear (Is), slope 1, not bounded. alpha is irrelevant
  // at eta = 1 (the epsilon-ratio cancels, paper remark below Eq. 16).
  const auto c = classify(fixed_size(1.0, 2.5, 0.0, 0.0));
  EXPECT_EQ(c.type, ScalingType::kIs);
  EXPECT_EQ(c.shape, GrowthShape::kLinear);
  EXPECT_NEAR(c.slope, 1.0, 1e-9);
  EXPECT_TRUE(std::isinf(c.bound));
}

TEST(ClassifyBoundary, GammaSlightlyAboveOneIsTypeIVt) {
  // gamma = 1.1 clears the classification tolerance (0.05) above the
  // gamma = 1 border: growth = -0.1 < -tol, so the curve peaks (IVt).
  const auto c = classify(fixed_time(1.0, 1.0, 1.0, 1e-3, 1.1));
  EXPECT_EQ(c.type, ScalingType::kIVt);
  EXPECT_EQ(c.shape, GrowthShape::kPeaked);
  // beta*n^gamma*(gamma-1) = 1 at the peak: n = (1/(beta*(gamma-1)))^(1/gamma).
  const double expected_peak = std::pow(1.0 / (1e-3 * 0.1), 1.0 / 1.1);
  EXPECT_NEAR(c.peak_n, expected_peak, 0.01 * expected_peak);
  EXPECT_GT(c.peak_speedup, 1.0);
}

// --- Robustness and utilities

TEST(Classify, ToleranceAbsorbsFittedNoise) {
  // gamma fitted at 0.98 should classify as the gamma = 1 type.
  const auto c = classify(fixed_time(0.9, 1.0, 1.0, 0.05, 0.98));
  EXPECT_EQ(c.type, ScalingType::kIIIt2);
}

TEST(Classify, ThrowsOnBadEta) {
  EXPECT_THROW(classify(fixed_time(1.5, 1, 1, 0, 0)), std::invalid_argument);
}

TEST(Classify, ThrowsOnNegativeCoefficients) {
  EXPECT_THROW(classify(fixed_time(0.5, -1, 1, 0, 0)), std::invalid_argument);
}

TEST(Classify, RationaleMentionsPathology) {
  const auto c = classify(fixed_size(1.0, 1.0, 0.01, 2.0));
  EXPECT_NE(c.rationale.find("PATHOLOGICAL"), std::string::npos);
}

TEST(Classify, NamesRoundTrip) {
  EXPECT_EQ(to_string(ScalingType::kIIIt1), "IIIt,1");
  EXPECT_EQ(to_string(ScalingType::kIVs), "IVs");
  EXPECT_EQ(shape_of(ScalingType::kIVs), GrowthShape::kPeaked);
  EXPECT_EQ(shape_of(ScalingType::kIs), GrowthShape::kLinear);
  EXPECT_EQ(shape_of(ScalingType::kIIt), GrowthShape::kSublinear);
  EXPECT_EQ(shape_of(ScalingType::kIIIs2), GrowthShape::kBounded);
}

TEST(FindPeak, LocatesAnalyticMaximum) {
  // S(n) = n/(1+beta n^2) peaks at 1/sqrt(beta).
  AsymptoticParams p;
  p.eta = 1.0;
  p.beta = 1e-4;
  p.gamma = 2.0;
  const Peak pk = find_peak(p);
  EXPECT_NEAR(pk.n, 100.0, 0.5);
  EXPECT_NEAR(pk.speedup, 50.0, 0.05);
}

TEST(FindPeak, MonotoneCurveReturnsEndpoint) {
  AsymptoticParams p;
  p.eta = 1.0;  // S(n) = n
  const Peak pk = find_peak(p, 1000.0);
  EXPECT_NEAR(pk.n, 1000.0, 1e-6);
}

TEST(AnalyticPeak, MatchesGoldenSectionSearch) {
  const double beta = 3.74e-4, gamma = 2.0;
  const Peak analytic = analytic_peak_eta_one(beta, gamma);
  AsymptoticParams p;
  p.eta = 1.0;
  p.beta = beta;
  p.gamma = gamma;
  const Peak numeric = find_peak(p);
  EXPECT_NEAR(analytic.n, numeric.n, 0.01 * numeric.n);
  EXPECT_NEAR(analytic.speedup, numeric.speedup, 0.01 * numeric.speedup);
  // Paper's CF ceiling: ~52 nodes.
  EXPECT_NEAR(analytic.n, 51.7, 0.5);
}

TEST(AnalyticPeak, RejectsNonPeakedParameters) {
  EXPECT_THROW(static_cast<void>(analytic_peak_eta_one(0.01, 1.0)),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(analytic_peak_eta_one(0.0, 2.0)),
               std::invalid_argument);
}

TEST(Classify, BoundMatchesModelLimit) {
  // The classifier's bound must match the asymptotic model evaluated far out.
  const auto p = fixed_time(0.85, 2.5, 0.0, 0.0, 0.0);
  const auto c = classify(p);
  EXPECT_NEAR(speedup_asymptotic(p, 1e8), c.bound, 1e-3);
}

TEST(AsymptoticBoundHelper, MatchesClassification) {
  const auto p = fixed_size(0.9, 1.0, 0.0, 0.0);
  EXPECT_DOUBLE_EQ(asymptotic_bound(p), classify(p).bound);
}

}  // namespace
}  // namespace ipso
