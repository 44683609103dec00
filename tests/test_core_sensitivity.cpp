#include "core/sensitivity.h"

#include "core/model.h"

#include <gtest/gtest.h>

namespace ipso {
namespace {

AsymptoticParams cf_like() {
  AsymptoticParams p;
  p.type = WorkloadType::kFixedSize;
  p.eta = 1.0;
  p.beta = 3.74e-4;
  p.gamma = 2.0;
  return p;
}

AsymptoticParams sort_like() {
  AsymptoticParams p;
  p.type = WorkloadType::kFixedTime;
  p.eta = 0.59;
  p.alpha = 2.78;
  p.delta = 0.0;
  return p;
}

TEST(Sensitivities, SignsMatchIntuition) {
  const auto s = sensitivities(sort_like(), 64.0);
  EXPECT_GT(s.d_eta, 0.0);    // more parallel fraction helps
  EXPECT_GT(s.d_alpha, 0.0);  // smaller merge relative to map helps
  EXPECT_GT(s.d_delta, 0.0);  // faster external-over-internal scaling helps
}

TEST(Sensitivities, OverheadDerivativesAreNegative) {
  const auto s = sensitivities(cf_like(), 60.0);
  EXPECT_LT(s.d_beta, 0.0);
  EXPECT_LT(s.d_gamma, 0.0);
}

TEST(Sensitivities, MatchesFiniteDifferenceOfModel) {
  const auto p = sort_like();
  const double n = 32.0;
  const auto s = sensitivities(p, n);
  // Independent two-point check on eta.
  AsymptoticParams hi = p, lo = p;
  hi.eta += 1e-6;
  lo.eta -= 1e-6;
  const double manual =
      (speedup_asymptotic(hi, n) - speedup_asymptotic(lo, n)) / 2e-6;
  EXPECT_NEAR(s.d_eta, manual, 1e-3 * std::abs(manual));
}

TEST(Sensitivities, RejectsBadN) {
  EXPECT_THROW(static_cast<void>(sensitivities(sort_like(), 0.5)),
               std::invalid_argument);
}

TEST(Gains, PathologicalWorkloadGainsMostFromGamma) {
  const auto g = improvement_gains(cf_like(), 90.0);
  EXPECT_GT(g.gamma, g.eta);
  EXPECT_GT(g.gamma, 0.0);
  EXPECT_GT(g.beta, 0.0);
}

TEST(Gains, GustafsonWorkloadGainsFromNothingMuch) {
  AsymptoticParams p;  // clean It with eta = 1
  p.eta = 1.0;
  const auto g = improvement_gains(p, 64.0);
  // eta is already 1 and there is no overhead: every knob is near-zero.
  EXPECT_NEAR(g.eta, 0.0, 1e-9);
  EXPECT_NEAR(g.beta, 0.0, 1e-9);
}

TEST(Gains, ValidatesImprovement) {
  EXPECT_THROW(static_cast<void>(improvement_gains(sort_like(), 8.0, 0.0)),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(improvement_gains(sort_like(), 8.0, 1.0)),
               std::invalid_argument);
}

TEST(Advice, NamesGammaForPathology) {
  const std::string advice = improvement_advice(cf_like(), 90.0);
  EXPECT_NE(advice.find("gamma"), std::string::npos);
}

TEST(Advice, NamesEtaForAmdahlLike) {
  AsymptoticParams p;
  p.type = WorkloadType::kFixedSize;
  p.eta = 0.7;
  p.delta = 0.0;
  const std::string advice = improvement_advice(p, 64.0);
  EXPECT_NE(advice.find("eta"), std::string::npos);
}

}  // namespace
}  // namespace ipso
