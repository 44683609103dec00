#include "core/tradeoff.h"

#include "core/model.h"

#include <gtest/gtest.h>

#include <vector>

namespace ipso {
namespace {

const std::vector<double> kKs{1, 2, 4, 8, 16, 32, 64, 128};

TEST(ScaleUp, IsIdentity) {
  EXPECT_DOUBLE_EQ(scale_up_speedup(1.0), 1.0);
  EXPECT_DOUBLE_EQ(scale_up_speedup(37.0), 37.0);
}

TEST(Compare, GustafsonLikeTiesWithScaleUp) {
  // Perfectly parallel fixed-time workload: scale-out == scale-up.
  ScalingFactors f{identity_factor(), constant_factor(1.0),
                   constant_factor(0.0)};
  const auto rows = compare_scaling(f, 1.0, kKs);
  for (const auto& r : rows) {
    EXPECT_NEAR(r.advantage_out, 0.0, 1e-12);
  }
}

TEST(Compare, BoundedWorkloadLosesToScaleUp) {
  // Sort-like IIIt,1: scale-out is capped at ~5; scale-up is not.
  ScalingFactors f{identity_factor(), linear_factor(0.36, 0.64),
                   constant_factor(0.0)};
  const auto rows = compare_scaling(f, 0.59, kKs);
  EXPECT_LT(rows.back().scale_out, 5.5);
  EXPECT_DOUBLE_EQ(rows.back().scale_up, 128.0);
  EXPECT_LT(rows.back().advantage_out, -100.0);
  // At k = 1 they tie.
  EXPECT_NEAR(rows.front().advantage_out, 0.0, 1e-12);
}

TEST(Compare, PathologicalWorkloadLosesCatastrophically) {
  ScalingFactors f{constant_factor(1.0), constant_factor(1.0),
                   make_q(3.74e-4, 2.0)};
  const auto rows = compare_scaling(f, 1.0, kKs);
  // Scale-out is even below 1 x speedup for very large k... at k = 128 the
  // CF curve is well past its ~52-node peak and falling.
  EXPECT_LT(rows.back().scale_out, 25.0);
  EXPECT_LT(rows.back().advantage_out, -100.0);
}

TEST(CompetitiveLimit, UnboundedForPerfectScaling) {
  ScalingFactors f{identity_factor(), constant_factor(1.0),
                   constant_factor(0.0)};
  EXPECT_DOUBLE_EQ(scale_out_competitive_limit(f, 1.0, 0.9, 1024.0), 1024.0);
}

TEST(CompetitiveLimit, FiniteForBoundedTypes) {
  ScalingFactors f{identity_factor(), linear_factor(0.36, 0.64),
                   constant_factor(0.0)};
  const double limit = scale_out_competitive_limit(f, 0.59, 0.5, 4096.0);
  EXPECT_GT(limit, 1.0);
  EXPECT_LT(limit, 64.0);
  // At the limit, S(k) ~ 0.5 k by construction.
  EXPECT_NEAR(speedup_deterministic(f, 0.59, limit), 0.5 * limit,
              0.01 * limit);
}

TEST(CompetitiveLimit, TinyWhenSerialFractionDominates) {
  // Amdahl with a 50% serial fraction: S(2) = 1.33 < 0.9*2, so the
  // competitive region barely extends past a single unit.
  ScalingFactors f{constant_factor(1.0), constant_factor(1.0),
                   constant_factor(0.0)};
  const double limit = scale_out_competitive_limit(f, 0.5, 0.9, 1024.0);
  EXPECT_LT(limit, 1.5);
  // Just past the limit, scale-out is no longer competitive.
  EXPECT_LT(speedup_deterministic(f, 0.5, limit + 0.01),
            0.9 * (limit + 0.01));
}

TEST(CompetitiveLimit, ValidatesArguments) {
  ScalingFactors f{identity_factor(), constant_factor(1.0),
                   constant_factor(0.0)};
  EXPECT_THROW(
      static_cast<void>(scale_out_competitive_limit(f, 1.0, 0.0, 10.0)),
      std::invalid_argument);
  EXPECT_THROW(static_cast<void>(scale_out_competitive_limit(f, 1.0, 0.5, 0.5)),
               std::invalid_argument);
}

}  // namespace
}  // namespace ipso
