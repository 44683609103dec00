#include "stats/regression.h"

#include "stats/random.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <vector>

namespace ipso::stats {
namespace {

TEST(LinearFit, RecoversExactLine) {
  Series s("line");
  for (int n = 1; n <= 20; ++n) s.add(n, 3.0 * n - 7.0);
  const LinearFit f = fit_linear(s);
  EXPECT_NEAR(f.slope, 3.0, 1e-12);
  EXPECT_NEAR(f.intercept, -7.0, 1e-12);
  EXPECT_NEAR(f.r_squared, 1.0, 1e-12);
}

TEST(LinearFit, RecoversNoisyLine) {
  Rng rng(1);
  Series s("noisy");
  for (int n = 1; n <= 200; ++n) s.add(n, 0.36 * n - 0.11 + rng.normal(0, 0.5));
  const LinearFit f = fit_linear(s);
  EXPECT_NEAR(f.slope, 0.36, 0.01);
  EXPECT_NEAR(f.intercept, -0.11, 0.6);
  EXPECT_GT(f.r_squared, 0.99);
}

TEST(LinearFit, EvaluatesAtX) {
  const LinearFit f{2.0, 1.0, 1.0};
  EXPECT_DOUBLE_EQ(f(3.0), 7.0);
}

TEST(LinearFit, ThrowsOnTooFewPoints) {
  Series s("one");
  s.add(1, 1);
  EXPECT_THROW(fit_linear(s), std::invalid_argument);
}

TEST(LinearFit, ThrowsOnDegenerateX) {
  Series s("same-x");
  s.add(2, 1);
  s.add(2, 5);
  EXPECT_THROW(fit_linear(s), std::invalid_argument);
}

TEST(LinearFit, SpanOverloadMatchesSeries) {
  const std::vector<double> xs{1, 2, 3, 4};
  const std::vector<double> ys{2, 4, 6, 8};
  const LinearFit f = fit_linear(xs, ys);
  EXPECT_NEAR(f.slope, 2.0, 1e-12);
}

TEST(PowerFit, RecoversExactPowerLaw) {
  Series s("pow");
  for (int n = 1; n <= 50; ++n) s.add(n, 2.5 * std::pow(n, 1.7));
  const PowerFit f = fit_power(s);
  EXPECT_NEAR(f.coeff, 2.5, 1e-9);
  EXPECT_NEAR(f.exponent, 1.7, 1e-9);
}

TEST(PowerFit, SkipsNonPositivePoints) {
  Series s("pow0");
  s.add(1, 0.0);  // q(1) = 0 style point
  for (int n = 2; n <= 20; ++n) s.add(n, 0.5 * n * n);
  const PowerFit f = fit_power(s);
  EXPECT_NEAR(f.exponent, 2.0, 1e-9);
  EXPECT_NEAR(f.coeff, 0.5, 1e-9);
}

TEST(PowerFit, ThrowsWhenAllNonPositive) {
  Series s("zeros");
  s.add(1, 0.0);
  s.add(2, 0.0);
  EXPECT_THROW(fit_power(s), std::invalid_argument);
}

TEST(PowerFit, GammaTwoFromQuadraticOverhead) {
  // The CF case study: q(n) = beta*n^2 must be recovered with gamma ~ 2.
  Series s("q");
  for (double n : {10.0, 30.0, 60.0, 90.0}) s.add(n, 3.74e-4 * n * n);
  const PowerFit f = fit_power(s);
  EXPECT_NEAR(f.exponent, 2.0, 1e-6);
  EXPECT_NEAR(f.coeff, 3.74e-4, 1e-8);
}

TEST(SegmentedFit, FindsKnownBreakpoint) {
  // Fig. 5 shape: slope 0.15 below n=15, slope 0.25 above.
  Series s("IN");
  for (int n = 1; n <= 40; ++n) {
    const double y = n <= 15 ? 0.15 * n + 0.85 : 0.25 * n + 2.72 - 1.5;
    s.add(n, y);
  }
  const SegmentedFit f = fit_segmented(s);
  EXPECT_NEAR(f.knot, 15.0, 2.0);
  EXPECT_NEAR(f.left.slope, 0.15, 0.02);
  EXPECT_NEAR(f.right.slope, 0.25, 0.02);
  EXPECT_TRUE(f.has_breakpoint());
}

TEST(SegmentedFit, StraightLineHasNoBreakpoint) {
  Series s("line");
  for (int n = 1; n <= 30; ++n) s.add(n, 2.0 * n + 1.0);
  const SegmentedFit f = fit_segmented(s);
  EXPECT_FALSE(f.has_breakpoint());
}

TEST(SegmentedFit, ThrowsOnTooFewPoints) {
  Series s("few");
  for (int n = 1; n <= 4; ++n) s.add(n, n);
  EXPECT_THROW(fit_segmented(s, 3), std::invalid_argument);
}

TEST(SegmentedFit, EvaluatesPiecewise) {
  SegmentedFit f;
  f.left = {1.0, 0.0, 1.0};
  f.right = {2.0, -5.0, 1.0};
  f.knot = 5.0;
  EXPECT_DOUBLE_EQ(f(4.0), 4.0);
  EXPECT_DOUBLE_EQ(f(6.0), 7.0);
}

// ---------------------------------------------------------------------------
// fit_segmented against an exhaustive reference: every split refitted
// two-pass, first minimum kept. The reference lives here only; the library
// must agree with it bit for bit (knot, SSE and all ten line fields).
// ---------------------------------------------------------------------------

/// Every split's two-pass total (+inf for a degenerate split), and the
/// first-minimum fit, or nullopt when no split is valid.
struct Exhaustive {
  std::vector<double> totals;
  std::optional<SegmentedFit> best;
};

Exhaustive exhaustive_segmented(const Series& s, std::size_t min_seg) {
  if (min_seg < 2) min_seg = 2;
  Exhaustive out;
  out.totals.assign(s.size() + 1, std::numeric_limits<double>::infinity());
  SegmentedFit best;
  best.sse = std::numeric_limits<double>::infinity();
  const auto xs = s.xs();
  const auto ys = s.ys();
  for (std::size_t split = min_seg; split + min_seg <= s.size(); ++split) {
    const std::span<const double> lx(xs.data(), split);
    const std::span<const double> ly(ys.data(), split);
    const std::span<const double> rx(xs.data() + split, xs.size() - split);
    const std::span<const double> ry(ys.data() + split, ys.size() - split);
    LinearFit lf, rf;
    try {
      lf = fit_linear(lx, ly);
      rf = fit_linear(rx, ry);
    } catch (const std::invalid_argument&) {
      continue;
    }
    double total = 0.0;
    for (std::size_t i = 0; i < split; ++i) {
      const double r = ly[i] - lf(lx[i]);
      total += r * r;
    }
    for (std::size_t i = 0; i < rx.size(); ++i) {
      const double r = ry[i] - rf(rx[i]);
      total += r * r;
    }
    out.totals[split] = total;
    if (total < best.sse) {
      best.left = lf;
      best.right = rf;
      best.knot = xs[split - 1];
      best.sse = total;
    }
  }
  if (std::isfinite(best.sse)) out.best = best;
  return out;
}

std::vector<std::uint64_t> bits(const SegmentedFit& f) {
  std::vector<std::uint64_t> out;
  for (const LinearFit* l : {&f.left, &f.right}) {
    for (double v : {l->slope, l->intercept, l->r_squared, l->slope_stderr,
                     l->intercept_stderr}) {
      out.push_back(std::bit_cast<std::uint64_t>(v));
    }
  }
  out.push_back(std::bit_cast<std::uint64_t>(f.knot));
  out.push_back(std::bit_cast<std::uint64_t>(f.sse));
  return out;
}

/// Asserts fit_segmented == the exhaustive scan bit for bit (or both find
/// no valid split), and that every screened lower bound holds.
void expect_matches_exhaustive(const Series& s, std::size_t min_seg) {
  SCOPED_TRACE(s.name() + ", n=" + std::to_string(s.size()) +
               ", min_seg=" + std::to_string(min_seg));
  const Exhaustive ref = exhaustive_segmented(s, min_seg);
  std::optional<SegmentedFit> fast;
  try {
    fast = fit_segmented(s, min_seg);
  } catch (const std::invalid_argument&) {
  }
  ASSERT_EQ(fast.has_value(), ref.best.has_value());
  if (fast) {
    EXPECT_EQ(bits(*fast), bits(*ref.best));
  }
  const std::size_t m = std::max<std::size_t>(min_seg, 2);
  const std::vector<double> lower = split_sse_lower_bounds(s, m);
  for (std::size_t k = m; k + m <= s.size(); ++k) {
    if (std::isfinite(ref.totals[k])) {
      EXPECT_LE(lower[k], ref.totals[k]) << "split " << k;
    }
  }
}

/// IN(n) = 1 + s1·(n-1) up to the knee, slope s2 after it: the shape
/// servebench's make_fit_set sends (noisy = 1% multiplicative noise).
Series knee_series(Rng& rng, std::size_t n, bool noisy) {
  const auto first = static_cast<std::size_t>(0.3 * static_cast<double>(n));
  const double knee =
      1.0 + static_cast<double>(first + rng.uniform_below(n - 2 * first));
  const double s1 = 0.05 + 0.1 * rng.uniform();
  const double s2 = 1.0 + 2.0 * rng.uniform();
  Series s(noisy ? "noisy knee" : "noise-free knee");
  for (std::size_t i = 0; i < n; ++i) {
    const double x = 1.0 + static_cast<double>(i);
    double y = x <= knee ? 1.0 + s1 * (x - 1.0)
                         : 1.0 + s1 * (knee - 1.0) + s2 * (x - knee);
    if (noisy) y *= 1.0 + 0.01 * rng.normal();
    s.add(x, y);
  }
  return s;
}

TEST(SegmentedFitScreen, MatchesExhaustiveOnNoisyAndNoiseFreeKnees) {
  Rng rng(16);
  for (std::size_t n : {6, 7, 9, 16, 33, 100, 257, 1000}) {
    for (int rep = 0; rep < 6; ++rep) {
      expect_matches_exhaustive(knee_series(rng, n, rep % 2 == 1), 3);
    }
  }
  for (std::size_t n : {2048, 4096}) {
    expect_matches_exhaustive(knee_series(rng, n, false), 3);
    expect_matches_exhaustive(knee_series(rng, n, true), 3);
  }
}

TEST(SegmentedFitScreen, MatchesExhaustiveOnTheServeBenchShapes) {
  // bench_serve_load's fit_request IN series: knee at 1 + points/2.
  for (std::size_t points : {8, 64, 512, 4096}) {
    const double knee = 1.0 + static_cast<double>(points) / 2.0;
    Series s("bench_serve_load IN");
    for (std::size_t i = 0; i < points; ++i) {
      const double n = 1.0 + static_cast<double>(i);
      s.add(n, n <= knee ? 0.4 + 0.6 * n : 0.4 + 0.6 * knee + 2.5 * (n - knee));
    }
    expect_matches_exhaustive(s, 3);
  }
  // servebench's pools: 128/512/2048-point sets, half of them noisy.
  Rng rng(1'000'000);
  for (std::size_t n : {128, 512, 2048}) {
    expect_matches_exhaustive(knee_series(rng, n, false), 3);
    expect_matches_exhaustive(knee_series(rng, n, true), 3);
  }
}

TEST(SegmentedFitScreen, MatchesExhaustiveWhenEverySplitTies) {
  // A straight line (no knee): every split fits exactly, so every split
  // stays a candidate and the answer is the exhaustive one.
  for (std::size_t n : {6, 40, 300}) {
    Series line("straight line");
    Series flat("constant");
    for (std::size_t i = 0; i < n; ++i) {
      line.add(1.0 + static_cast<double>(i), 3.0 * static_cast<double>(i) - 7.0);
      flat.add(1.0 + static_cast<double>(i), 2.5);
    }
    expect_matches_exhaustive(line, 3);
    expect_matches_exhaustive(flat, 3);
  }
}

TEST(SegmentedFitScreen, MatchesExhaustiveOnDuplicateX) {
  Rng rng(5);
  for (std::size_t n : {6, 12, 64, 500}) {
    for (std::size_t dup : {2, 3, 4}) {
      Series s("duplicate x");
      for (std::size_t i = 0; i < n; ++i) {
        const double x = 1.0 + static_cast<double>(i / dup);
        s.add(x, (x < static_cast<double>(n / (2 * dup)) ? 0.2 * x : 1.5 * x) +
                     0.01 * rng.normal());
      }
      expect_matches_exhaustive(s, 3);
      Series exact("duplicate x, noise-free");
      for (const Point& p : s) exact.add(p.x, 0.5 * p.x + 1.0);
      expect_matches_exhaustive(exact, 3);
    }
  }
  // Every x equal: every split is degenerate, both throw.
  Series same("one x");
  for (int i = 0; i < 10; ++i) same.add(4.0, i);
  expect_matches_exhaustive(same, 3);
}

TEST(SegmentedFitScreen, MatchesExhaustiveAtMinSegBoundaries) {
  Rng rng(9);
  for (std::size_t min_seg : {0, 1, 2, 3, 5}) {
    for (std::size_t n : {6, 10, 50}) {
      if (n < 2 * std::max<std::size_t>(min_seg, 2)) continue;
      const std::size_t m = std::max<std::size_t>(min_seg, 2);
      // Knee at the first and the last split the search may take.
      for (std::size_t knee : {m, n - m}) {
        Series s("knee at a min_seg boundary");
        for (std::size_t i = 0; i < n; ++i) {
          const double x = 1.0 + static_cast<double>(i);
          s.add(x, i < knee ? 0.1 * x : 4.0 * x - 3.0 +
                                            1e-3 * rng.normal());
        }
        expect_matches_exhaustive(s, min_seg);
      }
    }
  }
}

TEST(SegmentedFitScreen, MatchesExhaustiveOnExtremeScales) {
  Rng rng(11);
  for (double scale : {1e-300, 1e-160, 1e-155, 1e-150, 1e-8, 1e8, 1e150,
                       1e153, 1e300}) {
    Series s("scaled");
    Series offset("large offset");
    for (std::size_t i = 0; i < 60; ++i) {
      const double x = 1.0 + static_cast<double>(i);
      const double y = (x < 25 ? 0.3 * x : 2.0 * x - 40.0) + 0.1 * rng.normal();
      s.add(x * scale, y * scale);
      offset.add(1e6 + x, 1e9 + y);
    }
    expect_matches_exhaustive(s, 3);
    expect_matches_exhaustive(offset, 3);
  }
  Series with_nan("non-finite");
  for (int i = 0; i < 12; ++i) with_nan.add(i, i == 7 ? std::nan("") : i);
  expect_matches_exhaustive(with_nan, 3);
  Series with_inf("infinite");
  for (int i = 0; i < 12; ++i) {
    with_inf.add(i, i == 3 ? std::numeric_limits<double>::infinity() : i);
  }
  expect_matches_exhaustive(with_inf, 3);
}

TEST(SegmentedFitScreen, MatchesExhaustiveOnSeededRandomSeries) {
  // Random lengths, scales, offsets, knees, noise (often none), repeated
  // x and repeated y values, with and without sorted x.
  Rng rng(2024);
  for (int rep = 0; rep < 400; ++rep) {
    const std::size_t n = 6 + rng.uniform_below(90);
    const double scale = std::pow(10.0, rng.uniform(-200.0, 200.0));
    const double offset = rng.uniform() < 0.3 ? rng.uniform(-1e6, 1e6) : 0.0;
    const double knee = rng.uniform(0.0, static_cast<double>(n));
    const double s1 = rng.uniform(-2.0, 2.0);
    const double s2 = rng.uniform() < 0.2 ? s1 : rng.uniform(-2.0, 2.0);
    const double noise = rng.uniform() < 0.5 ? 0.0 : std::pow(10.0, rng.uniform(-12.0, 0.0));
    const std::size_t dup = 1 + rng.uniform_below(3);
    const bool shuffled = rng.uniform() < 0.1;
    Series s("seeded random");
    for (std::size_t i = 0; i < n; ++i) {
      double x = static_cast<double>(shuffled ? rng.uniform_below(n) : i / dup);
      double y = x <= knee ? s1 * x : s1 * knee + s2 * (x - knee);
      y += noise * rng.normal();
      if (rng.uniform() < 0.05) y = 0.0;
      s.add((x + offset) * scale, (y + offset) * scale);
    }
    expect_matches_exhaustive(s, 2 + rng.uniform_below(3));
  }
}

TEST(LinearFit, StandardErrorsShrinkWithMorePoints) {
  Rng rng(21);
  auto noisy_fit = [&](int n) {
    Series s("noisy");
    for (int i = 1; i <= n; ++i) s.add(i, 2.0 * i + rng.normal(0, 1.0));
    return fit_linear(s);
  };
  const LinearFit small = noisy_fit(10);
  const LinearFit big = noisy_fit(1000);
  EXPECT_GT(small.slope_stderr, 0.0);
  EXPECT_LT(big.slope_stderr, small.slope_stderr);
  // The true slope must be within a few standard errors.
  EXPECT_NEAR(big.slope, 2.0, 5.0 * big.slope_stderr);
}

TEST(LinearFit, ExactFitHasZeroStderr) {
  Series s("exact");
  for (int i = 1; i <= 10; ++i) s.add(i, 3.0 * i + 1.0);
  const LinearFit f = fit_linear(s);
  EXPECT_NEAR(f.slope_stderr, 0.0, 1e-10);
  EXPECT_NEAR(f.intercept_stderr, 0.0, 1e-9);
}

TEST(PowerFit, ExponentStderrPropagates) {
  Rng rng(22);
  Series s("q");
  for (double n = 2; n <= 256; n *= 2) {
    s.add(n, 1e-3 * n * n * std::exp(rng.normal(0, 0.05)));
  }
  const PowerFit f = fit_power(s);
  EXPECT_GT(f.exponent_stderr, 0.0);
  EXPECT_NEAR(f.exponent, 2.0, 4.0 * f.exponent_stderr);
}

TEST(GoodnessOfFit, SseOfPerfectFitIsZero) {
  Series s("line");
  for (int n = 1; n <= 10; ++n) s.add(n, 4.0 * n);
  EXPECT_NEAR(sse(s, [](double x) { return 4.0 * x; }), 0.0, 1e-18);
}

TEST(GoodnessOfFit, RSquaredOfMeanModelIsZero) {
  Series s("var");
  s.add(1, 1.0);
  s.add(2, 3.0);
  const double m = 2.0;
  EXPECT_NEAR(r_squared(s, [m](double) { return m; }), 0.0, 1e-12);
}

TEST(GoodnessOfFit, RSquaredConstantSeriesIsOne) {
  Series s("const");
  s.add(1, 5.0);
  s.add(2, 5.0);
  EXPECT_DOUBLE_EQ(r_squared(s, [](double) { return 5.0; }), 1.0);
}

}  // namespace
}  // namespace ipso::stats
