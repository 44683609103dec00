#include "stats/regression.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>

namespace ipso::stats {

LinearFit fit_linear(std::span<const double> xs, std::span<const double> ys) {
  if (xs.size() != ys.size()) {
    throw std::invalid_argument("fit_linear: xs/ys size mismatch");
  }
  const std::size_t n = xs.size();
  if (n < 2) throw std::invalid_argument("fit_linear: need >= 2 points");

  double sx = 0.0, sy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sx += xs[i];
    sy += ys[i];
  }
  const double mx = sx / static_cast<double>(n);
  const double my = sy / static_cast<double>(n);
  double sxx = 0.0, sxy = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  if (sxx == 0.0) throw std::invalid_argument("fit_linear: degenerate x");

  LinearFit f;
  f.slope = sxy / sxx;
  f.intercept = my - f.slope * mx;
  if (syy == 0.0) {
    f.r_squared = 1.0;
  } else {
    f.r_squared = (sxy * sxy) / (sxx * syy);
  }
  if (n > 2) {
    // Residual variance and the classical OLS standard errors.
    double sse_acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double r = ys[i] - f(xs[i]);
      sse_acc += r * r;
    }
    const double sigma2 = sse_acc / static_cast<double>(n - 2);
    f.slope_stderr = std::sqrt(sigma2 / sxx);
    f.intercept_stderr =
        std::sqrt(sigma2 * (1.0 / static_cast<double>(n) + mx * mx / sxx));
  }
  return f;
}

LinearFit fit_linear(const Series& s) {
  const auto xs = s.xs();
  const auto ys = s.ys();
  return fit_linear(xs, ys);
}

double PowerFit::operator()(double x) const noexcept {
  return coeff * std::pow(x, exponent);
}

PowerFit fit_power(const Series& s) {
  Series logs("log " + s.name());
  for (const auto& p : s) {
    if (p.x > 0.0 && p.y > 0.0) logs.add(std::log(p.x), std::log(p.y));
  }
  if (logs.size() < 2) {
    throw std::invalid_argument("fit_power: need >= 2 positive points");
  }
  const LinearFit lf = fit_linear(logs);
  PowerFit pf;
  pf.exponent = lf.slope;
  pf.coeff = std::exp(lf.intercept);
  pf.r_squared = lf.r_squared;
  pf.exponent_stderr = lf.slope_stderr;
  return pf;
}

bool SegmentedFit::has_breakpoint(double min_slope_ratio) const noexcept {
  const double a = std::abs(left.slope);
  const double b = std::abs(right.slope);
  if (a == 0.0 && b == 0.0) {
    // Two flats: a breakpoint exists only if the levels jump.
    return std::abs(right.intercept - left.intercept) >
           0.05 * std::max(1.0, std::abs(left.intercept));
  }
  const double hi = std::max(a, b);
  const double lo = std::min(a, b);
  if (lo == 0.0) return true;
  if (hi / lo >= min_slope_ratio) return true;
  // Same slope but a level jump at the knot also counts as step-wise.
  const double jump = std::abs(right(knot) - left(knot));
  return jump > 0.1 * std::max(1.0, std::abs(left(knot)));
}

namespace {

constexpr double kUnit = std::numeric_limits<double>::epsilon() / 2;
/// Absolute pad for underflow: a rounding that underflows errs by at most
/// half the least subnormal, far below this least normal. No pad is ever
/// divided by a small number (see bound_segment), so the pads stay valid.
/// The pad is kept normal because arithmetic on subnormals is slow on
/// common hardware.
constexpr double kTiny = std::numeric_limits<double>::min();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// gamma_k = k·u / (1 - k·u): the classical bound on the relative error
/// of k chained roundings of unit roundoff u (Higham, Accuracy and
/// Stability of Numerical Algorithms, Lemma 3.1).
double gamma(double k) { return k * kUnit / (1.0 - k * kUnit); }

/// The split at `split` (left = points [0, split)) scored the two-pass
/// way: both sides fitted by fit_linear, then the squared residuals summed
/// left to right into one total. nullopt when a side has degenerate x.
/// This is the only code that produces a returned fit, so a screened
/// search and an exhaustive one agree bit for bit.
std::optional<SegmentedFit> fit_split(std::span<const double> xs,
                                      std::span<const double> ys,
                                      std::size_t split) {
  const std::span<const double> lx = xs.first(split);
  const std::span<const double> ly = ys.first(split);
  const std::span<const double> rx = xs.subspan(split);
  const std::span<const double> ry = ys.subspan(split);
  SegmentedFit f;
  try {
    f.left = fit_linear(lx, ly);
    f.right = fit_linear(rx, ry);
  } catch (const std::invalid_argument&) {
    return std::nullopt;  // degenerate segment (all same x)
  }
  double total = 0.0;
  for (std::size_t i = 0; i < lx.size(); ++i) {
    const double r = ly[i] - f.left(lx[i]);
    total += r * r;
  }
  for (std::size_t i = 0; i < rx.size(); ++i) {
    const double r = ry[i] - f.right(rx[i]);
    total += r * r;
  }
  f.knot = xs[split - 1];
  f.sse = total;
  return f;
}

/// Running sums of one segment of the shifted data u = fl(x - cx),
/// v = fl(y - cy), accumulated one point at a time.
struct Sums {
  double m = 0, u = 0, v = 0, uu = 0, uv = 0, vv = 0;
  double abs_u = 0, abs_v = 0, abs_uv = 0;
  void add(double du, double dv) {
    m += 1;
    u += du;
    v += dv;
    uu += du * du;
    uv += du * dv;
    vv += dv * dv;
    abs_u += std::abs(du);
    abs_v += std::abs(dv);
    abs_uv += std::abs(du * dv);
  }
};

/// What the screen knows about one segment: `sse_lo` bounds from below
/// the exact least-squares SSE of the shifted segment, and `w` bounds the
/// l2 norm of the difference between the residuals fit_split computes in
/// floating point and the exact residuals of the same line on the
/// unshifted data. sse_lo = -inf when the segment's x spread cannot be
/// bounded away from zero (fit_split may then find it degenerate).
struct SegmentBound {
  double sse_lo = -kInf;
  double w = kInf;
};

/// Bounds one segment from its running sums. `g` = gamma_{n+16} for the
/// whole series: the n covers the recursive sums of at most n terms, the
/// 16 the handful of roundings in each bound below, so every bound still
/// holds after its own rounding. `x_max`/`y_max` are max |x| and max |y|.
///
/// Derivation (sums over the segment's m points; C are centred sums,
/// hatted = as computed here, unhatted = exact):
///  * A recursive sum of m terms errs by at most g·sum|terms| (the
///    abs_* sums bound those), so C^uu = suu - su²/m and its kin err by
///    the E terms below: the input errors plus three roundings.
///  * The exact least-squares SSE is Q(a*), Q(a) = Cvv - 2a·Cuv + a²·Cuu,
///    and |a*| <= A, so SSE >= min_a Q^(a) - (Evv + 2A·Euv + A²·Euu),
///    where min_a Q^(a) = C^vv - C^uv²/C^uu up to three roundings.
///  * A = sqrt(Cyy / Cxx) (Cauchy-Schwarz) also bounds the slope
///    fit_linear computes on the unshifted segment: the shift moves each
///    coordinate by at most u·|u_i| <= 2u·x_max, which costs the spreads
///    at most 2u·suu and 3u·svv, and fit_linear's mean errs by at most
///    g·y_max; its own roundings are the (1 + 4g).
///  * fit_split's residual r~ = fl(y - fl(a·x + b)) differs from the
///    exact residual of its line by at most 2u|r~| + u(1+g)(3|a|·x_max +
///    y_max), with or without a fused multiply-add; undoing the shift
///    moves a residual by at most 2u(1+g)(2|a|·x_max + 2y_max). Summed in
///    l2 over the segment, those give w.
SegmentBound bound_segment(const Sums& s, double g, double x_max,
                           double y_max) {
  const double m = s.m;
  const double inv_m = 1 / m;
  const double tiny = m * kTiny;
  const double e_u = 2 * g * s.abs_u + tiny;
  const double e_v = 2 * g * s.abs_v + tiny;
  const double e_uv = 2 * g * s.abs_uv + tiny;
  const double e_uu = 2 * g * s.uu + tiny;
  const double e_vv = 2 * g * s.vv + tiny;

  const double c_uu = s.uu - s.u * s.u * inv_m;
  const double c_uv = s.uv - s.u * s.v * inv_m;
  const double c_vv = s.vv - s.v * s.v * inv_m;
  const double E_uu =
      (1 + g) * (e_uu + e_u * (2 * std::abs(s.u) + e_u) * inv_m +
                 g * (s.uu + s.u * s.u * inv_m)) + tiny;
  const double E_vv =
      (1 + g) * (e_vv + e_v * (2 * std::abs(s.v) + e_v) * inv_m +
                 g * (s.vv + s.v * s.v * inv_m)) + tiny;
  const double E_uv =
      (1 + g) * (e_uv + (e_u * (std::abs(s.v) + e_v) + e_v * std::abs(s.u)) * inv_m +
                 g * (std::abs(s.uv) + std::abs(s.u * s.v) * inv_m)) + tiny;

  SegmentBound b;
  // A lower bound on the x spread of both the shifted and the unshifted
  // segment, and an upper bound on the y spread.
  const double cxx_lo = (1 - g) * (c_uu - E_uu) - 2 * g * s.uu;
  if (!(cxx_lo > 0)) return b;
  const double cyy_hi = (1 + g) * (std::max(0.0, c_vv + E_vv) + 3 * g * s.vv) +
                        m * (g * y_max) * (g * y_max);
  const double slope = (1 + 4 * g) * std::sqrt(cyy_hi / cxx_lo);
  // Divided before multiplying: c_uv² can underflow where c_uv / c_uu
  // cannot, and a division would magnify that absolute error.
  const double t = c_uv * (c_uv / c_uu);
  b.sse_lo = c_vv - t -
             (1 + g) * (E_vv + 2 * slope * E_uv + slope * slope * E_uu +
                        g * (std::abs(c_vv) + t));
  b.w = (1 + g) * kUnit * std::sqrt(m) * (7 * slope * x_max + 5 * y_max) +
        4 * std::sqrt(m) * kTiny;
  return b;
}

}  // namespace

std::vector<double> split_sse_lower_bounds(const Series& s,
                                           std::size_t min_seg) {
  const std::size_t n = s.size();
  std::vector<double> lower(n + 1, kInf);
  if (n < 2 * min_seg) return lower;
  double cx = 0, cy = 0, x_max = 0, y_max = 0;
  for (const auto& p : s) {
    cx += p.x;
    cy += p.y;
    x_max = std::max(x_max, std::abs(p.x));
    y_max = std::max(y_max, std::abs(p.y));
  }
  cx /= static_cast<double>(n);
  cy /= static_cast<double>(n);
  const double g = gamma(static_cast<double>(n) + 16);

  // right[k] bounds points [k, n), summed from the end so each sum is
  // recursive; the left side [0, k) is bounded in the combining pass.
  std::vector<SegmentBound> right(n + 1);
  Sums sums;
  for (std::size_t k = n; k-- > min_seg;) {
    sums.add(s[k].x - cx, s[k].y - cy);
    right[k] = bound_segment(sums, g, x_max, y_max);
  }
  sums = Sums{};
  for (std::size_t split = 1; split + min_seg <= n; ++split) {
    sums.add(s[split - 1].x - cx, s[split - 1].y - cy);
    if (split < min_seg) continue;
    const SegmentBound l = bound_segment(sums, g, x_max, y_max);
    const SegmentBound& r = right[split];
    // fit_split's total is a recursive sum of n rounded squares of its
    // residuals r~, so total >= (1 - g)·||r~||² - n·tiny, and
    // ||r~|| >= sqrt(sse_l + sse_r) - w_l - w_r (triangle inequality;
    // the line fit_split uses is no better than the least-squares one).
    const double root = std::sqrt(std::max(0.0, l.sse_lo) +
                                  std::max(0.0, r.sse_lo)) - l.w - r.w;
    double lo = (1 - g) * std::max(0.0, root) * std::max(0.0, root) -
                static_cast<double>(n) * kTiny;
    if (!(l.sse_lo > -kInf && r.sse_lo > -kInf) || !std::isfinite(lo)) {
      lo = -kInf;
    }
    lower[split] = lo;
  }
  return lower;
}

SegmentedFit fit_segmented(const Series& s, std::size_t min_seg) {
  if (min_seg < 2) min_seg = 2;
  if (s.size() < 2 * min_seg) {
    throw std::invalid_argument("fit_segmented: too few points");
  }
  const auto xs = s.xs();
  const auto ys = s.ys();
  const std::vector<double> lower = split_sse_lower_bounds(s, min_seg);

  // Score the most promising split exactly; its total caps the minimum,
  // so only splits whose lower bound reaches it can win. When it is
  // degenerate or not finite, every split stays a candidate.
  std::size_t probe = min_seg;
  for (std::size_t k = min_seg; k + min_seg <= s.size(); ++k) {
    if (lower[probe] == -kInf || (lower[k] != -kInf && lower[k] < lower[probe])) {
      probe = k;
    }
  }
  const std::optional<SegmentedFit> probed = fit_split(xs, ys, probe);
  const double cap =
      probed && std::isfinite(probed->sse) ? probed->sse : kInf;

  // Re-score every candidate in index order and keep the first minimum,
  // exactly as a scan of every split would.
  SegmentedFit best;
  best.sse = kInf;
  for (std::size_t split = min_seg; split + min_seg <= s.size(); ++split) {
    if (lower[split] > cap) continue;
    const std::optional<SegmentedFit> f =
        split == probe ? probed : fit_split(xs, ys, split);
    if (f && f->sse < best.sse) best = *f;
  }
  if (!std::isfinite(best.sse)) {
    throw std::invalid_argument("fit_segmented: no valid split found");
  }
  return best;
}

}  // namespace ipso::stats
