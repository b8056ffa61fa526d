#include "tp/influence.h"

#include <algorithm>
#include <array>
#include <cmath>

namespace lbsq::tp {

namespace {

// Relative tolerance for degenerate configurations (query exactly on a
// bisector, direction parallel to a bisector, ...).
constexpr double kEps = 1e-12;

// Smallest t in [lo, hi] with a*t^2 + b*t + c <= 0, or kNever. Assumes the
// value at lo is > 0 (callers handle the <=0-at-lo case directly).
double SmallestRootInInterval(double a, double b, double c, double lo,
                              double hi) {
  if (std::abs(a) < kEps) {
    // Linear: b*t + c <= 0.
    if (b >= 0.0) return kNever;  // value only grows (and was > 0 at lo)
    const double root = -c / b;
    return root <= hi ? std::max(root, lo) : kNever;
  }
  const double disc = b * b - 4.0 * a * c;
  if (disc < 0.0) {
    // No real roots: sign is constant (positive, since positive at lo).
    return kNever;
  }
  const double sq = std::sqrt(disc);
  // Numerically stable root pair.
  const double q = -0.5 * (b + (b >= 0.0 ? sq : -sq));
  double r1 = q / a;
  double r2 = (a != 0.0 && q != 0.0) ? c / q : r1;
  if (r1 > r2) std::swap(r1, r2);
  if (a > 0.0) {
    // <= 0 between the roots; first crossing at r1.
    if (r1 >= lo && r1 <= hi) return r1;
    // (If r1 < lo the value at lo would already be <= 0.)
    return kNever;
  }
  // a < 0: <= 0 outside [r1, r2]; positive at lo implies lo in (r1, r2),
  // so the first crossing is r2.
  if (r2 >= lo && r2 <= hi) return r2;
  return kNever;
}

}  // namespace

double PointInfluenceTime(const geo::Point& q, const geo::Vec2& l,
                          const geo::Point& o, const geo::Point& p) {
  const double num = geo::SquaredDistance(q, p) - geo::SquaredDistance(q, o);
  const double den = 2.0 * l.Dot(p - o);
  if (den <= kEps) return kNever;
  const double t = num / den;
  return t < 0.0 ? 0.0 : t;
}

double NodeInfluenceLowerBound(const geo::Point& q, const geo::Vec2& l,
                               const geo::Point& o, const geo::Rect& e) {
  // f(t) = mindist(q(t), e)^2 - dist(q(t), o)^2 is piecewise quadratic in
  // t; its pieces are delimited by the times the moving point crosses the
  // rectangle's x/y slab boundaries. Influence is possible from the first
  // t >= 0 with f(t) <= 0.
  const double qo2 = geo::SquaredDistance(q, o);
  const geo::Vec2 q_minus_o = q - o;

  // Breakpoints (slab crossings) at t > 0: t = 0 plus at most one per
  // rectangle side, so a fixed array holds them (this runs for every
  // child MBR of every TPNN descent).
  std::array<double, 5> cuts;
  cuts[0] = 0.0;
  size_t num_cuts = 1;
  auto add_cut = [&](double bound, double origin, double speed) {
    if (std::abs(speed) < kEps) return;
    const double t = (bound - origin) / speed;
    if (t > 0.0 && std::isfinite(t)) cuts[num_cuts++] = t;
  };
  add_cut(e.min_x, q.x, l.dx);
  add_cut(e.max_x, q.x, l.dx);
  add_cut(e.min_y, q.y, l.dy);
  add_cut(e.max_y, q.y, l.dy);
  // Insertion sort that drops exact duplicates as it goes.
  size_t sorted = 1;
  for (size_t i = 1; i < num_cuts; ++i) {
    const double t = cuts[i];
    size_t j = sorted;
    while (j > 0 && cuts[j - 1] > t) --j;
    if (j > 0 && cuts[j - 1] == t) continue;
    for (size_t m = sorted; m > j; --m) cuts[m] = cuts[m - 1];
    cuts[j] = t;
    ++sorted;
  }
  num_cuts = sorted;

  for (size_t i = 0; i < num_cuts; ++i) {
    const double lo = cuts[i];
    const bool last = i + 1 == num_cuts;
    const double hi = last ? kNever : cuts[i + 1];
    // Classify the clamp pattern at a probe inside the interval.
    const double probe = last ? lo + 1.0 : 0.5 * (lo + hi);
    const double px = q.x + probe * l.dx;
    const double py = q.y + probe * l.dy;

    // Accumulate f(t) = a*t^2 + b*t + c over the three terms.
    double a = -1.0;  // -t^2 from dist(q(t), o)^2
    double b = -2.0 * l.Dot(q_minus_o);
    double c = -qo2;
    if (px < e.min_x) {
      const double d0 = e.min_x - q.x;  // (d0 - l.dx * t)^2
      a += l.dx * l.dx;
      b += -2.0 * d0 * l.dx;
      c += d0 * d0;
    } else if (px > e.max_x) {
      const double d0 = q.x - e.max_x;  // (d0 + l.dx * t)^2
      a += l.dx * l.dx;
      b += 2.0 * d0 * l.dx;
      c += d0 * d0;
    }
    if (py < e.min_y) {
      const double d0 = e.min_y - q.y;
      a += l.dy * l.dy;
      b += -2.0 * d0 * l.dy;
      c += d0 * d0;
    } else if (py > e.max_y) {
      const double d0 = q.y - e.max_y;
      a += l.dy * l.dy;
      b += 2.0 * d0 * l.dy;
      c += d0 * d0;
    }

    const double f_lo = (a * lo + b) * lo + c;
    if (f_lo <= 0.0) return lo;
    const double t = SmallestRootInInterval(a, b, c, lo, hi);
    if (t != kNever) return t;
  }
  return kNever;
}

}  // namespace lbsq::tp
