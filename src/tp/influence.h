#ifndef LBSQ_TP_INFLUENCE_H_
#define LBSQ_TP_INFLUENCE_H_

#include <limits>

#include "geometry/point.h"
#include "geometry/rect.h"

// Influence-time kernels for time-parameterized queries [TP02]. The query
// point moves as q(t) = q + t * l with |l| = 1 and unit speed, so times
// and traveled distances coincide; "influence time" of an object is the
// first t >= 0 at which it would change the current result (Section 2 of
// the paper).

namespace lbsq::tp {

inline constexpr double kNever = std::numeric_limits<double>::infinity();

// First time t >= 0 at which `p` becomes at least as close to the moving
// query as the current nearest neighbor `o`; kNever if that never
// happens. Derived from |q(t)-p|^2 = |q(t)-o|^2, which is linear in t:
//   t = (|q-p|^2 - |q-o|^2) / (2 l.(p-o)).
// `p` influences only when moving toward its half-plane, i.e. l.(p-o)>0.
double PointInfluenceTime(const geo::Point& q, const geo::Vec2& l,
                          const geo::Point& o, const geo::Point& p);

// Admissible lower bound on PointInfluenceTime(q, l, o, p) over every
// possible p inside rectangle `e`: the smallest t >= 0 with
// mindist(q(t), e) <= dist(q(t), o). Solved exactly as piecewise
// quadratics between the slab-crossing breakpoints of q(t) against e.
// Never overestimates, so best-first search on it is correct.
double NodeInfluenceLowerBound(const geo::Point& q, const geo::Vec2& l,
                               const geo::Point& o, const geo::Rect& e);

}  // namespace lbsq::tp

#endif  // LBSQ_TP_INFLUENCE_H_
