#include "geometry/disk_region.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "geometry/halfplane.h"

namespace lbsq::geo {

namespace {

// Largest distance from `p` to a vertex of `poly`: the radius around p
// that holds the whole convex polygon.
double Reach(const ConvexPolygon& poly, const Point& p) {
  double reach_sq = 0.0;
  for (const Point& v : poly.vertices()) {
    reach_sq = std::max(reach_sq, SquaredDistance(v, p));
  }
  return std::sqrt(reach_sq);
}

}  // namespace

bool DiskRegion::Contains(const Point& p) const {
  if (!bounds_.Contains(p)) return false;
  for (const Disk& d : inner_) {
    if (SquaredDistance(p, d.center) > d.radius * d.radius) return false;
  }
  for (const Disk& d : outer_) {
    if (SquaredDistance(p, d.center) <= d.radius * d.radius) return false;
  }
  return true;
}

Rect RangeCandidateWindow(const Rect& area, double radius) {
  const double scale = std::max({std::abs(area.min_x), std::abs(area.min_y),
                                 std::abs(area.max_x), std::abs(area.max_y)});
  const double reach = radius + 1e-12 * (1.0 + scale + radius);
  return area.Dilated(reach, reach);
}

double DiskRegion::Area(size_t resolution) const {
  LBSQ_CHECK(resolution > 0);
  if (bounds_.IsEmpty()) return 0.0;
  // Tighten the integration box with the inner disks' bounding boxes.
  Rect box = bounds_;
  for (const Disk& d : inner_) {
    box = box.Intersection(Rect::Centered(d.center, d.radius, d.radius));
    if (box.IsEmpty()) return 0.0;
  }
  const double dx = box.width() / static_cast<double>(resolution);
  const double dy = box.height() / static_cast<double>(resolution);
  size_t hits = 0;
  for (size_t j = 0; j < resolution; ++j) {
    const double y = box.min_y + (static_cast<double>(j) + 0.5) * dy;
    for (size_t i = 0; i < resolution; ++i) {
      const double x = box.min_x + (static_cast<double>(i) + 0.5) * dx;
      if (Contains({x, y})) ++hits;
    }
  }
  return static_cast<double>(hits) * dx * dy;
}

ConvexPolygon DiskRegion::ConservativePolygon(
    const Point& focus, size_t arc_vertices, std::vector<size_t>* cut_inner,
    std::vector<size_t>* cut_outer) const {
  LBSQ_CHECK(Contains(focus));
  LBSQ_CHECK(arc_vertices >= 4);
  if (cut_inner != nullptr) cut_inner->clear();
  if (cut_outer != nullptr) cut_outer->clear();

  // Every constraint is pulled in by `margin`, a distance at the
  // coordinates' scale, so the polygon lies strictly inside the region.
  // Without it the inscribed polygons' vertices sit on the circles and
  // the tangents on the outer disks, where a point that rounding puts a
  // hair outside the region would still pass ConvexPolygon::Contains.
  const double margin =
      1e-9 * (1.0 + std::abs(focus.x) + std::abs(focus.y));
  const Rect inset = bounds_.Dilated(-margin, -margin);
  if (inset.IsEmpty()) return ConvexPolygon();
  ConvexPolygon poly = ConvexPolygon::FromRect(inset);

  // Inner disks: intersect with the inscribed regular polygon, expressed
  // as its edge half-planes (chords of the circle). The polygon is
  // rotated so one vertex points from the center toward the focus, which
  // keeps the focus strictly interior whenever it is not on the circle.
  // Disks are processed tightest-first (least slack around the focus) so
  // that redundant generous disks do not register as influence objects.
  std::vector<double> slack(inner_.size());
  std::vector<size_t> inner_order(inner_.size());
  for (size_t i = 0; i < inner_.size(); ++i) {
    slack[i] = inner_[i].radius - Distance(focus, inner_[i].center);
    inner_order[i] = i;
  }
  std::sort(inner_order.begin(), inner_order.end(),
            [&slack](size_t a, size_t b) { return slack[a] < slack[b]; });
  const double apothem_factor =
      std::cos(M_PI / static_cast<double>(arc_vertices));
  // Stop radius: the rotation puts every edge normal at least pi/n away
  // from the direction of the focus, so each chord of a disk with slack
  // s lies at least cos(pi/n) * s - margin from the focus. Once that
  // exceeds the polygon's reach, no chord of this disk or of any looser
  // one can cut. The relative gap of 1e-6 covers the rounding of the
  // chords and of the reach.
  double reach = Reach(poly, focus);
  for (const size_t i : inner_order) {
    if (apothem_factor * slack[i] - margin > reach * (1.0 + 1e-6)) break;
    const Disk& d = inner_[i];
    const Vec2 to_focus = focus - d.center;
    const double base = to_focus.SquaredNorm() > 0.0
                            ? std::atan2(to_focus.dy, to_focus.dx)
                            : 0.0;
    bool cut = false;
    const double apothem = d.radius * apothem_factor - margin;
    for (size_t e = 0; e < arc_vertices; ++e) {
      // Edge midpoint direction (apothem direction of each chord).
      const double angle = base + (2.0 * M_PI) *
                                      (static_cast<double>(e) + 0.5) /
                                      static_cast<double>(arc_vertices);
      const Vec2 n{std::cos(angle), std::sin(angle)};
      // Half-plane n . (x - center) <= apothem.
      const HalfPlane h(n, n.dx * d.center.x + n.dy * d.center.y + apothem);
      if (poly.IsCutBy(h)) {
        poly = poly.ClipHalfPlane(h);
        cut = true;
        if (poly.IsEmpty()) break;
      }
    }
    if (cut && cut_inner != nullptr) cut_inner->push_back(i);
    if (poly.IsEmpty()) return poly;
    if (cut) reach = Reach(poly, focus);
  }

  // Outer disks: one tangent half-plane facing the focus. The focus is
  // outside the disk, so the tangent plane through the near side keeps
  // it.
  for (size_t i = 0; i < outer_.size(); ++i) {
    const Disk& d = outer_[i];
    const Vec2 away = focus - d.center;
    const double dist = away.Norm();
    if (dist == 0.0) continue;  // focus on the center: degenerate, skip
    const Vec2 u = away * (1.0 / dist);
    // Keep the side { x : u . (x - center) >= radius + margin }.
    const HalfPlane h(-u, -(u.dx * d.center.x + u.dy * d.center.y +
                            d.radius + margin));
    if (poly.IsCutBy(h)) {
      poly = poly.ClipHalfPlane(h);
      if (cut_outer != nullptr) cut_outer->push_back(i);
      if (poly.IsEmpty()) return poly;
    }
  }
  return poly;
}

}  // namespace lbsq::geo
