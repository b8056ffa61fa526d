#include "geometry/convex_polygon.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace lbsq::geo {

ConvexPolygon ConvexPolygon::FromRect(const Rect& r) {
  LBSQ_CHECK(!r.IsEmpty());
  return ConvexPolygon({{r.min_x, r.min_y},
                        {r.max_x, r.min_y},
                        {r.max_x, r.max_y},
                        {r.min_x, r.max_y}});
}

double ConvexPolygon::Area() const {
  if (IsEmpty()) return 0.0;
  double twice_area = 0.0;
  for (size_t i = 0; i < vertices_.size(); ++i) {
    const Point& a = vertices_[i];
    const Point& b = vertices_[(i + 1) % vertices_.size()];
    twice_area += a.x * b.y - b.x * a.y;
  }
  return 0.5 * twice_area;
}

bool ConvexPolygon::Contains(const Point& p) const {
  if (IsEmpty()) return false;
  // For CCW polygons, p is inside iff it is on the left of (or on) every
  // directed edge. cross is |edge| times p's signed distance from the
  // edge's line, so the tolerance is a distance of 1e-12 at the
  // coordinates' scale, times |edge|: points exactly on an edge are not
  // rejected by rounding noise, and no point farther out is accepted,
  // however short the edge.
  for (size_t i = 0; i < vertices_.size(); ++i) {
    const Point& a = vertices_[i];
    const Point& b = vertices_[(i + 1) % vertices_.size()];
    const Vec2 edge = b - a;
    const double cross = edge.Cross(p - a);
    const double scale = 1.0 + std::abs(a.x) + std::abs(a.y);
    if (cross < -1e-12 * scale * edge.Norm()) return false;
  }
  return true;
}

namespace {

// Single-plane Sutherland-Hodgman over CCW `in`, written to `*out`
// (cleared first). With kLabelled, also carries the per-edge labels (see
// the labelled ClipHalfPlane overload): each emitted vertex is followed
// by the label of the edge leaving it — the old edge while the boundary
// runs along it, `label` from the vertex where the polygon exits the
// half-plane. Without it the labels are never touched, so the plain clip
// pays nothing for them.
template <bool kLabelled>
void Clip(const std::vector<Point>& in, const HalfPlane& h,
          const std::vector<uint32_t>* labels, uint32_t label,
          std::vector<Point>* out, std::vector<uint32_t>* out_labels) {
  out->clear();
  out->reserve(in.size() + 1);
  if constexpr (kLabelled) {
    out_labels->clear();
    out_labels->reserve(in.size() + 1);
  }
  const size_t n = in.size();
  for (size_t i = 0; i < n; ++i) {
    const Point& cur = in[i];
    const Point& nxt = in[(i + 1) % n];
    const double d_cur = h.Evaluate(cur);
    const double d_nxt = h.Evaluate(nxt);
    if (d_cur <= 0.0) {
      out->push_back(cur);
      if constexpr (kLabelled) {
        out_labels->push_back(d_cur == 0.0 && d_nxt > 0.0 ? label
                                                          : (*labels)[i]);
      }
    }
    // Edge crosses the boundary: emit the intersection point. Crossing is
    // strict on both sides so that vertices exactly on the boundary are
    // emitted once (by the d_cur <= 0 branch) and not duplicated.
    if ((d_cur < 0.0 && d_nxt > 0.0) || (d_cur > 0.0 && d_nxt < 0.0)) {
      const double t = d_cur / (d_cur - d_nxt);
      out->push_back(
          {cur.x + t * (nxt.x - cur.x), cur.y + t * (nxt.y - cur.y)});
      if constexpr (kLabelled) {
        out_labels->push_back(d_cur < 0.0 ? label : (*labels)[i]);
      }
    }
  }
}

}  // namespace

ConvexPolygon ConvexPolygon::ClipHalfPlane(const HalfPlane& h) const {
  if (IsEmpty()) return ConvexPolygon();
  std::vector<Point> out;
  Clip<false>(vertices_, h, nullptr, 0, &out, nullptr);
  if (out.size() < 3) return ConvexPolygon();
  return ConvexPolygon(std::move(out));
}

ConvexPolygon ConvexPolygon::ClipHalfPlane(const HalfPlane& h,
                                           std::vector<uint32_t>* edge_labels,
                                           uint32_t label) const {
  if (IsEmpty()) return ConvexPolygon();
  LBSQ_DCHECK(edge_labels->size() == vertices_.size());
  std::vector<Point> out;
  std::vector<uint32_t> out_labels;
  Clip<true>(vertices_, h, edge_labels, label, &out, &out_labels);
  if (out.size() < 3) return ConvexPolygon();
  *edge_labels = std::move(out_labels);
  return ConvexPolygon(std::move(out));
}

void ConvexPolygon::ClipInPlace(const HalfPlane& h,
                                std::vector<Point>* scratch) {
  if (IsEmpty()) return;
  Clip<false>(vertices_, h, nullptr, 0, scratch, nullptr);
  if (scratch->size() < 3) scratch->clear();
  vertices_.swap(*scratch);
}

bool ConvexPolygon::IsCutBy(const HalfPlane& h, double eps) const {
  // The violation is compared at the scale of the evaluation's own
  // rounding noise, |normal| * |vertex|, so the test behaves identically
  // for unit-square data and kilometer-scale coordinates.
  const double n = h.normal.Norm();
  for (const Point& v : vertices_) {
    const double scale = n * (1.0 + std::abs(v.x) + std::abs(v.y));
    if (h.Evaluate(v) > eps * scale) return true;
  }
  return false;
}

ConvexPolygon ConvexPolygon::Simplified(double eps) const {
  if (IsEmpty()) return ConvexPolygon();
  const double tol = Tolerance(eps);

  // Drop vertices that coincide with their predecessor.
  std::vector<Point> distinct;
  distinct.reserve(vertices_.size());
  for (const Point& v : vertices_) {
    if (distinct.empty() ||
        std::abs(v.x - distinct.back().x) > tol ||
        std::abs(v.y - distinct.back().y) > tol) {
      distinct.push_back(v);
    }
  }
  while (distinct.size() > 1 &&
         std::abs(distinct.front().x - distinct.back().x) <= tol &&
         std::abs(distinct.front().y - distinct.back().y) <= tol) {
    distinct.pop_back();
  }
  if (distinct.size() < 3) return ConvexPolygon();

  // Drop vertices collinear with their neighbors.
  std::vector<Point> out;
  out.reserve(distinct.size());
  const size_t n = distinct.size();
  for (size_t i = 0; i < n; ++i) {
    const Point& prev = distinct[(i + n - 1) % n];
    const Point& cur = distinct[i];
    const Point& next = distinct[(i + 1) % n];
    const Vec2 e1 = cur - prev;
    const Vec2 e2 = next - cur;
    // Relative area of the triangle formed by the three vertices.
    if (std::abs(e1.Cross(e2)) > tol * (e1.Norm() + e2.Norm())) {
      out.push_back(cur);
    }
  }
  if (out.size() < 3) return ConvexPolygon();
  return ConvexPolygon(std::move(out));
}

double ConvexPolygon::Tolerance(double eps) const {
  // Scale-aware tolerance from the polygon's extent.
  const Rect box = BoundingBox();
  return eps * std::max({box.width(), box.height(), 1e-300});
}

Rect ConvexPolygon::BoundingBox() const {
  Rect box = Rect::Empty();
  for (const Point& v : vertices_) box = box.ExpandedToInclude(v);
  return box;
}

}  // namespace lbsq::geo
