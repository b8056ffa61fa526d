#ifndef LBSQ_GEOMETRY_CONVEX_POLYGON_H_
#define LBSQ_GEOMETRY_CONVEX_POLYGON_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geometry/halfplane.h"
#include "geometry/point.h"
#include "geometry/rect.h"

// Convex polygons with counterclockwise vertex order. The on-the-fly
// Voronoi-cell construction of Section 3 maintains such a polygon
// (initially the data universe) and repeatedly clips it with bisector
// half-planes; each clip removes the vertices that fall outside and
// introduces up to two new ones.

namespace lbsq::geo {

class ConvexPolygon {
 public:
  ConvexPolygon() = default;

  // Builds a polygon from CCW-ordered vertices. Collinear or duplicate
  // vertices are tolerated but not removed; callers that need canonical
  // form should construct via clipping from a rectangle.
  explicit ConvexPolygon(std::vector<Point> vertices)
      : vertices_(std::move(vertices)) {}

  static ConvexPolygon FromRect(const Rect& r);

  bool IsEmpty() const { return vertices_.size() < 3; }
  const std::vector<Point>& vertices() const { return vertices_; }
  size_t num_vertices() const { return vertices_.size(); }

  // Shoelace area (vertices are CCW, so the value is non-negative for
  // well-formed polygons).
  double Area() const;

  // Closed point-in-convex-polygon test, tolerant to points exactly on an
  // edge: it accepts points at most 1e-12 * (1 + |a.x| + |a.y|) outside
  // the edge from vertex a. O(n) half-plane evaluation, which is what a
  // thin mobile client would run; n is ~6 on average for Voronoi cells.
  bool Contains(const Point& p) const;

  // Intersects the polygon with the half-plane, returning the clipped
  // polygon (possibly empty). Single-plane Sutherland-Hodgman.
  ConvexPolygon ClipHalfPlane(const HalfPlane& h) const;

  // The same clip (identical vertices), also carrying per-edge labels:
  // (*edge_labels)[i] labels the edge from vertex i to vertex i + 1
  // (cyclically), on entry for this polygon and on return for the
  // clipped one. Surviving pieces of old edges keep their labels; the
  // edge the half-plane's boundary contributes gets `label`.
  ConvexPolygon ClipHalfPlane(const HalfPlane& h,
                              std::vector<uint32_t>* edge_labels,
                              uint32_t label) const;

  // ClipHalfPlane(h) in place, for a run of clips: the same vertices,
  // built in `scratch`, which then takes the old vertex buffer. A caller
  // that keeps `scratch` across the run allocates nothing once both
  // buffers have grown.
  void ClipInPlace(const HalfPlane& h, std::vector<Point>* scratch);

  // True when the half-plane boundary actually cuts the polygon, i.e.
  // clipping with `h` would remove at least one vertex. `eps` is a
  // *relative* tolerance (scaled by the normal and vertex magnitudes) so
  // grazing contact is ignored at any coordinate scale.
  bool IsCutBy(const HalfPlane& h, double eps = 1e-9) const;

  // Axis-aligned bounding box of the polygon; Rect::Empty() if empty.
  Rect BoundingBox() const;

  // Canonical form: near-duplicate vertices merged and collinear
  // vertices removed, both at relative tolerance `eps`. Repeated
  // clipping leaves such degeneracies behind; edge counts (Figure 24)
  // are only meaningful on the simplified polygon.
  ConvexPolygon Simplified(double eps = 1e-9) const;

  // The absolute tolerance Simplified(eps) works at: `eps` times the
  // larger side of the bounding box. Two vertices closer than this on
  // both axes are one vertex of the simplified polygon.
  double Tolerance(double eps = 1e-9) const;

 private:
  std::vector<Point> vertices_;
};

}  // namespace lbsq::geo

#endif  // LBSQ_GEOMETRY_CONVEX_POLYGON_H_
