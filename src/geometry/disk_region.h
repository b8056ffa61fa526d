#ifndef LBSQ_GEOMETRY_DISK_REGION_H_
#define LBSQ_GEOMETRY_DISK_REGION_H_

#include <cstddef>
#include <vector>

#include "geometry/convex_polygon.h"
#include "geometry/point.h"
#include "geometry/rect.h"

// The validity region of a *range* query ("all objects within radius r"),
// the extension the paper's Section 7 sketches: it is bounded by circular
// arcs — the intersection of the disks D(p, r) of the result objects,
// minus the disks of the outer objects that reach it, within a bounding
// rectangle. The range engine cuts that rectangle to the square around
// each result object's disk and keeps an outer disk only if it reaches
// the rectangle, so the region carries just the objects that bound it.
// Exact containment tests are cheap; the area is evaluated numerically;
// a conservative convex polygon (inscribed 16-gons for inner disks,
// tangent half-planes for outer disks) serves thin clients.

namespace lbsq::geo {

class DiskRegion {
 public:
  struct Disk {
    Point center;
    double radius = 0.0;
  };

  DiskRegion() = default;
  DiskRegion(Rect bounds, std::vector<Disk> inner, std::vector<Disk> outer)
      : bounds_(bounds),
        inner_(std::move(inner)),
        outer_(std::move(outer)) {}

  const Rect& bounds() const { return bounds_; }
  const std::vector<Disk>& inner() const { return inner_; }
  const std::vector<Disk>& outer() const { return outer_; }

  // Inside the bounds, inside every inner disk and outside every outer
  // disk, both disks closed: a range answer holds every object within
  // distance r inclusive, so a position at distance exactly r from an
  // outer object has that object in its answer and is not in the region.
  bool Contains(const Point& p) const;

  // Numeric area on a `resolution` x `resolution` midpoint grid over the
  // bounding box (relative error ~ perimeter / resolution).
  double Area(size_t resolution = 256) const;

  // Convex polygon inside the region around `focus`: each inner disk
  // contributes an inscribed regular `arc_vertices`-gon (rotated so the
  // focus stays interior), each outer disk a tangent half-plane facing
  // the focus, and every constraint, the bounds included, is pulled in
  // by a margin of 1e-9 * (1 + |focus.x| + |focus.y|). The polygon
  // therefore lies a margin inside the region, and it contains the
  // focus unless the focus lies within the margin of the region's
  // boundary (it may then be empty). `cut_inner` / `cut_outer`
  // (optional) receive the indices of the disks whose constraint
  // actually trimmed the polygon — the influence objects of the
  // conservative representation. Inner disks are taken tightest first,
  // and the loop stops once the rest can no longer cut. Requires
  // Contains(focus).
  ConvexPolygon ConservativePolygon(const Point& focus,
                                    size_t arc_vertices = 16,
                                    std::vector<size_t>* cut_inner = nullptr,
                                    std::vector<size_t>* cut_outer = nullptr)
      const;

 private:
  Rect bounds_ = Rect::Empty();
  std::vector<Disk> inner_;
  std::vector<Disk> outer_;
};

// The window that holds every object whose closed disk of `radius` can
// reach `area` in floating point: `area` dilated by `radius` plus a pad
// of 1e-12 at the scale of the coordinates and the radius. The distance
// tests round, so an object a few ulps outside `area.Dilated(radius,
// radius)` can still test as within `radius` of a point of `area`; the
// pad is far wider than that rounding. The range engine fetches its
// result (area = the focus) and its outer candidates (area = the
// region's bounds) through this window, and a range entry's kill
// footprint in the semantic cache is the same window over its bounds.
Rect RangeCandidateWindow(const Rect& area, double radius);

}  // namespace lbsq::geo

#endif  // LBSQ_GEOMETRY_DISK_REGION_H_
