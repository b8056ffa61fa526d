// Edge-case and metamorphic property tests for the geometry kernels —
// degenerate polygons, boundary-grazing clips, distance-function
// relations — parameterized over random seeds.

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "geometry/convex_polygon.h"
#include "geometry/halfplane.h"
#include "geometry/point.h"
#include "geometry/rect.h"

namespace lbsq::geo {
namespace {

TEST(ConvexPolygonEdgeTest, ClipExactlyThroughVertexKeepsPolygonClosed) {
  const ConvexPolygon square = ConvexPolygon::FromRect(Rect(0, 0, 1, 1));
  // Boundary passes exactly through (0,1) and (1,0).
  const HalfPlane h(Vec2{1.0, 1.0}, 1.0);
  const ConvexPolygon clipped = square.ClipHalfPlane(h);
  ASSERT_FALSE(clipped.IsEmpty());
  EXPECT_NEAR(clipped.Area(), 0.5, 1e-12);
  // Both touched vertices survive exactly once each.
  int at_01 = 0, at_10 = 0;
  for (const Point& v : clipped.vertices()) {
    if (v == Point{0.0, 1.0}) ++at_01;
    if (v == Point{1.0, 0.0}) ++at_10;
  }
  EXPECT_EQ(at_01, 1);
  EXPECT_EQ(at_10, 1);
}

// The labelled clip: identical vertices to the plain clip, surviving
// pieces of edges keep their labels, the new edge gets the new label —
// also when the boundary passes exactly through vertices.
TEST(ConvexPolygonEdgeTest, LabelledClipTracksWhichPlaneMadeEachEdge) {
  const ConvexPolygon square = ConvexPolygon::FromRect(Rect(0, 0, 1, 1));
  // Edges of FromRect: 0 bottom, 1 right, 2 top, 3 left.
  std::vector<uint32_t> labels = {0, 1, 2, 3};
  const HalfPlane cut_corner(Vec2{1.0, 1.0}, 1.5);  // x + y <= 1.5
  ConvexPolygon poly = square.ClipHalfPlane(cut_corner, &labels, 7);
  EXPECT_EQ(poly.vertices(), square.ClipHalfPlane(cut_corner).vertices());
  ASSERT_EQ(poly.num_vertices(), 5u);
  EXPECT_EQ(labels, (std::vector<uint32_t>{0, 1, 7, 2, 3}));

  // Through two vertices exactly: the diagonal x + y <= 1.
  labels = {0, 1, 2, 3};
  const HalfPlane diagonal(Vec2{1.0, 1.0}, 1.0);
  poly = square.ClipHalfPlane(diagonal, &labels, 9);
  EXPECT_EQ(poly.vertices(), square.ClipHalfPlane(diagonal).vertices());
  ASSERT_EQ(poly.num_vertices(), 3u);
  EXPECT_EQ(labels, (std::vector<uint32_t>{0, 9, 3}));

  // A plane that misses leaves vertices and labels alone.
  labels = {0, 1, 2, 3};
  poly = square.ClipHalfPlane(HalfPlane(Vec2{1.0, 0.0}, 2.0), &labels, 5);
  EXPECT_EQ(poly.vertices(), square.vertices());
  EXPECT_EQ(labels, (std::vector<uint32_t>{0, 1, 2, 3}));
}

TEST(ConvexPolygonEdgeTest, ClipLeavingSliverStillConvexAndPositive) {
  ConvexPolygon poly = ConvexPolygon::FromRect(Rect(0, 0, 1, 1));
  poly = poly.ClipHalfPlane(HalfPlane(Vec2{1.0, 0.0}, 1e-12));  // x <= 1e-12
  if (!poly.IsEmpty()) {
    EXPECT_GE(poly.Area(), 0.0);
    EXPECT_LE(poly.Area(), 1e-11);
  }
}

TEST(ConvexPolygonEdgeTest, EmptyPolygonBehaviors) {
  const ConvexPolygon empty;
  EXPECT_TRUE(empty.IsEmpty());
  EXPECT_DOUBLE_EQ(empty.Area(), 0.0);
  EXPECT_FALSE(empty.Contains({0.0, 0.0}));
  EXPECT_TRUE(empty.ClipHalfPlane(HalfPlane(Vec2{1, 0}, 0.0)).IsEmpty());
  EXPECT_FALSE(empty.IsCutBy(HalfPlane(Vec2{1, 0}, 0.0)));
  EXPECT_TRUE(empty.BoundingBox().IsEmpty());
}

TEST(ConvexPolygonEdgeTest, RepeatedClipsByTheSamePlaneAreIdempotent) {
  Rng rng(11);
  for (int trial = 0; trial < 100; ++trial) {
    ConvexPolygon poly = ConvexPolygon::FromRect(Rect(0, 0, 1, 1));
    const Point a{rng.NextDouble(), rng.NextDouble()};
    const Point b{rng.NextDouble(), rng.NextDouble()};
    if (a == b) continue;
    const HalfPlane h = BisectorTowards(a, b);
    const ConvexPolygon once = poly.ClipHalfPlane(h);
    const ConvexPolygon twice = once.ClipHalfPlane(h);
    EXPECT_NEAR(once.Area(), twice.Area(), 1e-12);
    EXPECT_FALSE(once.IsCutBy(h));
  }
}

TEST(ConvexPolygonEdgeTest, ClipOrderDoesNotChangeTheRegion) {
  // Intersections of half-planes are order-independent; verify by area.
  Rng rng(13);
  for (int trial = 0; trial < 50; ++trial) {
    const Point inside{rng.Uniform(0.3, 0.7), rng.Uniform(0.3, 0.7)};
    std::vector<HalfPlane> planes;
    for (int i = 0; i < 8; ++i) {
      const Point other{rng.Uniform(-0.5, 1.5), rng.Uniform(-0.5, 1.5)};
      if (other == inside) continue;
      planes.push_back(BisectorTowards(inside, other));
    }
    ConvexPolygon forward = ConvexPolygon::FromRect(Rect(0, 0, 1, 1));
    for (const HalfPlane& h : planes) forward = forward.ClipHalfPlane(h);
    ConvexPolygon backward = ConvexPolygon::FromRect(Rect(0, 0, 1, 1));
    for (auto it = planes.rbegin(); it != planes.rend(); ++it) {
      backward = backward.ClipHalfPlane(*it);
    }
    EXPECT_NEAR(forward.Area(), backward.Area(), 1e-12);
  }
}

TEST(ConvexPolygonEdgeTest, SimplifiedRemovesDuplicateAndCollinear) {
  // Square with a duplicated corner and a midpoint on an edge.
  const ConvexPolygon messy({{0.0, 0.0},
                             {0.5, 0.0},   // collinear midpoint
                             {1.0, 0.0},
                             {1.0, 0.0},   // duplicate
                             {1.0, 1.0},
                             {0.0, 1.0}});
  const ConvexPolygon clean = messy.Simplified();
  EXPECT_EQ(clean.num_vertices(), 4u);
  EXPECT_NEAR(clean.Area(), messy.Area(), 1e-12);
  EXPECT_TRUE(clean.Contains({0.5, 0.5}));
}

TEST(ConvexPolygonEdgeTest, SimplifiedIsStableUnderRandomClips) {
  Rng rng(19);
  for (int trial = 0; trial < 50; ++trial) {
    ConvexPolygon poly = ConvexPolygon::FromRect(Rect(0, 0, 1, 1));
    const Point inside{rng.Uniform(0.4, 0.6), rng.Uniform(0.4, 0.6)};
    for (int i = 0; i < 20; ++i) {
      const Point other{rng.NextDouble(), rng.NextDouble()};
      if (other == inside) continue;
      poly = poly.ClipHalfPlane(BisectorTowards(inside, other));
    }
    const ConvexPolygon simple = poly.Simplified();
    ASSERT_FALSE(simple.IsEmpty());
    EXPECT_LE(simple.num_vertices(), poly.num_vertices());
    EXPECT_NEAR(simple.Area(), poly.Area(), 1e-9 * (poly.Area() + 1e-12));
    EXPECT_TRUE(simple.Contains(inside));
    // Idempotent.
    EXPECT_EQ(simple.Simplified().num_vertices(), simple.num_vertices());
  }
}

TEST(RectEdgeTest, DistanceRelations) {
  Rng rng(17);
  for (int trial = 0; trial < 500; ++trial) {
    const double x0 = rng.Uniform(-1, 1);
    const double y0 = rng.Uniform(-1, 1);
    const Rect r(x0, y0, x0 + rng.Uniform(0.01, 1.0),
                 y0 + rng.Uniform(0.01, 1.0));
    const Point p{rng.Uniform(-2, 2), rng.Uniform(-2, 2)};
    // MinDist <= distance to any contained point <= MaxDist.
    const Point inside{rng.Uniform(r.min_x, r.max_x),
                       rng.Uniform(r.min_y, r.max_y)};
    EXPECT_LE(MinDist(p, r), Distance(p, inside) + 1e-12);
    EXPECT_GE(MaxDist(p, r) + 1e-12, Distance(p, inside));
    // Consistency of squared variant.
    EXPECT_NEAR(SquaredMinDist(p, r), MinDist(p, r) * MinDist(p, r), 1e-12);
    // Containment iff MinDist == 0.
    EXPECT_EQ(r.Contains(p), MinDist(p, r) == 0.0);
  }
}

TEST(RectEdgeTest, DegenerateRectsBehave) {
  const Rect point_rect = Rect::FromPoint({0.5, 0.5});
  EXPECT_FALSE(point_rect.IsEmpty());
  EXPECT_DOUBLE_EQ(point_rect.Area(), 0.0);
  EXPECT_TRUE(point_rect.Contains(Point{0.5, 0.5}));
  EXPECT_FALSE(point_rect.ContainsInterior(Point{0.5, 0.5}));
  EXPECT_TRUE(point_rect.Intersects(Rect(0, 0, 1, 1)));

  const Rect line(0.0, 0.25, 0.0, 0.75);  // zero width
  EXPECT_FALSE(line.IsEmpty());
  EXPECT_DOUBLE_EQ(line.Area(), 0.0);
  EXPECT_DOUBLE_EQ(line.Margin(), 0.5);
}

TEST(HalfPlaneEdgeTest, BisectorOfSymmetricPointsIsAxis) {
  const HalfPlane h = BisectorTowards({-1.0, 0.0}, {1.0, 0.0});
  // Boundary is the y-axis; evaluate at points on it.
  for (double y : {-5.0, 0.0, 3.0}) {
    EXPECT_NEAR(h.Evaluate({0.0, y}), 0.0, 1e-12);
  }
}

TEST(HalfPlaneEdgeTest, EvaluateScalesWithNormal) {
  const HalfPlane h1(Vec2{1.0, 0.0}, 0.5);
  const HalfPlane h2(Vec2{2.0, 0.0}, 1.0);  // same boundary, scaled normal
  const Point p{0.8, 0.3};
  EXPECT_NEAR(h2.Evaluate(p), 2.0 * h1.Evaluate(p), 1e-12);
  EXPECT_EQ(h1.Contains(p), h2.Contains(p));
}

}  // namespace
}  // namespace lbsq::geo
