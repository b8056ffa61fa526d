// Edge-case tests for the time-parameterized kernels: axis-parallel
// motion, queries starting on bisectors or data points, extreme aspect
// MBRs — the configurations where piecewise-quadratic bookkeeping slips.

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "rtree/knn.h"
#include "tests/test_util.h"
#include "tp/influence.h"
#include "tp/tpnn.h"
#include "workload/datasets.h"

namespace lbsq::tp {
namespace {

using test::SmallNodeOptions;
using test::TreeFixture;
using workload::MakeUnitUniform;

TEST(InfluenceEdgeTest, QueryStartingOnBisectorInfluencesImmediately) {
  // q equidistant from o and p, moving toward p: influence at t = 0.
  const geo::Point q{0.0, 0.0};
  const geo::Point o{-1.0, 0.0};
  const geo::Point p{1.0, 0.0};
  EXPECT_DOUBLE_EQ(PointInfluenceTime(q, {1.0, 0.0}, o, p), 0.0);
  // Moving away from p: never.
  EXPECT_EQ(PointInfluenceTime(q, {-1.0, 0.0}, o, p), kNever);
}

TEST(InfluenceEdgeTest, AxisParallelMotionAgainstThinRects) {
  // Query moving straight up past a zero-height MBR.
  const geo::Point q{0.0, 0.0};
  const geo::Vec2 up{0.0, 1.0};
  const geo::Point o{0.05, 0.0};  // NN very close
  const geo::Rect thin(1.0, 5.0, 2.0, 5.0);
  const double bound = NodeInfluenceLowerBound(q, up, o, thin);
  // The bound must precede the exact influence time of the nearest
  // possible point (1, 5).
  const double exact = PointInfluenceTime(q, up, o, {1.0, 5.0});
  EXPECT_LE(bound, exact + 1e-9);
  EXPECT_GT(bound, 0.0);
}

TEST(InfluenceEdgeTest, NodeBoundZeroWhenRectAlreadyCloserThanNn) {
  // MBR overlapping the query point: bound must be 0 (a point inside the
  // MBR could displace the NN immediately).
  const geo::Point q{0.5, 0.5};
  const geo::Point o{0.6, 0.5};
  const geo::Rect e(0.4, 0.4, 0.55, 0.55);
  EXPECT_DOUBLE_EQ(
      NodeInfluenceLowerBound(q, {1.0, 0.0}, o, e), 0.0);
}

TEST(InfluenceEdgeTest, DiagonalMotionMatchesRotatedProblem) {
  // Influence times are rotation-invariant; compare a diagonal setup to
  // its axis-aligned rotation.
  const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
  const geo::Point q{0.0, 0.0};
  const geo::Point o{0.1 * inv_sqrt2, 0.1 * inv_sqrt2};
  const geo::Point p{2.0 * inv_sqrt2, 2.0 * inv_sqrt2};
  const double diagonal =
      PointInfluenceTime(q, {inv_sqrt2, inv_sqrt2}, o, p);
  const double axis =
      PointInfluenceTime(q, {1.0, 0.0}, {0.1, 0.0}, {2.0, 0.0});
  EXPECT_NEAR(diagonal, axis, 1e-9);
}

TEST(TpnnEdgeTest, QueryAtDataPoint) {
  const auto dataset = MakeUnitUniform(1000, 2001);
  TreeFixture fx(dataset.entries, 32, SmallNodeOptions());
  // Query exactly on a data point: that point is the NN at distance 0.
  const geo::Point q = dataset.entries[17].point;
  const TpnnResult res =
      Tpnn(*fx.tree, q, {1.0, 0.0}, q, dataset.entries[17].id);
  // Some other point influences eventually (halfway toward it).
  ASSERT_TRUE(res.found);
  EXPECT_GT(res.time, 0.0);
  const double d = geo::Distance(q, res.object.point);
  // The influence time of p vs o == q is |q p| / (2 cos angle) >= d/2.
  EXPECT_GE(res.time, d / 2.0 - 1e-12);
}

TEST(TpnnEdgeTest, CollinearPointsAlongMotion) {
  // o and several candidates all on the motion line.
  std::vector<rtree::DataEntry> data = {
      {{0.1, 0.5}, 0}, {{0.4, 0.5}, 1}, {{0.7, 0.5}, 2}, {{0.95, 0.5}, 3}};
  TreeFixture fx(data, 8);
  const geo::Point q{0.12, 0.5};
  // NN is point 0 at distance 0.02.
  const TpnnResult res = Tpnn(*fx.tree, q, {1.0, 0.0}, {0.1, 0.5}, 0);
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.object.id, 1u);
  // Crossing at midpoint between 0.1 and 0.4 => x = 0.25, t = 0.13.
  EXPECT_NEAR(res.time, 0.13, 1e-12);
}

TEST(TpnnEdgeTest, AllDirectionsSweep) {
  // A full turn of directions must yield influence times consistent with
  // the validity region: min over directions ~ distance to the nearest
  // Voronoi edge.
  const auto dataset = MakeUnitUniform(500, 2003);
  TreeFixture fx(dataset.entries, 32, SmallNodeOptions());
  const geo::Point q{0.5, 0.5};
  const auto nn = rtree::KnnBestFirst(*fx.tree, q, 1);
  double min_time = kNever;
  for (int i = 0; i < 64; ++i) {
    const double angle = 2.0 * M_PI * i / 64.0;
    const TpnnResult res = Tpnn(*fx.tree, q, {std::cos(angle),
                                              std::sin(angle)},
                                nn[0].entry.point, nn[0].entry.id);
    if (res.found) min_time = std::min(min_time, res.time);
  }
  ASSERT_NE(min_time, kNever);
  // The minimum crossing is at most the distance to the second NN (the
  // bisector lies halfway).
  const auto two = rtree::KnnBestFirst(*fx.tree, q, 2);
  EXPECT_LE(min_time, two[1].distance);
  EXPECT_GT(min_time, 0.0);
}

}  // namespace
}  // namespace lbsq::tp
