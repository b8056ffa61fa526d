#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/nn_validity.h"
#include "rtree/knn.h"
#include "tests/test_util.h"
#include "tp/influence.h"
#include "tp/tpnn.h"
#include "workload/datasets.h"

namespace lbsq::tp {
namespace {

using rtree::DataEntry;
using test::BruteForceKnn;
using test::SmallNodeOptions;
using test::TreeFixture;
using workload::MakeUnitUniform;

// ---------------------------------------------------------------------------
// Point influence-time kernel
// ---------------------------------------------------------------------------

TEST(PointInfluenceTest, HeadOnCrossingAtBisector) {
  // o at origin, p at (2, 0); query at origin moving toward p crosses the
  // bisector x = 1 after traveling 1.
  const geo::Point q{0.0, 0.0};
  const geo::Point o{0.0, 0.0};
  const geo::Point p{2.0, 0.0};
  EXPECT_DOUBLE_EQ(PointInfluenceTime(q, {1.0, 0.0}, o, p), 1.0);
}

TEST(PointInfluenceTest, MovingAwayNeverInfluences) {
  const geo::Point q{0.0, 0.0};
  const geo::Point o{0.0, 0.0};
  const geo::Point p{2.0, 0.0};
  EXPECT_EQ(PointInfluenceTime(q, {-1.0, 0.0}, o, p), kNever);
  // Parallel to the bisector: never crosses.
  EXPECT_EQ(PointInfluenceTime(q, {0.0, 1.0}, o, p), kNever);
}

TEST(PointInfluenceTest, MatchesSimulatedCrossing) {
  Rng rng(13);
  for (int trial = 0; trial < 500; ++trial) {
    const geo::Point q{rng.NextDouble(), rng.NextDouble()};
    const geo::Point o{rng.NextDouble(), rng.NextDouble()};
    geo::Point p{rng.NextDouble(), rng.NextDouble()};
    // Ensure o is at least as close as p (the TPNN precondition).
    if (geo::SquaredDistance(q, p) < geo::SquaredDistance(q, o)) {
      std::swap(p.x, p.x);  // keep p; just skip invalid configs
      continue;
    }
    const double angle = rng.Uniform(0, 2 * M_PI);
    const geo::Vec2 l{std::cos(angle), std::sin(angle)};
    const double t = PointInfluenceTime(q, l, o, p);
    if (t == kNever) {
      // March along the ray: p must never become strictly closer.
      for (double s = 0.0; s < 4.0; s += 0.05) {
        const geo::Point x = q + l * s;
        EXPECT_GE(geo::SquaredDistance(x, p) -
                      geo::SquaredDistance(x, o), -1e-9);
      }
    } else {
      const geo::Point x = q + l * t;
      EXPECT_NEAR(geo::Distance(x, p), geo::Distance(x, o), 1e-9);
      // Just after the crossing, p is closer.
      const geo::Point after = q + l * (t + 1e-6);
      EXPECT_LT(geo::SquaredDistance(after, p),
                geo::SquaredDistance(after, o) + 1e-12);
    }
  }
}

// ---------------------------------------------------------------------------
// Node lower bound: admissibility property
// ---------------------------------------------------------------------------

TEST(NodeBoundTest, NeverExceedsAnyContainedPointsInfluenceTime) {
  Rng rng(17);
  for (int trial = 0; trial < 300; ++trial) {
    const geo::Point q{rng.NextDouble(), rng.NextDouble()};
    const geo::Point o{rng.NextDouble(), rng.NextDouble()};
    const double angle = rng.Uniform(0, 2 * M_PI);
    const geo::Vec2 l{std::cos(angle), std::sin(angle)};
    const double x0 = rng.Uniform(-0.5, 1.5);
    const double y0 = rng.Uniform(-0.5, 1.5);
    const geo::Rect e(x0, y0, x0 + rng.Uniform(0.01, 0.5),
                      y0 + rng.Uniform(0.01, 0.5));
    const double bound = NodeInfluenceLowerBound(q, l, o, e);
    for (int i = 0; i < 30; ++i) {
      const geo::Point p{rng.Uniform(e.min_x, e.max_x),
                         rng.Uniform(e.min_y, e.max_y)};
      if (geo::SquaredDistance(q, p) < geo::SquaredDistance(q, o)) continue;
      const double t = PointInfluenceTime(q, l, o, p);
      EXPECT_LE(bound, t + 1e-9)
          << "bound not admissible for point in rect (trial " << trial << ")";
    }
  }
}

TEST(NodeBoundTest, DegenerateRectEqualsPointTime) {
  Rng rng(19);
  for (int trial = 0; trial < 200; ++trial) {
    const geo::Point q{rng.NextDouble(), rng.NextDouble()};
    const geo::Point o{rng.NextDouble(), rng.NextDouble()};
    const geo::Point p{rng.NextDouble() + 1.0, rng.NextDouble()};
    if (geo::SquaredDistance(q, p) < geo::SquaredDistance(q, o)) continue;
    const double angle = rng.Uniform(0, 2 * M_PI);
    const geo::Vec2 l{std::cos(angle), std::sin(angle)};
    const double t = PointInfluenceTime(q, l, o, p);
    const double bound =
        NodeInfluenceLowerBound(q, l, o, geo::Rect::FromPoint(p));
    // For a degenerate rectangle the bound is the exact crossing time of
    // the *closest possible* point, which is p itself.
    if (t == kNever) {
      EXPECT_EQ(bound, kNever);
    } else {
      EXPECT_NEAR(bound, t, 1e-6 * (1.0 + t));
    }
  }
}

// ---------------------------------------------------------------------------
// TPNN / TPkNN vs brute force
// ---------------------------------------------------------------------------

// Brute-force TPNN: scan all objects.
DataEntry BruteForceTpnn(const std::vector<DataEntry>& data,
                         const geo::Point& q, const geo::Vec2& l,
                         const geo::Point& o, rtree::ObjectId o_id,
                         double* best_time) {
  DataEntry best{};
  *best_time = kNever;
  bool found = false;
  for (const DataEntry& e : data) {
    if (e.id == o_id) continue;
    const double t = PointInfluenceTime(q, l, o, e.point);
    if (t < *best_time ||
        (found && t == *best_time && e.id < best.id)) {
      best = e;
      *best_time = t;
      found = true;
    }
  }
  return best;
}

TEST(TpnnTest, MatchesBruteForceAcrossDirections) {
  const auto dataset = MakeUnitUniform(2000, 101);
  TreeFixture fx(dataset.entries, 32, SmallNodeOptions());
  Rng rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    const geo::Point q{rng.NextDouble(), rng.NextDouble()};
    const auto nn = BruteForceKnn(dataset.entries, q, 1);
    ASSERT_EQ(nn.size(), 1u);
    const double angle = rng.Uniform(0, 2 * M_PI);
    const geo::Vec2 l{std::cos(angle), std::sin(angle)};

    double expected_time = kNever;
    const DataEntry expected = BruteForceTpnn(
        dataset.entries, q, l, nn[0].entry.point, nn[0].entry.id,
        &expected_time);

    const TpnnResult got =
        Tpnn(*fx.tree, q, l, nn[0].entry.point, nn[0].entry.id);
    if (expected_time == kNever) {
      EXPECT_FALSE(got.found);
    } else {
      ASSERT_TRUE(got.found);
      EXPECT_NEAR(got.time, expected_time, 1e-9 * (1.0 + expected_time));
      EXPECT_EQ(got.object.id, expected.id);
    }
  }
}

TEST(TpknnTest, MatchesBruteForcePairSearch) {
  const auto dataset = MakeUnitUniform(1000, 103);
  TreeFixture fx(dataset.entries, 32, SmallNodeOptions());
  Rng rng(9);
  for (int trial = 0; trial < 60; ++trial) {
    const geo::Point q{rng.NextDouble(), rng.NextDouble()};
    const size_t k = 1 + rng.NextBounded(8);
    const auto answers = BruteForceKnn(dataset.entries, q, k);
    const double angle = rng.Uniform(0, 2 * M_PI);
    const geo::Vec2 l{std::cos(angle), std::sin(angle)};

    // Brute force over all (outside, member) pairs.
    double expected_time = kNever;
    rtree::ObjectId expected_in = 0;
    bool found = false;
    for (const DataEntry& e : dataset.entries) {
      const bool member = std::any_of(
          answers.begin(), answers.end(),
          [&](const rtree::Neighbor& a) { return a.entry.id == e.id; });
      if (member) continue;
      for (const auto& a : answers) {
        const double t = PointInfluenceTime(q, l, a.entry.point, e.point);
        if (t < expected_time ||
            (found && t == expected_time && e.id < expected_in)) {
          expected_time = t;
          expected_in = e.id;
          found = true;
        }
      }
    }

    const TpknnResult got = Tpknn(*fx.tree, q, l, answers);
    if (!found || expected_time == kNever) {
      EXPECT_FALSE(got.found);
    } else {
      ASSERT_TRUE(got.found);
      EXPECT_NEAR(got.time, expected_time, 1e-9 * (1.0 + expected_time));
      EXPECT_EQ(got.incoming.id, expected_in);
    }
  }
}

TEST(TpnnTest, EmptyAndSingletonTrees) {
  storage::PageManager disk;
  rtree::RTree tree(&disk, 4);
  EXPECT_FALSE(Tpnn(tree, {0.5, 0.5}, {1.0, 0.0}, {0.5, 0.5}, 0).found);

  storage::PageManager disk2;
  rtree::RTree tree2(&disk2, 4);
  tree2.BulkLoad({{{0.25, 0.25}, 3}});
  // Only object is the NN itself: nothing can influence.
  EXPECT_FALSE(
      Tpnn(tree2, {0.5, 0.5}, {1.0, 0.0}, {0.25, 0.25}, 3).found);
}

TEST(TpnnTest, HopsLandOnValidityRegionBoundaries) {
  // Walks a segment by TPNN hops [TPS02]: from each position the hop ends
  // where the current nearest neighbour first loses to another object.
  // Those ends are exactly where the served validity regions of Section 3
  // end, so each interval's neighbour must be the brute-force one at its
  // midpoint and own a region that holds the interval and stops at its
  // end.
  const auto dataset = MakeUnitUniform(1000, 705);
  TreeFixture fx(dataset.entries, 64, SmallNodeOptions());
  core::NnValidityEngine engine(fx.tree.get(), geo::Rect(0, 0, 1, 1));
  const geo::Point a{0.2, 0.3};
  const geo::Point b{0.8, 0.7};
  const double length = geo::Distance(a, b);
  const geo::Vec2 dir = (b - a) * (1.0 / length);

  DataEntry current = BruteForceKnn(dataset.entries, a, 1)[0].entry;
  double begin = 0.0;
  size_t intervals = 0;
  while (begin < length) {
    ASSERT_LT(intervals, dataset.entries.size()) << "hops do not advance";
    const TpnnResult next =
        Tpnn(*fx.tree, a + dir * begin, dir, current.point, current.id);
    const bool last = !next.found || begin + next.time >= length;
    const double end = last ? length : begin + next.time;
    ASSERT_GT(end, begin) << "zero-length hop at " << begin;
    ++intervals;

    const geo::Point mid = a + dir * (0.5 * (begin + end));
    EXPECT_EQ(BruteForceKnn(dataset.entries, mid, 1)[0].entry.id, current.id)
        << "wrong NN at parameter " << 0.5 * (begin + end);
    const auto region = engine.Query(mid, 1);
    ASSERT_EQ(region.answers()[0].entry.id, current.id);
    EXPECT_TRUE(region.IsValidAt(mid));
    if (!last) {
      // The crossing is on (within rounding of) the region's boundary.
      const geo::Point crossing = a + dir * end;
      const geo::Point before = a + dir * (end - 1e-9);
      const geo::Point after = a + dir * (end + 1e-9);
      EXPECT_TRUE(region.IsValidAt(before) || region.IsValidAt(crossing));
      EXPECT_FALSE(region.IsValidAt(after));
      current = next.object;
    }
    begin = end;
  }
  EXPECT_GT(intervals, 1u);
}

}  // namespace
}  // namespace lbsq::tp
