#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/range_validity.h"
#include "geometry/disk_region.h"
#include "tests/test_util.h"
#include "workload/datasets.h"

namespace lbsq::core {
namespace {

using rtree::DataEntry;
using test::BruteForceRange;
using test::Ids;
using test::SmallNodeOptions;
using test::TreeFixture;
using workload::MakeUnitUniform;

const geo::Rect kUnit(0.0, 0.0, 1.0, 1.0);

// ---------------------------------------------------------------------------
// DiskRegion geometry
// ---------------------------------------------------------------------------

TEST(DiskRegionTest, ContainsSemantics) {
  const geo::DiskRegion region(geo::Rect(0, 0, 10, 10),
                               {{{5.0, 5.0}, 3.0}},   // inner disk
                               {{{9.0, 5.0}, 2.0}});  // outer disk
  EXPECT_TRUE(region.Contains({5.0, 5.0}));
  EXPECT_TRUE(region.Contains({5.0, 8.0}));    // inner boundary is inside
  EXPECT_FALSE(region.Contains({5.0, 8.01}));  // beyond the inner disk
  EXPECT_FALSE(region.Contains({7.5, 5.0}));   // inside the outer disk
  EXPECT_FALSE(region.Contains({7.0, 5.0}));   // outer boundary is outside
}

TEST(DiskRegionTest, AreaOfPlainDiskIsAccurate) {
  const geo::DiskRegion region(geo::Rect(-2, -2, 2, 2), {{{0.0, 0.0}, 1.0}},
                               {});
  EXPECT_NEAR(region.Area(512), M_PI, 0.01);
}

TEST(DiskRegionTest, AreaOfLensMatchesFormula) {
  // Two unit disks with centers 1 apart: lens area = 2pi/3 - sqrt(3)/2.
  const geo::DiskRegion region(geo::Rect(-2, -2, 3, 2),
                               {{{0.0, 0.0}, 1.0}, {{1.0, 0.0}, 1.0}}, {});
  const double expected = 2.0 * M_PI / 3.0 - std::sqrt(3.0) / 2.0;
  EXPECT_NEAR(region.Area(512), expected, 0.01);
}

TEST(DiskRegionTest, ConservativePolygonIsSubsetAndKeepsFocus) {
  Rng rng(31);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<geo::DiskRegion::Disk> inner;
    std::vector<geo::DiskRegion::Disk> outer;
    const geo::Point focus{rng.Uniform(4, 6), rng.Uniform(4, 6)};
    for (int i = 0; i < 3; ++i) {
      // Inner disks that all contain the focus.
      const double r = rng.Uniform(1.5, 3.0);
      const double a = rng.Uniform(0, 2 * M_PI);
      const double d = rng.Uniform(0, r * 0.9);
      inner.push_back(
          {{focus.x - d * std::cos(a), focus.y - d * std::sin(a)}, r});
    }
    for (int i = 0; i < 4; ++i) {
      // Outer disks that avoid the focus.
      const double r = rng.Uniform(0.3, 1.0);
      const double a = rng.Uniform(0, 2 * M_PI);
      const double d = rng.Uniform(r + 0.05, r + 3.0);
      outer.push_back(
          {{focus.x + d * std::cos(a), focus.y + d * std::sin(a)}, r});
    }
    const geo::DiskRegion region(geo::Rect(0, 0, 10, 10), inner, outer);
    ASSERT_TRUE(region.Contains(focus));
    const geo::ConvexPolygon poly = region.ConservativePolygon(focus);
    ASSERT_FALSE(poly.IsEmpty());
    EXPECT_TRUE(poly.Contains(focus));
    // Subset check by sampling polygon-interior points.
    const geo::Rect box = poly.BoundingBox();
    for (int i = 0; i < 200; ++i) {
      const geo::Point p{rng.Uniform(box.min_x, box.max_x),
                         rng.Uniform(box.min_y, box.max_y)};
      if (poly.Contains(p)) {
        EXPECT_TRUE(region.Contains(p))
            << "conservative polygon leaked outside the region";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Range validity engine
// ---------------------------------------------------------------------------

TEST(RangeValidityTest, ResultMatchesBruteForce) {
  const auto dataset = MakeUnitUniform(2000, 501);
  TreeFixture fx(dataset.entries, 64, SmallNodeOptions());
  RangeValidityEngine engine(fx.tree.get(), kUnit);
  Rng rng(7);
  for (int i = 0; i < 40; ++i) {
    const geo::Point q{rng.Uniform(0.1, 0.9), rng.Uniform(0.1, 0.9)};
    const double r = rng.Uniform(0.01, 0.1);
    const auto result = engine.Query(q, r);
    EXPECT_EQ(Ids(result.result()),
              Ids(BruteForceRange(dataset.entries, q, r)));
  }
}

struct RangeCase {
  size_t n;
  double radius;
  uint64_t seed;
};

class RangeValiditySemanticsTest
    : public ::testing::TestWithParam<RangeCase> {};

TEST_P(RangeValiditySemanticsTest, ResultConstantInsideChangesOutside) {
  const RangeCase param = GetParam();
  const auto dataset = MakeUnitUniform(param.n, param.seed);
  TreeFixture fx(dataset.entries, 64, SmallNodeOptions());
  RangeValidityEngine engine(fx.tree.get(), kUnit);
  Rng rng(param.seed ^ 0x99);

  for (int trial = 0; trial < 10; ++trial) {
    const geo::Point focus{rng.Uniform(0.2, 0.8), rng.Uniform(0.2, 0.8)};
    const auto result = engine.Query(focus, param.radius);
    // The engine builds the region with the arithmetic of its distance
    // filter, so the focus lies in its own region.
    ASSERT_TRUE(result.IsValidAt(focus));
    const auto expected_ids = Ids(result.result());

    for (int i = 0; i < 300; ++i) {
      const double span = 3.0 * param.radius;
      geo::Point p{focus.x + rng.Uniform(-span, span),
                   focus.y + rng.Uniform(-span, span)};
      p.x = std::clamp(p.x, 0.0, 1.0);
      p.y = std::clamp(p.y, 0.0, 1.0);
      const auto actual_ids =
          Ids(BruteForceRange(dataset.entries, p, param.radius));
      if (result.IsValidAt(p)) {
        EXPECT_EQ(actual_ids, expected_ids)
            << "range result changed inside the validity region";
      } else if (actual_ids == expected_ids) {
        // Outside yet unchanged: must be a boundary-grazing sample or
        // beyond the extent cap.
        const geo::Rect cap = geo::Rect::Centered(
            focus, 16.0 * param.radius, 16.0 * param.radius);
        if (!cap.Contains(p)) continue;
        const geo::Point nudged = p + (focus - p) * 1e-6;
        EXPECT_TRUE(result.IsValidAt(nudged))
            << "same range result but far outside the region";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RangeValiditySemanticsTest,
    ::testing::Values(RangeCase{300, 0.08, 1}, RangeCase{1500, 0.04, 2},
                      RangeCase{5000, 0.02, 3}, RangeCase{100, 0.15, 4}));

TEST(RangeValidityTest, ConservativePolygonSubsetOfExact) {
  const auto dataset = MakeUnitUniform(3000, 503);
  TreeFixture fx(dataset.entries, 64, SmallNodeOptions());
  RangeValidityEngine engine(fx.tree.get(), kUnit);
  Rng rng(11);
  for (int trial = 0; trial < 30; ++trial) {
    const geo::Point focus{rng.Uniform(0.2, 0.8), rng.Uniform(0.2, 0.8)};
    const auto result = engine.Query(focus, 0.05);
    const geo::ConvexPolygon poly = result.region().ConservativePolygon(focus);
    ASSERT_TRUE(poly.Contains(focus));
    const geo::Rect box = poly.BoundingBox();
    for (int i = 0; i < 150; ++i) {
      const geo::Point p{rng.Uniform(box.min_x, box.max_x),
                         rng.Uniform(box.min_y, box.max_y)};
      if (poly.Contains(p)) {
        EXPECT_TRUE(result.IsValidAt(p));
      }
    }
  }
}

TEST(RangeValidityTest, InfluencersAreSubsetOfCandidates) {
  const auto dataset = MakeUnitUniform(5000, 505);
  TreeFixture fx(dataset.entries, 64, SmallNodeOptions());
  RangeValidityEngine engine(fx.tree.get(), kUnit);
  const geo::Point focus{0.5, 0.5};
  const auto result = engine.Query(focus, 0.04);
  std::vector<size_t> cut_inner, cut_outer;
  result.region().ConservativePolygon(focus, 16, &cut_inner, &cut_outer);
  // The region's disks are centred on data objects; map each cutting
  // disk back to its object.
  const auto object_at = [&](const geo::Point& center) {
    const auto it = std::find_if(
        dataset.entries.begin(), dataset.entries.end(),
        [&](const DataEntry& e) { return e.point == center; });
    EXPECT_NE(it, dataset.entries.end());
    return it == dataset.entries.end() ? DataEntry{} : *it;
  };
  // Inner influencers are result members; outer influencers are not.
  const auto result_ids = Ids(result.result());
  for (const size_t i : cut_inner) {
    const DataEntry e = object_at(result.region().inner()[i].center);
    EXPECT_TRUE(std::binary_search(result_ids.begin(), result_ids.end(),
                                   e.id));
  }
  for (const size_t i : cut_outer) {
    const DataEntry e = object_at(result.region().outer()[i].center);
    EXPECT_FALSE(std::binary_search(result_ids.begin(), result_ids.end(),
                                    e.id));
    EXPECT_GT(geo::Distance(focus, e.point), 0.04);
  }
  // The influence set is a compressed representation: far smaller than
  // the candidate set.
  EXPECT_LT(cut_inner.size() + cut_outer.size(), 40u);
}

// Tie rule: the range query is closed, so a position at distance
// exactly r from an outer object has that object in its answer. Here
// (1, 0) lies on the inner disk of object 0 and on the disk of object 1,
// and both are within 1 of it; an open outer disk would call it valid.
TEST(RangeValidityTest, PositionOnAnOuterCircleIsOutsideTheRegion) {
  const std::vector<DataEntry> data = {{{0.0, 0.0}, 0}, {{2.0, 0.0}, 1}};
  const geo::Rect universe(-5.0, -5.0, 5.0, 5.0);
  TreeFixture fx(data, 8);
  RangeValidityEngine engine(fx.tree.get(), universe);
  const auto result = engine.Query({-0.5, 0.0}, 1.0);
  ASSERT_EQ(Ids(result.result()), std::vector<rtree::ObjectId>{0});
  ASSERT_TRUE(result.IsValidAt({-0.5, 0.0}));
  const geo::Point tie{1.0, 0.0};
  EXPECT_EQ(Ids(BruteForceRange(data, tie, 1.0)),
            (std::vector<rtree::ObjectId>{0, 1}));
  EXPECT_FALSE(result.IsValidAt(tie));
}

// The outer candidates are fetched from the bounds dilated by r plus a
// pad. Object 1 lies one ulp outside the unpadded window, yet at the
// bounds' left edge its squared distance rounds to exactly r^2, so it
// is in the answer there. Without the pad it is never fetched and that
// edge point passes IsValidAt with the wrong answer.
TEST(RangeValidityTest, OuterFetchCoversRoundingAtTheBounds) {
  const geo::Point focus{0.058456819705608135, 0.5};
  const double r = 0.025;
  const std::vector<DataEntry> data = {{focus, 0},
                                       {{0.00845681970560813, 0.5}, 1}};
  TreeFixture fx(data, 8);
  RangeValidityEngine engine(fx.tree.get(), kUnit);
  const auto result = engine.Query(focus, r);
  ASSERT_EQ(Ids(result.result()), std::vector<rtree::ObjectId>{0});
  const geo::Rect& bounds = result.region().bounds();
  ASSERT_FALSE(bounds.Dilated(r, r).Contains(data[1].point));
  const geo::Point edge{bounds.min_x, 0.5};
  ASSERT_EQ(Ids(BruteForceRange(data, edge, r)),
            (std::vector<rtree::ObjectId>{0, 1}));
  EXPECT_FALSE(result.IsValidAt(edge));
}

TEST(RangeValidityTest, EmptyResultRegionIsCappedNotUnbounded) {
  std::vector<DataEntry> data = {{{0.9, 0.9}, 0}};
  TreeFixture fx(data, 8);
  RangeValidityEngine engine(fx.tree.get(), kUnit);
  const auto result = engine.Query({0.1, 0.1}, 0.02);
  EXPECT_TRUE(result.result().empty());
  EXPECT_TRUE(result.IsValidAt({0.12, 0.12}));
  // Region is capped at 16 radii.
  EXPECT_FALSE(result.IsValidAt({0.5, 0.5}));
}

}  // namespace
}  // namespace lbsq::core
