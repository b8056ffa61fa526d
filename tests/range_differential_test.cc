// Served range answers held to brute force over uniform and degenerate
// data: 20k uniform points, an integer lattice, duplicate coordinates, a
// collinear row and points on the universe boundary. For every query,
// on one tree and on a FragmentRouter over K = 4 fragments:
//
//   * the result equals the brute-force range answer at the focus, and
//     the focus lies in its own region;
//   * the shipped outer disks are exactly the objects outside the result
//     whose closed disk reaches the region's bounds
//     (SquaredMinDist <= r^2), in id order;
//   * at sampled points of the bounds (its corners, edge midpoints and
//     random points), and at boundary points found by bisection along
//     random rays from the focus and their one-ulp neighbours,
//     IsValidAt(p) implies that the brute-force answer at p equals the
//     result;
//   * the router's reply equals the tree's byte for byte.
//
// The same requests, and nearby ones, also go through two cached serving
// pipelines (one tree; K = 4 with owner and boundary caches): every
// reply, hit or miss, decodes to the brute-force answer at the request
// point, and its region holds that point.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/range_validity.h"
#include "core/serving_pipeline.h"
#include "core/wire_format.h"
#include "partition/partitioned_server.h"
#include "tests/test_util.h"
#include "workload/datasets.h"

namespace lbsq::core {
namespace {

using rtree::DataEntry;
using rtree::ObjectId;
using test::BruteForceRange;
using test::Ids;
using test::TreeFixture;

const geo::Rect kUnit(0.0, 0.0, 1.0, 1.0);

struct Query {
  geo::Point focus;
  double radius = 0.0;
};

struct Case {
  std::string name;
  std::vector<DataEntry> entries;  // ids in ascending order
  geo::Rect universe;
  std::vector<Query> queries;
  uint64_t seed = 1;
};

struct Tally {
  size_t inside = 0;    // checked points that passed IsValidAt
  size_t boundary = 0;  // rays bisected to the region's boundary
  size_t requests = 0;  // cached-pipeline requests
  size_t hits = 0;      // ... served from a cache
};

std::string At(const geo::Point& p) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), " at (%.17g, %.17g)", p.x, p.y);
  return buf;
}

// Objects outside the result whose closed disk reaches `bounds`, in id
// order: the outer disks an answer must ship.
std::vector<geo::Point> BruteForceOuter(const std::vector<DataEntry>& data,
                                        const std::vector<ObjectId>& result,
                                        const geo::Rect& bounds, double r) {
  std::vector<geo::Point> out;
  for (const DataEntry& e : data) {
    if (std::binary_search(result.begin(), result.end(), e.id)) continue;
    if (geo::SquaredMinDist(e.point, bounds) <= r * r) out.push_back(e.point);
  }
  return out;
}

// IsValidAt(p) implies that the answer at p is the result.
void CheckPoint(const std::vector<DataEntry>& near,
                const RangeValidityResult& result,
                const std::vector<ObjectId>& ids, const geo::Point& p,
                const std::string& where, Tally* tally) {
  if (!result.IsValidAt(p)) return;
  ++tally->inside;
  EXPECT_EQ(Ids(BruteForceRange(near, p, result.radius())), ids)
      << where << ": answer changed inside the region" << At(p);
}

void CheckQuery(const Case& c, const Query& q, RangeValidityEngine* tree,
                RangeValidityEngine* routed, Rng* rng,
                const std::string& where, Tally* tally) {
  const double r = q.radius;
  const RangeValidityResult served = tree->Query(q.focus, r);
  const auto bytes = wire::EncodeRangeResult(served).value();
  ASSERT_EQ(wire::EncodeRangeResult(routed->Query(q.focus, r)).value(), bytes)
      << where;

  const std::vector<ObjectId> ids = Ids(served.result());
  ASSERT_EQ(ids, Ids(BruteForceRange(c.entries, q.focus, r)))
      << where << At(q.focus);
  ASSERT_TRUE(served.IsValidAt(q.focus)) << where << At(q.focus);

  const geo::Rect& bounds = served.region().bounds();
  std::vector<geo::Point> outer;
  for (const geo::DiskRegion::Disk& d : served.region().outer()) {
    outer.push_back(d.center);
  }
  EXPECT_EQ(outer, BruteForceOuter(c.entries, ids, bounds, r)) << where;

  // Every object within r of a point of the bounds is within 2r of the
  // bounds, so the brute-force answers below scan only those.
  std::vector<DataEntry> near;
  for (const DataEntry& e : c.entries) {
    if (geo::SquaredMinDist(e.point, bounds) <= 4.0 * r * r) near.push_back(e);
  }

  const geo::Point mid = bounds.Center();
  for (const geo::Point& p :
       {geo::Point{bounds.min_x, bounds.min_y}, {bounds.min_x, bounds.max_y},
        {bounds.max_x, bounds.min_y}, {bounds.max_x, bounds.max_y},
        {bounds.min_x, mid.y}, {bounds.max_x, mid.y}, {mid.x, bounds.min_y},
        {mid.x, bounds.max_y}, mid}) {
    CheckPoint(near, served, ids, p, where, tally);
  }
  for (int i = 0; i < 100; ++i) {
    const geo::Point p{rng->Uniform(bounds.min_x, bounds.max_x),
                       rng->Uniform(bounds.min_y, bounds.max_y)};
    CheckPoint(near, served, ids, p, where, tally);
  }

  // Bisection along rays from the focus (valid) to beyond the bounds
  // (invalid), then the last valid point and its one-ulp neighbours.
  const double far = bounds.width() + bounds.height() + r;
  for (int ray = 0; ray < 24; ++ray) {
    const double angle = rng->Uniform(0.0, 2.0 * M_PI);
    const geo::Vec2 dir{std::cos(angle), std::sin(angle)};
    double lo = 0.0;
    double hi = far;
    for (int step = 0; step < 64; ++step) {
      const double t = 0.5 * (lo + hi);
      if (served.IsValidAt(q.focus + dir * t)) {
        lo = t;
      } else {
        hi = t;
      }
    }
    ++tally->boundary;
    const geo::Point p = q.focus + dir * lo;
    const double inf = INFINITY;
    for (const geo::Point& n :
         {p, q.focus + dir * hi, {std::nextafter(p.x, inf), p.y},
          {std::nextafter(p.x, -inf), p.y}, {p.x, std::nextafter(p.y, inf)},
          {p.x, std::nextafter(p.y, -inf)}}) {
      CheckPoint(near, served, ids, n, where, tally);
    }
  }
}

// Serves `p` through `pipeline`; the reply, hit or miss, must decode to
// the brute-force answer at p with p inside its region.
void CheckServed(const Case& c, ServingPipeline* pipeline,
                 const geo::Point& p, double r, const std::string& where,
                 Tally* tally) {
  const auto bytes = pipeline->RangeQueryWireShared(p, r);
  ASSERT_TRUE(bytes.ok()) << where;
  ++tally->requests;
  if (pipeline->last_wire_from_cache()) ++tally->hits;
  const auto decoded = wire::DecodeRangeResult(**bytes);
  ASSERT_TRUE(decoded.ok()) << where;
  EXPECT_TRUE(decoded->IsValidAt(p)) << where << At(p);
  EXPECT_EQ(Ids(decoded->result()), Ids(BruteForceRange(c.entries, p, r)))
      << where << (pipeline->last_wire_from_cache() ? " (hit)" : " (miss)")
      << At(p);
}

void RunCase(const Case& c) {
  TreeFixture fx(c.entries, 256);
  RangeValidityEngine tree_engine(fx.tree.get(), c.universe);
  partition::PartitionedServerOptions options;
  options.fragments = 4;
  partition::PartitionedServer sharded(c.entries, c.universe, options);
  RangeValidityEngine routed_engine(&sharded.router(), c.universe);

  // Cached serving: one tree, and the K = 4 server's owner and boundary
  // caches.
  TreeFixture cached_fx(c.entries, 256);
  RTreeBackend cached_backend(cached_fx.tree.get());
  ServingPipeline cached(&cached_backend, c.universe);
  cached.EnableCache(cache::CacheConfig{});
  sharded.EnableCache(cache::CacheConfig{});

  Rng rng(c.seed);
  Tally tally;
  for (size_t i = 0; i < c.queries.size(); ++i) {
    const Query& q = c.queries[i];
    const std::string where = c.name + " r=" + std::to_string(q.radius) +
                              " query " + std::to_string(i);
    CheckQuery(c, q, &tree_engine, &routed_engine, &rng, where, &tally);
    if (::testing::Test::HasFatalFailure()) return;
    // The request itself, then three nearby ones that may hit.
    for (int j = 0; j < 4; ++j) {
      geo::Point p = q.focus;
      if (j > 0) {
        p.x = std::clamp(p.x + rng.Uniform(-0.5, 0.5) * q.radius,
                         c.universe.min_x, c.universe.max_x);
        p.y = std::clamp(p.y + rng.Uniform(-0.5, 0.5) * q.radius,
                         c.universe.min_y, c.universe.max_y);
      }
      CheckServed(c, &cached, p, q.radius, where, &tally);
      CheckServed(c, &sharded, p, q.radius, where + " K=4", &tally);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  std::printf("%s: %zu queries, %zu points inside their region checked, "
              "%zu rays bisected, %zu of %zu cached requests hit\n",
              c.name.c_str(), c.queries.size(), tally.inside, tally.boundary,
              tally.hits, tally.requests);
  EXPECT_GT(tally.hits, 0u) << c.name;
}

// `count` random queries per radius.
std::vector<Query> RandomQueries(const geo::Rect& universe,
                                 const std::vector<double>& radii,
                                 size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<Query> out;
  for (const double r : radii) {
    for (size_t i = 0; i < count; ++i) {
      out.push_back({{rng.Uniform(universe.min_x, universe.max_x),
                      rng.Uniform(universe.min_y, universe.max_y)},
                     r});
    }
  }
  return out;
}

TEST(RangeDifferentialTest, Uniform20k) {
  Case c{"uniform-20k", workload::MakeUnitUniform(20000, 1601).entries, kUnit,
         RandomQueries(kUnit, {0.01, 0.025}, 120, 1602), 1603};
  RunCase(c);
}

// Radii that distances between lattice points meet exactly (1, sqrt 2,
// 2) and one they do not (1.5), with queries on lattice points, at cell
// centres and at random.
TEST(RangeDifferentialTest, IntegerLattice) {
  const int side = 40;
  const geo::Rect universe(0.0, 0.0, side - 1, side - 1);
  Case c{"lattice-40x40", test::Lattice(side), universe, {}, 1613};
  Rng rng(1612);
  for (const double r : {1.0, std::sqrt(2.0), 1.5, 2.0}) {
    for (int i = 0; i < 20; ++i) {
      const double x = rng.NextBounded(side);
      const double y = rng.NextBounded(side);
      c.queries.push_back({{x, y}, r});
      c.queries.push_back({{std::min(x + 0.5, side - 1.0),
                            std::min(y + 0.5, side - 1.0)},
                           r});
    }
    // Lattice corners and edges.
    c.queries.push_back({{0.0, 0.0}, r});
    c.queries.push_back({{side - 1.0, 7.0}, r});
    for (const Query& q : RandomQueries(universe, {r}, 20, 1614)) {
      c.queries.push_back(q);
    }
  }
  RunCase(c);
}

TEST(RangeDifferentialTest, DuplicateCoordinates) {
  Case c{"duplicates", test::Duplicates(3000, 1621), kUnit,
         RandomQueries(kUnit, {0.01, 0.03}, 80, 1622), 1623};
  RunCase(c);
}

// Queries on the row, half of them at data points.
TEST(RangeDifferentialTest, CollinearRow) {
  Case c{"collinear-row", test::CollinearRow(1000, 1631), kUnit, {}, 1633};
  Rng rng(1632);
  for (const double r : {0.002, 0.01}) {
    for (int i = 0; i < 40; ++i) {
      c.queries.push_back({{rng.NextDouble(), 0.5}, r});
      c.queries.push_back({c.entries[rng.NextBounded(c.entries.size())].point,
                           r});
    }
  }
  RunCase(c);
}

// Half of the queries on the universe boundary.
TEST(RangeDifferentialTest, UniverseEdgesAndCorners) {
  Case c{"universe-boundary", test::UniverseBoundary(400, 1641), kUnit,
         RandomQueries(kUnit, {0.02, 0.05}, 40, 1642), 1643};
  Rng rng(1644);
  for (const double r : {0.02, 0.05}) {
    for (int i = 0; i < 10; ++i) {
      const double t = rng.NextDouble();
      c.queries.push_back({{t, 0.0}, r});
      c.queries.push_back({{1.0, t}, r});
      c.queries.push_back({{0.0, t}, r});
      c.queries.push_back({{t, 1.0}, r});
    }
  }
  RunCase(c);
}

}  // namespace
}  // namespace lbsq::core
