#include <gtest/gtest.h>

#include "core/mobile_client.h"
#include "core/server.h"
#include "tests/test_util.h"
#include "workload/datasets.h"
#include "workload/queries.h"

namespace lbsq::core {
namespace {

using test::BruteForceKnn;
using test::BruteForceRange;
using test::BruteForceWindow;
using test::Ids;
using test::TreeFixture;
using workload::MakeUnitUniform;

const geo::Rect kUnit(0.0, 0.0, 1.0, 1.0);

TEST(MobileNnClientTest, AnswersStayExactAlongTrajectory) {
  const auto dataset = MakeUnitUniform(5000, 71);
  TreeFixture fx(dataset.entries, 64);
  Server server(fx.tree.get(), kUnit);
  MobileNnClient client(&server, /*k=*/2);

  const auto trajectory = workload::MakeRandomWaypointTrajectory(
      dataset, 500, /*step=*/0.0015, 73);
  for (const geo::Point& p : trajectory) {
    const auto& answers = client.MoveTo(p);
    EXPECT_EQ(Ids(answers), Ids(BruteForceKnn(dataset.entries, p, 2)))
        << "at (" << p.x << ", " << p.y << ")";
  }
  // The whole point: far fewer server queries than position updates.
  EXPECT_LT(client.server_queries(), trajectory.size() / 2);
  EXPECT_EQ(client.server_queries(), server.nn_queries_served());
}

TEST(MobileNnClientTest, NaiveModeQueriesEveryUpdate) {
  const auto dataset = MakeUnitUniform(1000, 79);
  TreeFixture fx(dataset.entries, 64);
  Server server(fx.tree.get(), kUnit);
  MobileNnClient client(&server, 1, MobileNnClient::Mode::kAlwaysQuery);
  const auto trajectory = workload::MakeRandomWaypointTrajectory(
      dataset, 100, 0.001, 83);
  for (const geo::Point& p : trajectory) client.MoveTo(p);
  EXPECT_EQ(client.server_queries(), trajectory.size());
}

TEST(MobileNnClientTest, ValidityModeSavesQueriesVsNaive) {
  const auto dataset = MakeUnitUniform(3000, 89);
  TreeFixture fx(dataset.entries, 64);
  Server server(fx.tree.get(), kUnit);
  MobileNnClient smart(&server, 1, MobileNnClient::Mode::kValidityRegion);
  MobileNnClient naive(&server, 1, MobileNnClient::Mode::kAlwaysQuery);
  const auto trajectory = workload::MakeRandomWaypointTrajectory(
      dataset, 400, 0.001, 97);
  for (const geo::Point& p : trajectory) {
    smart.MoveTo(p);
    naive.MoveTo(p);
  }
  EXPECT_LT(smart.server_queries() * 3, naive.server_queries());
}

TEST(MobileWindowClientTest, AnswersStayExactAlongTrajectory) {
  const auto dataset = MakeUnitUniform(4000, 101);
  TreeFixture fx(dataset.entries, 64);
  Server server(fx.tree.get(), kUnit);
  const double h = 0.04;
  MobileWindowClient client(&server, h, h);

  const auto trajectory = workload::MakeRandomWaypointTrajectory(
      dataset, 400, /*step=*/0.002, 103);
  for (const geo::Point& p : trajectory) {
    const auto& result = client.MoveTo(p);
    auto got = result;
    EXPECT_EQ(Ids(got), Ids(BruteForceWindow(dataset.entries,
                                             geo::Rect::Centered(p, h, h))));
  }
  EXPECT_LT(client.server_queries(), trajectory.size());
}

TEST(MobileWindowClientTest, ConservativeModeIsCorrectButRequeriesMore) {
  const auto dataset = MakeUnitUniform(4000, 107);
  TreeFixture fx(dataset.entries, 64);
  Server server(fx.tree.get(), kUnit);
  const double h = 0.03;
  MobileWindowClient exact(&server, h, h,
                           MobileWindowClient::Mode::kValidityRegion);
  MobileWindowClient cons(&server, h, h,
                          MobileWindowClient::Mode::kConservativeRegion);
  const auto trajectory = workload::MakeRandomWaypointTrajectory(
      dataset, 300, 0.0015, 109);
  for (const geo::Point& p : trajectory) {
    const auto& r = cons.MoveTo(p);
    exact.MoveTo(p);
    EXPECT_EQ(Ids(r), Ids(BruteForceWindow(dataset.entries,
                                           geo::Rect::Centered(p, h, h))));
  }
  // The conservative rectangle is a subset, so it can only re-query
  // at least as often.
  EXPECT_GE(cons.server_queries(), exact.server_queries());
}

TEST(ServerTest, CountsQueriesPerType) {
  const auto dataset = MakeUnitUniform(500, 113);
  TreeFixture fx(dataset.entries, 32);
  Server server(fx.tree.get(), kUnit);
  server.NnQuery({0.5, 0.5}, 1);
  server.NnQuery({0.6, 0.6}, 2);
  server.WindowQuery({0.5, 0.5}, 0.05, 0.05);
  EXPECT_EQ(server.nn_queries_served(), 2u);
  EXPECT_EQ(server.window_queries_served(), 1u);
}

// last_answer_was_cached reports, per update, whether the validity region
// absorbed the move — the per-step signal behind the aggregate
// server_queries counter (and the bytes-on-the-wire accounting in
// bench/netcost.cc).
TEST(MobileWindowClientTest, ReportsCacheHitsPerUpdate) {
  const auto dataset = MakeUnitUniform(3000, 101);
  TreeFixture fx(dataset.entries, 64);
  Server server(fx.tree.get(), kUnit);
  MobileWindowClient client(&server, 0.04, 0.04);

  const auto trajectory = workload::MakeRandomWaypointTrajectory(
      dataset, 300, 0.001, 103);
  size_t hits = 0, misses = 0;
  for (const geo::Point& p : trajectory) {
    const size_t queries_before = client.server_queries();
    client.MoveTo(p);
    const bool queried = client.server_queries() > queries_before;
    // The flag and the counter must agree at every single step.
    EXPECT_EQ(client.last_answer_was_cached(), !queried);
    (queried ? misses : hits) += 1;
  }
  // The first update can never be served from an empty cache.
  EXPECT_GT(misses, 0u);
  EXPECT_GT(hits, 0u);
  EXPECT_EQ(misses, client.server_queries());
  EXPECT_EQ(hits + misses, trajectory.size());

  // A naive client never reports a cache hit.
  MobileWindowClient naive(&server, 0.04, 0.04,
                           MobileWindowClient::Mode::kAlwaysQuery);
  for (int i = 0; i < 5; ++i) {
    naive.MoveTo(trajectory[i]);
    EXPECT_FALSE(naive.last_answer_was_cached());
  }
}

TEST(MobileRangeClientTest, ReportsCacheHitsPerUpdate) {
  const auto dataset = MakeUnitUniform(3000, 107);
  TreeFixture fx(dataset.entries, 64);
  Server server(fx.tree.get(), kUnit);
  const auto trajectory = workload::MakeRandomWaypointTrajectory(
      dataset, 300, 0.001, 109);

  size_t exact_queries = 0;
  for (const MobileRangeClient::Mode mode :
       {MobileRangeClient::Mode::kValidityRegion,
        MobileRangeClient::Mode::kConservativeRegion}) {
    MobileRangeClient client(&server, 0.05, mode);
    size_t hits = 0, misses = 0;
    for (const geo::Point& p : trajectory) {
      const size_t queries_before = client.server_queries();
      const auto& answer = client.MoveTo(p);
      EXPECT_EQ(Ids(answer), Ids(BruteForceRange(dataset.entries, p, 0.05)))
          << "at (" << p.x << ", " << p.y << ")";
      const bool queried = client.server_queries() > queries_before;
      EXPECT_EQ(client.last_answer_was_cached(), !queried);
      (queried ? misses : hits) += 1;
    }
    EXPECT_GT(misses, 0u);
    EXPECT_GT(hits, 0u);
    EXPECT_EQ(misses, client.server_queries());
    if (mode == MobileRangeClient::Mode::kValidityRegion) {
      exact_queries = client.server_queries();
    } else {
      // The conservative polygon lies inside the exact region.
      EXPECT_GE(client.server_queries(), exact_queries);
    }
  }
}

// p lies 9.65e-9 inside an outer disk of the first answer's region, and
// about 1.4e-8 outside a conservative-polygon edge 5.2e-5 long. An edge
// tolerance that grows as the edge shrinks (a bound on the cross
// product) accepts it; on 100k points such short edges are common. The
// client must drop the stale answer.
TEST(MobileRangeClientTest, ConservativeModeDropsAStaleAnswer) {
  const auto dataset = MakeUnitUniform(100000, 4242);
  TreeFixture fx(dataset.entries, 64);
  Server server(fx.tree.get(), kUnit);
  MobileRangeClient client(&server, 0.025,
                           MobileRangeClient::Mode::kConservativeRegion);

  client.MoveTo(workload::MakeDataDistributedQueries(dataset, 1024, 5)[264]);
  const geo::Point p{0.36124376559284627, 0.11587457959876647};
  const auto& answer = client.MoveTo(p);
  EXPECT_EQ(client.server_queries(), 2u);
  EXPECT_EQ(Ids(answer), Ids(BruteForceRange(dataset.entries, p, 0.025)));
}

// Audit of the round-trip accounting at a validity-region boundary: a
// server round trip is counted if and only if the move left the region
// (client-cache miss), with the *exact* boundary position still inside —
// validity regions are closed, mirroring IsValidAt's strict-> compare.
// The geometry is hand-constructed so the boundary is known in advance.

TEST(MobileNnClientTest, BoundaryCrossingCountsExactlyOneQuery) {
  // Two points; the 1-NN validity boundary is their bisector x = 0.5.
  const std::vector<rtree::DataEntry> data = {{{0.25, 0.5}, 1},
                                              {{0.75, 0.5}, 2}};
  TreeFixture fx(data, 16);
  Server server(fx.tree.get(), kUnit);
  MobileNnClient client(&server, 1);

  ASSERT_EQ(Ids(client.MoveTo({0.4, 0.5})), (std::vector<rtree::ObjectId>{1}));
  EXPECT_FALSE(client.last_answer_was_cached());  // first contact
  ASSERT_EQ(client.server_queries(), 1u);

  // Moves inside the region: served from the client cache, no round trip.
  client.MoveTo({0.45, 0.5});
  EXPECT_TRUE(client.last_answer_was_cached());
  EXPECT_EQ(client.server_queries(), 1u);

  // Exactly on the bisector: equidistant, still valid (closed region).
  client.MoveTo({0.5, 0.5});
  EXPECT_TRUE(client.last_answer_was_cached());
  EXPECT_EQ(client.server_queries(), 1u);

  // One step past the boundary: miss, exactly one more round trip, and
  // the answer flips to the other point.
  ASSERT_EQ(Ids(client.MoveTo({0.500001, 0.5})),
            (std::vector<rtree::ObjectId>{2}));
  EXPECT_FALSE(client.last_answer_was_cached());
  EXPECT_EQ(client.server_queries(), 2u);

  // And the fresh region absorbs further moves on the new side.
  client.MoveTo({0.6, 0.5});
  EXPECT_TRUE(client.last_answer_was_cached());
  EXPECT_EQ(client.server_queries(), 2u);
  EXPECT_EQ(client.server_queries(), server.nn_queries_served());
}

TEST(MobileWindowClientTest, BoundaryCrossingCountsExactlyOneQuery) {
  // One target in the middle, decoys far away: for a window with
  // half-extent 0.1 near the center, the validity region is the target's
  // Minkowski box [0.4, 0.6]^2.
  const std::vector<rtree::DataEntry> data = {{{0.5, 0.5}, 1},
                                              {{0.05, 0.05}, 2},
                                              {{0.95, 0.95}, 3},
                                              {{0.05, 0.95}, 4},
                                              {{0.95, 0.05}, 5}};
  TreeFixture fx(data, 16);
  Server server(fx.tree.get(), kUnit);
  MobileWindowClient client(&server, 0.1, 0.1);

  ASSERT_EQ(Ids(client.MoveTo({0.5, 0.5})), (std::vector<rtree::ObjectId>{1}));
  ASSERT_EQ(client.server_queries(), 1u);

  // On the region's edge: the target sits exactly on the window border,
  // still in the result (closed window semantics) — no round trip.
  client.MoveTo({0.6, 0.5});
  EXPECT_TRUE(client.last_answer_was_cached());
  EXPECT_EQ(client.server_queries(), 1u);

  // Just beyond: the target escapes the window; one more round trip and
  // an empty result.
  EXPECT_TRUE(client.MoveTo({0.600001, 0.5}).empty());
  EXPECT_FALSE(client.last_answer_was_cached());
  EXPECT_EQ(client.server_queries(), 2u);
  EXPECT_EQ(client.server_queries(), server.window_queries_served());
}

TEST(MobileRangeClientTest, BoundaryCrossingCountsExactlyOneQuery) {
  // Same layout; range radius 0.2 around the client. The validity region
  // near the center is the target's disk D((0.5, 0.5), 0.2).
  const std::vector<rtree::DataEntry> data = {{{0.5, 0.5}, 1},
                                              {{0.05, 0.05}, 2},
                                              {{0.95, 0.95}, 3}};
  TreeFixture fx(data, 16);
  Server server(fx.tree.get(), kUnit);
  MobileRangeClient client(&server, 0.2);

  ASSERT_EQ(Ids(client.MoveTo({0.5, 0.5})), (std::vector<rtree::ObjectId>{1}));
  ASSERT_EQ(client.server_queries(), 1u);

  // Exactly radius away: the target is exactly on the range circle,
  // still a member (closed range semantics) — cached.
  client.MoveTo({0.7, 0.5});
  EXPECT_TRUE(client.last_answer_was_cached());
  EXPECT_EQ(client.server_queries(), 1u);

  // Just beyond: miss, one more round trip, empty result.
  EXPECT_TRUE(client.MoveTo({0.700001, 0.5}).empty());
  EXPECT_FALSE(client.last_answer_was_cached());
  EXPECT_EQ(client.server_queries(), 2u);
  EXPECT_EQ(client.server_queries(), server.range_queries_served());
}

}  // namespace
}  // namespace lbsq::core
