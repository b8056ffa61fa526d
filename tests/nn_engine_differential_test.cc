// The switch condition of the serving k-NN engine: NnValidityEngine::
// Query (one nearest-first stream from q) against QueryTpnn (the paper's
// TPNN algorithm on one tree, the oracle), 10,000 random queries in all,
// over uniform, GR-like and degenerate data sets, k in {1, 2, 8, 10},
// served from one tree and from a FragmentRouter over K = 4 fragments,
// plus 200 queries on region boundaries held to brute force.
//
//   * Answers are identical: ids, order and bit-equal distances.
//   * On uniform data the influence-pair sets, and hence the wire bytes,
//     are identical. Elsewhere every pair only one engine ships is
//     redundant: its half-plane does not cut the other engine's region
//     (IsCutBy, the engines' 1e-9 relative tolerance). Each case prints
//     how many of its queries differ.
//   * Region areas agree to 1e-7 relative.
//   * The router's replies equal the single tree's byte for byte, and
//     its regions vertex for vertex.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/nn_validity.h"
#include "core/wire_format.h"
#include "geometry/halfplane.h"
#include "partition/partitioned_server.h"
#include "tests/test_util.h"
#include "workload/datasets.h"

namespace lbsq::core {
namespace {

using rtree::DataEntry;
using test::CollinearRow;
using test::Duplicates;
using test::Lattice;
using test::TreeFixture;
using test::UniverseBoundary;

const geo::Rect kUnit(0.0, 0.0, 1.0, 1.0);

// (incoming id, displaced id): an influence pair's identity.
using PairKey = std::pair<rtree::ObjectId, rtree::ObjectId>;

std::set<PairKey> PairSet(const NnValidityResult& r) {
  std::set<PairKey> keys;
  for (const InfluencePair& p : r.influence_pairs()) {
    keys.insert({p.incoming.id, p.displaced.id});
  }
  return keys;
}

// Pairs of `from` (by key) that `other` does not ship must not cut
// `other`'s region.
void ExpectRedundant(const NnValidityResult& from,
                     const std::set<PairKey>& other_keys,
                     const NnValidityResult& other, const std::string& where) {
  for (const InfluencePair& p : from.influence_pairs()) {
    if (other_keys.count({p.incoming.id, p.displaced.id}) != 0) continue;
    EXPECT_FALSE(other.region().IsCutBy(
        geo::BisectorTowards(p.displaced.point, p.incoming.point)))
        << where << ": pair (" << p.incoming.id << ", " << p.displaced.id
        << ") cuts the other engine's region";
  }
}

struct Case {
  std::string name;
  std::vector<DataEntry> entries;
  geo::Rect universe;
  bool uniform = false;
  // N <= k: the region must be the universe, with no influence pairs.
  bool whole_universe = false;
  // (k, number of queries)
  std::vector<std::pair<size_t, size_t>> plan;
  uint64_t seed = 1;
};

struct Tally {
  size_t differing = 0;     // queries whose pair sets differ
  double worst_area = 0.0;  // worst relative region-area difference
};

void CheckQuery(const Case& c, const geo::Point& q, size_t k,
                NnValidityEngine* tree_engine, NnValidityEngine* routed_engine,
                const std::string& where, Tally* tally) {
  const NnValidityResult oracle = tree_engine->QueryTpnn(q, k);
  const NnValidityResult served = tree_engine->Query(q, k);
  const NnValidityResult routed = routed_engine->Query(q, k);

  // Answers: ids, order, bit-equal distances.
  ASSERT_EQ(served.answers().size(), oracle.answers().size()) << where;
  for (size_t a = 0; a < served.answers().size(); ++a) {
    ASSERT_EQ(served.answers()[a].entry.id, oracle.answers()[a].entry.id)
        << where;
    ASSERT_EQ(served.answers()[a].distance, oracle.answers()[a].distance)
        << where;
  }

  // The router serves exactly what the single tree serves.
  const auto served_bytes = wire::EncodeNnResult(served).value();
  ASSERT_EQ(wire::EncodeNnResult(routed).value(), served_bytes) << where;
  ASSERT_EQ(routed.region().vertices(), served.region().vertices()) << where;

  // Influence pairs against the oracle.
  const std::set<PairKey> served_keys = PairSet(served);
  const std::set<PairKey> oracle_keys = PairSet(oracle);
  if (served_keys == oracle_keys) {
    EXPECT_EQ(served_bytes, wire::EncodeNnResult(oracle).value()) << where;
  } else {
    EXPECT_FALSE(c.uniform) << where << ": pair sets differ";
    ++tally->differing;
    ExpectRedundant(served, oracle_keys, oracle, where);
    ExpectRedundant(oracle, served_keys, served, where);
  }

  if (c.whole_universe) {
    EXPECT_TRUE(served.influence_pairs().empty()) << where;
    EXPECT_EQ(served.region().Area(), c.universe.Area()) << where;
  }

  // Region areas.
  const double a1 = served.region().Area();
  const double a2 = oracle.region().Area();
  const double rel = std::abs(a1 - a2) / std::max(a1, a2);
  tally->worst_area = std::max(tally->worst_area, rel);
  EXPECT_LE(rel, 1e-7) << where << ": areas " << a1 << " vs " << a2;
}

// Runs the case's plan; returns the number of queries checked.
size_t RunCase(const Case& c) {
  TreeFixture fx(c.entries, 256);
  NnValidityEngine tree_engine(fx.tree.get(), c.universe);
  partition::PartitionedServerOptions options;
  options.fragments = 4;
  partition::PartitionedServer sharded(c.entries, c.universe, options);
  NnValidityEngine routed_engine(&sharded.router(), c.universe);

  Rng rng(c.seed);
  size_t total = 0;
  for (const auto& [k, count] : c.plan) {
    Tally tally;
    for (size_t i = 0; i < count; ++i) {
      const geo::Point q{rng.Uniform(c.universe.min_x, c.universe.max_x),
                         rng.Uniform(c.universe.min_y, c.universe.max_y)};
      CheckQuery(c, q, k, &tree_engine, &routed_engine,
                 c.name + " k=" + std::to_string(k) + " query " +
                     std::to_string(i),
                 &tally);
      if (::testing::Test::HasFatalFailure()) return total;
      ++total;
    }
    std::printf("%s k=%zu: %zu queries, %zu with differing pair sets, "
                "worst relative area difference %.3g\n",
                c.name.c_str(), k, count, tally.differing, tally.worst_area);
  }
  return total;
}

// -- Cases (10,000 queries in all) -------------------------------------------

TEST(NnEngineDifferentialTest, Uniform20k) {
  Case c{"uniform-20k", workload::MakeUnitUniform(20000, 1501).entries,
         kUnit, true, false, {{1, 1500}, {2, 1000}, {8, 600}, {10, 600}}, 1502};
  EXPECT_EQ(RunCase(c), 3700u);
}

// TPNN costs about 2 ms per query at k = 10 on 100k points, so that
// configuration gets a small share.
TEST(NnEngineDifferentialTest, Uniform100k) {
  Case c{"uniform-100k", workload::MakeUnitUniform(100000, 1511).entries,
         kUnit, true, false, {{1, 1000}, {2, 500}, {8, 200}, {10, 100}}, 1512};
  EXPECT_EQ(RunCase(c), 1800u);
}

TEST(NnEngineDifferentialTest, GrLike) {
  const workload::Dataset gr = workload::MakeGrLike(1521);
  Case c{"gr-like", gr.entries, gr.universe, false, false,
         {{1, 1000}, {2, 300}, {8, 200}, {10, 300}}, 1522};
  EXPECT_EQ(RunCase(c), 1800u);
}

TEST(NnEngineDifferentialTest, IntegerLattice) {
  Case c{"lattice-100x100", Lattice(100), geo::Rect(0.0, 0.0, 99.0, 99.0),
         false, false, {{1, 300}, {2, 200}, {8, 200}, {10, 200}}, 1532};
  EXPECT_EQ(RunCase(c), 900u);
}

TEST(NnEngineDifferentialTest, DuplicateCoordinates) {
  Case c{"duplicates", Duplicates(3000, 1541), kUnit, false, false,
         {{1, 150}, {2, 150}, {8, 150}, {10, 150}}, 1542};
  EXPECT_EQ(RunCase(c), 600u);
}

TEST(NnEngineDifferentialTest, CollinearRow) {
  Case c{"collinear-row", CollinearRow(1000, 1551), kUnit, false, false,
         {{1, 100}, {2, 100}, {8, 100}, {10, 100}}, 1552};
  EXPECT_EQ(RunCase(c), 400u);
}

TEST(NnEngineDifferentialTest, UniverseEdgesAndCorners) {
  Case c{"universe-boundary", UniverseBoundary(400, 1561), kUnit, false, false,
         {{1, 150}, {2, 150}, {8, 150}, {10, 150}}, 1562};
  EXPECT_EQ(RunCase(c), 600u);
}

// Query points on the boundary of an earlier validity region, where a
// client that walked out of its region asks again (push_walk's
// re-queries): q is tied between its k-th answer and an outside object.
// Here TPkNN finds that object at influence time 0 toward every vertex
// on its side and confirms them as already seen, so QueryTpnn can miss
// a short edge next to q. Query is held to brute force instead: no
// bisector of any outside object against any answer cuts its region.
// The case prints how often QueryTpnn's region fails the same check.
TEST(NnEngineDifferentialTest, RegionBoundaryQueries) {
  const auto dataset = workload::MakeUnitUniform(5000, 1591);
  TreeFixture fx(dataset.entries, 256);
  NnValidityEngine engine(fx.tree.get(), kUnit);
  // Whether some outside object's bisector against an answer cuts
  // `region` (i.e. the answers are wrong somewhere inside it).
  auto cut_by_outsider = [&](const NnValidityResult& r) {
    std::set<rtree::ObjectId> answer_ids;
    for (const rtree::Neighbor& a : r.answers()) answer_ids.insert(a.entry.id);
    for (const DataEntry& p : dataset.entries) {
      if (answer_ids.count(p.id) != 0) continue;
      for (const rtree::Neighbor& a : r.answers()) {
        if (r.region().IsCutBy(geo::BisectorTowards(a.entry.point, p.point))) {
          return true;
        }
      }
    }
    return false;
  };
  Rng rng(1592);
  for (size_t k : {1u, 2u, 8u, 10u}) {
    size_t tpnn_unsound = 0;
    const size_t count = 50;
    for (size_t i = 0; i < count; ++i) {
      const geo::Point q0{rng.Uniform(0.05, 0.95), rng.Uniform(0.05, 0.95)};
      const NnValidityResult earlier = engine.Query(q0, k);
      const std::vector<geo::Point>& v = earlier.region().vertices();
      const size_t e = rng.NextBounded(static_cast<uint32_t>(v.size()));
      const double t = rng.Uniform(0.1, 0.9);
      const geo::Point& a = v[e];
      const geo::Point& b = v[(e + 1) % v.size()];
      const geo::Point q{a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)};
      const std::string where =
          "k=" + std::to_string(k) + " query " + std::to_string(i);

      const NnValidityResult served = engine.Query(q, k);
      const NnValidityResult oracle = engine.QueryTpnn(q, k);
      ASSERT_EQ(served.answers().size(), oracle.answers().size()) << where;
      for (size_t j = 0; j < served.answers().size(); ++j) {
        ASSERT_EQ(served.answers()[j].entry.id, oracle.answers()[j].entry.id)
            << where;
        ASSERT_EQ(served.answers()[j].distance, oracle.answers()[j].distance)
            << where;
      }
      EXPECT_FALSE(cut_by_outsider(served)) << where;
      EXPECT_LE(served.region().Area(),
                oracle.region().Area() * (1.0 + 1e-9))
          << where;
      if (cut_by_outsider(oracle)) ++tpnn_unsound;
    }
    std::printf("region-boundary k=%zu: %zu queries, QueryTpnn's region is "
                "cut by an outside object in %zu\n",
                k, count, tpnn_unsound);
  }
}

// A pinned instance of the above, from a random-waypoint walk over 20k
// uniform points (the serving benchmark's push_walk, seed 1): the client
// left its 8-NN region and asked again at the crossing point. QueryTpnn
// misses the influence pair (6222, 7360), whose edge is 6.7e-6 long, and
// its region holds points where object 6222 is nearer than answer 7360.
TEST(NnEngineDifferentialTest, PinnedRegionExitQuery) {
  const auto dataset =
      workload::MakeUnitUniform(20000, 10451216379200822465ULL);
  TreeFixture fx(dataset.entries, 256);
  NnValidityEngine engine(fx.tree.get(), kUnit);
  const geo::Point q{0x1.fe59db1d030f8p-2, 0x1.b5e7e6af195afp-1};
  const NnValidityResult served = engine.Query(q, 8);
  const NnValidityResult oracle = engine.QueryTpnn(q, 8);
  ASSERT_EQ(test::Ids(served.answers()), test::Ids(oracle.answers()));
  const auto has_pair = [](const NnValidityResult& r) {
    for (const InfluencePair& p : r.influence_pairs()) {
      if (p.incoming.id == 6222 && p.displaced.id == 7360) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_pair(served));
  EXPECT_FALSE(has_pair(oracle));
  const DataEntry& incoming = dataset.entries[6222];
  ASSERT_EQ(incoming.id, 6222u);
  const DataEntry& displaced = dataset.entries[7360];
  ASSERT_EQ(displaced.id, 7360u);
  const geo::HalfPlane h =
      geo::BisectorTowards(displaced.point, incoming.point);
  EXPECT_FALSE(served.region().IsCutBy(h));
  EXPECT_TRUE(oracle.region().IsCutBy(h));
}

// N <= k: the answers are the whole data set and the region is the
// universe, with no influence pairs.
TEST(NnEngineDifferentialTest, FewerPointsThanK) {
  size_t total = 0;
  for (size_t n : {1u, 2u, 8u, 10u}) {
    Case c{"n=" + std::to_string(n),
           workload::MakeUnitUniform(n, 1570 + n).entries, kUnit, false, true,
           {{n, 25}, {10, 25}}, 1580 + n};
    total += RunCase(c);
  }
  EXPECT_EQ(total, 200u);
}

}  // namespace
}  // namespace lbsq::core
