#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cache/semantic_cache.h"
#include "common/rng.h"
#include "core/spatial_backend.h"
#include "geometry/point.h"
#include "geometry/rect.h"
#include "partition/fragment_router.h"
#include "partition/partitioned_server.h"
#include "partition/str_partition.h"
#include "rtree/knn.h"
#include "rtree/rtree.h"
#include "tests/test_util.h"
#include "workload/datasets.h"

namespace lbsq::partition {
namespace {

using test::TreeFixture;

const geo::Rect kUnit(0.0, 0.0, 1.0, 1.0);

// Fragment trees plus a router over them, bulk-loaded from a layout.
struct RouterFixture {
  std::vector<std::unique_ptr<TreeFixture>> fragments;
  std::optional<FragmentRouter> router;

  RouterFixture(const std::vector<rtree::DataEntry>& entries,
                const geo::Rect& universe, size_t k) {
    PartitionLayout layout(entries, universe, k);
    std::vector<std::vector<rtree::DataEntry>> buckets =
        PartitionEntries(layout, entries);
    std::vector<rtree::RTree*> trees;
    for (size_t f = 0; f < k; ++f) {
      fragments.push_back(std::make_unique<TreeFixture>(buckets[f], 64));
      trees.push_back(fragments.back()->tree.get());
    }
    router.emplace(std::move(trees), std::move(layout));
  }
};

// The first k objects of `backend`'s nearest-first stream: the k-NN
// answers the serving engine takes from it.
std::vector<rtree::Neighbor> FirstK(core::SpatialBackend& backend,
                                    const geo::Point& q, size_t k) {
  std::vector<rtree::Neighbor> out;
  backend.BrowseNearest(q, [&](const rtree::Neighbor& n) {
    out.push_back(n);
    return out.size() < k ? std::numeric_limits<double>::infinity() : 0.0;
  });
  return out;
}

// Ids in answer order, each with its distance (compared bit for bit).
std::vector<std::pair<rtree::ObjectId, double>> Ranked(
    const std::vector<rtree::Neighbor>& neighbors) {
  std::vector<std::pair<rtree::ObjectId, double>> out;
  for (const rtree::Neighbor& n : neighbors) {
    out.push_back({n.entry.id, n.distance});
  }
  return out;
}

TEST(PartitionLayoutTest, TilesUniverseAndRoutesConsistently) {
  const auto dataset = workload::MakeUnitUniform(4000, 31);
  for (size_t k : {1u, 2u, 4u, 8u}) {
    PartitionLayout layout(dataset.entries, kUnit, k);
    ASSERT_EQ(layout.num_fragments(), k);
    // Ownership rects tile the universe: every point routes to the
    // fragment whose rect contains it.
    for (const rtree::DataEntry& e : dataset.entries) {
      const size_t owner = layout.OwnerOf(e.point);
      ASSERT_LT(owner, k);
      EXPECT_TRUE(layout.OwnershipRect(owner).Contains(e.point));
    }
    // Roughly balanced buckets (within 3x of ideal on uniform data).
    const auto buckets = PartitionEntries(layout, dataset.entries);
    for (const auto& bucket : buckets) {
      EXPECT_GT(bucket.size(), dataset.entries.size() / (3 * k));
      EXPECT_LT(bucket.size(), 3 * dataset.entries.size() / k);
    }
  }
}

// The ownership rectangles PartitionLayout derived with full sorts of
// the coordinates: slab cut s at the sorted x of rank n * (bands so far)
// / K, band cuts at the sorted y of rank n * b / bands among the entries
// the slab routes (x >= cut goes right), capped at rank n - 1; an empty
// coordinate list splits the universe evenly.
std::vector<geo::Rect> SortedLayoutRects(
    const std::vector<rtree::DataEntry>& entries, const geo::Rect& universe,
    size_t fragments) {
  auto split = [](std::vector<double> values, size_t parts, size_t j,
                  double lo, double hi) {
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    if (n == 0) {
      return lo + (hi - lo) * static_cast<double>(j) /
                      static_cast<double>(parts);
    }
    return values[std::min(n * j / parts, n - 1)];
  };
  const size_t slabs = static_cast<size_t>(
      std::ceil(std::sqrt(static_cast<double>(fragments))));
  std::vector<size_t> bands(slabs, fragments / slabs);
  for (size_t s = 0; s < fragments % slabs; ++s) ++bands[s];
  std::vector<double> xs;
  for (const rtree::DataEntry& e : entries) xs.push_back(e.point.x);
  std::vector<double> slab_cuts;
  size_t cum = 0;
  for (size_t s = 0; s + 1 < slabs; ++s) {
    cum += bands[s];
    slab_cuts.push_back(
        split(xs, fragments, cum, universe.min_x, universe.max_x));
  }
  std::vector<geo::Rect> rects;
  for (size_t s = 0; s < slabs; ++s) {
    std::vector<double> ys;
    for (const rtree::DataEntry& e : entries) {
      const size_t slab = static_cast<size_t>(
          std::upper_bound(slab_cuts.begin(), slab_cuts.end(), e.point.x) -
          slab_cuts.begin());
      if (slab == s) ys.push_back(e.point.y);
    }
    const double lo_x = s == 0 ? universe.min_x : slab_cuts[s - 1];
    const double hi_x = s + 1 == slabs ? universe.max_x : slab_cuts[s];
    double lo_y = universe.min_y;
    for (size_t b = 0; b < bands[s]; ++b) {
      const double hi_y =
          b + 1 == bands[s]
              ? universe.max_y
              : split(ys, bands[s], b + 1, universe.min_y, universe.max_y);
      rects.push_back({lo_x, lo_y, hi_x, hi_y});
      lo_y = hi_y;
    }
  }
  return rects;
}

TEST(PartitionLayoutTest, SelectedBoundsEqualSortedBounds) {
  // A column of equal x and a row of equal y, so cuts land on runs of
  // duplicate coordinates.
  std::vector<rtree::DataEntry> lines;
  Rng rng(35);
  for (rtree::ObjectId id = 0; id < 3000; ++id) {
    const double t = rng.NextDouble();
    lines.push_back(id % 2 == 0 ? rtree::DataEntry{{0.5, t}, id}
                                : rtree::DataEntry{{t, 0.25}, id});
  }
  struct Set {
    const char* name;
    std::vector<rtree::DataEntry> entries;
  };
  const std::vector<Set> sets = {
      {"uniform", workload::MakeUnitUniform(5000, 33).entries},
      {"lattice", test::Lattice(40)},
      {"duplicates", test::Duplicates(700, 34)},
      {"lines", lines},
      {"empty", {}},
      {"three", workload::MakeUnitUniform(3, 36).entries},
  };
  const geo::Rect universe(-1.0, -1.0, 40.0, 40.0);
  for (const Set& set : sets) {
    for (const size_t k : {1u, 2u, 4u, 7u, 9u}) {
      const std::string where =
          std::string(set.name) + " K " + std::to_string(k);
      const PartitionLayout layout(set.entries, universe, k);
      const std::vector<geo::Rect> expect =
          SortedLayoutRects(set.entries, universe, k);
      ASSERT_EQ(layout.num_fragments(), expect.size()) << where;
      for (size_t f = 0; f < k; ++f) {
        EXPECT_EQ(layout.OwnershipRect(f), expect[f])
            << where << " fragment " << f;
      }
      for (const rtree::DataEntry& e : set.entries) {
        const size_t owner = layout.OwnerOf(e.point);
        ASSERT_TRUE(expect[owner].Contains(e.point)) << where;
      }
    }
  }
}

TEST(PartitionLayoutTest, StrictOwnershipRejectsSharedEdges) {
  const auto dataset = workload::MakeUnitUniform(1000, 32);
  PartitionLayout layout(dataset.entries, kUnit, 4);
  for (size_t f = 0; f < 4; ++f) {
    const geo::Rect own = layout.OwnershipRect(f);
    // A rectangle strictly inside the ownership tile is strictly owned.
    const double mx = (own.min_x + own.max_x) / 2;
    const double my = (own.min_y + own.max_y) / 2;
    const geo::Rect inner{(own.min_x + mx) / 2, (own.min_y + my) / 2,
                          (mx + own.max_x) / 2, (my + own.max_y) / 2};
    EXPECT_TRUE(layout.StrictlyOwns(f, inner));
    // The full tile is strictly owned only when no neighbor exists on
    // the max edges (a point exactly on a shared interior edge routes
    // to the right/upper neighbor).
    const bool max_edges_on_universe =
        own.max_x == kUnit.max_x && own.max_y == kUnit.max_y;
    EXPECT_EQ(layout.StrictlyOwns(f, own), max_edges_on_universe) << f;
    // The whole universe is never strictly owned with K > 1.
    EXPECT_FALSE(layout.StrictlyOwns(f, kUnit));
  }
  // Degenerate K = 1: one fragment strictly owns everything.
  PartitionLayout single(dataset.entries, kUnit, 1);
  EXPECT_TRUE(single.StrictlyOwns(0, kUnit));
}

TEST(FragmentRouterTest, KnnMatchesSingleTreeOnClusteredData) {
  // Clustered data, and a 64x64 integer lattice whose queries on lattice
  // points and cell centres tie four ways, often across a fragment
  // boundary: the router's stream must break every tie by id as one
  // tree does.
  struct DataSet {
    std::string name;
    std::vector<rtree::DataEntry> entries;
    geo::Rect universe;
    std::vector<geo::Point> queries;
  };
  Rng rng(46);
  DataSet clustered{
      "clustered",
      workload::MakeClustered(5000, kUnit, 8, 1.1, 0.01, 0.05, 0.1, 41)
          .entries,
      kUnit,
      {}};
  for (size_t i = 0; i < 200; ++i) {
    clustered.queries.push_back(
        {(i % 20) * 0.05 + 0.007, (i / 20) * 0.1 + 0.013});
  }
  for (size_t i = 0; i < 100; ++i) {
    clustered.queries.push_back({rng.NextDouble(), rng.NextDouble()});
  }
  DataSet lattice{"lattice", {}, geo::Rect(0.0, 0.0, 63.0, 63.0), {}};
  rtree::ObjectId id = 0;
  for (int x = 0; x < 64; ++x) {
    for (int y = 0; y < 64; ++y) {
      lattice.entries.push_back(
          {{static_cast<double>(x), static_cast<double>(y)}, id++});
    }
  }
  for (size_t i = 0; i < 100; ++i) {
    const double x = static_cast<double>(rng.NextBounded(64));
    const double y = static_cast<double>(rng.NextBounded(64));
    lattice.queries.push_back({x, y});
    lattice.queries.push_back(
        {std::min(x, 62.0) + 0.5, std::min(y, 62.0) + 0.5});
    lattice.queries.push_back({rng.Uniform(0.0, 63.0), rng.Uniform(0.0, 63.0)});
  }

  for (const DataSet* set : {&clustered, &lattice}) {
    TreeFixture single(set->entries, 256);
    for (size_t fragments : {2u, 4u, 8u}) {
      RouterFixture sharded(set->entries, set->universe, fragments);
      for (size_t i = 0; i < set->queries.size(); ++i) {
        const geo::Point& q = set->queries[i];
        for (size_t k : {1u, 4u, 10u}) {
          const uint64_t opened = sharded.router->fanout_fragments();
          const auto expect = rtree::KnnBestFirst(*single.tree, q, k);
          const auto got = FirstK(*sharded.router, q, k);
          ASSERT_EQ(Ranked(expect), Ranked(got))
              << set->name << " K " << fragments << " q " << i << " k " << k;
          ASSERT_GE(sharded.router->fanout_fragments() - opened, 1u);
        }
      }
    }
  }
}

TEST(FragmentRouterTest, FrontierStopsBeforeFarFragments) {
  // Four tight corner clusters; K = 4 puts each in its own fragment, so
  // a query deep inside one cluster must not visit all four.
  std::vector<rtree::DataEntry> entries;
  const geo::Point corners[4] = {{0.1, 0.1}, {0.9, 0.1}, {0.1, 0.9}, {0.9, 0.9}};
  rtree::ObjectId id = 0;
  for (const geo::Point& c : corners) {
    for (int i = 0; i < 50; ++i) {
      entries.push_back({{c.x + (i % 7) * 0.003, c.y + (i / 7) * 0.003}, id++});
    }
  }
  TreeFixture single(entries, 64);
  RouterFixture sharded(entries, kUnit, 4);
  const geo::Point q{0.1, 0.1};
  const uint64_t opened = sharded.router->fanout_fragments();
  const auto expect = rtree::KnnBestFirst(*single.tree, q, 5);
  const auto got = FirstK(*sharded.router, q, 5);
  EXPECT_EQ(Ranked(expect), Ranked(got));
  EXPECT_LT(sharded.router->fanout_fragments() - opened, 4u);
}

TEST(FragmentRouterTest, DegenerateSingleFragmentMatchesTree) {
  const auto dataset = workload::MakeUnitUniform(2000, 42);
  TreeFixture single(dataset.entries, 64);
  RouterFixture sharded(dataset.entries, kUnit, 1);
  core::RTreeBackend oracle(single.tree.get());

  const geo::Point q{0.4, 0.6};
  EXPECT_EQ(Ranked(rtree::KnnBestFirst(*single.tree, q, 7)),
            Ranked(FirstK(*sharded.router, q, 7)));

  std::vector<rtree::DataEntry> expect, got;
  const geo::Rect w{0.2, 0.2, 0.5, 0.7};
  oracle.WindowQuery(w, &expect);
  sharded.router->WindowQuery(w, &got);
  EXPECT_EQ(test::Ids(expect), test::Ids(got));
  EXPECT_EQ(sharded.router->size(), single.tree->size());
}

TEST(FragmentRouterTest, WindowSpanningAllFragmentsReturnsCanonicalUnion) {
  // The router returns the union in fragment order, one tree in its own
  // traversal order; in canonical order the two are the same entries.
  const auto dataset = workload::MakeUnitUniform(3000, 43);
  TreeFixture single(dataset.entries, 64);
  for (size_t k : {2u, 4u, 8u}) {
    RouterFixture sharded(dataset.entries, kUnit, k);
    std::vector<rtree::DataEntry> expect, got;
    core::RTreeBackend oracle(single.tree.get());
    oracle.WindowQuery(kUnit, &expect);  // the whole universe
    sharded.router->WindowQuery(kUnit, &got);
    ASSERT_EQ(expect.size(), dataset.entries.size());
    core::SpatialBackend::SortCanonical(&expect);
    core::SpatialBackend::SortCanonical(&got);
    ASSERT_EQ(got.size(), expect.size()) << "K " << k;
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].id, expect[i].id) << "K " << k << " pos " << i;
      ASSERT_EQ(got[i].point, expect[i].point) << "K " << k << " pos " << i;
    }
  }
}

TEST(FragmentRouterTest, KnnTieOnFragmentBisectorPrefersSmallerId) {
  // Two points symmetric about the K = 2 fragment boundary at exactly
  // equal (power-of-two) distances from the query: the global
  // (distance, id) order must pick the smaller id even though it lives
  // in the farther-visited fragment.
  std::vector<rtree::DataEntry> entries = {
      {{0.25, 0.5}, 9},   // fragment 0
      {{0.75, 0.5}, 3},   // fragment 1 (x >= boundary routes right)
      {{0.05, 0.05}, 20}, {{0.95, 0.95}, 21},  // keep both fragments busy
  };
  TreeFixture single(entries, 64);
  RouterFixture sharded(entries, kUnit, 2);
  ASSERT_NE(sharded.router->OwnerOf({0.25, 0.5}),
            sharded.router->OwnerOf({0.75, 0.5}));

  const geo::Point q{0.5, 0.5};  // exactly 0.25 from both candidates
  const auto got = FirstK(*sharded.router, q, 1);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].entry.id, 3u);
  EXPECT_EQ(Ranked(rtree::KnnBestFirst(*single.tree, q, 1)), Ranked(got));
  // Both tie candidates must appear, ordered by id, for k = 2.
  const auto both = FirstK(*sharded.router, q, 2);
  ASSERT_EQ(both.size(), 2u);
  EXPECT_EQ(both[0].entry.id, 3u);
  EXPECT_EQ(both[1].entry.id, 9u);
  EXPECT_EQ(both[0].distance, both[1].distance);
}

TEST(FragmentRouterTest, RoutingTableSurvivesConcurrentReaders) {
  const auto dataset = workload::MakeUnitUniform(2000, 44);
  RouterFixture sharded(dataset.entries, kUnit, 4);
  FragmentRouter& router = *sharded.router;

  // One mutator inserts into fragment trees and refreshes the routing
  // table; readers hammer the table accessors. The trees themselves are
  // single-writer (only the mutator touches them) — the shared state
  // under test is the mutex-guarded table.
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&router, &stop] {
      uint64_t sink = 0;
      do {
        for (size_t f = 0; f < router.num_fragments(); ++f) {
          sink += router.FragmentSize(f);
          sink += router.FragmentExtent(f).IsEmpty() ? 0 : 1;
        }
        sink += router.OwnerOf({0.3, 0.3});
      } while (!stop.load(std::memory_order_relaxed));
      EXPECT_GT(sink, 0u);  // every fragment is non-empty here
    });
  }
  for (int i = 0; i < 500; ++i) {
    const geo::Point p{0.001 * (i % 1000), 0.002 * (i % 500)};
    const size_t owner = router.OwnerOf(p);
    sharded.fragments[owner]->tree->Insert(p, 100000 + i);
    router.RefreshFragment(owner);
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(router.size(), dataset.entries.size() + 500);
}

TEST(PartitionedServerTest, UpdateBlastRadiusStaysInOwnerFragment) {
  const auto dataset =
      workload::MakeClustered(8000, kUnit, 16, 1.1, 0.01, 0.05, 0.1, 45);
  PartitionedServerOptions options;
  options.fragments = 4;
  PartitionedServer server(dataset.entries, kUnit, options);

  cache::CacheConfig config;
  config.max_entries = 4096;
  config.max_bytes = 8u << 20;
  server.EnableCache(config);

  // Find a k-NN query whose kill footprint lands in fragment 0's cache:
  // dense data points deep inside the tile have tiny validity cells.
  // (Sparse queries legitimately fall into the boundary cache — the
  // point of this test is that *owned* entries dodge remote updates.)
  geo::Point q{0, 0};
  rtree::ObjectId q_id = 0;
  bool placed = false;
  for (const rtree::DataEntry& e : dataset.entries) {
    if (server.layout().OwnerOf(e.point) != 0) continue;
    const size_t owned_before = server.owner_cache_inserts();
    ASSERT_TRUE(server.NnQueryWireShared(e.point, 1).ok());
    if (server.owner_cache_inserts() > owned_before) {
      q = e.point;
      q_id = e.id;
      placed = true;
      break;
    }
  }
  ASSERT_TRUE(placed) << "no query produced a fragment-owned cache entry";
  ASSERT_TRUE(server.NnQueryWireShared(q, 1).ok());
  ASSERT_TRUE(server.last_wire_from_cache());

  // An insert deep inside fragment 3's tile never touches fragment 0's
  // cache: the cached answer keeps serving.
  const geo::Rect tile3 = server.layout().OwnershipRect(3);
  const geo::Point far{(tile3.min_x + tile3.max_x) / 2,
                       (tile3.min_y + tile3.max_y) / 2};
  ASSERT_NE(server.layout().OwnerOf(far), server.layout().OwnerOf(q));
  server.Insert(far, 900001);
  ASSERT_TRUE(server.NnQueryWireShared(q, 1).ok());
  EXPECT_TRUE(server.last_wire_from_cache());

  // Deleting the cached answer object itself kills the entry — through
  // the owner fragment's cache, not a global nuke.
  const size_t owner_kills_before = server.owner_cache_kills();
  ASSERT_TRUE(server.Delete(q, q_id));
  ASSERT_TRUE(server.NnQueryWireShared(q, 1).ok());
  EXPECT_FALSE(server.last_wire_from_cache());
  EXPECT_GT(server.owner_cache_kills(), owner_kills_before);
}

TEST(PartitionedServerTest, InfoReportsPerFragmentStats) {
  const auto dataset = workload::MakeUnitUniform(4000, 46);
  PartitionedServerOptions options;
  options.fragments = 4;
  PartitionedServer server(dataset.entries, kUnit, options);
  cache::CacheConfig config;
  server.EnableCache(config);
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(
        server.NnQueryWireShared({0.03 * i, 1.0 - 0.03 * i}, 2).ok());
  }

  const core::ServiceInfo info = server.info();
  EXPECT_EQ(info.points, dataset.entries.size());
  EXPECT_TRUE(info.cache_enabled);
  ASSERT_EQ(info.fragments.size(), 4u);
  size_t points = 0;
  uint64_t lookups = 0;
  for (size_t f = 0; f < info.fragments.size(); ++f) {
    const core::FragmentStat& stat = info.fragments[f];
    EXPECT_GT(stat.points, 0u);
    EXPECT_FALSE(stat.mbr.IsEmpty());
    // The fragment MBR is conservative but within the universe, and its
    // points all live inside the fragment's ownership tile.
    EXPECT_GE(stat.mbr.min_x, kUnit.min_x);
    EXPECT_LE(stat.mbr.max_x, kUnit.max_x);
    points += stat.points;
    lookups += stat.cache_lookups;
  }
  EXPECT_EQ(points, dataset.entries.size());
  EXPECT_GT(lookups, 0u);
}

}  // namespace
}  // namespace lbsq::partition
