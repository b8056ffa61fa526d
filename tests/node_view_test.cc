#include <cstddef>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "geometry/point.h"
#include "geometry/rect.h"
#include "rtree/knn.h"
#include "rtree/node.h"
#include "rtree/rtree.h"
#include "storage/page.h"
#include "storage/page_manager.h"
#include "tests/test_util.h"

// Differential tests for the zero-copy NodeView read path: every field a
// NodeView decodes must match the materialized Node, and every converted
// traversal (window, best-first k-NN) must return the same results with
// the same node/page access counts as its FetchNode-based oracle in
// tests/test_util.h.

namespace lbsq {
namespace {

using rtree::DataEntry;
using rtree::Neighbor;

std::vector<DataEntry> RandomData(size_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> coord(0.0, 1.0);
  std::vector<DataEntry> data;
  data.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    data.push_back({{coord(rng), coord(rng)}, static_cast<uint32_t>(i)});
  }
  return data;
}

TEST(NodeViewTest, DecodesLeafPagesIdenticallyToNode) {
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> coord(-1e6, 1e6);
  std::uniform_int_distribution<uint32_t> count(0, rtree::kLeafCapacity);
  for (int round = 0; round < 50; ++round) {
    rtree::Node node;
    node.level = 0;
    const uint32_t n = count(rng);
    for (uint32_t i = 0; i < n; ++i) {
      node.data.push_back(
          {{coord(rng), coord(rng)}, static_cast<uint32_t>(rng())});
    }
    storage::Page page;
    node.SerializeTo(&page);

    const rtree::Node decoded = rtree::Node::DeserializeFrom(page);
    const rtree::NodeView view(page);
    ASSERT_EQ(view.level(), decoded.level);
    ASSERT_TRUE(view.is_leaf());
    ASSERT_EQ(view.size(), decoded.data.size());
    for (size_t i = 0; i < view.size(); ++i) {
      EXPECT_EQ(view.point(i).x, decoded.data[i].point.x);
      EXPECT_EQ(view.point(i).y, decoded.data[i].point.y);
      EXPECT_EQ(view.object_id(i), decoded.data[i].id);
      EXPECT_EQ(view.data_entry(i).id, decoded.data[i].id);
    }
    const geo::Rect want = decoded.ComputeMbr();
    const geo::Rect got = view.ComputeMbr();
    EXPECT_EQ(got.min_x, want.min_x);
    EXPECT_EQ(got.min_y, want.min_y);
    EXPECT_EQ(got.max_x, want.max_x);
    EXPECT_EQ(got.max_y, want.max_y);
  }
}

TEST(NodeViewTest, DecodesInternalPagesIdenticallyToNode) {
  std::mt19937 rng(11);
  std::uniform_real_distribution<double> coord(-1e6, 1e6);
  std::uniform_int_distribution<uint32_t> count(1, rtree::kInternalCapacity);
  for (int round = 0; round < 50; ++round) {
    rtree::Node node;
    node.level = static_cast<uint16_t>(1 + round % 5);
    const uint32_t n = count(rng);
    for (uint32_t i = 0; i < n; ++i) {
      const double x = coord(rng), y = coord(rng);
      node.children.push_back({geo::Rect{x, y, x + 1.0, y + 2.0},
                               static_cast<uint32_t>(rng() % 100000)});
    }
    storage::Page page;
    node.SerializeTo(&page);

    const rtree::Node decoded = rtree::Node::DeserializeFrom(page);
    const rtree::NodeView view(page);
    ASSERT_EQ(view.level(), decoded.level);
    ASSERT_FALSE(view.is_leaf());
    ASSERT_EQ(view.size(), decoded.children.size());
    for (size_t i = 0; i < view.size(); ++i) {
      const geo::Rect want = decoded.children[i].mbr;
      const geo::Rect got = view.child_mbr(i);
      EXPECT_EQ(got.min_x, want.min_x);
      EXPECT_EQ(got.min_y, want.min_y);
      EXPECT_EQ(got.max_x, want.max_x);
      EXPECT_EQ(got.max_y, want.max_y);
      EXPECT_EQ(view.child_page(i), decoded.children[i].child);
      EXPECT_EQ(view.child_entry(i).child, decoded.children[i].child);
    }
  }
}

// NA/PA pair for one query run from a cold, zeroed buffer.
struct Access {
  uint64_t na = 0;
  uint64_t pa = 0;
};

template <typename Fn>
Access Measure(rtree::RTree& tree, storage::PageManager& disk, Fn&& fn) {
  tree.buffer().Clear();
  tree.buffer().ResetCounters();
  disk.ResetCounters();
  fn();
  return {tree.buffer().logical_accesses(), disk.read_count()};
}

void ExpectSameNeighbors(const std::vector<Neighbor>& got,
                         const std::vector<Neighbor>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].entry.id, want[i].entry.id) << "rank " << i;
    EXPECT_EQ(got[i].distance, want[i].distance) << "rank " << i;
  }
}

void ExpectSameEntries(const std::vector<DataEntry>& got,
                       const std::vector<DataEntry>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << "index " << i;
    EXPECT_EQ(got[i].point.x, want[i].point.x) << "index " << i;
    EXPECT_EQ(got[i].point.y, want[i].point.y) << "index " << i;
  }
}

// Runs the view-vs-legacy differential on one tree: same results, same
// node accesses, same page accesses (from an identically cold buffer).
void RunDifferential(rtree::RTree& tree, storage::PageManager& disk,
                     uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> coord(0.0, 1.0);
  std::uniform_real_distribution<double> extent(0.001, 0.1);
  std::uniform_int_distribution<size_t> kdist(1, 50);

  for (int round = 0; round < 20; ++round) {
    const geo::Point q{coord(rng), coord(rng)};
    const size_t k = kdist(rng);

    std::vector<Neighbor> got, want;
    const Access view_access =
        Measure(tree, disk, [&] { got = rtree::KnnBestFirst(tree, q, k); });
    const Access legacy_access = Measure(
        tree, disk, [&] { want = test::KnnBestFirstLegacy(tree, q, k); });
    ExpectSameNeighbors(got, want);
    EXPECT_EQ(view_access.na, legacy_access.na) << "kNN NA, round " << round;
    EXPECT_EQ(view_access.pa, legacy_access.pa) << "kNN PA, round " << round;

    const geo::Rect w =
        geo::Rect::Centered({coord(rng), coord(rng)}, extent(rng), extent(rng));
    std::vector<DataEntry> got_w, want_w;
    const Access view_w =
        Measure(tree, disk, [&] { tree.WindowQuery(w, &got_w); });
    const Access legacy_w =
        Measure(tree, disk,
                [&] { test::WindowQueryLegacy(tree, w, &want_w); });
    ExpectSameEntries(got_w, want_w);
    EXPECT_EQ(view_w.na, legacy_w.na) << "window NA, round " << round;
    EXPECT_EQ(view_w.pa, legacy_w.pa) << "window PA, round " << round;

    // Depth-first runs on the view path too; it must agree with best-first
    // (and hence brute force, covered elsewhere) on results.
    ExpectSameNeighbors(rtree::KnnDepthFirst(tree, q, k), want);
  }
}

TEST(NodeViewDifferentialTest, InsertionBuiltTreesAcrossSeeds) {
  for (uint32_t seed = 1; seed <= 4; ++seed) {
    storage::PageManager disk;
    // Small buffer so PA is exercised (misses happen mid-query), small
    // fan-out so the tree is several levels deep.
    rtree::RTree tree(&disk, 8, test::SmallNodeOptions());
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> coord(0.0, 1.0);
    const size_t n = 400 + 150 * seed;
    for (size_t i = 0; i < n; ++i) {
      tree.Insert({coord(rng), coord(rng)}, static_cast<uint32_t>(i));
    }
    // Delete a slice to exercise condensed/reinserted structure.
    std::mt19937 replay(seed);
    for (size_t i = 0; i < n / 5; ++i) {
      const double x = coord(replay), y = coord(replay);
      ASSERT_TRUE(tree.Delete({x, y}, static_cast<uint32_t>(i)));
    }
    RunDifferential(tree, disk, /*seed=*/100 + seed);
  }
}

TEST(NodeViewDifferentialTest, BulkLoadedPaperSizedTree) {
  storage::PageManager disk;
  rtree::RTree tree(&disk, 0, rtree::RTree::Options{});
  tree.BulkLoad(RandomData(20000, 42));
  tree.SetBufferFraction(0.1);  // the paper's 10% LRU configuration
  RunDifferential(tree, disk, /*seed=*/4242);
}

}  // namespace
}  // namespace lbsq
