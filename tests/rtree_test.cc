#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "rtree/knn.h"
#include "rtree/node.h"
#include "rtree/rtree.h"
#include "storage/page_manager.h"
#include "tests/test_util.h"
#include "workload/datasets.h"

namespace lbsq::rtree {
namespace {

using test::BruteForceKnn;
using test::BruteForceWindow;
using test::Ids;
using test::SmallNodeOptions;
using test::TreeFixture;
using workload::MakeUnitUniform;

// ---------------------------------------------------------------------------
// Node serialization
// ---------------------------------------------------------------------------

TEST(NodeTest, LeafSerializationRoundTrip) {
  Node node;
  node.level = 0;
  for (uint32_t i = 0; i < kLeafCapacity; ++i) {
    node.data.push_back({{static_cast<double>(i), -0.5 * i}, i * 3});
  }
  storage::Page page;
  node.SerializeTo(&page);
  const Node back = Node::DeserializeFrom(page);
  ASSERT_EQ(back.level, 0);
  ASSERT_EQ(back.data.size(), node.data.size());
  for (size_t i = 0; i < node.data.size(); ++i) {
    EXPECT_EQ(back.data[i].point, node.data[i].point);
    EXPECT_EQ(back.data[i].id, node.data[i].id);
  }
}

TEST(NodeTest, InternalSerializationRoundTrip) {
  Node node;
  node.level = 3;
  for (uint32_t i = 0; i < kInternalCapacity; ++i) {
    node.children.push_back(
        {geo::Rect(i, i, i + 1.0, i + 2.0), i + 100});
  }
  storage::Page page;
  node.SerializeTo(&page);
  const Node back = Node::DeserializeFrom(page);
  ASSERT_EQ(back.level, 3);
  ASSERT_EQ(back.children.size(), node.children.size());
  for (size_t i = 0; i < node.children.size(); ++i) {
    EXPECT_EQ(back.children[i].mbr, node.children[i].mbr);
    EXPECT_EQ(back.children[i].child, node.children[i].child);
  }
}

TEST(NodeTest, CapacitiesMatchPaperLayout) {
  EXPECT_EQ(kLeafCapacity, 204u);
  EXPECT_EQ(kDataEntrySize, 20u);
  EXPECT_GE(kInternalCapacity, 100u);
}

// ---------------------------------------------------------------------------
// Construction: insert, bulk load, invariants
// ---------------------------------------------------------------------------

TEST(RTreeTest, InsertThenQuerySmall) {
  storage::PageManager disk;
  RTree tree(&disk, 16, SmallNodeOptions());
  const auto dataset = MakeUnitUniform(500, 11);
  for (const DataEntry& e : dataset.entries) tree.Insert(e.point, e.id);
  EXPECT_EQ(tree.size(), 500u);
  tree.CheckInvariants();
  EXPECT_GT(tree.height(), 1);

  std::vector<DataEntry> out;
  tree.WindowQuery(geo::Rect(0.2, 0.2, 0.5, 0.6), &out);
  std::sort(out.begin(), out.end(),
            [](const DataEntry& a, const DataEntry& b) { return a.id < b.id; });
  const auto expected =
      BruteForceWindow(dataset.entries, geo::Rect(0.2, 0.2, 0.5, 0.6));
  ASSERT_EQ(out.size(), expected.size());
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].id, expected[i].id);
  }
}

TEST(RTreeTest, BulkLoadMatchesBruteForce) {
  const auto dataset = MakeUnitUniform(5000, 23);
  TreeFixture fx(dataset.entries);
  fx.tree->CheckInvariants();
  EXPECT_EQ(fx.tree->size(), 5000u);

  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const double x = rng.Uniform(0, 0.9);
    const double y = rng.Uniform(0, 0.9);
    const geo::Rect w(x, y, x + rng.Uniform(0.01, 0.2),
                      y + rng.Uniform(0.01, 0.2));
    std::vector<DataEntry> out;
    fx.tree->WindowQuery(w, &out);
    EXPECT_EQ(Ids(out), Ids(BruteForceWindow(dataset.entries, w)));
  }
}

TEST(RTreeTest, BulkLoadEmptyAndSingle) {
  storage::PageManager disk;
  RTree tree(&disk, 4);
  tree.BulkLoad({});
  EXPECT_EQ(tree.size(), 0u);
  std::vector<DataEntry> out;
  tree.WindowQuery(geo::Rect(0, 0, 1, 1), &out);
  EXPECT_TRUE(out.empty());

  storage::PageManager disk2;
  RTree tree2(&disk2, 4);
  tree2.BulkLoad({{{0.5, 0.5}, 7}});
  tree2.WindowQuery(geo::Rect(0, 0, 1, 1), &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].id, 7u);
  tree2.CheckInvariants();
}

TEST(RTreeTest, InsertTriggersReinsertAndSplitKeepingInvariants) {
  storage::PageManager disk;
  RTree::Options options = SmallNodeOptions();
  RTree tree(&disk, 16, options);
  // Clustered insert order stresses forced reinsertion.
  const auto dataset = workload::MakeClustered(
      800, geo::Rect(0, 0, 1, 1), 10, 1.1, 0.01, 0.05, 0.1, 31);
  for (const DataEntry& e : dataset.entries) {
    tree.Insert(e.point, e.id);
  }
  tree.CheckInvariants();
  EXPECT_EQ(tree.size(), 800u);
  std::vector<DataEntry> all;
  tree.WindowQuery(geo::Rect(0, 0, 1, 1), &all);
  EXPECT_EQ(all.size(), 800u);
}

TEST(RTreeTest, MixedInsertAfterBulkLoad) {
  const auto dataset = MakeUnitUniform(1000, 5);
  TreeFixture fx(dataset.entries, 32, SmallNodeOptions());
  const auto extra = MakeUnitUniform(300, 6);
  std::vector<DataEntry> reference = dataset.entries;
  for (const DataEntry& e : extra.entries) {
    fx.tree->Insert(e.point, e.id + 10000);
    reference.push_back({e.point, e.id + 10000});
  }
  fx.tree->CheckInvariants();
  EXPECT_EQ(fx.tree->size(), 1300u);
  const geo::Rect w(0.1, 0.3, 0.6, 0.7);
  std::vector<DataEntry> out;
  fx.tree->WindowQuery(w, &out);
  EXPECT_EQ(Ids(out), Ids(BruteForceWindow(reference, w)));
}

// ---------------------------------------------------------------------------
// ChooseSubtree: the pruned criterion against the full O(n^2) one
// ---------------------------------------------------------------------------

double ReferenceOverlap(const std::vector<ChildEntry>& children, size_t skip,
                        const geo::Rect& candidate) {
  double total = 0.0;
  for (size_t i = 0; i < children.size(); ++i) {
    if (i == skip) continue;
    total += candidate.Intersection(children[i].mbr).Area();
  }
  return total;
}

// The R* ChooseSubtree criterion without pruning: at the leaf-parent
// level each child's overlap enlargement sums its grown and its current
// MBR's overlap with every sibling.
size_t ReferenceChooseSubtree(const Node& node, const geo::Rect& r) {
  size_t best = 0;
  double best_overlap_delta = std::numeric_limits<double>::infinity();
  double best_enlarge = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < node.children.size(); ++i) {
    const geo::Rect& mbr = node.children[i].mbr;
    const geo::Rect grown = mbr.ExpandedToInclude(r);
    const double overlap_delta =
        node.level == 1 ? ReferenceOverlap(node.children, i, grown) -
                              ReferenceOverlap(node.children, i, mbr)
                        : 0.0;
    const double enlarge = grown.Area() - mbr.Area();
    const double area = mbr.Area();
    if (overlap_delta < best_overlap_delta ||
        (overlap_delta == best_overlap_delta &&
         (enlarge < best_enlarge ||
          (enlarge == best_enlarge && area < best_area)))) {
      best = i;
      best_overlap_delta = overlap_delta;
      best_enlarge = enlarge;
      best_area = area;
    }
  }
  return best;
}

// A coordinate from a pool small enough that children share edges,
// coincide, degenerate to segments and points, and tie on every term.
double Pooled(Rng* rng) {
  return static_cast<double>(rng->NextBounded(5)) * 0.25;
}

geo::Rect RandomRect(Rng* rng, int style) {
  switch (style) {
    case 0: {  // overlapping boxes
      const double x = rng->NextDouble();
      const double y = rng->NextDouble();
      return {x, y, x + rng->Uniform(0.0, 0.3), y + rng->Uniform(0.0, 0.3)};
    }
    case 1: {  // cells of an 8 x 8 grid: touching, never overlapping
      const double x = static_cast<double>(rng->NextBounded(8)) / 8.0;
      const double y = static_cast<double>(rng->NextBounded(8)) / 8.0;
      return {x, y, x + 0.125, y + 0.125};
    }
    case 2: {  // pooled corners: shared edges, segments, points, copies
      const double x0 = Pooled(rng), x1 = Pooled(rng);
      const double y0 = Pooled(rng), y1 = Pooled(rng);
      return {std::min(x0, x1), std::min(y0, y1), std::max(x0, x1),
              std::max(y0, y1)};
    }
    default: {  // nested squares about one centre
      const double h = rng->Uniform(0.0, 0.5);
      return {0.5 - h, 0.5 - h, 0.5 + h, 0.5 + h};
    }
  }
}

TEST(ChooseSubtreeTest, MatchesUnprunedCriterionOnRandomAndDegenerateNodes) {
  Rng rng(81);
  for (int round = 0; round < 20000; ++round) {
    const int style = static_cast<int>(rng.NextBounded(4));
    const size_t n = 1 + rng.NextBounded(round % 10 == 0 ? 113 : 12);
    Node node;
    node.level = static_cast<uint16_t>(1 + rng.NextBounded(2));
    for (size_t i = 0; i < n; ++i) {
      node.children.push_back(
          {RandomRect(&rng, style), static_cast<storage::PageId>(i)});
    }
    geo::Rect r;
    switch (rng.NextBounded(4)) {
      case 0:
        r = geo::Rect::FromPoint({rng.NextDouble(), rng.NextDouble()});
        break;
      case 1:
        r = geo::Rect::FromPoint({Pooled(&rng), Pooled(&rng)});
        break;
      case 2: {  // a child's own corner or a copy of a child
        const geo::Rect& c = node.children[rng.NextBounded(n)].mbr;
        r = rng.NextBounded(2) == 0 ? geo::Rect::FromPoint({c.max_x, c.min_y})
                                    : c;
        break;
      }
      default:
        r = RandomRect(&rng, style);
    }
    ASSERT_EQ(RTree::ChooseSubtree(node, r), ReferenceChooseSubtree(node, r))
        << "round " << round << " style " << style << " n " << n;
  }
}

uint64_t Fnv(uint64_t h, const void* data, size_t n) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

// FNV-1a over the tree's meta and every reachable page in depth-first
// order: equal digests mean page-identical trees.
uint64_t TreeDigest(RTree& tree) {
  tree.buffer().FlushAll();
  const RTree::Meta meta = tree.meta();
  uint64_t h = 0xcbf29ce484222325ULL;
  h = Fnv(h, &meta.root, sizeof(meta.root));
  h = Fnv(h, &meta.root_level, sizeof(meta.root_level));
  h = Fnv(h, &meta.size, sizeof(meta.size));
  h = Fnv(h, &meta.num_nodes, sizeof(meta.num_nodes));
  std::vector<storage::PageId> stack = {meta.root};
  while (!stack.empty()) {
    const storage::PageId id = stack.back();
    stack.pop_back();
    const storage::Page& page = tree.disk().ReadRef(id);
    h = Fnv(h, &id, sizeof(id));
    h = Fnv(h, page.data(), storage::kPageSize);
    const Node node = Node::DeserializeFrom(page);
    for (auto it = node.children.rbegin(); it != node.children.rend(); ++it) {
      stack.push_back(it->child);
    }
  }
  return h;
}

// Deterministic churn: 5k operations, inserts (uniform points, points
// on a 1/16 lattice, copies of live points) interleaved with deletes of
// random live entries (about a third). Before every insert the descent
// is replayed and each internal node's choice is checked against the
// unpruned criterion.
uint64_t CheckedChurnDigest(const RTree::Options& options, size_t initial,
                            uint64_t seed) {
  storage::PageManager disk;
  RTree tree(&disk, 32, options);
  std::vector<DataEntry> live = MakeUnitUniform(initial, seed).entries;
  tree.BulkLoad(live);
  Rng rng(seed + 1);
  auto next_id = static_cast<ObjectId>(initial);
  for (int op = 0; op < 5000; ++op) {
    if (!live.empty() && rng.NextBounded(3) == 0) {
      const size_t at = rng.NextBounded(live.size());
      EXPECT_TRUE(tree.Delete(live[at].point, live[at].id));
      live[at] = live.back();
      live.pop_back();
      continue;
    }
    geo::Point p;
    switch (rng.NextBounded(4)) {
      case 0:
        p = {static_cast<double>(rng.NextBounded(17)) / 16.0,
             static_cast<double>(rng.NextBounded(17)) / 16.0};
        break;
      case 1:
        if (!live.empty()) {
          p = live[rng.NextBounded(live.size())].point;
          break;
        }
        [[fallthrough]];
      default:
        p = {rng.NextDouble(), rng.NextDouble()};
    }
    const geo::Rect r = geo::Rect::FromPoint(p);
    for (Node node = tree.FetchNode(tree.root()); !node.is_leaf();) {
      const size_t chosen = RTree::ChooseSubtree(node, r);
      EXPECT_EQ(chosen, ReferenceChooseSubtree(node, r)) << "op " << op;
      node = tree.FetchNode(node.children[chosen].child);
    }
    tree.Insert(p, next_id);
    live.push_back({p, next_id++});
  }
  tree.CheckInvariants();
  return TreeDigest(tree);
}

TEST(ChooseSubtreeTest, ChurnedTreesArePageIdenticalToUnprunedOnes) {
  // Digests of the same sequences run with the unpruned O(n^2)
  // ChooseSubtree: the pruning changes no choice, so no page.
  EXPECT_EQ(CheckedChurnDigest(SmallNodeOptions(), 2000, 71),
            0x0d7042d4f7e9b79eULL);
  EXPECT_EQ(CheckedChurnDigest(RTree::Options{}, 20000, 72),
            0x61fdbbd0e6b6ab93ULL);
}

// ---------------------------------------------------------------------------
// Deletion
// ---------------------------------------------------------------------------

TEST(RTreeTest, DeleteRemovesOnlyTarget) {
  const auto dataset = MakeUnitUniform(400, 17);
  TreeFixture fx(dataset.entries, 32, SmallNodeOptions());
  // Delete every third point.
  std::vector<DataEntry> remaining;
  for (const DataEntry& e : dataset.entries) {
    if (e.id % 3 == 0) {
      EXPECT_TRUE(fx.tree->Delete(e.point, e.id));
    } else {
      remaining.push_back(e);
    }
  }
  fx.tree->CheckInvariants();
  EXPECT_EQ(fx.tree->size(), remaining.size());
  std::vector<DataEntry> out;
  fx.tree->WindowQuery(geo::Rect(0, 0, 1, 1), &out);
  EXPECT_EQ(Ids(out), Ids(remaining));
}

TEST(RTreeTest, DeleteMissingReturnsFalse) {
  const auto dataset = MakeUnitUniform(100, 19);
  TreeFixture fx(dataset.entries, 8, SmallNodeOptions());
  EXPECT_FALSE(fx.tree->Delete({2.0, 2.0}, 1));     // point not present
  EXPECT_FALSE(fx.tree->Delete(dataset.entries[0].point, 999999));  // id wrong
  EXPECT_EQ(fx.tree->size(), 100u);
}

TEST(RTreeTest, DeleteEverythingThenReinsert) {
  const auto dataset = MakeUnitUniform(250, 29);
  TreeFixture fx(dataset.entries, 16, SmallNodeOptions());
  for (const DataEntry& e : dataset.entries) {
    ASSERT_TRUE(fx.tree->Delete(e.point, e.id));
  }
  EXPECT_EQ(fx.tree->size(), 0u);
  fx.tree->CheckInvariants();
  for (const DataEntry& e : dataset.entries) fx.tree->Insert(e.point, e.id);
  EXPECT_EQ(fx.tree->size(), 250u);
  fx.tree->CheckInvariants();
}

// ---------------------------------------------------------------------------
// k-NN algorithms vs brute force (property sweep)
// ---------------------------------------------------------------------------

struct KnnCase {
  size_t n;
  size_t k;
  uint64_t seed;
};

class KnnParamTest : public ::testing::TestWithParam<KnnCase> {};

TEST_P(KnnParamTest, BothAlgorithmsMatchBruteForce) {
  const KnnCase param = GetParam();
  const auto dataset = MakeUnitUniform(param.n, param.seed);
  TreeFixture fx(dataset.entries, 32, SmallNodeOptions());

  Rng rng(param.seed ^ 0xabcdef);
  for (int i = 0; i < 25; ++i) {
    const geo::Point q{rng.NextDouble(), rng.NextDouble()};
    const auto expected = BruteForceKnn(dataset.entries, q, param.k);
    const auto df = KnnDepthFirst(*fx.tree, q, param.k);
    const auto bf = KnnBestFirst(*fx.tree, q, param.k);
    ASSERT_EQ(df.size(), expected.size());
    ASSERT_EQ(bf.size(), expected.size());
    for (size_t j = 0; j < expected.size(); ++j) {
      EXPECT_EQ(df[j].entry.id, expected[j].entry.id) << "DF rank " << j;
      EXPECT_EQ(bf[j].entry.id, expected[j].entry.id) << "BF rank " << j;
      EXPECT_DOUBLE_EQ(df[j].distance, expected[j].distance);
      EXPECT_DOUBLE_EQ(bf[j].distance, expected[j].distance);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KnnParamTest,
    ::testing::Values(KnnCase{1, 1, 1}, KnnCase{10, 3, 2}, KnnCase{100, 1, 3},
                      KnnCase{500, 10, 4}, KnnCase{2000, 1, 5},
                      KnnCase{2000, 50, 6}, KnnCase{2000, 100, 7},
                      KnnCase{300, 300, 8},   // k == n
                      KnnCase{300, 400, 9})); // k > n

TEST(KnnTest, BestFirstNeverReadsMoreNodesThanDepthFirst) {
  const auto dataset = MakeUnitUniform(3000, 77);
  TreeFixture fx(dataset.entries, 0, SmallNodeOptions());
  Rng rng(123);
  uint64_t df_total = 0;
  uint64_t bf_total = 0;
  for (int i = 0; i < 20; ++i) {
    const geo::Point q{rng.NextDouble(), rng.NextDouble()};
    fx.tree->buffer().ResetCounters();
    KnnDepthFirst(*fx.tree, q, 10);
    df_total += fx.tree->buffer().logical_accesses();
    fx.tree->buffer().ResetCounters();
    KnnBestFirst(*fx.tree, q, 10);
    bf_total += fx.tree->buffer().logical_accesses();
  }
  // HS99 is I/O-optimal: on aggregate it cannot lose to depth-first.
  EXPECT_LE(bf_total, df_total);
}

TEST(KnnTest, EmptyTreeReturnsNothing) {
  storage::PageManager disk;
  RTree tree(&disk, 4);
  EXPECT_TRUE(KnnBestFirst(tree, {0.5, 0.5}, 3).empty());
  EXPECT_TRUE(KnnDepthFirst(tree, {0.5, 0.5}, 3).empty());
}

// ---------------------------------------------------------------------------
// Cost accounting
// ---------------------------------------------------------------------------

TEST(RTreeTest, BufferReducesPageAccesses) {
  const auto dataset = MakeUnitUniform(20000, 47);
  TreeFixture fx(dataset.entries, 0);
  fx.tree->SetBufferFraction(0.1);
  fx.tree->disk().ResetCounters();
  fx.tree->buffer().ResetCounters();

  // Repeated queries in the same area should mostly hit the buffer.
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    std::vector<DataEntry> out;
    const double x = 0.4 + rng.Uniform(0, 0.05);
    const double y = 0.4 + rng.Uniform(0, 0.05);
    fx.tree->WindowQuery(geo::Rect(x, y, x + 0.02, y + 0.02), &out);
  }
  const uint64_t na = fx.tree->buffer().logical_accesses();
  const uint64_t pa = fx.tree->disk().read_count();
  EXPECT_LT(pa, na / 5);  // most accesses served from the buffer
}

}  // namespace
}  // namespace lbsq::rtree
