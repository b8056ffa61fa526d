#ifndef LBSQ_TESTS_TEST_UTIL_H_
#define LBSQ_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "common/rng.h"
#include "geometry/point.h"
#include "geometry/rect.h"
#include "rtree/knn.h"
#include "rtree/rtree.h"
#include "storage/page_manager.h"
#include "workload/datasets.h"

// Brute-force reference implementations and fixtures shared by the test
// suite. Every spatial algorithm in the library is validated against the
// O(n) (or O(n^2)) truth computed here.

namespace lbsq::test {

// Exhaustive k-NN: sorted by (distance, id).
inline std::vector<rtree::Neighbor> BruteForceKnn(
    const std::vector<rtree::DataEntry>& data, const geo::Point& q,
    size_t k) {
  std::vector<rtree::Neighbor> all;
  all.reserve(data.size());
  for (const rtree::DataEntry& e : data) {
    all.push_back({e, geo::Distance(q, e.point)});
  }
  std::sort(all.begin(), all.end(),
            [](const rtree::Neighbor& a, const rtree::Neighbor& b) {
              if (a.distance != b.distance) return a.distance < b.distance;
              return a.entry.id < b.entry.id;
            });
  if (all.size() > k) all.resize(k);
  return all;
}

// Exhaustive window query, sorted by id.
inline std::vector<rtree::DataEntry> BruteForceWindow(
    const std::vector<rtree::DataEntry>& data, const geo::Rect& w) {
  std::vector<rtree::DataEntry> out;
  for (const rtree::DataEntry& e : data) {
    if (w.Contains(e.point)) out.push_back(e);
  }
  std::sort(out.begin(), out.end(),
            [](const rtree::DataEntry& a, const rtree::DataEntry& b) {
              return a.id < b.id;
            });
  return out;
}

// Exhaustive range query: every object within distance r of q (closed),
// in data order.
inline std::vector<rtree::DataEntry> BruteForceRange(
    const std::vector<rtree::DataEntry>& data, const geo::Point& q,
    double r) {
  std::vector<rtree::DataEntry> out;
  for (const rtree::DataEntry& e : data) {
    if (geo::SquaredDistance(q, e.point) <= r * r) out.push_back(e);
  }
  return out;
}

inline std::vector<rtree::ObjectId> Ids(
    const std::vector<rtree::DataEntry>& entries) {
  std::vector<rtree::ObjectId> ids;
  ids.reserve(entries.size());
  for (const rtree::DataEntry& e : entries) ids.push_back(e.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

inline std::vector<rtree::ObjectId> Ids(
    const std::vector<rtree::Neighbor>& neighbors) {
  std::vector<rtree::ObjectId> ids;
  ids.reserve(neighbors.size());
  for (const rtree::Neighbor& n : neighbors) ids.push_back(n.entry.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

// -- Scan oracles on the materializing read path ---------------------------

// Best-first k-NN [HS99] without pruning: one queue holding nodes *and*
// points, every entry pushed, each node decoded by RTree::FetchNode.
// rtree::KnnBestFirst must return the same neighbours and, because
// FetchNode counts one node access like FetchView, the same NA and PA.
inline std::vector<rtree::Neighbor> KnnBestFirstLegacy(rtree::RTree& tree,
                                                       const geo::Point& q,
                                                       size_t k) {
  if (tree.size() == 0) return {};
  struct QueueItem {
    double distance;
    bool is_node;
    storage::PageId page = storage::kInvalidPageId;
    rtree::DataEntry entry;
  };
  struct Later {
    bool operator()(const QueueItem& a, const QueueItem& b) const {
      if (a.distance != b.distance) return a.distance > b.distance;
      // Expand nodes before points at equal distance so that a point is
      // only emitted once no closer node remains; tie-break points by id.
      if (a.is_node != b.is_node) return !a.is_node;
      return a.entry.id > b.entry.id;
    }
  };
  std::priority_queue<QueueItem, std::vector<QueueItem>, Later> queue;
  queue.push(QueueItem{0.0, true, tree.root(), {}});
  std::vector<rtree::Neighbor> out;
  while (!queue.empty() && out.size() < k) {
    const QueueItem item = queue.top();
    queue.pop();
    if (!item.is_node) {
      out.push_back(rtree::Neighbor{item.entry, item.distance});
      continue;
    }
    const rtree::Node node = tree.FetchNode(item.page);
    if (node.is_leaf()) {
      for (const rtree::DataEntry& e : node.data) {
        queue.push(QueueItem{geo::Distance(q, e.point), false,
                             storage::kInvalidPageId, e});
      }
    } else {
      for (const rtree::ChildEntry& e : node.children) {
        queue.push(QueueItem{geo::MinDist(q, e.mbr), true, e.child, {}});
      }
    }
  }
  return out;
}

// Depth-first window query with plain Rect::Intersects/Contains tests,
// each node decoded by RTree::FetchNode: the node set, emit order, NA
// and PA that RTree::WindowQuery must reproduce.
inline void WindowQueryLegacy(rtree::RTree& tree, const geo::Rect& w,
                              std::vector<rtree::DataEntry>* out) {
  out->clear();
  std::vector<storage::PageId> stack = {tree.root()};
  while (!stack.empty()) {
    const storage::PageId id = stack.back();
    stack.pop_back();
    const rtree::Node node = tree.FetchNode(id);
    if (node.is_leaf()) {
      for (const rtree::DataEntry& e : node.data) {
        if (w.Contains(e.point)) out->push_back(e);
      }
    } else {
      for (const rtree::ChildEntry& e : node.children) {
        if (w.Intersects(e.mbr)) stack.push_back(e.child);
      }
    }
  }
}

// -- Degenerate data sets (ids in data order) ---------------------------------

// The integer lattice {0, ..., side - 1}^2.
inline std::vector<rtree::DataEntry> Lattice(int side) {
  std::vector<rtree::DataEntry> out;
  rtree::ObjectId id = 0;
  for (int x = 0; x < side; ++x) {
    for (int y = 0; y < side; ++y) {
      out.push_back({{static_cast<double>(x), static_cast<double>(y)}, id++});
    }
  }
  return out;
}

// Unit-square points where every coordinate appears twice or three
// times, with distinct ids.
inline std::vector<rtree::DataEntry> Duplicates(size_t distinct,
                                                uint64_t seed) {
  const auto base = workload::MakeUnitUniform(distinct, seed);
  std::vector<rtree::DataEntry> out;
  rtree::ObjectId id = 0;
  for (size_t i = 0; i < base.entries.size(); ++i) {
    const size_t copies = 2 + i % 2;
    for (size_t c = 0; c < copies; ++c) {
      out.push_back({base.entries[i].point, id++});
    }
  }
  return out;
}

// One horizontal row of points at y = 0.5 in the unit square.
inline std::vector<rtree::DataEntry> CollinearRow(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<rtree::DataEntry> out;
  for (size_t i = 0; i < n; ++i) {
    out.push_back({{rng.NextDouble(), 0.5}, static_cast<rtree::ObjectId>(i)});
  }
  return out;
}

// The four corners and points on the four sides of the unit square,
// plus a sparse interior.
inline std::vector<rtree::DataEntry> UniverseBoundary(size_t per_side,
                                                      uint64_t seed) {
  Rng rng(seed);
  std::vector<rtree::DataEntry> out;
  rtree::ObjectId id = 0;
  for (const geo::Point corner :
       {geo::Point{0.0, 0.0}, geo::Point{1.0, 0.0}, geo::Point{0.0, 1.0},
        geo::Point{1.0, 1.0}}) {
    out.push_back({corner, id++});
  }
  for (size_t i = 0; i < per_side; ++i) {
    const double t = rng.NextDouble();
    out.push_back({{t, 0.0}, id++});
    out.push_back({{t, 1.0}, id++});
    out.push_back({{0.0, rng.NextDouble()}, id++});
    out.push_back({{1.0, rng.NextDouble()}, id++});
    out.push_back({{rng.NextDouble(), rng.NextDouble()}, id++});
  }
  return out;
}

// An R-tree bundled with its backing disk, bulk-loaded from `data`.
struct TreeFixture {
  std::unique_ptr<storage::PageManager> disk;
  std::unique_ptr<rtree::RTree> tree;

  explicit TreeFixture(const std::vector<rtree::DataEntry>& data,
                       size_t buffer_capacity = 64,
                       const rtree::RTree::Options& options = {}) {
    disk = std::make_unique<storage::PageManager>();
    tree = std::make_unique<rtree::RTree>(disk.get(), buffer_capacity,
                                          options);
    tree->BulkLoad(data);
  }
};

// Options producing small node fan-outs, so modest datasets exercise
// multi-level trees, splits and reinsertion.
inline rtree::RTree::Options SmallNodeOptions() {
  rtree::RTree::Options options;
  options.leaf_capacity = 8;
  options.internal_capacity = 6;
  return options;
}

}  // namespace lbsq::test

#endif  // LBSQ_TESTS_TEST_UTIL_H_
