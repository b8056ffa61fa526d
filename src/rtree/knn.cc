#include "rtree/knn.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/check.h"
#include "geometry/rect.h"
#include "storage/page_store.h"

namespace lbsq::rtree {

namespace {

// Orders candidate neighbors worst-first for the result max-heap: greater
// distance first; equal distances break toward larger id so that the heap
// evicts the larger id and results are deterministic.
struct WorseNeighbor {
  bool operator()(const Neighbor& a, const Neighbor& b) const {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.entry.id < b.entry.id;
  }
};

// Max-heap of the best k candidates found so far. The search runs on
// *squared* distances throughout (Neighbor.distance holds d^2 until
// TakeSorted converts it): x -> x^2 is strictly increasing on [0, inf),
// so every comparison — heap order, pruning, tie detection — has the
// same outcome as with true distances, and geo::Distance/geo::MinDist
// are literally sqrt(SquaredDistance)/sqrt(SquaredMinDist), so the final
// distances are bit-identical. This drops one sqrt per candidate point
// and per child MBR.
//
// The heap lives in per-thread scratch storage (kNN calls are
// call-and-return, so at most one ResultHeap is live per thread) and is
// manipulated with the std heap algorithms — the same algorithms
// std::priority_queue runs on top of, so ordering behavior is identical
// while the backing allocation is reused across queries.
class ResultHeap {
 public:
  explicit ResultHeap(size_t k) : k_(k), heap_(ScratchStorage()) {
    heap_.clear();
  }

  double PruneDistance() const {
    return heap_.size() < k_ ? std::numeric_limits<double>::infinity()
                             : heap_.front().distance;
  }

  // Runs once per surviving leaf entry. With the heap algorithms inlined
  // it exceeds GCC's inline limit, and the out-of-line call costs the
  // small-k searches about 10%, so it is forced into the scan loops.
  [[gnu::always_inline]] void Offer(const Neighbor& n) {
    if (heap_.size() < k_) {
      heap_.push_back(n);
      std::push_heap(heap_.begin(), heap_.end(), WorseNeighbor{});
      return;
    }
    if (WorseNeighbor()(n, heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), WorseNeighbor{});
      heap_.back() = n;
      std::push_heap(heap_.begin(), heap_.end(), WorseNeighbor{});
    }
  }

  // Drains the heap into ascending (distance, id) order, converting the
  // stored squared distances back to true distances.
  std::vector<Neighbor> TakeSorted() {
    // sort_heap orders by WorseNeighbor ascending = (distance, id)
    // ascending — the same sequence the old pop-and-reverse produced.
    std::sort_heap(heap_.begin(), heap_.end(), WorseNeighbor{});
    std::vector<Neighbor> out(heap_.begin(), heap_.end());
    for (Neighbor& n : out) n.distance = std::sqrt(n.distance);
    return out;
  }

 private:
  static std::vector<Neighbor>& ScratchStorage() {
    thread_local std::vector<Neighbor> storage;
    return storage;
  }

  size_t k_;
  std::vector<Neighbor>& heap_;
};

void DepthFirstVisit(RTree& tree, const geo::Point& q, storage::PageId id,
                     ResultHeap* results) {
  const NodeView node = tree.FetchView(id);
  const size_t n = node.size();
  if (node.is_leaf()) {
    for (size_t i = 0; i < n; ++i) {
      const DataEntry e = node.data_entry(i);
      results->Offer(Neighbor{e, geo::SquaredDistance(q, e.point)});
    }
    return;
  }
  // Visit children in mindist order (the RKV95 ordering); re-check the
  // prune distance before each visit since earlier visits tighten it.
  // The order array is copied out of the view before recursing (the
  // recursion's fetches invalidate it); it fits on the stack because a
  // node holds at most kInternalCapacity children.
  std::array<std::pair<double, storage::PageId>, kInternalCapacity> order;
  for (size_t i = 0; i < n; ++i) {
    order[i] = {geo::SquaredMinDist(q, node.child_mbr(i)),
                node.child_page(i)};
  }
  std::sort(order.begin(), order.begin() + static_cast<ptrdiff_t>(n));
  for (size_t i = 0; i < n; ++i) {
    if (order[i].first > results->PruneDistance()) break;
    DepthFirstVisit(tree, q, order[i].second, results);
  }
}

}  // namespace

std::vector<Neighbor> KnnDepthFirst(RTree& tree, const geo::Point& q,
                                    size_t k) {
  LBSQ_CHECK(k > 0);
  ResultHeap results(k);
  if (tree.size() > 0) DepthFirstVisit(tree, q, tree.root(), &results);
  return results.TakeSorted();
}

// Best-first over nodes only [HS99]: candidate points never enter the
// priority queue. The best k points seen so far live in `best`, whose
// k-th distance prunes both leaf-entry offers and child pushes — a
// large leaf no longer floods the queue with up to 204 entries. A node
// or point strictly beyond the k-th best distance cannot qualify;
// equality is kept because distance ties are broken by object id.
//
// Access accounting is unchanged: this expands exactly the node set
// {n : mindist(n) <= d_k} in ascending mindist order — the same nodes,
// in the same order, the unpruned queue pops before emitting its k-th
// point — so NA/PA match the unpruned queue (the oracle in
// tests/test_util.h) exactly.
// All distances are squared (see ResultHeap); comparisons are
// equivalent, so the expansion set and order are untouched.
//
// The node queue is a heap over per-thread scratch (reused across
// queries, no per-query allocation), driven by the same std heap
// algorithms std::priority_queue delegates to.
std::vector<Neighbor> KnnBestFirst(RTree& tree, const geo::Point& q,
                                   size_t k) {
  LBSQ_CHECK(k > 0);
  if (tree.size() == 0) return {};
  struct NodeItem {
    double mindist;
    storage::PageId page;
  };
  struct LaterNode {
    bool operator()(const NodeItem& a, const NodeItem& b) const {
      return a.mindist > b.mindist;
    }
  };

  thread_local std::vector<NodeItem> queue;
  queue.clear();
  queue.push_back(NodeItem{0.0, tree.root()});
  ResultHeap best(k);

  while (!queue.empty()) {
    std::pop_heap(queue.begin(), queue.end(), LaterNode{});
    const NodeItem top = queue.back();
    queue.pop_back();
    if (top.mindist > best.PruneDistance()) break;
    const NodeView node = tree.FetchView(top.page);
    const size_t n = node.size();
    if (node.is_leaf()) {
      // SoA two-pass scan. Pass 1 computes every entry's squared
      // distance in a branch-free map over the contiguous x[]/y[]
      // arrays — the loop autovectorizes. The sum mirrors
      // geo::SquaredDistance exactly (dx*dx + dy*dy, same operand
      // order), keeping distances bit-identical to the scalar path.
      // Pass 2 offers the survivors of the loop-invariant prune
      // distance (the k-th best over all prior leaves); Offer rejects
      // any that this leaf's earlier offers have since ruled out.
      double d2[kLeafCapacity];
      const uint8_t* xs = node.leaf_xs();
      const uint8_t* ys = node.leaf_ys();
      for (size_t i = 0; i < n; ++i) {
        const double dx = q.x - LoadF64(xs, i);
        const double dy = q.y - LoadF64(ys, i);
        d2[i] = dx * dx + dy * dy;
      }
      // Branchless survivor selection: the d2[i] <= prune outcomes are
      // unpredictable on boundary leaves, so indices are staged with a
      // conditional cursor advance instead of a branch.
      const double prune = best.PruneDistance();
      uint32_t idx[kLeafCapacity];
      size_t m = 0;
      for (size_t i = 0; i < n; ++i) {
        idx[m] = static_cast<uint32_t>(i);
        m += static_cast<size_t>(d2[i] <= prune);
      }
      for (size_t j = 0; j < m; ++j) {
        best.Offer(Neighbor{node.data_entry(idx[j]), d2[idx[j]]});
      }
    } else {
      // Same staging for child MBRs: pass 1 is geo::SquaredMinDist as a
      // branch-free map over the four contiguous MBR arrays (the
      // per-axis clamped gap max(lo - q, 0, q - hi) squares to the same
      // value under any max association, so mindists are bit-identical);
      // pass 2 pushes survivors. No offers happen here, so the prune
      // distance is loop-invariant.
      double md[kInternalCapacity];
      const uint8_t* xlo = node.child_xlos();
      const uint8_t* ylo = node.child_ylos();
      const uint8_t* xhi = node.child_xhis();
      const uint8_t* yhi = node.child_yhis();
      for (size_t i = 0; i < n; ++i) {
        const double dx = std::max(std::max(LoadF64(xlo, i) - q.x, 0.0),
                                   q.x - LoadF64(xhi, i));
        const double dy = std::max(std::max(LoadF64(ylo, i) - q.y, 0.0),
                                   q.y - LoadF64(yhi, i));
        md[i] = dx * dx + dy * dy;
      }
      const double prune = best.PruneDistance();
      uint32_t idx[kInternalCapacity];
      size_t m = 0;
      for (size_t i = 0; i < n; ++i) {
        idx[m] = static_cast<uint32_t>(i);
        m += static_cast<size_t>(md[i] <= prune);
      }
      for (size_t j = 0; j < m; ++j) {
        queue.push_back(NodeItem{md[idx[j]], node.child_page(idx[j])});
        std::push_heap(queue.begin(), queue.end(), LaterNode{});
      }
    }
  }
  return best.TakeSorted();
}

namespace {

// One item of the nearest-first stream: a node or an object of source
// `source`. `key` is the squared (min)distance; `id` an object id or a
// node's page.
struct StreamItem {
  double key;
  uint32_t id;
  uint16_t is_object;
  uint16_t source;
  geo::Point point;  // objects only
};

// The stream's priority queue: a radix heap [Ahuja, Mehlhorn, Orlin and
// Tarjan 1990], a monotone queue whose keys never fall below the last
// key popped. The keys are non-negative doubles, whose bit patterns
// order as the values do, so the heap runs on those bits. An item whose
// key differs from the last pop `last_` waits in the bucket of the
// highest bit where the two differ. A pop with no item at `last_` takes
// the lowest non-empty bucket, makes its least key the new `last_`, and
// moves each of its items to the bucket of its new highest differing
// bit, always a lower one (every item of a bucket agrees with `last_`
// above that bucket's bit, and so does their minimum). A push is an
// append instead of a binary heap's sift; the work moves to the pops,
// which touch only the lowest bucket. A stream pops a few dozen of the
// hundreds of items it pushes, and an item moves down only a bucket or
// two on average, most of them in the first refill. The items stay
// where they were pushed, in one arena; a bucket holds each of its
// items' key bits and arena index, so a move copies those 16 bytes, not
// the item.
//
// The items at `last_` itself all tie on distance. They form a small
// heap of their own, ordered by the stream's tie rule: nodes before
// objects, then ascending id. (Then the point and the source, for the
// degenerate duplicate ids and for pages of different trees: the order
// is total, so it never depends on the order of the pushes.) Draining
// them in that order before any larger key gives the stream's total
// order: (squared distance, node before object, id).
class StreamHeap {
 public:
  void Clear() {
    for (uint64_t left = occupied_; left != 0; left &= left - 1) {
      buckets_[static_cast<size_t>(std::countr_zero(left))].clear();
    }
    occupied_ = 0;
    items_.clear();
    tied_.clear();
    last_ = 0;
  }

  bool empty() const { return occupied_ == 0 && tied_.empty(); }

  // Monotonicity is the caller's promise: BrowseNearest pushes a node's
  // children at their mindist, an object at its distance. A child's MBR
  // lies inside its parent's (RTree::CheckInvariants) and a leaf's points
  // inside its MBR, and the mindist and distance expressions round
  // monotonically, so no key pushed on expanding an item is below that
  // item's key, which is `last_`. A tree's root enters at 0, a router
  // fragment's at its mindist to the tree's bounding_box(), which holds
  // the root MBR (it grows on insert and never shrinks on delete), so
  // the root's children are not nearer than the root either.
  void Push(const StreamItem& item) {
    const uint64_t bits = std::bit_cast<uint64_t>(item.key);
    LBSQ_DCHECK(bits >= last_);
    const auto i = static_cast<uint32_t>(items_.size());
    items_.push_back(item);
    if (bits == last_) {
      PushTied(i);
    } else {
      Bucket(Entry{bits, i});
    }
  }

  // The least item by (key, node before object, id). Requires !empty().
  StreamItem Pop() {
    if (tied_.empty()) Refill();
    std::pop_heap(tied_.begin(), tied_.end(), TieLater{items_.data()});
    const uint32_t top = tied_.back();
    tied_.pop_back();
    return items_[top];
  }

 private:
  // A bucket's reference to an item: its key's bits and its index.
  struct Entry {
    uint64_t bits;
    uint32_t item;
  };

  // Later in the tie order of items that share a key.
  struct TieLater {
    const StreamItem* items;
    bool operator()(uint32_t i, uint32_t j) const {
      const StreamItem& a = items[i];
      const StreamItem& b = items[j];
      if (a.is_object != b.is_object) return a.is_object > b.is_object;
      if (a.id != b.id) return a.id > b.id;
      if (a.point.x != b.point.x) return a.point.x > b.point.x;
      if (a.point.y != b.point.y) return a.point.y > b.point.y;
      return a.source > b.source;
    }
  };

  void PushTied(uint32_t i) {
    tied_.push_back(i);
    std::push_heap(tied_.begin(), tied_.end(), TieLater{items_.data()});
  }

  void Bucket(const Entry& e) {
    const auto b = static_cast<size_t>(std::bit_width(e.bits ^ last_) - 1);
    buckets_[b].push_back(e);
    occupied_ |= uint64_t{1} << b;
  }

  // Moves the lowest non-empty bucket down; its least key becomes
  // `last_`, and the items holding it the tied heap.
  void Refill() {
    const auto b = static_cast<size_t>(std::countr_zero(occupied_));
    std::vector<Entry>& bucket = buckets_[b];
    uint64_t least = std::numeric_limits<uint64_t>::max();
    for (const Entry& e : bucket) least = std::min(least, e.bits);
    last_ = least;
    occupied_ &= ~(uint64_t{1} << b);
    for (const Entry& e : bucket) {
      if (e.bits == last_) {
        PushTied(e.item);
      } else {
        Bucket(e);
      }
    }
    bucket.clear();
  }

  std::vector<StreamItem> items_;  // every item pushed since Clear
  // buckets_[b]: the items whose key's bits first differ from `last_`'s
  // at bit b; bit b of occupied_ is set iff that bucket is non-empty.
  std::array<std::vector<Entry>, 64> buckets_;
  uint64_t occupied_ = 0;
  std::vector<uint32_t> tied_;  // the items at `last_`, a TieLater heap
  uint64_t last_ = 0;           // bits of the last key popped
};

}  // namespace

size_t BrowseNearest(std::span<const StreamSource> sources,
                     const geo::Point& q, const StreamVisitor& visit) {
  thread_local StreamHeap heap;
  heap.Clear();

  LBSQ_CHECK(sources.size() <= UINT16_MAX);
  for (size_t s = 0; s < sources.size(); ++s) {
    if (sources[s].tree->size() == 0) continue;
    heap.Push(StreamItem{sources[s].root_mindist2, sources[s].tree->root(), 0,
                         static_cast<uint16_t>(s), {}});
  }

  // Distances mirror geo::SquaredDistance / geo::SquaredMinDist exactly
  // (this TU is built without FMA contraction), so the keys and the
  // handed-out distances are bit-identical to KnnBestFirst's.
  double stop2 = std::numeric_limits<double>::infinity();
  size_t roots_expanded = 0;
  while (!heap.empty()) {
    const StreamItem top = heap.Pop();
    if (!(top.key < stop2)) break;
    if (top.is_object != 0) {
      stop2 =
          visit(Neighbor{DataEntry{top.point, top.id}, std::sqrt(top.key)});
      continue;
    }
    RTree& tree = *sources[top.source].tree;
    if (top.id == tree.root()) ++roots_expanded;
    const NodeView node = tree.FetchView(top.id);
    if (!storage::PageStore::PendingReadError().ok()) break;
    const size_t n = node.size();
    if (node.is_leaf()) {
      const uint8_t* xs = node.leaf_xs();
      const uint8_t* ys = node.leaf_ys();
      for (size_t i = 0; i < n; ++i) {
        const double x = LoadF64(xs, i);
        const double y = LoadF64(ys, i);
        const double dx = q.x - x;
        const double dy = q.y - y;
        const double d2 = dx * dx + dy * dy;
        if (d2 < stop2) {
          heap.Push(StreamItem{d2, node.object_id(i), 1, top.source, {x, y}});
        }
      }
    } else {
      const uint8_t* xlo = node.child_xlos();
      const uint8_t* ylo = node.child_ylos();
      const uint8_t* xhi = node.child_xhis();
      const uint8_t* yhi = node.child_yhis();
      for (size_t i = 0; i < n; ++i) {
        const double dx = std::max(std::max(LoadF64(xlo, i) - q.x, 0.0),
                                   q.x - LoadF64(xhi, i));
        const double dy = std::max(std::max(LoadF64(ylo, i) - q.y, 0.0),
                                   q.y - LoadF64(yhi, i));
        const double md2 = dx * dx + dy * dy;
        if (md2 < stop2) {
          heap.Push(StreamItem{md2, node.child_page(i), 0, top.source, {}});
        }
      }
    }
  }
  return roots_expanded;
}

}  // namespace lbsq::rtree
