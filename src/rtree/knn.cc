#include "rtree/knn.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <queue>
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

  void Offer(const Neighbor& n) {
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

  // Accumulator-policy aliases (see BestFirstSearch): a streaming heap
  // maintains its invariant on every Add, so Compact is a no-op.
  void Add(const Neighbor& n) { Offer(n); }
  void Compact() {}

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

// Sort key packing for the final result ordering: squared distances are
// finite and non-negative (squares can't produce -0.0), so their IEEE
// bit patterns order exactly like the values and the full (distance, id)
// order collapses into one unsigned 128-bit compare — [d2 bits | id |
// buffer index]. The low index bits only disambiguate identical
// (distance, id) pairs, i.e. duplicate results.
using PackedKey = unsigned __int128;

inline PackedKey PackKey(double d2, uint32_t id, uint32_t index) {
  return (static_cast<PackedKey>(std::bit_cast<uint64_t>(d2)) << 64) |
         (static_cast<uint64_t>(id) << 32) | index;
}

// Ascending three-way quicksort over packed keys with branchless
// partition passes (unconditional store + conditional cursor advance, as
// in SelectKthSmallest) — on ~k random keys the mispredicted partition
// branches are what make std::sort ~2x slower here. lo/hi are caller
// scratch of at least n keys each; they are free for reuse once each
// level's copy-back completes, so recursion shares them. depth bounds
// pathological pivot streaks (then std::sort finishes the range).
void SortPackedKeys(PackedKey* a, size_t n, PackedKey* lo, PackedKey* hi,
                    int depth) {
  while (n > 24) {
    if (depth-- == 0) {
      std::sort(a, a + n);
      return;
    }
    const PackedKey p0 = a[0], p1 = a[n / 2], p2 = a[n - 1];
    const PackedKey pivot =
        std::max(std::min(p0, p1), std::min(std::max(p0, p1), p2));
    size_t nlo = 0, nhi = 0;
    for (size_t i = 0; i < n; ++i) {
      const PackedKey x = a[i];
      lo[nlo] = x;
      nlo += static_cast<size_t>(x < pivot);
      hi[nhi] = x;
      nhi += static_cast<size_t>(x > pivot);
    }
    std::memcpy(a, lo, nlo * sizeof(PackedKey));
    for (size_t j = nlo; j < n - nhi; ++j) a[j] = pivot;
    std::memcpy(a + (n - nhi), hi, nhi * sizeof(PackedKey));
    // Recurse into the smaller side, iterate on the larger: stack depth
    // stays O(log n) even on adversarial pivots.
    if (nlo < nhi) {
      SortPackedKeys(a, nlo, lo, hi, depth);
      a += n - nhi;
      n = nhi;
    } else {
      SortPackedKeys(a + (n - nhi), nhi, lo, hi, depth);
      n = nlo;
    }
  }
  // Insertion sort: one mispredict per element at the shift-loop exit,
  // cheap for these tail sizes.
  for (size_t i = 1; i < n; ++i) {
    const PackedKey x = a[i];
    size_t j = i;
    for (; j > 0 && x < a[j - 1]; --j) a[j] = a[j - 1];
    a[j] = x;
  }
}

// k-th smallest (1-based) of the n values in v; v itself is untouched
// (selection runs on an internal copy). The partition loops are
// branchless — each element is stored unconditionally and the write
// cursor advances by the comparison result — because the comparisons are
// data-dependent coin flips that std::nth_element's branchy introselect
// mispredicts; measured on the kNN workload this is ~2.3x faster for
// n ~ 130. Median-of-3 pivoting guarantees at least one element equals
// the pivot per round, so n strictly shrinks and the loop terminates.
double SelectKthSmallest(const double* v, size_t n, size_t k) {
  LBSQ_DCHECK(k >= 1 && k <= n);
  thread_local std::vector<double> scratch;
  scratch.resize(3 * n);
  double* const buf0 = scratch.data();
  double* const buf1 = scratch.data() + n;
  double* const buf2 = scratch.data() + 2 * n;
  std::memcpy(buf0, v, n * sizeof(double));
  double* a = buf0;
  while (n > 24) {
    const double p0 = a[0], p1 = a[n / 2], p2 = a[n - 1];
    const double pivot =
        std::max(std::min(p0, p1), std::min(std::max(p0, p1), p2));
    // Partition into whichever two of the three buffers a doesn't
    // occupy; the discarded side's buffer is reused next round.
    double* lo;
    double* hi;
    if (a == buf1) {
      lo = buf2, hi = buf0;
    } else if (a == buf2) {
      lo = buf0, hi = buf1;
    } else {
      lo = buf1, hi = buf2;
    }
    size_t nlo = 0, nhi = 0;
    for (size_t i = 0; i < n; ++i) {
      const double x = a[i];
      lo[nlo] = x;
      nlo += static_cast<size_t>(x < pivot);
      hi[nhi] = x;
      nhi += static_cast<size_t>(x > pivot);
    }
    const size_t neq = n - nlo - nhi;
    if (k <= nlo) {
      a = lo;
      n = nlo;
    } else if (k <= nlo + neq) {
      return pivot;
    } else {
      k -= nlo + neq;
      a = hi;
      n = nhi;
    }
  }
  std::sort(a, a + n);
  return a[k - 1];
}

// Lazily-compacted top-k accumulator for the best-first search. Where
// ResultHeap pays two O(log k) sift passes per accepted candidate, TopK
// just appends survivors; the search only consults the prune distance at
// node boundaries (pop check, child-push filter, leaf-scan filter), so
// the exact k-th best distance is recomputed once per leaf (Compact)
// instead of per offer. Both schemes expose the identical prune value at
// every boundary — the k-th best over all candidates seen in fully-
// processed leaves — so the expansion set, NA/PA, and results match
// ResultHeap bit-for-bit. The k-set itself is insertion-order
// independent: WorseNeighbor is a total order over (distance, id), so
// "the k best seen" is well defined regardless of arrival order.
//
// Two tricks keep Compact cheap. First, the prune VALUE needs no id
// tiebreak: the k-th candidate under (distance, id) has the k-th
// smallest distance of the multiset, so selection runs over a flat
// double array (dists_, via SelectKthSmallest), not 32-byte Neighbors.
// Second, dists_ shrinks to its k smallest after each selection — a
// distance outside its leaf-time top k has k values at or below it
// forever after, so it can never become the k-th again — while the
// candidate buffer stays append-only until TakeSorted filters it by the
// final prune.
class TopK {
 public:
  explicit TopK(size_t k)
      : k_(k), buf_(ScratchBuf()), dists_(ScratchDists()) {
    buf_.clear();
    dists_.clear();
  }

  // Exact k-th best distance over all candidates staged before the
  // current leaf (infinity while fewer than k have been seen). Valid
  // only at node boundaries, i.e. after Compact().
  double PruneDistance() const { return prune_; }

  // Stages a candidate. Callers pre-filter against PruneDistance(); a few
  // extra stages (candidates a streaming heap would have rejected after
  // mid-leaf tightening) are harmless — the final filter drops them.
  void Add(const Neighbor& n) {
    buf_.push_back(n);
    dists_.push_back(n.distance);
  }

  // Refreshes the prune distance after a leaf's candidates are staged.
  void Compact() {
    if (dists_.size() < k_) return;
    prune_ = SelectKthSmallest(dists_.data(), dists_.size(), k_);
    // Drop distances above the new prune (never the k-th again); ties at
    // the prune stay, which only leaves a harmless superset.
    size_t j = 0;
    for (size_t i = 0; i < dists_.size(); ++i) {
      const double x = dists_[i];
      dists_[j] = x;
      j += static_cast<size_t>(x <= prune_);
    }
    dists_.resize(j);
  }

  // Ascending (distance, id), squared distances converted back to true
  // distances — the same sequence ResultHeap::TakeSorted produces. The
  // staged buffer is first filtered by the final prune (at most k-1
  // candidates are strictly below it, so survivors are ~k plus boundary
  // ties); ties at the prune are resolved by the id order of the sort,
  // exactly as the heap's evict-larger-id rule resolved them.
  std::vector<Neighbor> TakeSorted() {
    // Branchless key staging of the survivors, one packed-key sort, then
    // a gather of the top k. The key embeds (distance, id), so the sort
    // reproduces WorseNeighbor's order exactly (see PackKey).
    thread_local std::vector<PackedKey> keys, slo, shi;
    const size_t total = buf_.size();
    keys.resize(total);
    size_t m = 0;
    for (size_t i = 0; i < total; ++i) {
      keys[m] = PackKey(buf_[i].distance, buf_[i].entry.id,
                        static_cast<uint32_t>(i));
      m += static_cast<size_t>(buf_[i].distance <= prune_);
    }
    slo.resize(m);
    shi.resize(m);
    SortPackedKeys(keys.data(), m, slo.data(), shi.data(), 48);
    std::vector<Neighbor> out;
    const size_t take = std::min(m, k_);
    out.reserve(take);
    for (size_t j = 0; j < take; ++j) {
      const Neighbor& n = buf_[static_cast<uint32_t>(keys[j])];
      out.push_back(Neighbor{n.entry, std::sqrt(n.distance)});
    }
    return out;
  }

 private:
  static std::vector<Neighbor>& ScratchBuf() {
    thread_local std::vector<Neighbor> storage;
    return storage;
  }
  static std::vector<double>& ScratchDists() {
    thread_local std::vector<double> storage;
    return storage;
  }

  size_t k_;
  std::vector<Neighbor>& buf_;
  std::vector<double>& dists_;
  double prune_ = std::numeric_limits<double>::infinity();
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

namespace {

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
// point — so NA/PA match the legacy path (KnnBestFirstLegacy) exactly.
// All distances are squared (see ResultHeap); comparisons are
// equivalent, so the expansion set and order are untouched.
//
// Acc is the candidate accumulator policy — ResultHeap (streaming, cheap
// for small k) or TopK (batched, amortizes large k across leaf
// boundaries). Both expose the exact k-th best distance of all fully-
// processed leaves at every node boundary, which is the only point the
// search consults it, so the two produce identical traversals and
// results (see TopK).
//
// The node queue is a heap over per-thread scratch (reused across
// queries, no per-query allocation), driven by the same std heap
// algorithms std::priority_queue delegates to.
template <typename Acc>
std::vector<Neighbor> BestFirstSearch(RTree& tree, const geo::Point& q,
                                      size_t k) {
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
  Acc best(k);

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
      // Pass 2 stages the survivors against the loop-invariant prune
      // distance (exact k-th best over all prior leaves); TopK::Compact
      // then drops any stage that a streaming heap would have rejected
      // after mid-leaf tightening, so the kept set is unchanged.
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
        best.Add(Neighbor{node.data_entry(idx[j]), d2[idx[j]]});
      }
      best.Compact();
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

}  // namespace

std::vector<Neighbor> KnnBestFirst(RTree& tree, const geo::Point& q,
                                   size_t k) {
  LBSQ_CHECK(k > 0);
  if (tree.size() == 0) return {};
  // Small k: the streaming heap's O(log k) per accepted candidate is
  // cheaper than the batched pipeline's fixed per-leaf costs (staging,
  // selection, packed-key sort). Large k: TopK amortizes those costs and
  // avoids the heap's per-candidate churn. Crossover measured ~ k = 10.
  constexpr size_t kStreamingMaxK = 16;
  return k <= kStreamingMaxK ? BestFirstSearch<ResultHeap>(tree, q, k)
                             : BestFirstSearch<TopK>(tree, q, k);
}

std::vector<Neighbor> KnnBestFirstLegacy(RTree& tree, const geo::Point& q,
                                         size_t k) {
  LBSQ_CHECK(k > 0);
  if (tree.size() == 0) return {};

  struct QueueItem {
    double distance;
    bool is_node;
    storage::PageId page = storage::kInvalidPageId;
    DataEntry entry;
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

  std::vector<Neighbor> out;
  out.reserve(k);
  while (!queue.empty() && out.size() < k) {
    const QueueItem item = queue.top();
    queue.pop();
    if (!item.is_node) {
      out.push_back(Neighbor{item.entry, item.distance});
      continue;
    }
    const Node node = tree.FetchNode(item.page);
    if (node.is_leaf()) {
      for (const DataEntry& e : node.data) {
        queue.push(QueueItem{geo::Distance(q, e.point), false,
                             storage::kInvalidPageId, e});
      }
    } else {
      for (const ChildEntry& e : node.children) {
        queue.push(QueueItem{geo::MinDist(q, e.mbr), true, e.child, {}});
      }
    }
  }
  return out;
}

size_t BrowseNearest(std::span<const StreamSource> sources,
                     const geo::Point& q, const StreamVisitor& visit) {
  // `key` is the squared (min)distance; `id` an object id or a node's
  // page. Distances mirror geo::SquaredDistance / geo::SquaredMinDist
  // exactly (this TU is built without FMA contraction), so the keys and
  // the handed-out distances are bit-identical to KnnBestFirst's.
  struct Item {
    double key;
    uint32_t id;
    uint16_t is_object;
    uint16_t source;
    geo::Point point;  // objects only
  };
  struct Later {
    bool operator()(const Item& a, const Item& b) const {
      if (a.key != b.key) return a.key > b.key;
      if (a.is_object != b.is_object) return a.is_object > b.is_object;
      return a.id > b.id;
    }
  };
  thread_local std::vector<Item> heap;
  heap.clear();
  auto push = [](const Item& item) {
    heap.push_back(item);
    std::push_heap(heap.begin(), heap.end(), Later{});
  };

  LBSQ_CHECK(sources.size() <= UINT16_MAX);
  for (size_t s = 0; s < sources.size(); ++s) {
    if (sources[s].tree->size() == 0) continue;
    push(Item{sources[s].root_mindist2, sources[s].tree->root(), 0,
              static_cast<uint16_t>(s), {}});
  }

  double stop2 = std::numeric_limits<double>::infinity();
  size_t roots_expanded = 0;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), Later{});
    const Item top = heap.back();
    heap.pop_back();
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
          push(Item{d2, node.object_id(i), 1, top.source, {x, y}});
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
          push(Item{md2, node.child_page(i), 0, top.source, {}});
        }
      }
    }
  }
  return roots_expanded;
}

}  // namespace lbsq::rtree
