#ifndef LBSQ_RTREE_KNN_H_
#define LBSQ_RTREE_KNN_H_

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "geometry/point.h"
#include "rtree/rtree.h"

// Nearest-neighbor search over the R*-tree: the two classic algorithms the
// paper builds on (Section 2). Both return exactly min(k, size) neighbors
// ordered by increasing distance, breaking distance ties by object id so
// results are deterministic.

namespace lbsq::rtree {

struct Neighbor {
  DataEntry entry;
  double distance = 0.0;
};

// Branch-and-bound depth-first search [RKV95]: visits subtrees in mindist
// order and prunes entries whose mindist exceeds the current k-th
// neighbor distance.
std::vector<Neighbor> KnnDepthFirst(RTree& tree, const geo::Point& q,
                                    size_t k);

// Best-first ("distance browsing") search [HS99]: a priority queue over
// nodes, a bounded max-heap of the best k candidate points, and pruning
// against the current k-th best distance; optimal in node accesses.
// Runs on the zero-copy NodeView read path.
std::vector<Neighbor> KnnBestFirst(RTree& tree, const geo::Point& q,
                                   size_t k);

// -- Resumable nearest-first stream -----------------------------------------

// One tree of a nearest-first stream, entered at its root.
// `root_mindist2` must not exceed the squared mindist from the query
// point to the root's MBR, so that no node or object of the tree is
// nearer than its root: the squared mindist to any rectangle holding the
// root MBR, such as RTree::bounding_box(), qualifies, and so does 0.
struct StreamSource {
  RTree* tree = nullptr;
  double root_mindist2 = 0.0;
};

// Takes the next streamed object (Neighbor::distance is the true
// distance) and returns the squared stop radius for the rest of the
// stream. The radius must never grow from one call to the next.
using StreamVisitor = std::function<double(const Neighbor&)>;

// Distance browsing [HS99] over the union of `sources`: hands the
// objects to `visit` in ascending (squared distance, id) order — the
// order KnnBestFirst ranks its answers in, so the first k objects are
// KnnBestFirst's k answers bit for bit — and stops at the first node or
// object whose squared distance is at or beyond the stop radius `visit`
// last returned (infinite before the first object), when the sources
// are exhausted, or after a node fetch leaves a pending read error
// (storage::PageStore::PendingReadError; the caller checks it).
//
// Nodes and objects share one queue, popped in (squared distance, node
// before object, id) order: an object is only handed out once no node
// at its distance is left unexpanded, so an equal-distance object with
// a smaller id cannot hide in one. The objects' order is therefore the
// same however they are split across trees and nodes. Items at or beyond
// the stop radius are dropped when pushed, which loses nothing because
// the radius only shrinks.
//
// The queue is a radix heap on the bits of the squared distance: no
// item is nearer than the one whose expansion pushed it, so the keys
// pushed never fall below the last key popped (see StreamHeap in
// knn.cc). It is per-thread scratch, reused across calls: `visit` must
// not start another stream on the same thread. Returns the number of
// sources whose root was expanded.
size_t BrowseNearest(std::span<const StreamSource> sources,
                     const geo::Point& q, const StreamVisitor& visit);

}  // namespace lbsq::rtree

#endif  // LBSQ_RTREE_KNN_H_
