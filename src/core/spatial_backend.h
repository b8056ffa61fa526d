#ifndef LBSQ_CORE_SPATIAL_BACKEND_H_
#define LBSQ_CORE_SPATIAL_BACKEND_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geometry/point.h"
#include "geometry/rect.h"
#include "rtree/knn.h"
#include "rtree/rtree.h"

// The query surface serving needs from a spatial index. The served
// validity-region engines (nn_validity, window_validity, range_validity)
// consume exactly two query primitives — the nearest-first stream (k-NN)
// and window query (window and range) — plus the NA/PA counters and the
// dataset cardinality.
// Abstracting them lets the same engine code run over a single R*-tree
// (RTreeBackend below) or over K spatially sharded fragments behind a
// router (partition::FragmentRouter), and the validity-region machinery
// cannot tell the difference: regions are computed from exact answers,
// wherever they come from. The paper's TPNN algorithm is not served: it
// runs on one tree directly, not through this interface.
//
// Determinism contract (what makes partitioned wire bytes byte-identical
// to the single-tree server's — see DESIGN.md "Partitioned serving"):
//   * BrowseNearest hands out objects in ascending (squared distance,
//     id) order with nodes expanded before objects at equal distance
//     (rtree::BrowseNearest), so the sequence — and hence where a
//     shrinking stop radius cuts it — is a pure function of the data
//     set, however it is split across trees. Its first k objects are
//     rtree::KnnBestFirst(q, k) in ids, order and bits.
//   * WindowQuery returns the matching entries as a set, in an order
//     that depends on the tree layout (and, behind the router, on the
//     fragments). Every engine puts what it ships — the result and the
//     kept outer objects — into CANONICAL order, ascending (id, x, y),
//     with SortCanonical below before it builds anything order-dependent
//     from them, so the wire encoding of window and range answers is a
//     pure function of the data set. Candidates the engines' filters
//     drop are never sorted.
//
// The backend is also the seam for the checked (untrusted-storage) query
// path: DropBuffers purges any buffered pages after a read fault so a
// retry cannot be served a substituted zero page as a hit.

namespace lbsq::core {

class SpatialBackend {
 public:
  virtual ~SpatialBackend() = default;

  // Dataset cardinality (the engines' "fewer than k+1 points" early-out).
  virtual size_t size() const = 0;

  // Cumulative cost counters: node accesses (every logical page fetch)
  // and page accesses (fetches that missed the buffer pool). Engines
  // report per-step deltas of these.
  virtual uint64_t node_accesses() const = 0;
  virtual uint64_t page_accesses() const = 0;

  // Streams the dataset's objects nearest-first from q into `visit`
  // until the squared stop radius it returns is reached (see
  // rtree::BrowseNearest and the determinism contract above).
  virtual void BrowseNearest(const geo::Point& q,
                             const rtree::StreamVisitor& visit) = 0;

  // All points inside `w` (closed containment), in no particular order.
  virtual void WindowQuery(const geo::Rect& w,
                           std::vector<rtree::DataEntry>* out) = 0;

  // Drops every buffered page (checked-path fault recovery).
  virtual void DropBuffers() = 0;

  // Sorts `entries` into canonical order: ascending object id, with
  // (x, y) as a total-order tiebreak for the degenerate duplicate-id
  // case. Exact comparisons only, so the order is bit-deterministic. A
  // stable LSD radix sort on the 32-bit id (common/radix_sort.h: 8-bit
  // digits; a byte every id shares costs no pass), then each run of
  // equal ids ordered by (x, y); inputs below a small cutoff take an
  // insertion sort. The result equals std::stable_sort under the
  // (id, x, y) comparison.
  static void SortCanonical(std::vector<rtree::DataEntry>* entries);
};

// The single-tree backend: forwards every primitive to one R*-tree. This
// is what the engines' (RTree*, universe) constructors wrap.
class RTreeBackend final : public SpatialBackend {
 public:
  explicit RTreeBackend(rtree::RTree* tree) : tree_(tree) {}

  size_t size() const override { return tree_->size(); }
  uint64_t node_accesses() const override {
    return tree_->buffer().logical_accesses();
  }
  uint64_t page_accesses() const override {
    return tree_->disk().read_count();
  }

  void BrowseNearest(const geo::Point& q,
                     const rtree::StreamVisitor& visit) override {
    const rtree::StreamSource source{tree_, 0.0};
    rtree::BrowseNearest({&source, 1}, q, visit);
  }

  void WindowQuery(const geo::Rect& w,
                   std::vector<rtree::DataEntry>* out) override {
    tree_->WindowQuery(w, out);
  }

  void DropBuffers() override { tree_->buffer().Clear(); }

  rtree::RTree* tree() const { return tree_; }

 private:
  rtree::RTree* tree_;
};

}  // namespace lbsq::core

#endif  // LBSQ_CORE_SPATIAL_BACKEND_H_
