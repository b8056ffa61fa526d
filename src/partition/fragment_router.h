#ifndef LBSQ_PARTITION_FRAGMENT_ROUTER_H_
#define LBSQ_PARTITION_FRAGMENT_ROUTER_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/annotations.h"
#include "core/spatial_backend.h"
#include "geometry/point.h"
#include "geometry/rect.h"
#include "partition/str_partition.h"
#include "rtree/rtree.h"

// Best-first cross-fragment router: a core::SpatialBackend over K
// spatially sharded R*-trees. The validity-region engines run over it
// unchanged and cannot tell it from a single tree, because every
// primitive reproduces the single-tree answer exactly:
//
//   * BrowseNearest runs one nearest-first stream whose radix heap
//     starts with every non-empty fragment's root at its squared mindist
//     to the fragment's extent. The extent is the tree's bounding_box(),
//     which contains the root MBR, so nothing the fragment pushes later
//     is nearer than its root: the heap's keys never fall below the last
//     pop. Nodes and objects of all fragments then share the heap's
//     (distance, node first, id) order, so the objects come out exactly
//     as one tree over the whole data set would hand them out.
//   * WindowQuery fans out to the fragments whose extent intersects the
//     window and returns the union of their answers, fragment after
//     fragment. The union is the single tree's answer set; the engines
//     put what they ship into canonical order (core::SpatialBackend), so
//     the order the union comes in never reaches the wire.
//
// The routing table (per-fragment extent + cardinality) is the one piece
// of mutable shared state: the serving layer refreshes it after routing
// an insert/delete to a fragment, while future per-fragment worker
// threads only read it. It is mutex-guarded; queries snapshot it and
// then walk the fragment trees lock-free (tree access is the caller's
// single-writer domain, exactly as with a single RTree).

namespace lbsq::partition {

class FragmentRouter final : public core::SpatialBackend {
 public:
  // `trees[i]` is fragment i's R*-tree (must outlive the router; one per
  // layout fragment). The routing table starts from the trees' current
  // bounding boxes.
  FragmentRouter(std::vector<rtree::RTree*> trees, PartitionLayout layout);

  // -- Routing table --------------------------------------------------------

  size_t num_fragments() const { return trees_.size(); }
  const PartitionLayout& layout() const { return layout_; }

  // The fragment owning point p (where inserts/deletes for p go).
  size_t OwnerOf(const geo::Point& p) const { return layout_.OwnerOf(p); }

  // Re-reads fragment f's extent and cardinality from its tree into the
  // routing table. Call after mutating fragment f; single mutator only
  // (concurrent readers of the table are fine).
  void RefreshFragment(size_t f);

  // Snapshot of fragment f's conservative extent (empty iff no points).
  geo::Rect FragmentExtent(size_t f) const;
  size_t FragmentSize(size_t f) const;

  // -- core::SpatialBackend -------------------------------------------------

  size_t size() const override;
  uint64_t node_accesses() const override;
  uint64_t page_accesses() const override;
  void BrowseNearest(const geo::Point& q,
                     const rtree::StreamVisitor& visit) override;
  void WindowQuery(const geo::Rect& w,
                   std::vector<rtree::DataEntry>* out) override;
  void DropBuffers() override;

  // Cumulative fan-out telemetry: backend primitives routed and the
  // fragments they actually visited (extent pruning and the stream's
  // stop radius keep visited below K x primitives; a stream visits the
  // fragments whose root it expands).
  // fanout_fragments / fanout_queries is the average fan-out a
  // thread-per-fragment split would pay per routed primitive.
  uint64_t fanout_queries() const { return fanout_queries_; }
  uint64_t fanout_fragments() const { return fanout_fragments_; }

 private:
  struct RouteEntry {
    geo::Rect extent;  // conservative bounding box of the fragment
    size_t points = 0;
  };

  // Table snapshot for one query (extent + cardinality per fragment).
  std::vector<RouteEntry> SnapshotTable() const;

  const std::vector<rtree::RTree*> trees_ LBSQ_EXCLUDED(mu_);  // immutable
  const PartitionLayout layout_ LBSQ_EXCLUDED(mu_);            // immutable
  mutable std::mutex mu_;
  std::vector<RouteEntry> table_ LBSQ_GUARDED_BY(mu_);
  // Telemetry written by the (single-threaded) query path, like the
  // trees themselves — not part of the shared routing table.
  uint64_t fanout_queries_ LBSQ_EXCLUDED(mu_) = 0;
  uint64_t fanout_fragments_ LBSQ_EXCLUDED(mu_) = 0;
};

}  // namespace lbsq::partition

#endif  // LBSQ_PARTITION_FRAGMENT_ROUTER_H_
