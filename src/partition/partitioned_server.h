#ifndef LBSQ_PARTITION_PARTITIONED_SERVER_H_
#define LBSQ_PARTITION_PARTITIONED_SERVER_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "core/serving_pipeline.h"
#include "core/wire_service.h"
#include "geometry/point.h"
#include "geometry/rect.h"
#include "partition/fragment_router.h"
#include "partition/str_partition.h"
#include "rtree/rtree.h"
#include "storage/page_manager.h"

// Partitioned serving: the dataset is sharded into K spatial fragments,
// each owning its own R*-tree, page store, buffer pool, and semantic
// answer cache; a FragmentRouter presents them to the validity-region
// engines as one core::SpatialBackend. Because the router reproduces
// every query primitive exactly (see fragment_router.h) and the wire
// encoding is a pure function of the engine result, the bytes this
// server emits are identical to a single-tree core::Server over the same
// dataset — the differential test holds them byte-for-byte equal.
//
// Cache placement is ownership-based. Each fragment cache only holds
// entries whose *kill footprint* — the closed set of update positions
// that can invalidate the entry — routes entirely to that fragment
// (PartitionLayout::StrictlyOwns over the footprint clipped to the
// universe); everything else goes to a shared boundary cache. A dataset
// update at p therefore only needs to invalidate owner(p)'s cache plus
// the boundary cache: K-1 fragment caches are untouched, shrinking the
// invalidation blast radius from the whole cache to one shard. Lookups
// probe owner(q) then the boundary cache; an entry's validity region is
// contained in its kill footprint, so any query point the entry can
// serve routes to the fragment holding it.
//
// Serving runs through core::ServingPipeline, as core::Server's does;
// this shell supplies the router as the backend, the layout as the cache
// ownership, and its own Insert/Delete as the update source.

namespace lbsq::partition {

struct PartitionedServerOptions {
  // Number of spatial fragments (K >= 1; K == 1 degenerates to a
  // single-tree server behind the router).
  size_t fragments = 4;
  // Per-fragment R*-tree shape and bulk-load fill.
  rtree::RTree::Options tree_options;
  double bulk_fill = 0.7;
  // Buffer-pool frames per fragment.
  size_t buffer_capacity = 256;
};

class PartitionedServer final : public core::ServingPipeline {
 public:
  // Bulk-loads `entries` into the fragments of an STR layout derived
  // from them over `universe`.
  PartitionedServer(std::vector<rtree::DataEntry> entries,
                    const geo::Rect& universe,
                    const PartitionedServerOptions& options = {});

  // Adds one FragmentStat per fragment to the pipeline's info.
  core::ServiceInfo info() const override;

  // -- Updates --------------------------------------------------------------
  // Routed to the owning fragment, then through the pipeline's
  // invalidation rule: only that fragment's cache (plus the boundary
  // cache) sees the region-scoped kill.

  void Insert(const geo::Point& p, rtree::ObjectId id);
  bool Delete(const geo::Point& p, rtree::ObjectId id);

  // -- Introspection --------------------------------------------------------

  size_t num_fragments() const { return shards_.fragments.size(); }
  const PartitionLayout& layout() const { return shards_.router->layout(); }
  FragmentRouter& router() { return *shards_.router; }
  size_t size() const { return shards_.router->size(); }

 private:
  // One spatial shard: its page store and tree.
  struct Fragment {
    storage::PageManager pages;
    std::unique_ptr<rtree::RTree> tree;
  };
  // The fragments and the router over them. The engines run over the
  // router, which they cannot tell from one tree, and its layout places
  // the cache entries. Built before the pipeline base, which points at
  // the router; the router lives on the heap, so moving the shards into
  // shards_ keeps that pointer valid.
  struct Shards {
    std::vector<std::unique_ptr<Fragment>> fragments;
    std::unique_ptr<FragmentRouter> router;
  };
  static Shards BuildShards(std::vector<rtree::DataEntry> entries,
                            const geo::Rect& universe,
                            const PartitionedServerOptions& options);
  PartitionedServer(Shards shards, const geo::Rect& universe);

  Shards shards_;
};

}  // namespace lbsq::partition

#endif  // LBSQ_PARTITION_PARTITIONED_SERVER_H_
