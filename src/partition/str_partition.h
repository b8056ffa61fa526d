#ifndef LBSQ_PARTITION_STR_PARTITION_H_
#define LBSQ_PARTITION_STR_PARTITION_H_

#include <cstddef>
#include <vector>

#include "core/serving_pipeline.h"
#include "geometry/point.h"
#include "geometry/rect.h"
#include "rtree/rtree.h"

// STR-order range partitioning: the dataset is split into K spatial
// fragments by the same sort-tile-recursive sweep the bulk loader uses —
// S = ceil(sqrt(K)) vertical slabs of (roughly) equal cardinality by x,
// each slab cut into y-bands of equal cardinality. The boundaries are
// data-derived but the resulting *ownership rectangles* tile the whole
// universe geometrically, so every present or future point has exactly
// one owning fragment: a coordinate exactly on an interior boundary
// belongs to the right/upper side, mirroring the half-open convention of
// the tiling. Routing (queries, inserts, deletes, cache invalidation)
// uses OwnerOf, never the original sort positions, so the assignment is
// stable under churn.

namespace lbsq::partition {

class PartitionLayout final : public core::CacheOwnership {
 public:
  // Tiles `universe` into `fragments` ownership rectangles using the
  // STR order of `entries` to place the interior boundaries. An empty
  // entry set produces an even geometric tiling. fragments >= 1.
  PartitionLayout(const std::vector<rtree::DataEntry>& entries,
                  const geo::Rect& universe, size_t fragments);

  size_t num_fragments() const override { return ownership_.size(); }
  const geo::Rect& universe() const { return universe_; }

  // The unique fragment owning point p (p inside the universe).
  size_t OwnerOf(const geo::Point& p) const override;

  // Closed ownership rectangle of the fragment; the tiles cover the
  // universe and overlap only on shared (measure-zero) edges.
  const geo::Rect& OwnershipRect(size_t fragment) const {
    return ownership_[fragment];
  }

  // True iff every point of `r` (assumed inside the universe) routes to
  // `fragment` under OwnerOf. Strict on interior boundaries: a rectangle
  // reaching the shared edge with the right/upper neighbor is NOT
  // strictly owned, because a point exactly on that edge routes to the
  // neighbor. This is the test the partitioned cache placement uses to
  // guarantee an entry's whole kill footprint invalidates through one
  // fragment.
  bool StrictlyOwns(size_t fragment, const geo::Rect& r) const override;

 private:
  size_t SlabOf(double x) const;

  geo::Rect universe_;
  // Interior x boundaries between slabs (ascending; x >= bound → right).
  std::vector<double> slab_bounds_;
  // Per slab: interior y boundaries (ascending; y >= bound → upper) and
  // the index of the slab's first fragment.
  std::vector<std::vector<double>> band_bounds_;
  std::vector<size_t> slab_first_fragment_;
  std::vector<geo::Rect> ownership_;
};

// Splits `entries` into layout.num_fragments() buckets by OwnerOf.
std::vector<std::vector<rtree::DataEntry>> PartitionEntries(
    const PartitionLayout& layout,
    const std::vector<rtree::DataEntry>& entries);

}  // namespace lbsq::partition

#endif  // LBSQ_PARTITION_STR_PARTITION_H_
