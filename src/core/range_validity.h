#ifndef LBSQ_CORE_RANGE_VALIDITY_H_
#define LBSQ_CORE_RANGE_VALIDITY_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "core/spatial_backend.h"
#include "geometry/disk_region.h"
#include "geometry/point.h"
#include "geometry/rect.h"
#include "rtree/rtree.h"

// Location-based *range* queries ("all restaurants within 5 km of me") —
// the extension the paper's conclusion proposes as future work. The
// validity region is bounded by circular arcs: the focus must stay within
// distance r of every result object and at distance > r from every
// nearby outer object. Processing mirrors the window-query engine: a
// range query for the result, then one search over the marginal area for
// candidate outer influence objects.

namespace lbsq::core {

class RangeValidityResult {
 public:
  RangeValidityResult() = default;
  RangeValidityResult(geo::Point focus, double radius,
                      std::vector<rtree::DataEntry> result,
                      geo::DiskRegion region)
      : focus_(focus),
        radius_(radius),
        result_(std::move(result)),
        region_(std::move(region)) {}

  const geo::Point& focus() const { return focus_; }
  double radius() const { return radius_; }
  const std::vector<rtree::DataEntry>& result() const { return result_; }

  // Exact arc-bounded region: what the wire carries and the cache keys
  // on. A thin client derives its conservative convex polygon from it
  // with DiskRegion::ConservativePolygon.
  const geo::DiskRegion& region() const { return region_; }

  bool IsValidAt(const geo::Point& p) const { return region_.Contains(p); }

 private:
  geo::Point focus_;
  double radius_ = 0.0;
  std::vector<rtree::DataEntry> result_;
  geo::DiskRegion region_;
};

class RangeValidityEngine {
 public:
  struct Stats {
    uint64_t result_node_accesses = 0;
    uint64_t influence_node_accesses = 0;
    // Objects the outer-candidate fetch read beyond the radius (the ones
    // within it are the result, read again).
    size_t outer_candidates = 0;
  };

  RangeValidityEngine(rtree::RTree* tree, const geo::Rect& universe);
  // Runs over any SpatialBackend (the backend outlives the engine).
  RangeValidityEngine(SpatialBackend* backend, const geo::Rect& universe);

  // All objects within distance `radius` of `focus` (closed), plus the
  // validity region of that answer.
  RangeValidityResult Query(const geo::Point& focus, double radius);

  const Stats& stats() const { return stats_; }
  const geo::Rect& universe() const { return universe_; }

 private:
  SpatialBackend* backend() {
    return external_ != nullptr ? external_ : &*owned_;
  }

  std::optional<RTreeBackend> owned_;   // set by the RTree* constructors
  SpatialBackend* external_ = nullptr;  // set by the backend constructors
  geo::Rect universe_;
  Stats stats_;
};

}  // namespace lbsq::core

#endif  // LBSQ_CORE_RANGE_VALIDITY_H_
