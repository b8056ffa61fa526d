#ifndef LBSQ_CORE_WINDOW_VALIDITY_H_
#define LBSQ_CORE_WINDOW_VALIDITY_H_

#include <cstdint>
#include <optional>

#include "core/spatial_backend.h"
#include "core/validity_region.h"
#include "geometry/point.h"
#include "geometry/rect.h"
#include "rtree/rtree.h"

// Server-side processing of location-based window queries (Section 4).
// The window has fixed extents and moves with the client (its focus).
//
// The result stays valid while (a) every current result point stays
// covered and (b) no outer point becomes covered. Constraint (a) confines
// the focus to the *inner validity rectangle* — the intersection of the
// Minkowski boxes (window extents centered at each inner point); (b)
// removes the Minkowski boxes of outer points. The engine runs two window
// queries: one for the result, one over the marginal rectangle (the inner
// rectangle dilated by the window half-extents) for candidate outer
// influence objects — exactly the two-step algorithm of the paper, whose
// second query is largely absorbed by the LRU buffer.

namespace lbsq::core {

class WindowValidityEngine {
 public:
  struct Stats {
    // Counts for the last Query call.
    uint64_t result_node_accesses = 0;     // NA of the result query
    uint64_t influence_node_accesses = 0;  // NA of the outer-candidate query
    uint64_t result_page_accesses = 0;     // buffer misses of query 1
    uint64_t influence_page_accesses = 0;  // buffer misses of query 2
    // Points query 2 fetched outside the query window (the ones inside
    // are the result, read again).
    size_t outer_candidates = 0;
  };

  WindowValidityEngine(rtree::RTree* tree, const geo::Rect& universe);
  // Runs over any SpatialBackend (the backend outlives the engine).
  WindowValidityEngine(SpatialBackend* backend, const geo::Rect& universe);

  // Location-based window query: window of half-extents (hx, hy) centered
  // at `focus`. Requires focus inside the universe and positive extents.
  WindowValidityResult Query(const geo::Point& focus, double hx, double hy);

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

#endif  // LBSQ_CORE_WINDOW_VALIDITY_H_
