#ifndef LBSQ_CORE_NN_VALIDITY_H_
#define LBSQ_CORE_NN_VALIDITY_H_

#include <cstddef>
#include <cstdint>
#include <optional>

#include "core/spatial_backend.h"
#include "core/validity_region.h"
#include "geometry/point.h"
#include "geometry/rect.h"
#include "rtree/rtree.h"

// Server-side processing of location-based k-NN queries (Section 3):
//  (i)   find the answer set;
//  (ii)  discover the influence set, shrinking the validity polygon from
//        the data universe with one bisector half-plane per influence
//        pair;
//  (iii) return the answers, the influence pairs and the region.
//
// The computed region is exactly the (order-k) Voronoi cell of the answer
// set clipped to the data universe, without any precomputed diagram.
//
// Two algorithms compute it. Query, which serves, runs steps (i) and
// (ii) as one nearest-first stream from q: the first k objects are the
// answers, each later object clips the polygon with its bisectors
// against them, and the stream stops at the radius beyond which no
// object can cut the polygon any more (DESIGN.md §4). QueryTpnn is the
// paper's algorithm: a best-first k-NN query, then TPNN/TPkNN queries
// aimed at the unconfirmed vertices of the shrinking polygon
// (Algorithms Retrieve_Influence_Set_1NN / _kNN). It reproduces the
// paper's cost figures and is the oracle Query is tested against.

namespace lbsq::core {

class NnValidityEngine {
 public:
  struct Stats {
    // Counts for the *last* Query or QueryTpnn call. Query's one stream
    // reports as step (i); its TPNN fields stay 0.
    size_t tpnn_queries = 0;        // total TPNN/TPkNN queries issued
    size_t discovering_queries = 0; // those that found a new influence pair
    size_t confirming_queries = 0;  // those that confirmed a vertex
    uint64_t nn_node_accesses = 0;    // NA of step (i)
    uint64_t tpnn_node_accesses = 0;  // NA of step (ii)
    uint64_t nn_page_accesses = 0;    // buffer misses of step (i)
    uint64_t tpnn_page_accesses = 0;  // buffer misses of step (ii)
  };

  // The engine does not own the tree. `universe` is the data space; every
  // query point must lie inside it.
  NnValidityEngine(rtree::RTree* tree, const geo::Rect& universe);

  // Runs Query over any SpatialBackend (e.g. a partition::FragmentRouter);
  // the backend outlives the engine. Same algorithm, same answers — the
  // validity region is a pure function of the exact query results. Such
  // an engine has no QueryTpnn.
  NnValidityEngine(SpatialBackend* backend, const geo::Rect& universe);

  // Processes a location-based k-NN query at `q` with the nearest-first
  // stream. If the dataset holds fewer than k+1 points the validity
  // region is the whole universe.
  NnValidityResult Query(const geo::Point& q, size_t k);

  // The same query by the paper's TPNN algorithm: the same answers, and
  // the same region and influence pairs up to the 1e-9 relative
  // tolerance both algorithms ignore slivers at. Runs on the tree given
  // to the RTree* constructor (checked: calling it on an engine built on
  // a backend is a programming error).
  NnValidityResult QueryTpnn(const geo::Point& q, size_t k);

  const Stats& stats() const { return stats_; }
  const geo::Rect& universe() const { return universe_; }

 private:
  SpatialBackend* backend() {
    return external_ != nullptr ? external_ : &*owned_;
  }

  std::optional<RTreeBackend> owned_;   // set by the RTree* constructor
  SpatialBackend* external_ = nullptr;  // set by the backend constructor
  geo::Rect universe_;
  Stats stats_;
};

}  // namespace lbsq::core

#endif  // LBSQ_CORE_NN_VALIDITY_H_
