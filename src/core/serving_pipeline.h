#ifndef LBSQ_CORE_SERVING_PIPELINE_H_
#define LBSQ_CORE_SERVING_PIPELINE_H_

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "cache/semantic_cache.h"
#include "common/status.h"
#include "core/nn_validity.h"
#include "core/range_validity.h"
#include "core/spatial_backend.h"
#include "core/window_validity.h"
#include "core/wire_service.h"
#include "geometry/point.h"
#include "geometry/rect.h"
#include "rtree/rtree.h"
#include "storage/page_store.h"

// The paper's server loop, written once: compute the answer and its
// validity region, encode both, and keep the encoding in the semantic
// cache under the region so that the next client inside it is served the
// stored bytes. core::Server (one R*-tree) and partition::PartitionedServer
// (K fragments behind a router) are thin shells over this pipeline. They
// differ only in the SpatialBackend the engines run on, in how dataset
// updates reach ApplyUpdates, and in the cache placement below.
//
// Cache placement. Without a CacheOwnership there is one cache: a lookup
// is one probe and every fresh answer goes into it. With one (a sharded
// server's fragment tiling) there are K owner caches plus a boundary
// cache. A fresh entry goes into owner(q)'s cache iff the tiling strictly
// owns the entry's kill footprint clipped to the universe, else into the
// boundary cache; a lookup probes owner(p)'s cache, then the boundary
// cache. An owned entry's validity region lies inside its kill footprint,
// so every point it can serve routes to its owner, and an update at p can
// only kill entries in owner(p)'s cache and the boundary cache.

namespace lbsq::core {

// A fragment tiling of the universe, as the cache placement above sees
// it: OwnerOf is total, and StrictlyOwns(f, r) holds iff every point of
// r (inside the universe) routes to f. partition::PartitionLayout is the
// implementation; lbsq_core does not link the partition layer.
class CacheOwnership {
 public:
  virtual ~CacheOwnership() = default;
  virtual size_t num_fragments() const = 0;
  virtual size_t OwnerOf(const geo::Point& p) const = 0;
  virtual bool StrictlyOwns(size_t fragment, const geo::Rect& r) const = 0;
};

// Checked-path counters: queries that came back as a Status, and
// transient faults that were retried.
struct CheckedCounts {
  size_t errors = 0;
  size_t retries = 0;
};

// The checked-query bracket of every serving path, for untrusted storage
// (a checksummed and/or fault-injected page store): runs `fn` with the
// store's read-error channel cleared and never returns a result computed
// while a read failed. Transient faults (kUnavailable) are retried up to
// `max_retries` times; persistent corruption (kDataLoss), and a fault
// that outlasts the budget, come back as the error itself. A failed fetch
// may have parked a substituted zero page in a buffer pool, so each
// failed attempt drops the backend's buffers before the retry, or a
// later query, could serve it.
template <typename Result, typename Fn>
StatusOr<Result> RunChecked(SpatialBackend& backend, size_t max_retries,
                            CheckedCounts* counts, const Fn& fn) {
  for (size_t attempt = 0;; ++attempt) {
    storage::PageStore::ClearReadError();
    Result result = fn();
    Status error = storage::PageStore::TakeReadError();
    if (error.ok()) return result;
    backend.DropBuffers();
    if (!IsRetryable(error) || attempt >= max_retries) {
      ++counts->errors;
      return error;
    }
    ++counts->retries;
  }
}

class ServingPipeline : public WireService {
 public:
  // The engines run over `backend`; a non-null `ownership` splits the
  // cache as described above. Both must outlive the pipeline.
  ServingPipeline(SpatialBackend* backend, const geo::Rect& universe,
                  const CacheOwnership* ownership = nullptr);

  ServingPipeline(const ServingPipeline&) = delete;
  ServingPipeline& operator=(const ServingPipeline&) = delete;

  // -- Engine queries (each counted as served) ------------------------------

  // Location-based k-NN query.
  NnValidityResult NnQuery(const geo::Point& q, size_t k);
  // Location-based window query (half-extents hx, hy around the focus).
  WindowValidityResult WindowQuery(const geo::Point& focus, double hx,
                                   double hy);
  // Location-based range query ("everything within `radius` of me").
  RangeValidityResult RangeQuery(const geo::Point& focus, double radius);

  // Checked variants for untrusted storage, through RunChecked with
  // max_query_retries() and the query_errors/query_retries counters. The
  // plain variants above keep zero overhead for trusted in-memory stores.
  [[nodiscard]] StatusOr<NnValidityResult> NnQueryChecked(const geo::Point& q,
                                                          size_t k);
  [[nodiscard]] StatusOr<WindowValidityResult> WindowQueryChecked(
      const geo::Point& focus, double hx, double hy);
  [[nodiscard]] StatusOr<RangeValidityResult> RangeQueryChecked(
      const geo::Point& focus, double radius);

  // -- Wire serving (core::WireService) -------------------------------------
  // Cache lookup, then on a miss the checked engine, the wire encoding
  // and the cache insert. A hit returns the stored payload of an earlier
  // answer whose validity region contains the query point, without
  // copying and without engine or page-store work.

  const geo::Rect& universe() const override { return nn_engine_.universe(); }
  [[nodiscard]] StatusOr<WireBytes> NnQueryWireShared(const geo::Point& q,
                                                      size_t k) override;
  [[nodiscard]] StatusOr<WireBytes> WindowQueryWireShared(
      const geo::Point& focus, double hx, double hy) override;
  [[nodiscard]] StatusOr<WireBytes> RangeQueryWireShared(
      const geo::Point& focus, double radius) override;
  // True iff the last successful *QueryWireShared call was a cache hit.
  bool last_wire_from_cache() const override { return last_wire_from_cache_; }
  // Universe, point count and cache switch; no per-fragment entries.
  ServiceInfo info() const override;

  // -- Semantic cache -------------------------------------------------------

  // Installs fresh caches (or, with config.enabled == false, removes
  // them). Every cache gets the full configured budget: owner caches
  // partition the entry space by ownership, they do not split one budget.
  void EnableCache(const cache::CacheConfig& config);
  bool cache_enabled() const { return !caches_.empty(); }
  // Summed over every cache.
  cache::CacheStats cache_stats() const;

  // -- Counters and engines -------------------------------------------------

  size_t nn_queries_served() const { return nn_served_; }
  size_t window_queries_served() const { return window_served_; }
  size_t range_queries_served() const { return range_served_; }
  size_t query_errors() const { return checked_.errors; }
  size_t query_retries() const { return checked_.retries; }
  size_t max_query_retries() const { return max_query_retries_; }
  void set_max_query_retries(size_t n) { max_query_retries_ = n; }

  // Placement and blast radius: entries inserted into an owner cache vs.
  // the boundary cache, and entries updates killed in each.
  size_t owner_cache_inserts() const { return owner_cache_inserts_; }
  size_t boundary_cache_inserts() const { return boundary_cache_inserts_; }
  size_t owner_cache_kills() const { return owner_cache_kills_; }
  size_t boundary_cache_kills() const { return boundary_cache_kills_; }

  NnValidityEngine& nn_engine() { return nn_engine_; }
  WindowValidityEngine& window_engine() { return window_engine_; }
  RangeValidityEngine& range_engine() { return range_engine_; }

 protected:
  // Counts a query the shell answered without the engines (the plain,
  // pre-validity-region queries).
  void CountNnServed() { ++nn_served_; }
  void CountWindowServed() { ++window_served_; }

  // One owner cache's counters (zero without ownership or a cache).
  cache::CacheStats owner_cache_stats(size_t fragment) const;

  // The one invalidation rule, fed every dataset change the shell learns
  // of. With config.region_scoped, each update inside the universe kills
  // only the entries it can touch, in owner(p)'s cache and the boundary
  // cache; one outside the universe, which no grid can scope,
  // epoch-invalidates every cache. Without region scoping the batch costs
  // one epoch invalidation of every cache.
  void ApplyUpdates(std::span<const rtree::UpdateRecord> updates);
  // A change no update list describes (BulkLoad, a trimmed update log):
  // one epoch invalidation of every cache.
  void ApplyUnattributedChange();

 private:
  // Probes owner(p)'s cache, then the boundary cache.
  template <typename Probe>
  bool Lookup(const geo::Point& p, const Probe& probe);
  // Inserts a fresh entry where the placement rule puts it; `footprint`
  // (the entry's kill footprint) is only evaluated under ownership.
  template <typename Footprint, typename Insert>
  void Place(const geo::Point& q, const Footprint& footprint,
             const Insert& insert);

  SpatialBackend* backend_;
  const CacheOwnership* ownership_;
  NnValidityEngine nn_engine_;
  WindowValidityEngine window_engine_;
  RangeValidityEngine range_engine_;

  // Owner caches 0..K-1, then the boundary cache last; without ownership
  // the boundary cache is the only one. Empty = caching disabled.
  std::vector<std::unique_ptr<cache::SemanticCache>> caches_;

  size_t nn_served_ = 0;
  size_t window_served_ = 0;
  size_t range_served_ = 0;
  CheckedCounts checked_;
  size_t max_query_retries_ = 2;
  bool last_wire_from_cache_ = false;
  size_t owner_cache_inserts_ = 0;
  size_t boundary_cache_inserts_ = 0;
  size_t owner_cache_kills_ = 0;
  size_t boundary_cache_kills_ = 0;
};

}  // namespace lbsq::core

#endif  // LBSQ_CORE_SERVING_PIPELINE_H_
