#ifndef LBSQ_CORE_SERVER_H_
#define LBSQ_CORE_SERVER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "cache/semantic_cache.h"
#include "common/status.h"
#include "core/serving_pipeline.h"
#include "core/spatial_backend.h"
#include "geometry/point.h"
#include "geometry/rect.h"
#include "rtree/knn.h"
#include "rtree/rtree.h"

// The server side of the mobile-computing scenario from the paper's
// introduction: it owns the query engines over one spatial index and
// serves location-based queries, counting how many it had to process.
// Mobile clients (mobile_client.h) hit it only when they leave the
// validity region of a previous answer. The engines, the checked
// (untrusted-storage) variants, the wire path and the semantic cache are
// core::ServingPipeline's (serving_pipeline.h); this is its single-tree
// shell.
//
// The *Checked query variants serve untrusted storage (a checksummed
// and/or fault-injected page store): instead of trusting every page, they
// bracket the query with the store's read-error channel, retry transient
// faults a bounded number of times, and surface anything else as a
// per-query Status — the process stays up when a page goes bad.
//
// The *QueryWire variants are the full serving path: they return the
// encoded wire answer (what actually crosses the wireless link) and,
// when EnableCache() has installed a semantic answer cache, consult it
// first. The caller mutates the tree directly, so the cache catches up
// at the top of each wire call: when the tree's update epoch has
// advanced, the tree's update log goes through the pipeline's
// invalidation rule (each insert/delete kills only the entries whose
// answer it can change), falling back to a full epoch invalidation when
// the log cannot attribute the change to points (BulkLoad, trimmed log).

namespace lbsq::core {

class Server : public ServingPipeline {
 public:
  Server(rtree::RTree* tree, const geo::Rect& universe)
      : Server(tree, std::make_unique<RTreeBackend>(tree), universe) {}

  // Conventional queries without validity-region computation — what a
  // pre-validity-region server would run for the naive re-query client.
  std::vector<rtree::Neighbor> PlainNnQuery(const geo::Point& q, size_t k) {
    CountNnServed();
    return rtree::KnnBestFirst(*tree_, q, k);
  }

  std::vector<rtree::DataEntry> PlainWindowQuery(const geo::Point& focus,
                                                 double hx, double hy) {
    CountWindowServed();
    std::vector<rtree::DataEntry> out;
    tree_->WindowQuery(geo::Rect::Centered(focus, hx, hy), &out);
    return out;
  }

  // -- Wire serving path (optionally cache-backed) --------------------------

  // Installs (or, with config.enabled == false, removes) the semantic
  // answer cache consulted by the *QueryWire methods. Enabling starts
  // from an empty cache synced to the tree's current update epoch.
  void EnableCache(const cache::CacheConfig& config) {
    ServingPipeline::EnableCache(config);
    cache_data_epoch_ = tree_->update_epoch();
  }

  // Full serving path: the encoded wire answer, the same payload object
  // the cache stores (zero-copy; the reference keeps the bytes alive even
  // if the entry is evicted while the reply sits in a socket's write
  // queue).
  [[nodiscard]] StatusOr<WireBytes> NnQueryWireShared(const geo::Point& q,
                                                      size_t k) override {
    SyncCacheEpoch();
    return ServingPipeline::NnQueryWireShared(q, k);
  }

  [[nodiscard]] StatusOr<WireBytes> WindowQueryWireShared(
      const geo::Point& focus, double hx, double hy) override {
    SyncCacheEpoch();
    return ServingPipeline::WindowQueryWireShared(focus, hx, hy);
  }

  [[nodiscard]] StatusOr<WireBytes> RangeQueryWireShared(
      const geo::Point& focus, double radius) override {
    SyncCacheEpoch();
    return ServingPipeline::RangeQueryWireShared(focus, radius);
  }

  // Owned-buffer variants (copying) for callers that mutate or retain
  // the bytes; the serving layer uses the Shared forms above.
  [[nodiscard]] StatusOr<std::vector<uint8_t>> NnQueryWire(const geo::Point& q,
                                                           size_t k) {
    StatusOr<WireBytes> shared = NnQueryWireShared(q, k);
    if (!shared.ok()) return shared.status();
    return **shared;
  }

  [[nodiscard]] StatusOr<std::vector<uint8_t>> WindowQueryWire(
      const geo::Point& focus, double hx, double hy) {
    StatusOr<WireBytes> shared = WindowQueryWireShared(focus, hx, hy);
    if (!shared.ok()) return shared.status();
    return **shared;
  }

  [[nodiscard]] StatusOr<std::vector<uint8_t>> RangeQueryWire(
      const geo::Point& focus, double radius) {
    StatusOr<WireBytes> shared = RangeQueryWireShared(focus, radius);
    if (!shared.ok()) return shared.status();
    return **shared;
  }

 private:
  // The backend lives on the heap so the pipeline base can be built over
  // it before this object's members are.
  Server(rtree::RTree* tree, std::unique_ptr<RTreeBackend> backend,
         const geo::Rect& universe)
      : ServingPipeline(backend.get(), universe),
        tree_(tree),
        backend_(std::move(backend)) {}

  // Catches the cache up with the mutations made through the tree since
  // the last wire call.
  void SyncCacheEpoch() {
    if (!cache_enabled()) return;
    const uint64_t tree_epoch = tree_->update_epoch();
    if (tree_epoch == cache_data_epoch_) return;
    update_scratch_.clear();
    if (tree_->CopyUpdatesSince(cache_data_epoch_, &update_scratch_)) {
      ApplyUpdates(update_scratch_);
    } else {
      ApplyUnattributedChange();
    }
    cache_data_epoch_ = tree_epoch;
  }

  rtree::RTree* tree_;
  std::unique_ptr<RTreeBackend> backend_;
  uint64_t cache_data_epoch_ = 0;
  // Reused buffer for SyncCacheEpoch's update-log replay.
  std::vector<rtree::UpdateRecord> update_scratch_;
};

}  // namespace lbsq::core

#endif  // LBSQ_CORE_SERVER_H_
