#include "core/serving_pipeline.h"

#include <utility>

#include "core/wire_format.h"

namespace lbsq::core {

ServingPipeline::ServingPipeline(SpatialBackend* backend,
                                 const geo::Rect& universe,
                                 const CacheOwnership* ownership)
    : backend_(backend),
      ownership_(ownership),
      nn_engine_(backend, universe),
      window_engine_(backend, universe),
      range_engine_(backend, universe) {}

// -- Engine queries -----------------------------------------------------------

NnValidityResult ServingPipeline::NnQuery(const geo::Point& q, size_t k) {
  ++nn_served_;
  return nn_engine_.Query(q, k);
}

WindowValidityResult ServingPipeline::WindowQuery(const geo::Point& focus,
                                                  double hx, double hy) {
  ++window_served_;
  return window_engine_.Query(focus, hx, hy);
}

RangeValidityResult ServingPipeline::RangeQuery(const geo::Point& focus,
                                                double radius) {
  ++range_served_;
  return range_engine_.Query(focus, radius);
}

StatusOr<NnValidityResult> ServingPipeline::NnQueryChecked(const geo::Point& q,
                                                           size_t k) {
  ++nn_served_;
  return RunChecked<NnValidityResult>(*backend_, max_query_retries_, &checked_,
                                      [&] { return nn_engine_.Query(q, k); });
}

StatusOr<WindowValidityResult> ServingPipeline::WindowQueryChecked(
    const geo::Point& focus, double hx, double hy) {
  ++window_served_;
  return RunChecked<WindowValidityResult>(
      *backend_, max_query_retries_, &checked_,
      [&] { return window_engine_.Query(focus, hx, hy); });
}

StatusOr<RangeValidityResult> ServingPipeline::RangeQueryChecked(
    const geo::Point& focus, double radius) {
  ++range_served_;
  return RunChecked<RangeValidityResult>(
      *backend_, max_query_retries_, &checked_,
      [&] { return range_engine_.Query(focus, radius); });
}

// -- Cache placement ----------------------------------------------------------

template <typename Probe>
bool ServingPipeline::Lookup(const geo::Point& p, const Probe& probe) {
  if (caches_.empty()) return false;
  if (ownership_ != nullptr && probe(*caches_[ownership_->OwnerOf(p)])) {
    return true;
  }
  return probe(*caches_.back());
}

template <typename Footprint, typename Insert>
void ServingPipeline::Place(const geo::Point& q, const Footprint& footprint,
                            const Insert& insert) {
  if (ownership_ != nullptr) {
    const size_t owner = ownership_->OwnerOf(q);
    // Mirror the cache's own registration, which indexes the entry for
    // invalidation under footprint ∩ universe (an out-of-universe update
    // epoch-invalidates every cache, see ApplyUpdates).
    if (ownership_->StrictlyOwns(owner, footprint().Intersection(universe()))) {
      ++owner_cache_inserts_;
      insert(*caches_[owner]);
      return;
    }
  }
  ++boundary_cache_inserts_;
  insert(*caches_.back());
}

// -- Wire serving -------------------------------------------------------------

StatusOr<ServingPipeline::WireBytes> ServingPipeline::NnQueryWireShared(
    const geo::Point& q, size_t k) {
  last_wire_from_cache_ = false;
  WireBytes bytes;
  if (Lookup(q, [&](cache::SemanticCache& c) {
        return c.LookupNnShared(q, k, &bytes);
      })) {
    ++nn_served_;
    last_wire_from_cache_ = true;
    return bytes;
  }
  StatusOr<NnValidityResult> result = NnQueryChecked(q, k);
  if (!result.ok()) return result.status();
  StatusOr<std::vector<uint8_t>> encoded = wire::EncodeNnResult(*result);
  if (!encoded.ok()) return encoded.status();
  WireBytes shared = cache::MakeCachedBytes(std::move(*encoded));
  if (cache_enabled()) {
    std::vector<geo::Point> answers;
    answers.reserve(result->answers().size());
    for (const rtree::Neighbor& n : result->answers()) {
      answers.push_back(n.entry.point);
    }
    std::vector<cache::BisectorConstraint> constraints;
    constraints.reserve(result->influence_pairs().size());
    for (const InfluencePair& pair : result->influence_pairs()) {
      constraints.push_back({pair.displaced.point, pair.incoming.point});
    }
    const geo::Rect bounds = result->region().BoundingBox();
    Place(
        q,
        [&] {
          // The cache's own footprint definition, under-filled rule
          // included: an answer smaller than k can be killed anywhere.
          return cache::SemanticCache::NnKillFootprint(
              k, universe(), bounds.Intersection(universe()), answers,
              constraints);
        },
        [&](cache::SemanticCache& c) {
          c.InsertNn(k, result->universe(), bounds, std::move(answers),
                     std::move(constraints), shared);
        });
  }
  return shared;
}

StatusOr<ServingPipeline::WireBytes> ServingPipeline::WindowQueryWireShared(
    const geo::Point& focus, double hx, double hy) {
  last_wire_from_cache_ = false;
  WireBytes bytes;
  if (Lookup(focus, [&](cache::SemanticCache& c) {
        return c.LookupWindowShared(focus, hx, hy, &bytes);
      })) {
    ++window_served_;
    last_wire_from_cache_ = true;
    return bytes;
  }
  StatusOr<WindowValidityResult> result = WindowQueryChecked(focus, hx, hy);
  if (!result.ok()) return result.status();
  StatusOr<std::vector<uint8_t>> encoded = wire::EncodeWindowResult(*result);
  if (!encoded.ok()) return encoded.status();
  WireBytes shared = cache::MakeCachedBytes(std::move(*encoded));
  if (cache_enabled()) {
    Place(
        focus,
        [&] {
          return cache::SemanticCache::WindowKillFootprint(
              result->region().base(), hx, hy);
        },
        [&](cache::SemanticCache& c) {
          c.InsertWindow(hx, hy, result->region(), shared);
        });
  }
  return shared;
}

StatusOr<ServingPipeline::WireBytes> ServingPipeline::RangeQueryWireShared(
    const geo::Point& focus, double radius) {
  last_wire_from_cache_ = false;
  WireBytes bytes;
  if (Lookup(focus, [&](cache::SemanticCache& c) {
        return c.LookupRangeShared(focus, radius, &bytes);
      })) {
    ++range_served_;
    last_wire_from_cache_ = true;
    return bytes;
  }
  StatusOr<RangeValidityResult> result = RangeQueryChecked(focus, radius);
  if (!result.ok()) return result.status();
  StatusOr<std::vector<uint8_t>> encoded = wire::EncodeRangeResult(*result);
  if (!encoded.ok()) return encoded.status();
  WireBytes shared = cache::MakeCachedBytes(std::move(*encoded));
  if (cache_enabled()) {
    Place(
        focus,
        [&] {
          return cache::SemanticCache::RangeKillFootprint(
              result->region().bounds(), radius);
        },
        [&](cache::SemanticCache& c) {
          c.InsertRange(radius, result->region(), shared);
        });
  }
  return shared;
}

// -- Semantic cache -----------------------------------------------------------

void ServingPipeline::EnableCache(const cache::CacheConfig& config) {
  caches_.clear();
  if (!config.enabled) return;
  // Every cache spans the full universe (lookup and invalidation geometry
  // are universe-relative); ownership only decides which one an entry
  // lives in.
  const size_t owners = ownership_ != nullptr ? ownership_->num_fragments() : 0;
  for (size_t i = 0; i <= owners; ++i) {
    caches_.push_back(
        std::make_unique<cache::SemanticCache>(universe(), config));
  }
}

cache::CacheStats ServingPipeline::cache_stats() const {
  cache::CacheStats total;
  for (const std::unique_ptr<cache::SemanticCache>& c : caches_) {
    total += c->stats();
  }
  return total;
}

cache::CacheStats ServingPipeline::owner_cache_stats(size_t fragment) const {
  if (ownership_ == nullptr || caches_.empty()) return {};
  return caches_[fragment]->stats();
}

void ServingPipeline::ApplyUpdates(
    std::span<const rtree::UpdateRecord> updates) {
  if (caches_.empty()) return;
  if (!caches_.back()->config().region_scoped) {
    ApplyUnattributedChange();
    return;
  }
  for (const rtree::UpdateRecord& u : updates) {
    if (!universe().Contains(u.point)) {
      ApplyUnattributedChange();
      continue;
    }
    const cache::UpdateKind kind = u.kind == rtree::UpdateKind::kInsert
                                       ? cache::UpdateKind::kInsert
                                       : cache::UpdateKind::kDelete;
    if (ownership_ != nullptr) {
      owner_cache_kills_ +=
          caches_[ownership_->OwnerOf(u.point)]->InvalidateAt(u.point, kind);
    }
    boundary_cache_kills_ += caches_.back()->InvalidateAt(u.point, kind);
  }
}

void ServingPipeline::ApplyUnattributedChange() {
  for (const std::unique_ptr<cache::SemanticCache>& c : caches_) {
    c->Invalidate();
  }
}

ServiceInfo ServingPipeline::info() const {
  ServiceInfo out;
  out.universe = universe();
  out.points = backend_->size();
  out.cache_enabled = cache_enabled();
  return out;
}

}  // namespace lbsq::core
