#ifndef LBSQ_CORE_WIRE_SERVICE_H_
#define LBSQ_CORE_WIRE_SERVICE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cache/semantic_cache.h"
#include "common/status.h"
#include "geometry/point.h"
#include "geometry/rect.h"

// The serving interface the network layer talks to: the three
// location-based wire queries plus a self-description. Implemented by
// the single-tree core::Server and by the spatially sharded
// partition::PartitionedServer — both produce byte-identical answers for
// the same dataset (see DESIGN.md "Partitioned serving"), so the network
// layer and every client are agnostic to how the dataset is laid out.

namespace lbsq::core {

// Serving statistics for one spatial fragment. An unpartitioned server
// reports a single implicit fragment via ServiceInfo::fragments being
// empty; a partitioned server reports one entry per fragment.
struct FragmentStat {
  geo::Rect mbr;  // bounding box of the fragment's points (empty iff none)
  uint64_t points = 0;         // points currently owned by the fragment
  uint64_t cache_lookups = 0;  // semantic-cache probes routed here
  uint64_t cache_hits = 0;     // of which answered from the cache
};

struct ServiceInfo {
  geo::Rect universe;
  uint64_t points = 0;
  bool cache_enabled = false;
  // One entry per spatial fragment; empty when serving a single tree.
  std::vector<FragmentStat> fragments;
};

class WireService {
 public:
  using WireBytes = cache::CachedBytes;

  virtual ~WireService() = default;

  virtual const geo::Rect& universe() const = 0;

  // Full serving path: encoded wire answer, shared with the semantic
  // cache (zero-copy on hits). See core::ServingPipeline for the contract.
  [[nodiscard]] virtual StatusOr<WireBytes> NnQueryWireShared(
      const geo::Point& q, size_t k) = 0;
  [[nodiscard]] virtual StatusOr<WireBytes> WindowQueryWireShared(
      const geo::Point& focus, double hx, double hy) = 0;
  [[nodiscard]] virtual StatusOr<WireBytes> RangeQueryWireShared(
      const geo::Point& focus, double radius) = 0;

  // Whether the most recent *QueryWireShared answer came from the
  // semantic cache (serving-layer telemetry: the push scheduler's hit
  // rate and the load generators read it). Meaningful only between a
  // query and the next one on the same (single) serving thread.
  virtual bool last_wire_from_cache() const { return false; }

  virtual ServiceInfo info() const = 0;
};

}  // namespace lbsq::core

#endif  // LBSQ_CORE_WIRE_SERVICE_H_
