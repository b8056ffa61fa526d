#include "core/range_validity.h"

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace lbsq::core {

namespace {

// Caps the region at this many radii around the focus, as the window
// engine caps its region: it bounds the cost of empty-result queries.
constexpr double kMaxExtentFactor = 16.0;

// Per-thread SoA scratch for the distance filters below. This TU is
// compiled with LBSQ_SIMD_COMPILE_OPTIONS (see src/core/CMakeLists.txt):
// the mask pass is a branch-free map over contiguous coordinate arrays
// that g++ autovectorizes. -ffp-contract=off keeps dx*dx + dy*dy free of
// FMA contraction, so the computed distances — and with them every
// answer — are bit-identical to the scalar SquaredDistance call.
struct DistScratch {
  std::vector<double> xs;
  std::vector<double> ys;
  std::vector<uint8_t> keep;
  std::vector<uint32_t> idx;

  // Splits `candidates` into coordinate arrays, then flags every
  // candidate with SquaredDistance(focus, candidate) <= r_sq. Returns
  // the candidate count.
  size_t DistanceMask(const std::vector<rtree::DataEntry>& candidates,
                      const geo::Point& focus, double r_sq) {
    const size_t n = candidates.size();
    xs.resize(n);
    ys.resize(n);
    keep.resize(n);
    idx.resize(n);
    for (size_t i = 0; i < n; ++i) {
      xs[i] = candidates[i].point.x;
      ys[i] = candidates[i].point.y;
    }
    for (size_t i = 0; i < n; ++i) {
      const double dx = focus.x - xs[i];
      const double dy = focus.y - ys[i];
      keep[i] = static_cast<uint8_t>(dx * dx + dy * dy <= r_sq);
    }
    return n;
  }

  // Branchless staging of the indices whose flag matches `want`; returns
  // how many survive (their order is the candidate order).
  size_t Stage(size_t n, uint8_t want) {
    size_t m = 0;
    for (size_t i = 0; i < n; ++i) {
      idx[m] = static_cast<uint32_t>(i);
      m += static_cast<size_t>(keep[i] == want);
    }
    return m;
  }
};

}  // namespace

RangeValidityEngine::RangeValidityEngine(rtree::RTree* tree,
                                         const geo::Rect& universe)
    : owned_(RTreeBackend(tree)), universe_(universe) {
  LBSQ_CHECK(tree != nullptr);
  LBSQ_CHECK(!universe.IsEmpty());
}

RangeValidityEngine::RangeValidityEngine(SpatialBackend* backend,
                                         const geo::Rect& universe)
    : external_(backend), universe_(universe) {
  LBSQ_CHECK(backend != nullptr);
  LBSQ_CHECK(!universe.IsEmpty());
}

RangeValidityResult RangeValidityEngine::Query(const geo::Point& focus,
                                               double radius) {
  LBSQ_CHECK(universe_.Contains(focus));
  LBSQ_CHECK(radius > 0.0);
  stats_ = Stats();

  // Step 1: the range query — a window query over the bounding box of
  // the disk, filtered by true distance. The backend's canonical entry
  // order makes the result and the outer disks (and so the wire bytes)
  // independent of the tree layout.
  SpatialBackend* be = backend();
  const uint64_t na_before = be->node_accesses();
  const double r_sq = radius * radius;
  thread_local DistScratch scratch;
  std::vector<rtree::DataEntry> candidates;
  be->WindowQuery(geo::Rect::Centered(focus, radius, radius), &candidates);
  stats_.result_node_accesses = be->node_accesses() - na_before;

  // SoA two-pass distance filter (see DistScratch): same predicate and
  // emit order as the per-entry scalar callback.
  std::vector<rtree::DataEntry> result;
  {
    const size_t n = scratch.DistanceMask(candidates, focus, r_sq);
    const size_t m = scratch.Stage(n, 1);
    result.reserve(m);
    for (size_t j = 0; j < m; ++j) result.push_back(candidates[scratch.idx[j]]);
  }

  // Bounding rectangle of the region: inside every inner disk the focus
  // can stray at most 2 * radius from its start (triangle inequality),
  // and the engine caps empty-result regions like the window engine.
  const double cap = kMaxExtentFactor * radius;
  const double reach = result.empty() ? cap : 2.0 * radius;
  const geo::Rect bounds = universe_.Intersection(
      geo::Rect::Centered(focus, std::min(cap, reach), std::min(cap, reach)));

  std::vector<geo::DiskRegion::Disk> inner;
  inner.reserve(result.size());
  for (const rtree::DataEntry& e : result) {
    inner.push_back({e.point, radius});
  }

  // Step 2: candidate outer objects — anything whose disk can reach the
  // bounded region, i.e. within `radius` of the bounds rectangle.
  const uint64_t na_before2 = be->node_accesses();
  candidates.clear();
  be->WindowQuery(bounds.Dilated(radius, radius), &candidates);
  stats_.influence_node_accesses = be->node_accesses() - na_before2;
  stats_.outer_candidates += candidates.size();

  // Same mask, inverted selection: everything beyond the radius is an
  // outer candidate disk.
  std::vector<geo::DiskRegion::Disk> outer;
  {
    const size_t n = scratch.DistanceMask(candidates, focus, r_sq);
    const size_t m = scratch.Stage(n, 0);
    outer.reserve(m);
    for (size_t j = 0; j < m; ++j) {
      outer.push_back({candidates[scratch.idx[j]].point, radius});
    }
  }

  return RangeValidityResult(
      focus, radius, std::move(result),
      geo::DiskRegion(bounds, std::move(inner), std::move(outer)));
}

}  // namespace lbsq::core
