#include "core/range_validity.h"

#include <algorithm>
#include <cstddef>
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
// the mask passes are branch-free maps over contiguous coordinate arrays
// that g++ autovectorizes. -ffp-contract=off keeps dx*dx + dy*dy free of
// FMA contraction, so the computed distances — and with them every
// answer — are bit-identical to the scalar SquaredDistance and
// SquaredMinDist calls.
struct DistScratch {
  std::vector<double> xs;
  std::vector<double> ys;
  std::vector<uint8_t> flag;
  std::vector<uint32_t> idx;

  // Splits `candidates` into coordinate arrays, then flags every
  // candidate with SquaredDistance(focus, candidate) <= r_sq. Returns
  // the candidate count.
  size_t DistanceMask(const std::vector<rtree::DataEntry>& candidates,
                      const geo::Point& focus, double r_sq) {
    const size_t n = candidates.size();
    xs.resize(n);
    ys.resize(n);
    flag.resize(n);
    idx.resize(n);
    for (size_t i = 0; i < n; ++i) {
      xs[i] = candidates[i].point.x;
      ys[i] = candidates[i].point.y;
    }
    for (size_t i = 0; i < n; ++i) {
      const double dx = focus.x - xs[i];
      const double dy = focus.y - ys[i];
      flag[i] = static_cast<uint8_t>(dx * dx + dy * dy <= r_sq);
    }
    return n;
  }

  // Also flags every candidate with SquaredMinDist(candidate, bounds) >
  // r_sq: its closed disk misses the bounds.
  void FlagMisses(size_t n, const geo::Rect& bounds, double r_sq) {
    for (size_t i = 0; i < n; ++i) {
      const double dx =
          std::max(std::max(bounds.min_x - xs[i], 0.0), xs[i] - bounds.max_x);
      const double dy =
          std::max(std::max(bounds.min_y - ys[i], 0.0), ys[i] - bounds.max_y);
      flag[i] |= static_cast<uint8_t>(dx * dx + dy * dy > r_sq);
    }
  }

  // Branchless staging of the indices whose flag matches `want`; returns
  // how many survive (their order is the candidate order).
  size_t Stage(size_t n, uint8_t want) {
    size_t m = 0;
    for (size_t i = 0; i < n; ++i) {
      idx[m] = static_cast<uint32_t>(i);
      m += static_cast<size_t>(flag[i] == want);
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

  // Step 1: the range query — a window query over the candidate window
  // of the focus (every object whose closed disk can reach it), filtered
  // by true distance. What ships — the result and the kept outer disks —
  // is put into canonical order after its filter, which makes it (and so
  // the wire bytes) independent of the tree layout; the candidates the
  // filters drop are never sorted.
  SpatialBackend* be = backend();
  const uint64_t na_before = be->node_accesses();
  const double r_sq = radius * radius;
  thread_local DistScratch scratch;
  std::vector<rtree::DataEntry> candidates;
  be->WindowQuery(geo::RangeCandidateWindow(geo::Rect::FromPoint(focus),
                                            radius),
                  &candidates);
  stats_.result_node_accesses = be->node_accesses() - na_before;

  // SoA two-pass distance filter (see DistScratch): same predicate as
  // the per-entry scalar callback.
  std::vector<rtree::DataEntry> result;
  {
    const size_t n = scratch.DistanceMask(candidates, focus, r_sq);
    const size_t m = scratch.Stage(n, 1);
    result.reserve(m);
    for (size_t j = 0; j < m; ++j) result.push_back(candidates[scratch.idx[j]]);
  }
  SpatialBackend::SortCanonical(&result);

  // Bounding rectangle of the region, built as the window engine builds
  // its inner rectangle: the universe, capped like the window engine's
  // region (which bounds the cost of empty-result queries), cut to the
  // square around each result object's disk. Each square is widened to
  // the focus: the distance mask and the square's edges round
  // differently, so a member the mask admits can have a square that
  // misses the focus by an ulp. Every inner disk still constrains the
  // region, so the widening keeps it sound.
  const double cap = kMaxExtentFactor * radius;
  geo::Rect bounds =
      universe_.Intersection(geo::Rect::Centered(focus, cap, cap));
  std::vector<geo::DiskRegion::Disk> inner;
  inner.reserve(result.size());
  for (const rtree::DataEntry& e : result) {
    bounds = bounds.Intersection(
        geo::Rect::Centered(e.point, radius, radius).ExpandedToInclude(focus));
    inner.push_back({e.point, radius});
  }
  LBSQ_CHECK(bounds.Contains(focus));

  // Step 2: candidate outer objects — anything whose closed disk can
  // reach the bounds.
  const uint64_t na_before2 = be->node_accesses();
  candidates.clear();
  be->WindowQuery(geo::RangeCandidateWindow(bounds, radius), &candidates);
  stats_.influence_node_accesses = be->node_accesses() - na_before2;

  // Same mask, inverted selection, with the misses flagged too: an outer
  // disk is a candidate beyond the radius whose closed disk reaches the
  // bounds (SquaredMinDist <= r_sq). Rounding is monotone, so a dropped
  // disk's squared distance to every point of the bounds exceeds r_sq
  // too, and it cannot exclude any point of the region. The fetch holds
  // the focus's candidate window, so it reads the result again; only the
  // candidates beyond the radius count as outer candidates. The kept
  // entries are compacted to the front of `candidates` (the staged
  // indices ascend) and put into canonical order there.
  std::vector<geo::DiskRegion::Disk> outer;
  {
    const size_t n = scratch.DistanceMask(candidates, focus, r_sq);
    stats_.outer_candidates = static_cast<size_t>(
        std::count(scratch.flag.begin(),
                   scratch.flag.begin() + static_cast<ptrdiff_t>(n), 0));
    scratch.FlagMisses(n, bounds, r_sq);
    const size_t m = scratch.Stage(n, 0);
    for (size_t j = 0; j < m; ++j) candidates[j] = candidates[scratch.idx[j]];
    candidates.resize(m);
    SpatialBackend::SortCanonical(&candidates);
    outer.reserve(m);
    for (const rtree::DataEntry& e : candidates) {
      outer.push_back({e.point, radius});
    }
  }

  return RangeValidityResult(
      focus, radius, std::move(result),
      geo::DiskRegion(bounds, std::move(inner), std::move(outer)));
}

}  // namespace lbsq::core
