#include "core/window_validity.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "geometry/region.h"

namespace lbsq::core {

namespace {

// Caps the validity region at this many window half-extents around the
// focus. Without a cap, a window with an empty (or one-sided) result in
// a sparse area yields an inner rectangle covering most of the universe,
// and the marginal query degenerates into a full scan with every point
// an "outer influence object". The capped region is still a correct
// (just not maximal) validity region; 16 window radii is far beyond the
// region sizes the paper measures, so dense-area results are unaffected.
constexpr double kMaxExtentFactor = 16.0;

// Per-thread SoA scratch for the candidate filter below. This TU is
// compiled with LBSQ_SIMD_COMPILE_OPTIONS (see src/core/CMakeLists.txt)
// so the mask pass autovectorizes; the engines are call-and-return, so
// one scratch set per thread avoids an allocation per query.
struct FilterScratch {
  std::vector<double> xs;
  std::vector<double> ys;
  std::vector<uint8_t> keep;
  std::vector<uint32_t> idx;
};

}  // namespace

WindowValidityEngine::WindowValidityEngine(rtree::RTree* tree,
                                           const geo::Rect& universe)
    : owned_(RTreeBackend(tree)), universe_(universe) {
  LBSQ_CHECK(tree != nullptr);
  LBSQ_CHECK(!universe.IsEmpty());
}

WindowValidityEngine::WindowValidityEngine(SpatialBackend* backend,
                                           const geo::Rect& universe)
    : external_(backend), universe_(universe) {
  LBSQ_CHECK(backend != nullptr);
  LBSQ_CHECK(!universe.IsEmpty());
}

WindowValidityResult WindowValidityEngine::Query(const geo::Point& focus,
                                                 double hx, double hy) {
  LBSQ_CHECK(universe_.Contains(focus));
  LBSQ_CHECK(hx > 0.0 && hy > 0.0);
  stats_ = Stats();

  const geo::Rect window = geo::Rect::Centered(focus, hx, hy);

  // Step 1: the result, and with it the inner validity rectangle. The
  // result ships, so it goes into canonical (id) order, as the kept outer
  // objects do below: everything downstream — hole order, influencer
  // order, the wire encoding — is a pure function of the dataset, not of
  // any particular tree layout. The inner rectangle is an intersection,
  // which no order changes.
  SpatialBackend* be = backend();
  const uint64_t na_before = be->node_accesses();
  const uint64_t pa_before = be->page_accesses();
  std::vector<rtree::DataEntry> result;
  be->WindowQuery(window, &result);
  stats_.result_node_accesses = be->node_accesses() - na_before;
  stats_.result_page_accesses = be->page_accesses() - pa_before;
  SpatialBackend::SortCanonical(&result);

  geo::Rect inner = universe_.Intersection(geo::Rect::Centered(
      focus, kMaxExtentFactor * hx, kMaxExtentFactor * hy));
  for (const rtree::DataEntry& e : result) {
    inner = inner.Intersection(geo::Rect::Centered(e.point, hx, hy));
  }
  // The focus satisfies every inner constraint (each result point is
  // covered by the window), so the intersection is never empty.
  LBSQ_CHECK(inner.Contains(focus));

  // Step 2: candidate outer points in the marginal rectangle — anywhere
  // an outer point's Minkowski box could reach the inner rectangle —
  // excluding the original window (those points are inner).
  const geo::Rect marginal = inner.Dilated(hx, hy);
  const uint64_t na_before2 = be->node_accesses();
  const uint64_t pa_before2 = be->page_accesses();
  std::vector<rtree::DataEntry> candidates;
  be->WindowQuery(marginal, &candidates);
  stats_.influence_node_accesses = be->node_accesses() - na_before2;
  stats_.influence_page_accesses = be->page_accesses() - pa_before2;

  // SoA two-pass candidate filter. Pass 1 maps every candidate to a keep
  // flag as a branch-free loop over contiguous coordinate arrays: a
  // candidate is an outer influence constraint iff it lies outside the
  // query window and its Minkowski box clipped to `inner` has positive
  // area (a box that merely grazes the boundary excludes nothing under
  // closed containment). The arithmetic is exactly Rect::Centered +
  // Rect::Intersection + the IsEmpty/Area()==0 test of the scalar loop —
  // max/min of the identical operands, compared strictly — so the
  // surviving set is bit-identical. Pass 2 stages the surviving indices
  // branchlessly; the survivors then go into canonical order, and the
  // boxes are materialized in that order. Pass 1 also counts the
  // candidates outside the window: the ones the second query adds to the
  // result it re-reads.
  const size_t n = candidates.size();
  thread_local FilterScratch scratch;
  scratch.xs.resize(n);
  scratch.ys.resize(n);
  scratch.keep.resize(n);
  scratch.idx.resize(n);
  for (size_t i = 0; i < n; ++i) {
    scratch.xs[i] = candidates[i].point.x;
    scratch.ys[i] = candidates[i].point.y;
  }
  size_t outside = 0;
  for (size_t i = 0; i < n; ++i) {
    const double x = scratch.xs[i];
    const double y = scratch.ys[i];
    const bool in_window = (x >= window.min_x) & (x <= window.max_x) &
                           (y >= window.min_y) & (y <= window.max_y);
    const double omin_x = std::max(x - hx, inner.min_x);
    const double omax_x = std::min(x + hx, inner.max_x);
    const double omin_y = std::max(y - hy, inner.min_y);
    const double omax_y = std::min(y + hy, inner.max_y);
    scratch.keep[i] = static_cast<uint8_t>(
        !in_window & (omin_x < omax_x) & (omin_y < omax_y));
    outside += static_cast<size_t>(!in_window);
  }
  stats_.outer_candidates = outside;
  size_t m = 0;
  for (size_t i = 0; i < n; ++i) {
    scratch.idx[m] = static_cast<uint32_t>(i);
    m += scratch.keep[i];
  }
  std::vector<rtree::DataEntry> outer_objects;
  outer_objects.reserve(m);
  for (size_t j = 0; j < m; ++j) {
    outer_objects.push_back(candidates[scratch.idx[j]]);
  }
  SpatialBackend::SortCanonical(&outer_objects);
  std::vector<geo::Rect> holes;
  holes.reserve(m);
  for (const rtree::DataEntry& e : outer_objects) {
    holes.push_back(geo::Rect::Centered(e.point, hx, hy));
  }

  geo::RectMinusBoxes region(inner, std::move(holes));
  // Outer *influence* objects in the paper's Definition-1 sense: the
  // outer points whose box contributes an edge of the (conservative
  // rectangular) validity region. The remaining holes stay part of the
  // exact region but typically lie behind a closer hole's cut
  // (Figure 33: an outer box usually eliminates a whole edge).
  std::vector<size_t> cutting;
  const geo::Rect conservative = region.ConservativeRect(focus, &cutting);
  std::vector<rtree::DataEntry> outer_influencers;
  outer_influencers.reserve(cutting.size());
  for (const size_t index : cutting) {
    outer_influencers.push_back(outer_objects[index]);
  }

  // Inner influence objects: result points whose Minkowski box supplies
  // an edge of the final rectangle (edges not cut away by outer objects;
  // the universe or the extent cap may supply the rest).
  std::vector<rtree::DataEntry> inner_influencers;
  for (const rtree::DataEntry& e : result) {
    const geo::Rect box = geo::Rect::Centered(e.point, hx, hy);
    if (box.min_x == conservative.min_x || box.max_x == conservative.max_x ||
        box.min_y == conservative.min_y || box.max_y == conservative.max_y) {
      inner_influencers.push_back(e);
    }
  }
  return WindowValidityResult(focus, hx, hy, std::move(result),
                              std::move(inner_influencers),
                              std::move(outer_influencers), std::move(region),
                              conservative);
}

}  // namespace lbsq::core
