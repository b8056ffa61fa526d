#include "partition/str_partition.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace lbsq::partition {

namespace {

// Positions of the interior boundaries that split `values` (in any
// order) into equal-cardinality runs, one boundary per entry of
// `cum_parts` (ascending, each < `parts`): boundary j is the order
// statistic at n * cum_parts[j] / parts (capped at n - 1), the value
// opening run j + 1, so the half-open "value >= boundary goes right"
// routing reproduces the split. Each statistic is selected with
// std::nth_element among the values not yet below an earlier cut, so
// `values` ends partially ordered. The k-th order statistic is one
// value, the one a full sort would put at k. With no values the
// boundaries split [lo, hi] evenly.
std::vector<double> SelectBounds(std::vector<double>* values,
                                 const std::vector<size_t>& cum_parts,
                                 size_t parts, double lo, double hi) {
  std::vector<double> bounds;
  bounds.reserve(cum_parts.size());
  const size_t n = values->size();
  size_t selected = 0;  // values[0, selected) are all <= later cuts
  for (const size_t j : cum_parts) {
    if (n == 0) {
      bounds.push_back(lo + (hi - lo) * static_cast<double>(j) /
                                static_cast<double>(parts));
      continue;
    }
    size_t cut = n * j / parts;
    if (cut >= n) cut = n - 1;
    std::nth_element(values->begin() + static_cast<ptrdiff_t>(selected),
                     values->begin() + static_cast<ptrdiff_t>(cut),
                     values->end());
    bounds.push_back((*values)[cut]);
    selected = cut;
  }
  return bounds;
}

}  // namespace

PartitionLayout::PartitionLayout(const std::vector<rtree::DataEntry>& entries,
                                 const geo::Rect& universe, size_t fragments)
    : universe_(universe) {
  LBSQ_CHECK(fragments >= 1);
  LBSQ_CHECK(!universe.IsEmpty());

  // STR shape: S = ceil(sqrt(K)) slabs; the first K % S slabs take the
  // extra band so band counts differ by at most one.
  const size_t slabs = static_cast<size_t>(
      std::ceil(std::sqrt(static_cast<double>(fragments))));
  std::vector<size_t> bands_per_slab(slabs, fragments / slabs);
  for (size_t s = 0; s < fragments % slabs; ++s) ++bands_per_slab[s];

  // Slab x boundaries: split the x coordinates so each slab's share of
  // the data is proportional to its band count.
  std::vector<double> xs;
  xs.reserve(entries.size());
  for (const rtree::DataEntry& e : entries) xs.push_back(e.point.x);
  std::vector<size_t> cum_bands;
  for (size_t s = 0; s + 1 < slabs; ++s) {
    cum_bands.push_back((s == 0 ? 0 : cum_bands.back()) + bands_per_slab[s]);
  }
  slab_bounds_ = SelectBounds(&xs, cum_bands, fragments, universe.min_x,
                              universe.max_x);

  // Band y boundaries within each slab, derived from the entries the
  // slab actually routes (the >= rule), so assignment and boundaries
  // agree even with duplicate coordinates on a cut.
  std::vector<std::vector<double>> slab_ys(slabs);
  for (const rtree::DataEntry& e : entries) {
    slab_ys[SlabOf(e.point.x)].push_back(e.point.y);
  }
  band_bounds_.resize(slabs);
  slab_first_fragment_.resize(slabs);
  size_t next_fragment = 0;
  for (size_t s = 0; s < slabs; ++s) {
    slab_first_fragment_[s] = next_fragment;
    next_fragment += bands_per_slab[s];
    const double lo_x = s == 0 ? universe.min_x : slab_bounds_[s - 1];
    const double hi_x = s + 1 == slabs ? universe.max_x : slab_bounds_[s];
    std::vector<size_t> band_cuts;
    for (size_t b = 1; b < bands_per_slab[s]; ++b) band_cuts.push_back(b);
    band_bounds_[s] = SelectBounds(&slab_ys[s], band_cuts, bands_per_slab[s],
                                   universe.min_y, universe.max_y);

    // Ownership rectangles for this slab's bands.
    for (size_t b = 0; b < bands_per_slab[s]; ++b) {
      const double lo_y = b == 0 ? universe.min_y : band_bounds_[s][b - 1];
      const double hi_y = b + 1 == bands_per_slab[s] ? universe.max_y
                                                     : band_bounds_[s][b];
      ownership_.push_back(geo::Rect{lo_x, lo_y, hi_x, hi_y});
    }
  }
  LBSQ_CHECK(ownership_.size() == fragments);
}

size_t PartitionLayout::SlabOf(double x) const {
  // Number of interior boundaries at or below x: x on a boundary routes
  // to the right slab.
  return static_cast<size_t>(
      std::upper_bound(slab_bounds_.begin(), slab_bounds_.end(), x) -
      slab_bounds_.begin());
}

size_t PartitionLayout::OwnerOf(const geo::Point& p) const {
  const size_t s = SlabOf(p.x);
  const std::vector<double>& bb = band_bounds_[s];
  const size_t b = static_cast<size_t>(
      std::upper_bound(bb.begin(), bb.end(), p.y) - bb.begin());
  return slab_first_fragment_[s] + b;
}

bool PartitionLayout::StrictlyOwns(size_t fragment, const geo::Rect& r) const {
  if (r.IsEmpty()) return true;
  // OwnerOf is monotone per axis (slab in x, band in y within a slab),
  // so a rectangle routes entirely to one fragment iff its four corners
  // do. Testing through OwnerOf itself — rather than re-deriving edge
  // open/closedness — keeps this exactly consistent with routing.
  return OwnerOf({r.min_x, r.min_y}) == fragment &&
         OwnerOf({r.min_x, r.max_y}) == fragment &&
         OwnerOf({r.max_x, r.min_y}) == fragment &&
         OwnerOf({r.max_x, r.max_y}) == fragment;
}

std::vector<std::vector<rtree::DataEntry>> PartitionEntries(
    const PartitionLayout& layout,
    const std::vector<rtree::DataEntry>& entries) {
  std::vector<std::vector<rtree::DataEntry>> buckets(layout.num_fragments());
  for (const rtree::DataEntry& e : entries) {
    buckets[layout.OwnerOf(e.point)].push_back(e);
  }
  return buckets;
}

}  // namespace lbsq::partition
