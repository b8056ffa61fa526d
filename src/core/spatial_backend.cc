#include "core/spatial_backend.h"

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/radix_sort.h"

namespace lbsq::core {

namespace {

// Up to this many entries an insertion sort is cheaper than the radix
// passes, whose fixed cost is clearing and summing 4 x 256 digit counts.
constexpr size_t kInsertionSortMax = 32;

bool CanonicalLess(const rtree::DataEntry& a, const rtree::DataEntry& b) {
  if (a.id != b.id) return a.id < b.id;
  if (a.point.x != b.point.x) return a.point.x < b.point.x;
  return a.point.y < b.point.y;
}

// Stable sort of [first, last) by CanonicalLess: an insertion sort on
// short ranges, std::stable_sort on the long equal-id runs that only
// degenerate data produces.
void ComparisonSort(rtree::DataEntry* first, rtree::DataEntry* last) {
  if (last - first < 2) return;
  if (static_cast<size_t>(last - first) > kInsertionSortMax) {
    std::stable_sort(first, last, CanonicalLess);
    return;
  }
  for (rtree::DataEntry* i = first + 1; i != last; ++i) {
    const rtree::DataEntry e = *i;
    rtree::DataEntry* j = i;
    for (; j != first && CanonicalLess(e, *(j - 1)); --j) *j = *(j - 1);
    *j = e;
  }
}

}  // namespace

void SpatialBackend::SortCanonical(std::vector<rtree::DataEntry>* entries) {
  const size_t n = entries->size();
  rtree::DataEntry* const data = entries->data();
  if (n <= kInsertionSortMax) {
    ComparisonSort(data, data + n);
    return;
  }

  // Ascending id order, equal ids in their input order.
  thread_local std::vector<rtree::DataEntry> scratch;
  if (scratch.size() < n) scratch.resize(n);
  RadixSort(data, n, scratch.data(),
            [](const rtree::DataEntry& e) { return e.id; });

  // Runs of equal ids, ordered by (x, y).
  for (size_t i = 0; i < n;) {
    size_t j = i + 1;
    while (j < n && data[j].id == data[i].id) ++j;
    ComparisonSort(data + i, data + j);
    i = j;
  }
}

}  // namespace lbsq::core
