#include "core/spatial_backend.h"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

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

  // One pass counts the digits of all four id bytes.
  std::array<std::array<uint32_t, 256>, 4> counts{};
  for (size_t i = 0; i < n; ++i) {
    const uint32_t id = data[i].id;
    ++counts[0][id & 0xff];
    ++counts[1][(id >> 8) & 0xff];
    ++counts[2][(id >> 16) & 0xff];
    ++counts[3][id >> 24];
  }

  // LSD passes, least significant byte first; each scatter is stable, so
  // after the last pass the entries are in ascending id order and equal
  // ids keep their input order. A byte that every id shares puts all
  // entries in one bucket, and its pass would copy them in place.
  thread_local std::vector<rtree::DataEntry> scratch;
  scratch.resize(n);
  rtree::DataEntry* src = data;
  rtree::DataEntry* dst = scratch.data();
  for (unsigned byte = 0; byte < 4; ++byte) {
    const unsigned shift = 8 * byte;
    std::array<uint32_t, 256>& offset = counts[byte];
    if (offset[(src[0].id >> shift) & 0xff] == n) continue;
    uint32_t sum = 0;
    for (uint32_t& c : offset) sum += std::exchange(c, sum);
    for (size_t i = 0; i < n; ++i) {
      dst[offset[(src[i].id >> shift) & 0xff]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != data) std::copy(src, src + n, data);

  // Runs of equal ids, ordered by (x, y).
  for (size_t i = 0; i < n;) {
    size_t j = i + 1;
    while (j < n && data[j].id == data[i].id) ++j;
    ComparisonSort(data + i, data + j);
    i = j;
  }
}

}  // namespace lbsq::core
