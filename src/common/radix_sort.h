#ifndef LBSQ_COMMON_RADIX_SORT_H_
#define LBSQ_COMMON_RADIX_SORT_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "common/check.h"

// Comparison-free ordering: a stable LSD radix sort on a caller-supplied
// unsigned key, and the key image that orders finite doubles. It is the
// one radix implementation in src/: the R-tree's STR bulk load orders
// points by x and each slice by y with it, and the validity engines'
// canonical (id, x, y) order (core::SpatialBackend::SortCanonical) runs
// its id passes on it.

namespace lbsq {

// The IEEE-754 total-order image of a finite double: unsigned comparison
// of the images orders the values as operator< does, and puts -0.0
// directly before +0.0 (which operator< calls equal). A negative value
// has all its bits flipped, a non-negative one its sign bit set.
inline uint64_t OrderedBits(double v) {
  const uint64_t bits = std::bit_cast<uint64_t>(v);
  const uint64_t negative_mask =
      static_cast<uint64_t>(static_cast<int64_t>(bits) >> 63);
  return bits ^ (negative_mask | (uint64_t{1} << 63));
}

// Sorts data[0, n) by key(element), an unsigned integer, keeping
// elements with equal keys in their input order. One pass counts every
// 8-bit digit of every key; then one stable scatter per digit, least
// significant first, alternates between `data` and `scratch`. A digit
// that every key shares is skipped: its scatter would copy the elements
// in place. `scratch` holds at least n elements and belongs to the
// caller; its contents afterwards are unspecified. The sorted elements
// end in `data`.
template <typename T, typename KeyFn>
void RadixSort(T* data, size_t n, T* scratch, KeyFn key) {
  using Key = std::invoke_result_t<KeyFn&, const T&>;
  static_assert(std::is_unsigned_v<Key>, "radix keys are unsigned integers");
  constexpr unsigned kDigits = sizeof(Key);
  if (n < 2) return;
  LBSQ_CHECK(n <= UINT32_MAX);

  std::array<std::array<uint32_t, 256>, kDigits> counts{};
  for (size_t i = 0; i < n; ++i) {
    const Key k = key(data[i]);
    for (unsigned d = 0; d < kDigits; ++d) {
      ++counts[d][(k >> (8 * d)) & 0xff];
    }
  }

  const Key first = key(data[0]);
  T* src = data;
  T* dst = scratch;
  for (unsigned d = 0; d < kDigits; ++d) {
    const unsigned shift = 8 * d;
    std::array<uint32_t, 256>& offset = counts[d];
    if (offset[(first >> shift) & 0xff] == n) continue;
    uint32_t sum = 0;
    for (uint32_t& c : offset) sum += std::exchange(c, sum);
    for (size_t i = 0; i < n; ++i) {
      dst[offset[(key(src[i]) >> shift) & 0xff]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != data) std::copy(src, src + n, data);
}

}  // namespace lbsq

#endif  // LBSQ_COMMON_RADIX_SORT_H_
