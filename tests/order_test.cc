// The two orders of the cache-miss path, held to brute force:
//
//   * rtree::BrowseNearest hands out every object in ascending
//     (SquaredDistance, id) order with bit-equal distances, and a stop
//     radius cuts that sequence exactly: once a visitor returns a radius
//     after the j-th object, the stream hands out precisely the
//     brute-force objects after it that lie below the radius. Checked on
//     lattice, duplicate-coordinate, collinear-row, universe-boundary and
//     uniform data; on one tree and on K = 2, 4, 8 fragment routers;
//     before and after interleaved inserts and deletes.
//   * core::SpatialBackend::SortCanonical equals std::stable_sort under
//     the canonical (id, x, y) comparison, bit for bit, on adversarial id
//     patterns, at sizes around its insertion-sort cutoff and beyond.
//   * The radix helper under both (common/radix_sort.h): RadixSort
//     equals std::stable_sort on the same unsigned key, and OrderedBits
//     orders finite doubles as operator< does, with -0.0 just before
//     +0.0, on signed zeros, denormals, negatives, +-DBL_MAX, all-equal
//     keys and keys that differ in one byte.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/radix_sort.h"
#include "common/rng.h"
#include "core/spatial_backend.h"
#include "geometry/point.h"
#include "geometry/rect.h"
#include "partition/partitioned_server.h"
#include "rtree/knn.h"
#include "rtree/rtree.h"
#include "tests/test_util.h"
#include "workload/datasets.h"

namespace lbsq {
namespace {

using rtree::DataEntry;
using rtree::Neighbor;
using rtree::ObjectId;

constexpr double kInf = std::numeric_limits<double>::infinity();

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// -- BrowseNearest ------------------------------------------------------------

struct Keyed {
  double key;  // squared distance
  DataEntry entry;
};

// Every object by ascending (SquaredDistance, id).
std::vector<Keyed> BruteForceStream(const std::vector<DataEntry>& data,
                                    const geo::Point& q) {
  std::vector<Keyed> out;
  out.reserve(data.size());
  for (const DataEntry& e : data) {
    out.push_back({geo::SquaredDistance(q, e.point), e});
  }
  std::sort(out.begin(), out.end(), [](const Keyed& a, const Keyed& b) {
    if (a.key != b.key) return a.key < b.key;
    return a.entry.id < b.entry.id;
  });
  return out;
}

// The objects `backend` streams from q when the visitor returns an
// infinite radius up to the j-th object and `stop2` from then on.
std::vector<Neighbor> Stream(core::SpatialBackend& backend,
                             const geo::Point& q, size_t j, double stop2) {
  std::vector<Neighbor> out;
  backend.BrowseNearest(q, [&](const Neighbor& n) {
    out.push_back(n);
    return out.size() < j ? kInf : stop2;
  });
  return out;
}

// `got` is exactly `expect` in ids, points and distance bits.
void ExpectSameStream(const std::vector<Keyed>& expect,
                      const std::vector<Neighbor>& got,
                      const std::string& where) {
  ASSERT_EQ(got.size(), expect.size()) << where;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].entry.id, expect[i].entry.id) << where << " pos " << i;
    ASSERT_EQ(Bits(got[i].entry.point.x), Bits(expect[i].entry.point.x))
        << where << " pos " << i;
    ASSERT_EQ(Bits(got[i].entry.point.y), Bits(expect[i].entry.point.y))
        << where << " pos " << i;
    ASSERT_EQ(Bits(got[i].distance), Bits(std::sqrt(expect[i].key)))
        << where << " pos " << i;
  }
}

// The full stream, and the stream cut after the j-th object by radii at
// and around the keys near the cut, from every query of `queries`.
void CheckStreams(core::SpatialBackend& backend,
                  const std::vector<DataEntry>& data,
                  const std::vector<geo::Point>& queries,
                  const std::string& where) {
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const geo::Point& q = queries[qi];
    const std::string at = where + " q " + std::to_string(qi);
    const std::vector<Keyed> all = BruteForceStream(data, q);
    ExpectSameStream(all, Stream(backend, q, all.size() + 1, kInf), at);
    for (const size_t j : {size_t{1}, size_t{2}, size_t{7}, size_t{40}}) {
      if (j > all.size()) continue;
      std::vector<double> radii = {0.0, all[j - 1].key,
                                   std::nextafter(all[j - 1].key, kInf)};
      if (j + 3 < all.size()) {
        const double later = all[j + 3].key;
        radii.push_back(later);
        radii.push_back(std::nextafter(later, 0.0));
        radii.push_back(std::nextafter(later, kInf));
      }
      for (const double stop2 : radii) {
        size_t end = j;
        while (end < all.size() && all[end].key < stop2) ++end;
        const std::vector<Keyed> prefix(all.begin(),
                                        all.begin() +
                                            static_cast<ptrdiff_t>(end));
        ExpectSameStream(prefix, Stream(backend, q, j, stop2),
                         at + " j " + std::to_string(j) + " stop2 " +
                             std::to_string(stop2));
        if (testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

struct StreamCase {
  std::string name;
  std::vector<DataEntry> entries;
  geo::Rect universe;
  std::vector<geo::Point> queries;
};

// Random points of the universe, data points (distance-0 ties),
// midpoints of data pairs (equal-distance ties) and the corners.
std::vector<geo::Point> QueriesFor(const std::vector<DataEntry>& entries,
                                   const geo::Rect& u, Rng* rng) {
  std::vector<geo::Point> out;
  for (int i = 0; i < 6; ++i) {
    out.push_back({rng->Uniform(u.min_x, u.max_x),
                   rng->Uniform(u.min_y, u.max_y)});
  }
  for (int i = 0; i < 4; ++i) {
    const geo::Point a = entries[rng->NextBounded(entries.size())].point;
    const geo::Point b = entries[rng->NextBounded(entries.size())].point;
    out.push_back(a);
    out.push_back({(a.x + b.x) / 2, (a.y + b.y) / 2});
  }
  out.push_back({u.min_x, u.min_y});
  out.push_back({u.max_x, u.max_y});
  return out;
}

std::vector<StreamCase> StreamCases() {
  const geo::Rect unit(0.0, 0.0, 1.0, 1.0);
  std::vector<StreamCase> cases = {
      {"lattice", test::Lattice(36), geo::Rect(0.0, 0.0, 35.0, 35.0), {}},
      {"duplicates", test::Duplicates(500, 71), unit, {}},
      {"collinear", test::CollinearRow(1200, 72), unit, {}},
      {"boundary", test::UniverseBoundary(240, 73), unit, {}},
      {"uniform", workload::MakeUnitUniform(1500, 74).entries, unit, {}},
  };
  Rng rng(75);
  for (StreamCase& c : cases) {
    c.queries = QueriesFor(c.entries, c.universe, &rng);
  }
  // Lattice points and cell centres tie four ways at every ring.
  cases[0].queries.push_back({17.0, 17.0});
  cases[0].queries.push_back({17.5, 17.5});
  cases[0].queries.push_back({0.5, 12.0});
  return cases;
}

// One tree and K = 2, 4, 8 routers over the same data, all with small
// nodes (deep trees, many equal-mindist nodes), kept in step through
// the same inserts and deletes.
struct Backends {
  test::TreeFixture tree;
  core::RTreeBackend tree_backend;
  std::vector<std::unique_ptr<partition::PartitionedServer>> servers;

  explicit Backends(const StreamCase& c)
      : tree(c.entries, 64, test::SmallNodeOptions()),
        tree_backend(tree.tree.get()) {
    for (const size_t k : {2u, 4u, 8u}) {
      partition::PartitionedServerOptions options;
      options.fragments = k;
      options.tree_options = test::SmallNodeOptions();
      options.buffer_capacity = 64;
      servers.push_back(std::make_unique<partition::PartitionedServer>(
          c.entries, c.universe, options));
    }
  }

  void Insert(const DataEntry& e) {
    tree.tree->Insert(e.point, e.id);
    for (auto& server : servers) server->Insert(e.point, e.id);
  }

  void Delete(const DataEntry& e) {
    ASSERT_TRUE(tree.tree->Delete(e.point, e.id));
    for (auto& server : servers) ASSERT_TRUE(server->Delete(e.point, e.id));
  }

  void Check(const StreamCase& c, const std::vector<DataEntry>& data,
             const std::string& when) {
    CheckStreams(tree_backend, data, c.queries, c.name + when + " tree");
    if (testing::Test::HasFatalFailure()) return;
    for (auto& server : servers) {
      CheckStreams(server->router(), data, c.queries,
                   c.name + when + " K " +
                       std::to_string(server->num_fragments()));
      if (testing::Test::HasFatalFailure()) return;
    }
  }
};

TEST(BrowseNearestOrderTest, MatchesBruteForceOnOneTreeAndRouters) {
  for (const StreamCase& c : StreamCases()) {
    Backends backends(c);
    backends.Check(c, c.entries, "");
    ASSERT_FALSE(HasFatalFailure());
  }
}

TEST(BrowseNearestOrderTest, MatchesBruteForceAfterInsertsAndDeletes) {
  Rng rng(76);
  for (const StreamCase& c : StreamCases()) {
    Backends backends(c);
    std::vector<DataEntry> data = c.entries;
    ObjectId next_id = static_cast<ObjectId>(data.size());
    // Deletes of random objects interleaved with inserts of fresh points
    // and of copies of existing coordinates (new distance ties).
    for (int op = 0; op < 240; ++op) {
      if (op % 3 == 0) {
        const size_t victim = rng.NextBounded(data.size());
        backends.Delete(data[victim]);
        ASSERT_FALSE(HasFatalFailure()) << c.name << " op " << op;
        data.erase(data.begin() + static_cast<ptrdiff_t>(victim));
        continue;
      }
      const geo::Point p =
          op % 3 == 1
              ? geo::Point{rng.Uniform(c.universe.min_x, c.universe.max_x),
                           rng.Uniform(c.universe.min_y, c.universe.max_y)}
              : data[rng.NextBounded(data.size())].point;
      const DataEntry e{p, next_id++};
      backends.Insert(e);
      data.push_back(e);
    }
    backends.Check(c, data, " updated");
    ASSERT_FALSE(HasFatalFailure());
  }
}

// -- SortCanonical ------------------------------------------------------------

bool CanonicalLess(const DataEntry& a, const DataEntry& b) {
  if (a.id != b.id) return a.id < b.id;
  if (a.point.x != b.point.x) return a.point.x < b.point.x;
  return a.point.y < b.point.y;
}

void ExpectSortsLikeStableSort(std::vector<DataEntry> entries,
                               const std::string& where) {
  std::vector<DataEntry> expect = entries;
  std::stable_sort(expect.begin(), expect.end(), CanonicalLess);
  core::SpatialBackend::SortCanonical(&entries);
  ASSERT_EQ(entries.size(), expect.size()) << where;
  for (size_t i = 0; i < entries.size(); ++i) {
    ASSERT_EQ(entries[i].id, expect[i].id) << where << " pos " << i;
    ASSERT_EQ(Bits(entries[i].point.x), Bits(expect[i].point.x))
        << where << " pos " << i;
    ASSERT_EQ(Bits(entries[i].point.y), Bits(expect[i].point.y))
        << where << " pos " << i;
  }
}

// A coordinate from a small pool holding both zeros, so equal ids often
// carry equal points that differ in bits (only a stable sort keeps them
// in input order) and equal (id, x) pairs order by y.
double PooledCoordinate(Rng* rng) {
  static constexpr double kPool[] = {0.0, -0.0, 0.25, 0.5, 0.75};
  return kPool[rng->NextBounded(5)];
}

using IdPattern = ObjectId (*)(size_t i, Rng* rng);

struct Pattern {
  const char* name;
  IdPattern id;
};

const Pattern kPatterns[] = {
    {"random", [](size_t, Rng* rng) {
       return static_cast<ObjectId>(rng->NextBounded(100000));
     }},
    {"duplicate", [](size_t, Rng* rng) {
       return static_cast<ObjectId>(rng->NextBounded(6));
     }},
    {"above_2^24", [](size_t, Rng* rng) {
       return static_cast<ObjectId>((1u << 24) + rng->NextBounded(1u << 20));
     }},
    {"near_max", [](size_t, Rng* rng) {
       return static_cast<ObjectId>(UINT32_MAX - rng->NextBounded(600));
     }},
    {"all_equal", [](size_t, Rng*) { return ObjectId{0x9e3779b9u}; }},
    {"byte_0", [](size_t, Rng* rng) {
       return static_cast<ObjectId>(0xa1b2c300u | rng->NextBounded(256));
     }},
    {"byte_1", [](size_t, Rng* rng) {
       return static_cast<ObjectId>(0xa1b200d4u | rng->NextBounded(256) << 8);
     }},
    {"byte_2", [](size_t, Rng* rng) {
       return static_cast<ObjectId>(0xa100c3d4u | rng->NextBounded(256) << 16);
     }},
    {"byte_3", [](size_t, Rng* rng) {
       return static_cast<ObjectId>(0x00b2c3d4u | rng->NextBounded(256) << 24);
     }},
    {"descending", [](size_t i, Rng*) {
       return static_cast<ObjectId>(UINT32_MAX - 3 * i);
     }},
    {"ascending", [](size_t i, Rng*) { return static_cast<ObjectId>(i); }},
};

TEST(SortCanonicalTest, EqualsStableSortOnAdversarialIds) {
  Rng rng(77);
  for (const Pattern& pattern : kPatterns) {
    for (const size_t n :
         {0u, 1u, 2u, 3u, 31u, 32u, 33u, 34u, 64u, 250u, 4096u}) {
      for (const bool pooled : {false, true}) {
        std::vector<DataEntry> entries;
        entries.reserve(n);
        for (size_t i = 0; i < n; ++i) {
          const ObjectId id = pattern.id(i, &rng);
          const geo::Point p = pooled ? geo::Point{PooledCoordinate(&rng),
                                                   PooledCoordinate(&rng)}
                                      : geo::Point{rng.NextDouble(),
                                                   rng.NextDouble()};
          entries.push_back({p, id});
        }
        ExpectSortsLikeStableSort(
            entries, std::string(pattern.name) + " n " + std::to_string(n) +
                         (pooled ? " pooled" : ""));
        ASSERT_FALSE(HasFatalFailure());
      }
    }
  }
}

// -- RadixSort and OrderedBits ------------------------------------------------

constexpr size_t kRadixSizes[] = {0, 1, 2, 31, 32, 33, 4096};

// An element whose tag records its input position, so a comparison of
// tags shows whether equal keys kept their input order.
template <typename V>
struct Tagged {
  V value;
  uint32_t tag;
};

template <typename V, typename KeyFn>
void ExpectRadixEqualsStableSort(const std::vector<V>& values, KeyFn key,
                                 const std::string& where) {
  std::vector<Tagged<V>> items;
  for (size_t i = 0; i < values.size(); ++i) {
    items.push_back({values[i], static_cast<uint32_t>(i)});
  }
  auto tagged_key = [&key](const Tagged<V>& t) { return key(t.value); };
  std::vector<Tagged<V>> expect = items;
  std::stable_sort(expect.begin(), expect.end(),
                   [&](const Tagged<V>& a, const Tagged<V>& b) {
                     return tagged_key(a) < tagged_key(b);
                   });
  std::vector<Tagged<V>> scratch(items.size());
  RadixSort(items.data(), items.size(), scratch.data(), tagged_key);
  ASSERT_EQ(items.size(), expect.size()) << where;
  for (size_t i = 0; i < items.size(); ++i) {
    ASSERT_EQ(items[i].tag, expect[i].tag) << where << " pos " << i;
  }
}

// A finite double whose bits are `base`'s with byte `byte` replaced.
// 2.0's exponent bits below byte 7 are zero, so no replacement reaches
// the all-ones exponent of an infinity or a NaN.
double WithByte(unsigned byte, uint64_t value) {
  const uint64_t base = std::bit_cast<uint64_t>(2.0);
  const unsigned shift = 8 * byte;
  return std::bit_cast<double>((base & ~(uint64_t{0xff} << shift)) |
                               (value << shift));
}

TEST(OrderedBitsTest, OrdersFiniteDoublesWithNegativeZeroFirst) {
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr double kMin = std::numeric_limits<double>::min();
  constexpr double kDenorm = std::numeric_limits<double>::denorm_min();
  const std::vector<double> ascending = {
      -kMax, -1e300, -1.0, -kMin, -1e-310, -kDenorm, -0.0,
      0.0,   kDenorm, 1e-310, kMin, 1.0, 1e300, kMax};
  for (size_t i = 1; i < ascending.size(); ++i) {
    EXPECT_LT(OrderedBits(ascending[i - 1]), OrderedBits(ascending[i]))
        << ascending[i - 1] << " vs " << ascending[i];
  }
  EXPECT_EQ(OrderedBits(-0.0) + 1, OrderedBits(0.0));
  // A negative value has all its bits flipped, a non-negative one its
  // sign bit set.
  EXPECT_EQ(OrderedBits(-1.5), ~std::bit_cast<uint64_t>(-1.5));
  EXPECT_EQ(OrderedBits(1.5),
            std::bit_cast<uint64_t>(1.5) | (uint64_t{1} << 63));
}

TEST(RadixSortTest, DoubleKeysEqualStableSortInTheTotalOrder) {
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr double kDenorm = std::numeric_limits<double>::denorm_min();
  const double specials[] = {0.0,     -0.0,    kDenorm, -kDenorm, 1e-310,
                             -1e-310, 1.0,     -1.0,    kMax,     -kMax,
                             1e300,   -1e300,  0.5,     -0.5};
  using Draw = double (*)(Rng*);
  struct Source {
    const char* name;
    Draw draw;
  };
  static const double* const kSpecials = specials;
  const Source sources[] = {
      {"specials",
       [](Rng* rng) { return kSpecials[rng->NextBounded(14)]; }},
      {"negatives", [](Rng* rng) { return -1e6 * (rng->NextDouble() + 1e-9); }},
      {"mixed signs", [](Rng* rng) { return rng->Uniform(-1.0, 1.0); }},
      {"all equal", [](Rng*) { return -0.75; }},
      {"byte 0", [](Rng* rng) { return WithByte(0, rng->NextBounded(256)); }},
      {"byte 3", [](Rng* rng) { return WithByte(3, rng->NextBounded(256)); }},
      {"byte 6", [](Rng* rng) { return WithByte(6, rng->NextBounded(256)); }},
      {"byte 7", [](Rng* rng) { return WithByte(7, rng->NextBounded(256)); }},
  };
  Rng rng(91);
  for (const Source& source : sources) {
    for (const size_t n : kRadixSizes) {
      std::vector<double> values;
      for (size_t i = 0; i < n; ++i) values.push_back(source.draw(&rng));
      const std::string where =
          std::string(source.name) + " n " + std::to_string(n);
      ExpectRadixEqualsStableSort(values, OrderedBits, where);
      ASSERT_FALSE(HasFatalFailure());
      // The total order is operator<'s, with -0.0 before +0.0.
      std::vector<double> sorted = values;
      std::vector<double> scratch(n);
      RadixSort(sorted.data(), n, scratch.data(), OrderedBits);
      for (size_t i = 1; i < n; ++i) {
        ASSERT_FALSE(sorted[i] < sorted[i - 1]) << where << " pos " << i;
        if (sorted[i] == 0.0 && sorted[i - 1] == 0.0) {
          ASSERT_FALSE(!std::signbit(sorted[i - 1]) && std::signbit(sorted[i]))
              << where << " pos " << i;
        }
      }
    }
  }
}

TEST(RadixSortTest, IntegerKeysEqualStableSort) {
  Rng rng(92);
  for (const size_t n : kRadixSizes) {
    for (unsigned byte = 0; byte < 8; ++byte) {
      std::vector<uint64_t> values;
      for (size_t i = 0; i < n; ++i) {
        values.push_back(0x0123456789abcdefULL ^
                         (rng.NextBounded(256) << (8 * byte)));
      }
      ExpectRadixEqualsStableSort(
          values, [](uint64_t v) { return v; },
          "u64 byte " + std::to_string(byte) + " n " + std::to_string(n));
      ASSERT_FALSE(HasFatalFailure());
    }
    std::vector<uint32_t> few, equal, any;
    std::vector<uint8_t> bytes;
    for (size_t i = 0; i < n; ++i) {
      few.push_back(static_cast<uint32_t>(rng.NextBounded(3)) << 24);
      equal.push_back(0xdeadbeefu);
      any.push_back(static_cast<uint32_t>(rng.NextU64()));
      bytes.push_back(static_cast<uint8_t>(rng.NextBounded(4)));
    }
    const std::string size = " n " + std::to_string(n);
    auto identity32 = [](uint32_t v) { return v; };
    ExpectRadixEqualsStableSort(few, identity32, "u32 few" + size);
    ExpectRadixEqualsStableSort(equal, identity32, "u32 equal" + size);
    ExpectRadixEqualsStableSort(any, identity32, "u32 any" + size);
    ExpectRadixEqualsStableSort(
        bytes, [](uint8_t v) { return v; }, "u8" + size);
    ASSERT_FALSE(HasFatalFailure());
  }
}

}  // namespace
}  // namespace lbsq
