// The STR bulk load, held to the comparison-sort STR it replaced:
//
//   * On data without coordinate ties, RTree::BulkLoad writes pages byte
//     for byte equal to a copy of the std::sort STR kept here
//     (ReferenceStr), on uniform and clustered data at 20k and 100k
//     points, at two fill factors and with small nodes.
//   * On degenerate data (lattice, duplicate coordinates, a collinear
//     row, points on the universe boundary, both signed zeros) the pages
//     equal the same STR over a stable sort in the IEEE total order:
//     equal coordinates keep their input order and -0.0 precedes +0.0.
//     The trees pass CheckInvariants and answer window and kNN queries
//     as brute force does.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "geometry/rect.h"
#include "rtree/knn.h"
#include "rtree/node.h"
#include "rtree/rtree.h"
#include "storage/page.h"
#include "storage/page_manager.h"
#include "tests/test_util.h"
#include "workload/datasets.h"

namespace lbsq {
namespace {

using rtree::ChildEntry;
using rtree::DataEntry;
using rtree::Node;
using rtree::RTree;

// What BulkLoad leaves in a fresh store: page i is the page with id i.
struct StrPages {
  std::vector<storage::Page> pages;
  RTree::Meta meta;
};

// Coordinate 0 is x, 1 is y.
double Coordinate(const DataEntry& e, int axis) {
  return axis == 0 ? e.point.x : e.point.y;
}

using EntryIt = std::vector<DataEntry>::iterator;

// The comparison sort the bulk load used, for tie-free coordinates.
void ComparisonSort(EntryIt first, EntryIt last, int axis) {
  std::sort(first, last, [axis](const DataEntry& a, const DataEntry& b) {
    return Coordinate(a, axis) < Coordinate(b, axis);
  });
}

// The documented tie order: a stable sort in the IEEE total order, which
// is operator< except that -0.0 comes before +0.0.
void StableTotalOrderSort(EntryIt first, EntryIt last, int axis) {
  std::stable_sort(first, last, [axis](const DataEntry& a, const DataEntry& b) {
    const double u = Coordinate(a, axis);
    const double v = Coordinate(b, axis);
    return u < v || (u == v && std::signbit(u) && !std::signbit(v));
  });
}

// STR as RTree::BulkLoad built it on comparison sorts; `sort(first, last,
// axis)` orders a range of entries by one coordinate. Page ids follow the
// store's allocation order: a new tree's empty root is page 0, and a bulk
// load makes it the first leaf.
template <typename Sort>
StrPages ReferenceStr(std::vector<DataEntry> entries, double fill,
                      const RTree::Options& options, Sort sort) {
  StrPages out;
  auto append = [&out](const Node& node) {
    out.pages.emplace_back();
    node.SerializeTo(&out.pages.back());
    return static_cast<storage::PageId>(out.pages.size() - 1);
  };
  out.meta.size = entries.size();
  if (entries.empty()) {
    out.meta.root = append(Node{});
    out.meta.num_nodes = 1;
    return out;
  }

  const auto leaf_cap = std::max<size_t>(
      1, static_cast<size_t>(fill * options.leaf_capacity));
  const auto int_cap = std::max<size_t>(
      2, static_cast<size_t>(fill * options.internal_capacity));
  sort(entries.begin(), entries.end(), 0);
  const size_t num_leaves = (entries.size() + leaf_cap - 1) / leaf_cap;
  const auto num_slices = static_cast<size_t>(
      std::ceil(std::sqrt(static_cast<double>(num_leaves))));
  const size_t slice_size = (entries.size() + num_slices - 1) / num_slices;

  std::vector<ChildEntry> level_entries;
  for (size_t s = 0; s < entries.size(); s += slice_size) {
    const size_t slice_end = std::min(entries.size(), s + slice_size);
    sort(entries.begin() + static_cast<ptrdiff_t>(s),
         entries.begin() + static_cast<ptrdiff_t>(slice_end), 1);
    for (size_t i = s; i < slice_end; i += leaf_cap) {
      Node leaf;
      const size_t end = std::min(slice_end, i + leaf_cap);
      leaf.data.assign(entries.begin() + static_cast<ptrdiff_t>(i),
                       entries.begin() + static_cast<ptrdiff_t>(end));
      level_entries.push_back(ChildEntry{leaf.ComputeMbr(), append(leaf)});
    }
  }
  uint16_t level = 1;
  while (level_entries.size() > 1) {
    std::vector<ChildEntry> next;
    for (size_t i = 0; i < level_entries.size(); i += int_cap) {
      Node inner;
      inner.level = level;
      const size_t end = std::min(level_entries.size(), i + int_cap);
      inner.children.assign(
          level_entries.begin() + static_cast<ptrdiff_t>(i),
          level_entries.begin() + static_cast<ptrdiff_t>(end));
      next.push_back(ChildEntry{inner.ComputeMbr(), append(inner)});
    }
    level_entries = std::move(next);
    ++level;
  }
  out.meta.root = level_entries[0].child;
  out.meta.root_level = static_cast<uint16_t>(level - 1);
  out.meta.num_nodes = out.pages.size();
  return out;
}

bool HasCoordinateTies(const std::vector<DataEntry>& entries) {
  for (const int axis : {0, 1}) {
    std::vector<double> values;
    for (const DataEntry& e : entries) values.push_back(Coordinate(e, axis));
    std::sort(values.begin(), values.end());
    if (std::adjacent_find(values.begin(), values.end()) != values.end()) {
      return true;
    }
  }
  return false;
}

// Drops every point whose x or y another point shares, so the data has
// no coordinate ties (clustered generators clamp points onto the
// universe boundary).
std::vector<DataEntry> WithoutCoordinateTies(
    const std::vector<DataEntry>& entries) {
  std::vector<double> xs, ys;
  for (const DataEntry& e : entries) {
    xs.push_back(e.point.x);
    ys.push_back(e.point.y);
  }
  auto repeated = [](std::vector<double> values) {
    std::sort(values.begin(), values.end());
    std::vector<double> out;
    for (size_t i = 1; i < values.size(); ++i) {
      if (values[i] == values[i - 1]) out.push_back(values[i]);
    }
    return out;
  };
  const std::vector<double> tied_x = repeated(xs);
  const std::vector<double> tied_y = repeated(ys);
  std::vector<DataEntry> out;
  for (const DataEntry& e : entries) {
    if (!std::binary_search(tied_x.begin(), tied_x.end(), e.point.x) &&
        !std::binary_search(tied_y.begin(), tied_y.end(), e.point.y)) {
      out.push_back(e);
    }
  }
  return out;
}

// Bulk-loads `entries` into a fresh tree and expects its store to hold
// exactly the reference pages, and its meta to match.
void ExpectPagesMatch(const std::vector<DataEntry>& entries, double fill,
                      const RTree::Options& options, size_t buffer_pages,
                      const StrPages& expect, const std::string& where) {
  storage::PageManager disk;
  RTree tree(&disk, buffer_pages, options);
  tree.BulkLoad(entries, fill);
  tree.buffer().FlushAll();
  const RTree::Meta meta = tree.meta();
  EXPECT_EQ(meta.root, expect.meta.root) << where;
  EXPECT_EQ(meta.root_level, expect.meta.root_level) << where;
  EXPECT_EQ(meta.size, expect.meta.size) << where;
  EXPECT_EQ(meta.num_nodes, expect.meta.num_nodes) << where;
  ASSERT_EQ(disk.live_pages(), expect.pages.size()) << where;
  for (storage::PageId id = 0; id < expect.pages.size(); ++id) {
    ASSERT_EQ(std::memcmp(disk.ReadRef(id).data(), expect.pages[id].data(),
                          storage::kPageSize),
              0)
        << where << " page " << id;
  }
}

struct Fill {
  double fill;
  const char* name;
};
constexpr Fill kFills[] = {{0.7, "fill 0.7"}, {1.0, "fill 1.0"}};

TEST(BulkLoadTest, PagesMatchComparisonSortStrOnTieFreeData) {
  const geo::Rect unit(0.0, 0.0, 1.0, 1.0);
  for (const size_t n : {20000u, 100000u}) {
    struct Set {
      std::string name;
      std::vector<DataEntry> entries;
    };
    const std::vector<Set> sets = {
        {"uniform", workload::MakeUnitUniform(n, 61).entries},
        {"clustered",
         WithoutCoordinateTies(
             workload::MakeClustered(n, unit, 40, 1.2, 0.002, 0.03, 0.1, 62)
                 .entries)},
    };
    for (const Set& set : sets) {
      ASSERT_FALSE(HasCoordinateTies(set.entries)) << set.name;
      ASSERT_GT(set.entries.size(), n * 9 / 10) << set.name;
      for (const Fill& f : kFills) {
        const std::string where =
            set.name + " n " + std::to_string(n) + " " + f.name;
        ExpectPagesMatch(set.entries, f.fill, {}, 0,
                         ReferenceStr(set.entries, f.fill, {}, ComparisonSort),
                         where);
        ASSERT_FALSE(HasFatalFailure());
      }
      if (n == 20000) {
        const RTree::Options small = test::SmallNodeOptions();
        for (const Fill& f : kFills) {
          ExpectPagesMatch(
              set.entries, f.fill, small, 16,
              ReferenceStr(set.entries, f.fill, small, ComparisonSort),
              set.name + " small nodes " + f.name);
          ASSERT_FALSE(HasFatalFailure());
        }
      }
    }
  }
}

TEST(BulkLoadTest, EmptyAndTinyInputsMatchReference) {
  for (const size_t n : {0u, 1u, 2u, 7u, 143u}) {
    const auto entries = workload::MakeUnitUniform(n, 63).entries;
    for (const Fill& f : kFills) {
      ExpectPagesMatch(entries, f.fill, {}, 4,
                       ReferenceStr(entries, f.fill, {}, ComparisonSort),
                       "n " + std::to_string(n) + " " + f.name);
      ASSERT_FALSE(HasFatalFailure());
    }
  }
}

// Coordinates drawn from both signed zeros, +-0.5 and +-1e-310 (a
// denormal), so every value repeats and -0.0 and +0.0 interleave.
std::vector<DataEntry> SignedZeros() {
  std::vector<DataEntry> out;
  Rng rng(64);
  const double pool[] = {0.0, -0.0, 0.5, -0.5, 1e-310, -1e-310};
  for (rtree::ObjectId id = 0; id < 600; ++id) {
    out.push_back({{pool[rng.NextBounded(6)], pool[rng.NextBounded(6)]}, id});
  }
  return out;
}

TEST(BulkLoadTest, DegenerateDataKeepsTheStableTieOrder) {
  struct Set {
    const char* name;
    std::vector<DataEntry> entries;
  };
  const std::vector<Set> sets = {
      {"lattice", test::Lattice(30)},
      {"duplicates", test::Duplicates(400, 65)},
      {"collinear", test::CollinearRow(2000, 66)},
      {"universe boundary", test::UniverseBoundary(200, 67)},
      {"signed zeros", SignedZeros()},
  };
  Rng rng(68);
  for (const Set& set : sets) {
    ASSERT_TRUE(HasCoordinateTies(set.entries)) << set.name;
    for (const bool small : {false, true}) {
      const RTree::Options options =
          small ? test::SmallNodeOptions() : RTree::Options{};
      const std::string where =
          std::string(set.name) + (small ? " small nodes" : "");
      ExpectPagesMatch(
          set.entries, 0.7, options, 8,
          ReferenceStr(set.entries, 0.7, options, StableTotalOrderSort),
          where);
      ASSERT_FALSE(HasFatalFailure());

      test::TreeFixture fx(set.entries, 8, options);
      fx.tree->CheckInvariants();
      const geo::Rect box = fx.tree->bounding_box();
      for (int i = 0; i < 40; ++i) {
        const geo::Point q{rng.Uniform(box.min_x, box.max_x),
                           rng.Uniform(box.min_y, box.max_y)};
        const double hx = (box.width() + 1.0) * rng.Uniform(0.0, 0.2);
        const double hy = (box.height() + 1.0) * rng.Uniform(0.0, 0.2);
        const geo::Rect w = geo::Rect::Centered(q, hx, hy);
        std::vector<DataEntry> got;
        fx.tree->WindowQuery(w, &got);
        EXPECT_EQ(test::Ids(got), test::Ids(test::BruteForceWindow(
                                      set.entries, w)))
            << where << " window " << i;
        const auto knn = rtree::KnnBestFirst(*fx.tree, q, 8);
        const auto expect = test::BruteForceKnn(set.entries, q, 8);
        ASSERT_EQ(knn.size(), expect.size()) << where;
        for (size_t j = 0; j < knn.size(); ++j) {
          EXPECT_EQ(knn[j].entry.id, expect[j].entry.id)
              << where << " knn " << i << " rank " << j;
        }
      }
    }
  }
}

// The tie order itself, on one leaf: equal x in input order, -0.0 first.
TEST(BulkLoadTest, LeafOrderIsStableInTheTotalOrder) {
  const std::vector<DataEntry> entries = {
      {{0.0, 0.0}, 0}, {{-0.0, 0.0}, 1}, {{0.0, -0.0}, 2},
      {{-0.0, -0.0}, 3}, {{0.0, 0.0}, 4},
  };
  storage::PageManager disk;
  RTree tree(&disk, 0);
  tree.BulkLoad(entries);
  const Node leaf = tree.FetchNode(tree.root());
  std::vector<rtree::ObjectId> ids;
  for (const DataEntry& e : leaf.data) ids.push_back(e.id);
  // One slice: the y order decides, ties keep the x order (-0.0 first,
  // then input order).
  EXPECT_EQ(ids, (std::vector<rtree::ObjectId>{3, 2, 1, 0, 4}));
}

}  // namespace
}  // namespace lbsq
