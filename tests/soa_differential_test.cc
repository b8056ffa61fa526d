#include <cstddef>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/server.h"
#include "core/wire_format.h"
#include "geometry/point.h"
#include "geometry/rect.h"
#include "rtree/knn.h"
#include "rtree/rtree.h"
#include "storage/page_manager.h"
#include "tests/test_util.h"
#include "workload/datasets.h"
#include "workload/queries.h"

// Differential gate for the SoA/vectorized hot paths: a 10k clustered
// kNN/window/range query stream runs through the vectorized scans on
// one tree and the scalar oracles of tests/test_util.h
// (KnnBestFirstLegacy / WindowQueryLegacy) on an identically built
// second tree. Results must match entry for entry, and the aggregate NA
// (buffer logical accesses) and PA (disk reads) over the whole stream
// must be identical — the SIMD layout may only change how a node is
// scanned, never which nodes are visited. A stratified subsample then
// runs the full wire path on both trees: the encoded answer bytes must
// be byte-equal across trees, and range answers are additionally checked
// against a brute-force scalar distance filter, pinning the SoA mask
// arithmetic to the plain SquaredDistance definition.

namespace lbsq {
namespace {

constexpr size_t kQueries = 10240;
constexpr size_t kWireSampleEvery = 16;
const geo::Rect kUnit(0.0, 0.0, 1.0, 1.0);

struct Bench {
  storage::PageManager disk;
  rtree::RTree tree;

  explicit Bench(const std::vector<rtree::DataEntry>& entries)
      : tree(&disk, 0, rtree::RTree::Options{}) {
    tree.BulkLoad(entries);
    tree.SetBufferFraction(0.1);
    tree.buffer().ResetCounters();
    disk.ResetCounters();
  }

  uint64_t na() { return tree.buffer().logical_accesses(); }
  uint64_t pa() const { return disk.read_count(); }
};

// The loadgen's clustered mix: per 20 queries, 12 kNN (k cycling over
// both the streaming and heap dispatch paths), 5 windows, 3 ranges.
enum class Kind { kNn, kWindow, kRange };

Kind KindOf(size_t i) {
  const size_t slot = i % 20;
  if (slot >= 17) return Kind::kRange;
  if (slot >= 12) return Kind::kWindow;
  return Kind::kNn;
}

size_t KOf(size_t i) {
  constexpr size_t ks[] = {1, 4, 10, 50};
  return ks[i % 4];
}

TEST(SoaDifferentialTest, ClusteredStreamMatchesLegacyScansAndAccessCounts) {
  const auto dataset = workload::MakeUnitUniform(20000, 4242);
  Bench soa(dataset.entries);
  Bench legacy(dataset.entries);
  const auto queries =
      workload::MakeHotspotQueries(kUnit, kQueries, 16, 4711, 0.005);

  size_t mismatches = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const geo::Point& q = queries[i];
    switch (KindOf(i)) {
      case Kind::kNn: {
        const auto got = rtree::KnnBestFirst(soa.tree, q, KOf(i));
        const auto want = test::KnnBestFirstLegacy(legacy.tree, q, KOf(i));
        ASSERT_EQ(got.size(), want.size()) << "query " << i;
        for (size_t r = 0; r < got.size(); ++r) {
          mismatches += got[r].entry.id != want[r].entry.id;
          mismatches += got[r].distance != want[r].distance;
        }
        break;
      }
      case Kind::kWindow: {
        const geo::Rect w = geo::Rect::Centered(q, 0.01, 0.008);
        std::vector<rtree::DataEntry> got, want;
        soa.tree.WindowQuery(w, &got);
        test::WindowQueryLegacy(legacy.tree, w, &want);
        ASSERT_EQ(got.size(), want.size()) << "query " << i;
        for (size_t r = 0; r < got.size(); ++r) {
          mismatches += got[r].id != want[r].id;
        }
        break;
      }
      case Kind::kRange: {
        // The range engine's collect step is a window query over the
        // disk's bounding box; the distance filter itself is pinned at
        // the wire level below.
        const geo::Rect w = geo::Rect::Centered(q, 0.01, 0.01);
        std::vector<rtree::DataEntry> got, want;
        soa.tree.WindowQuery(w, &got);
        test::WindowQueryLegacy(legacy.tree, w, &want);
        ASSERT_EQ(got.size(), want.size()) << "query " << i;
        for (size_t r = 0; r < got.size(); ++r) {
          mismatches += got[r].id != want[r].id;
        }
        break;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
  // The cost-model counters the paper's figures are built on.
  EXPECT_EQ(soa.na(), legacy.na()) << "SoA scan changed node access counts";
  EXPECT_EQ(soa.pa(), legacy.pa()) << "SoA scan changed page access counts";
}

TEST(SoaDifferentialTest, WireBytesByteEqualAcrossTreesWithScalarRangeOracle) {
  const auto dataset = workload::MakeUnitUniform(20000, 4242);
  Bench a(dataset.entries);
  Bench b(dataset.entries);
  core::Server server_a(&a.tree, kUnit);
  core::Server server_b(&b.tree, kUnit);
  const auto queries =
      workload::MakeHotspotQueries(kUnit, kQueries, 16, 4711, 0.005);

  for (size_t i = 0; i < queries.size(); i += kWireSampleEvery) {
    const geo::Point& q = queries[i];
    switch (KindOf(i)) {
      case Kind::kNn: {
        const auto got = server_a.NnQueryWire(q, KOf(i));
        const auto want = server_b.NnQueryWire(q, KOf(i));
        ASSERT_TRUE(got.ok() && want.ok()) << "query " << i;
        EXPECT_EQ(*got, *want) << "NN wire bytes differ at query " << i;
        break;
      }
      case Kind::kWindow: {
        const auto got = server_a.WindowQueryWire(q, 0.01, 0.008);
        const auto want = server_b.WindowQueryWire(q, 0.01, 0.008);
        ASSERT_TRUE(got.ok() && want.ok()) << "query " << i;
        EXPECT_EQ(*got, *want) << "window wire bytes differ at query " << i;
        break;
      }
      case Kind::kRange: {
        const double radius = 0.01;
        const auto got = server_a.RangeQueryWire(q, radius);
        const auto want = server_b.RangeQueryWire(q, radius);
        ASSERT_TRUE(got.ok() && want.ok()) << "query " << i;
        EXPECT_EQ(*got, *want) << "range wire bytes differ at query " << i;

        // Scalar oracle for the SoA distance mask: brute-force filter of
        // the legacy window collect by plain SquaredDistance.
        std::vector<rtree::DataEntry> candidates;
        test::WindowQueryLegacy(
            b.tree, geo::Rect::Centered(q, radius, radius), &candidates);
        std::vector<uint32_t> expect_ids;
        for (const rtree::DataEntry& e : candidates) {
          if (geo::SquaredDistance(q, e.point) <= radius * radius) {
            expect_ids.push_back(e.id);
          }
        }
        const auto decoded = core::wire::DecodeRangeResult(*got);
        ASSERT_TRUE(decoded.ok());
        ASSERT_EQ(decoded->result().size(), expect_ids.size())
            << "range member count diverged from scalar filter at " << i;
        for (size_t r = 0; r < expect_ids.size(); ++r) {
          EXPECT_EQ(decoded->result()[r].id, expect_ids[r]) << "query " << i;
        }
        break;
      }
    }
  }
}

}  // namespace
}  // namespace lbsq
