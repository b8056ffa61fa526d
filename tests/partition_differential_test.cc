#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "cache/semantic_cache.h"
#include "core/server.h"
#include "core/wire_format.h"
#include "geometry/point.h"
#include "geometry/rect.h"
#include "partition/partitioned_server.h"
#include "tests/test_util.h"
#include "workload/datasets.h"
#include "workload/queries.h"

// The partitioned-serving byte-identity bar: for K ∈ {1, 2, 4, 8}, a
// PartitionedServer must emit the same wire bytes as a single-tree
// core::Server over the same dataset, across a 10k-query clustered
// (hotspot) workload with a churn stream of inserts and deletes applied
// to both sides.
//
//   * Cache off: every reply is compared byte-for-byte against the
//     single-tree oracle — the router is indistinguishable from one
//     tree on the wire.
//   * Cache on: a miss must still match the oracle byte-for-byte; a hit
//     legitimately replays a *covering* earlier answer, so its bytes
//     must equal a fresh re-encode of that answer's original query
//     against the current tree (the same bar churn_differential_test
//     holds the single-tree cache to), and the decoded answer must be
//     valid at the client position. The cache runs region-scoped, or
//     with CacheConfig::region_scoped off, where every update must
//     epoch-invalidate all K + 1 caches exactly as core::Server does.

namespace lbsq::partition {
namespace {

using test::TreeFixture;

const geo::Rect kUnit(0.0, 0.0, 1.0, 1.0);

enum CacheMode { kOff, kRegion, kEpoch };

void RunDifferential(size_t fragments, CacheMode mode) {
  const bool cache_on = mode != kOff;
  constexpr size_t kQueries = 10000;
  constexpr double kHx = 0.02, kHy = 0.015;
  constexpr double kRadius = 0.025;

  const auto dataset =
      workload::MakeClustered(20000, kUnit, 12, 1.1, 0.01, 0.05, 0.1, 901);
  const workload::MixedWorkload mixed = workload::MakeMixedWorkload(
      dataset, kQueries, /*updates_per_kilo_query=*/100.0, /*hotspots=*/16,
      902);
  ASSERT_GT(mixed.inserts, 0u);
  ASSERT_GT(mixed.deletes, 0u);

  PartitionedServerOptions options;
  options.fragments = fragments;
  PartitionedServer sharded(dataset.entries, kUnit, options);
  if (cache_on) {
    cache::CacheConfig config;
    config.max_entries = 8192;
    config.max_bytes = 16u << 20;
    config.region_scoped = mode == kRegion;
    sharded.EnableCache(config);
  }

  // Single-tree oracle receiving the same churn; never cached, so its
  // replies are always freshly computed.
  TreeFixture fx(dataset.entries, 256);
  core::Server oracle(fx.tree.get(), kUnit);

  size_t hits = 0;
  size_t query_index = 0;
  for (const workload::MixedOp& op : mixed.ops) {
    switch (op.kind) {
      case workload::MixedOp::Kind::kInsert:
        sharded.Insert(op.point, op.id);
        fx.tree->Insert(op.point, op.id);
        continue;
      case workload::MixedOp::Kind::kDelete:
        ASSERT_TRUE(sharded.Delete(op.point, op.id));
        ASSERT_TRUE(fx.tree->Delete(op.point, op.id));
        continue;
      case workload::MixedOp::Kind::kQuery:
        break;
    }

    const geo::Point& p = op.point;
    const size_t i = query_index++;
    switch (i % 5) {
      case 0:
      case 1:
      case 2: {
        const size_t k = (i % 5 == 2) ? 4 : 1;
        const auto bytes = *sharded.NnQueryWireShared(p, k).value();
        if (sharded.last_wire_from_cache()) {
          ++hits;
          const auto decoded = core::wire::DecodeNnResult(bytes).value();
          ASSERT_TRUE(decoded.IsValidAt(p)) << "query " << i;
          const auto replay =
              core::wire::EncodeNnResult(oracle.NnQuery(decoded.query(), k))
                  .value();
          ASSERT_EQ(bytes, replay) << "query " << i;
        } else {
          const auto expect = oracle.NnQueryWire(p, k).value();
          ASSERT_EQ(bytes, expect) << "query " << i;
        }
        break;
      }
      case 3: {
        const auto bytes = *sharded.WindowQueryWireShared(p, kHx, kHy).value();
        if (sharded.last_wire_from_cache()) {
          ++hits;
          const auto decoded = core::wire::DecodeWindowResult(bytes).value();
          ASSERT_TRUE(decoded.IsValidAt(p)) << "query " << i;
          const auto replay =
              core::wire::EncodeWindowResult(
                  oracle.WindowQuery(decoded.focus(), kHx, kHy))
                  .value();
          ASSERT_EQ(bytes, replay) << "query " << i;
        } else {
          const auto expect = oracle.WindowQueryWire(p, kHx, kHy).value();
          ASSERT_EQ(bytes, expect) << "query " << i;
        }
        break;
      }
      case 4: {
        const auto bytes = *sharded.RangeQueryWireShared(p, kRadius).value();
        if (sharded.last_wire_from_cache()) {
          ++hits;
          const auto decoded = core::wire::DecodeRangeResult(bytes).value();
          ASSERT_TRUE(decoded.IsValidAt(p)) << "query " << i;
          const auto replay =
              core::wire::EncodeRangeResult(
                  oracle.RangeQuery(decoded.focus(), kRadius))
                  .value();
          ASSERT_EQ(bytes, replay) << "query " << i;
        } else {
          const auto expect = oracle.RangeQueryWire(p, kRadius).value();
          ASSERT_EQ(bytes, expect) << "query " << i;
        }
        break;
      }
    }
  }
  ASSERT_EQ(query_index, kQueries);
  EXPECT_EQ(sharded.size(), fx.tree->size());
  if (cache_on) {
    // The run only proves something about cached partitioned serving if
    // the caches actually served hits under churn.
    EXPECT_GT(hits, 0u);
    const cache::CacheStats stats = sharded.cache_stats();
    EXPECT_GT(stats.inserts, 0u);
    if (fragments > 1) {
      // Ownership placement must route some entries into fragment caches
      // (not dump everything into the boundary cache).
      EXPECT_GT(sharded.owner_cache_inserts(), 0u);
    }
    if (mode == kEpoch) {
      EXPECT_EQ(stats.entries_invalidated_by_update, 0u);
      EXPECT_GT(stats.epoch_invalidations, 0u);
    }
  } else {
    EXPECT_EQ(hits, 0u);
  }
}

TEST(PartitionDifferentialTest, K1CacheOff) { RunDifferential(1, kOff); }
TEST(PartitionDifferentialTest, K2CacheOff) { RunDifferential(2, kOff); }
TEST(PartitionDifferentialTest, K4CacheOff) { RunDifferential(4, kOff); }
TEST(PartitionDifferentialTest, K8CacheOff) { RunDifferential(8, kOff); }
TEST(PartitionDifferentialTest, K1CacheOn) { RunDifferential(1, kRegion); }
TEST(PartitionDifferentialTest, K2CacheOn) { RunDifferential(2, kRegion); }
TEST(PartitionDifferentialTest, K4CacheOn) { RunDifferential(4, kRegion); }
TEST(PartitionDifferentialTest, K8CacheOn) { RunDifferential(8, kRegion); }
TEST(PartitionDifferentialTest, K4CacheEpoch) { RunDifferential(4, kEpoch); }

}  // namespace
}  // namespace lbsq::partition
