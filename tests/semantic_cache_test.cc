#include "cache/semantic_cache.h"

#include <cstdint>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "geometry/disk_region.h"
#include "geometry/point.h"
#include "geometry/rect.h"
#include "geometry/region.h"

// Unit tests of the semantic answer cache in isolation: hit/miss
// geometry, exact-parameter matching, LRU and byte-budget eviction,
// epoch invalidation, counters, and the mutex-wrapped shared variant.
// The serving-path integration (Server / BatchServer) is covered by
// cache_differential_test.cc and batch_server_test.cc.

namespace lbsq::cache {
namespace {

const geo::Rect kUnit(0.0, 0.0, 1.0, 1.0);

std::vector<uint8_t> Bytes(size_t n, uint8_t fill) {
  return std::vector<uint8_t>(n, fill);
}

// A cache payload of n bytes of `fill`.
CachedBytes MakeBytes(size_t n, uint8_t fill) {
  return MakeCachedBytes(Bytes(n, fill));
}

// A window entry whose validity region is a plain rectangle (no holes).
void InsertWindowRect(SemanticCache* cache, double hx, double hy,
                      const geo::Rect& rect, CachedBytes bytes) {
  cache->InsertWindow(hx, hy, geo::RectMinusBoxes(rect, {}),
                      std::move(bytes));
}

TEST(SemanticCacheTest, WindowHitMissAndParameterMatch) {
  SemanticCache cache(kUnit, CacheConfig{});
  InsertWindowRect(&cache, 0.1, 0.1, geo::Rect(0.2, 0.2, 0.4, 0.4),
                   MakeBytes(16, 7));

  CachedBytes out;
  EXPECT_TRUE(cache.LookupWindowShared({0.3, 0.3}, 0.1, 0.1, &out));
  EXPECT_EQ(*out, Bytes(16, 7));

  // Outside the region: miss.
  EXPECT_FALSE(cache.LookupWindowShared({0.5, 0.5}, 0.1, 0.1, &out));
  // Same position, different window extents: miss (exact parameter key).
  EXPECT_FALSE(cache.LookupWindowShared({0.3, 0.3}, 0.2, 0.1, &out));
  // Different query kind entirely: miss.
  EXPECT_FALSE(cache.LookupNnShared({0.3, 0.3}, 1, &out));

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.lookups, 4u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hit_bytes, 16u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(SemanticCacheTest, NnBisectorSemanticsAreClosed) {
  SemanticCache cache(kUnit, CacheConfig{});
  // Valid while the answer (0.25, 0.5) stays at least as close as the
  // rival (0.75, 0.5): the half-plane x <= 0.5.
  std::vector<BisectorConstraint> constraints{
      {{0.25, 0.5}, {0.75, 0.5}}};
  cache.InsertNn(1, kUnit, kUnit, {{0.25, 0.5}}, constraints,
                 MakeBytes(8, 1));

  CachedBytes out;
  EXPECT_TRUE(cache.LookupNnShared({0.1, 0.5}, 1, &out));
  EXPECT_FALSE(cache.LookupNnShared({0.9, 0.5}, 1, &out));
  // Exactly on the bisector: still valid — the cache must mirror the
  // closed (>) comparison of NnValidityResult::IsValidAt, or it would
  // serve/withhold answers inconsistently with the client's own check.
  EXPECT_TRUE(cache.LookupNnShared({0.5, 0.5}, 1, &out));
  // Same position, different k: miss.
  EXPECT_FALSE(cache.LookupNnShared({0.1, 0.5}, 2, &out));
}

TEST(SemanticCacheTest, WindowHolesMirrorClosedContainment) {
  SemanticCache cache(kUnit, CacheConfig{});
  const geo::Rect base(0.0, 0.0, 0.8, 0.8);
  const geo::Rect hole(0.3, 0.3, 0.5, 0.5);
  cache.InsertWindow(0.1, 0.1, geo::RectMinusBoxes(base, {hole}),
                     MakeBytes(4, 2));

  CachedBytes out;
  EXPECT_TRUE(cache.LookupWindowShared({0.1, 0.1}, 0.1, 0.1, &out));
  // Inside the hole's interior: invalid.
  EXPECT_FALSE(cache.LookupWindowShared({0.4, 0.4}, 0.1, 0.1, &out));
  // Exactly on the hole boundary: valid (open hole interiors).
  EXPECT_TRUE(cache.LookupWindowShared({0.3, 0.4}, 0.1, 0.1, &out));
}

TEST(SemanticCacheTest, RangeDiskRegion) {
  SemanticCache cache(kUnit, CacheConfig{});
  const geo::Rect bounds(0.3, 0.3, 0.7, 0.7);
  geo::DiskRegion region(bounds, {{{0.5, 0.5}, 0.2}}, {});
  cache.InsertRange(0.25, region, MakeBytes(4, 3));

  CachedBytes out;
  EXPECT_TRUE(cache.LookupRangeShared({0.5, 0.5}, 0.25, &out));
  EXPECT_FALSE(cache.LookupRangeShared({0.69, 0.69}, 0.25, &out));  // outside disk
  EXPECT_FALSE(cache.LookupRangeShared({0.5, 0.5}, 0.1, &out));     // wrong radius
}

TEST(SemanticCacheTest, LruEvictsLeastRecentlyUsed) {
  CacheConfig config;
  config.max_entries = 2;
  SemanticCache cache(kUnit, config);
  InsertWindowRect(&cache, 0.1, 0.1, geo::Rect(0.0, 0.0, 0.2, 0.2),
                   MakeBytes(4, 1));  // A
  InsertWindowRect(&cache, 0.1, 0.1, geo::Rect(0.4, 0.4, 0.6, 0.6),
                   MakeBytes(4, 2));  // B

  // Touch A so B becomes the LRU victim.
  CachedBytes out;
  ASSERT_TRUE(cache.LookupWindowShared({0.1, 0.1}, 0.1, 0.1, &out));

  InsertWindowRect(&cache, 0.1, 0.1, geo::Rect(0.8, 0.8, 1.0, 1.0),
                   MakeBytes(4, 3));  // C evicts B
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_TRUE(cache.LookupWindowShared({0.1, 0.1}, 0.1, 0.1, &out));   // A alive
  EXPECT_FALSE(cache.LookupWindowShared({0.5, 0.5}, 0.1, 0.1, &out));  // B gone
  EXPECT_TRUE(cache.LookupWindowShared({0.9, 0.9}, 0.1, 0.1, &out));   // C alive
}

TEST(SemanticCacheTest, ByteBudgetBoundsOccupancy) {
  CacheConfig config;
  config.max_bytes = 2048;
  SemanticCache cache(kUnit, config);
  for (int i = 0; i < 8; ++i) {
    const double lo = 0.1 * i;
    InsertWindowRect(&cache, 0.05, 0.05,
                     geo::Rect(lo, lo, lo + 0.05, lo + 0.05),
                     MakeBytes(512, static_cast<uint8_t>(i)));
  }
  EXPECT_LE(cache.bytes(), config.max_bytes);
  EXPECT_GT(cache.stats().evictions, 0u);
  EXPECT_GT(cache.entries(), 0u);
}

TEST(SemanticCacheTest, OversizeAndEmptyBoundsRejected) {
  CacheConfig config;
  config.max_bytes = 1024;
  SemanticCache cache(kUnit, config);
  // Could never fit: rejected, nothing evicted.
  InsertWindowRect(&cache, 0.1, 0.1, geo::Rect(0.2, 0.2, 0.4, 0.4),
                   MakeBytes(4096, 1));
  // Empty validity region: rejected.
  cache.InsertWindow(0.1, 0.1, geo::RectMinusBoxes(), MakeBytes(4, 2));
  // Region entirely outside the universe: rejected.
  InsertWindowRect(&cache, 0.1, 0.1, geo::Rect(2.0, 2.0, 3.0, 3.0),
                   MakeBytes(4, 3));
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.stats().rejected, 3u);
  EXPECT_EQ(cache.stats().inserts, 0u);
}

TEST(SemanticCacheTest, InvalidateDropsStaleEntriesLazily) {
  SemanticCache cache(kUnit, CacheConfig{});
  InsertWindowRect(&cache, 0.1, 0.1, geo::Rect(0.2, 0.2, 0.4, 0.4),
                   MakeBytes(4, 1));
  cache.Invalidate();

  CachedBytes out;
  EXPECT_FALSE(cache.LookupWindowShared({0.3, 0.3}, 0.1, 0.1, &out));
  EXPECT_EQ(cache.entries(), 0u);  // dropped by the lookup itself
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.epoch_invalidations, 1u);
  EXPECT_EQ(stats.stale_drops, 1u);

  // Entries inserted after the bump are live again.
  InsertWindowRect(&cache, 0.1, 0.1, geo::Rect(0.2, 0.2, 0.4, 0.4),
                   MakeBytes(4, 2));
  EXPECT_TRUE(cache.LookupWindowShared({0.3, 0.3}, 0.1, 0.1, &out));
  EXPECT_EQ(*out, Bytes(4, 2));
}

TEST(SemanticCacheTest, ScrubPurgesEagerly) {
  SemanticCache cache(kUnit, CacheConfig{});
  InsertWindowRect(&cache, 0.1, 0.1, geo::Rect(0.0, 0.0, 0.2, 0.2),
                   MakeBytes(4, 1));
  InsertWindowRect(&cache, 0.1, 0.1, geo::Rect(0.6, 0.6, 0.8, 0.8),
                   MakeBytes(4, 2));
  cache.Invalidate();
  InsertWindowRect(&cache, 0.1, 0.1, geo::Rect(0.4, 0.4, 0.5, 0.5),
                   MakeBytes(4, 3));

  EXPECT_EQ(cache.Scrub(), 2u);  // only the pre-bump entries
  EXPECT_EQ(cache.entries(), 1u);
  CachedBytes out;
  EXPECT_TRUE(cache.LookupWindowShared({0.45, 0.45}, 0.1, 0.1, &out));
}

TEST(SemanticCacheTest, ClearDropsEverything) {
  SemanticCache cache(kUnit, CacheConfig{});
  InsertWindowRect(&cache, 0.1, 0.1, geo::Rect(0.2, 0.2, 0.4, 0.4),
                   MakeBytes(4, 1));
  cache.Clear();
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  CachedBytes out;
  EXPECT_FALSE(cache.LookupWindowShared({0.3, 0.3}, 0.1, 0.1, &out));
}

TEST(SemanticCacheTest, MostRecentInsertWinsWithinCell) {
  SemanticCache cache(kUnit, CacheConfig{});
  // Two live entries with identical parameters covering the same point:
  // the lookup may serve either (both are valid answers); it must serve
  // exactly one and count one hit.
  InsertWindowRect(&cache, 0.1, 0.1, geo::Rect(0.2, 0.2, 0.4, 0.4),
                   MakeBytes(4, 1));
  InsertWindowRect(&cache, 0.1, 0.1, geo::Rect(0.25, 0.25, 0.45, 0.45),
                   MakeBytes(4, 2));
  CachedBytes out;
  ASSERT_TRUE(cache.LookupWindowShared({0.3, 0.3}, 0.1, 0.1, &out));
  EXPECT_TRUE(*out == Bytes(4, 1) || *out == Bytes(4, 2));
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(SemanticCacheTest, InvalidateAtKillsOnlyAffectedNnEntries) {
  SemanticCache cache(kUnit, CacheConfig{});
  // 1-NN answer (0.25, 0.5) with rival (0.75, 0.5): validity region is
  // the half-plane x <= 0.5, bounding box [0, 0.5] x [0, 1].
  const geo::Point answer{0.25, 0.5};
  const geo::Point rival{0.75, 0.5};
  const geo::Rect bounds(0.0, 0.0, 0.5, 1.0);
  cache.InsertNn(1, kUnit, bounds, {answer}, {{answer, rival}},
                 MakeBytes(8, 1));

  // An insert far beyond the rival can never beat the answer anywhere in
  // the region: retained.
  EXPECT_EQ(cache.InvalidateAt({0.99, 0.5}, UpdateKind::kInsert), 0u);
  CachedBytes out;
  EXPECT_TRUE(cache.LookupNnShared({0.3, 0.5}, 1, &out));

  // An insert right next to the answer beats it over most of the region:
  // killed.
  EXPECT_EQ(cache.InvalidateAt({0.31, 0.5}, UpdateKind::kInsert), 1u);
  EXPECT_FALSE(cache.LookupNnShared({0.3, 0.5}, 1, &out));
  EXPECT_EQ(cache.stats().entries_invalidated_by_update, 1u);
  EXPECT_EQ(cache.stats().epoch_invalidations, 0u);
}

TEST(SemanticCacheTest, InsertExactlyOnBisectorInvalidates) {
  SemanticCache cache(kUnit, CacheConfig{});
  // The answer and rival are symmetric about x = 0.5, so the region
  // boundary (their bisector) is the bounds edge x = 0.5. Re-inserting a
  // point at the rival's position ties with the answer exactly on that
  // edge — the validity test is closed (keep wins ties), so the new
  // point joins the influence frontier there and the entry's encoded
  // region changes. A strict (>) predicate would wrongly retain it.
  const geo::Point answer{0.25, 0.5};
  const geo::Point rival{0.75, 0.5};
  const geo::Rect bounds(0.0, 0.0, 0.5, 1.0);
  cache.InsertNn(1, kUnit, bounds, {answer}, {{answer, rival}},
                 MakeBytes(8, 1));
  EXPECT_EQ(cache.InvalidateAt(rival, UpdateKind::kInsert), 1u);
  CachedBytes out;
  EXPECT_FALSE(cache.LookupNnShared({0.3, 0.5}, 1, &out));
}

TEST(SemanticCacheTest, NnDeleteKillsOnlyReferencedObjects) {
  SemanticCache cache(kUnit, CacheConfig{});
  const geo::Point answer{0.25, 0.5};
  const geo::Point rival{0.75, 0.5};
  const geo::Rect bounds(0.0, 0.0, 0.5, 1.0);
  cache.InsertNn(1, kUnit, bounds, {answer}, {{answer, rival}},
                 MakeBytes(8, 1));

  // Deleting an object the answer never referenced changes nothing.
  EXPECT_EQ(cache.InvalidateAt({0.2, 0.2}, UpdateKind::kDelete), 0u);
  CachedBytes out;
  EXPECT_TRUE(cache.LookupNnShared({0.3, 0.5}, 1, &out));

  // Deleting the influence rival changes the encoded region: killed.
  EXPECT_EQ(cache.InvalidateAt(rival, UpdateKind::kDelete), 1u);
  EXPECT_FALSE(cache.LookupNnShared({0.3, 0.5}, 1, &out));

  // Deleting the answer member itself kills too.
  cache.InsertNn(1, kUnit, bounds, {answer}, {{answer, rival}},
                 MakeBytes(8, 2));
  EXPECT_EQ(cache.InvalidateAt(answer, UpdateKind::kDelete), 1u);
}

TEST(SemanticCacheTest, UnderFilledNnAnswerDiesOnAnyInsert) {
  SemanticCache cache(kUnit, CacheConfig{});
  // k = 5 but the dataset held only two objects: the answer is "all
  // points", valid everywhere, and any insert anywhere joins it.
  cache.InsertNn(5, kUnit, kUnit, {{0.2, 0.2}, {0.8, 0.8}}, {},
                 MakeBytes(8, 1));
  CachedBytes out;
  ASSERT_TRUE(cache.LookupNnShared({0.5, 0.5}, 5, &out));
  EXPECT_EQ(cache.InvalidateAt({0.9, 0.1}, UpdateKind::kInsert), 1u);
  EXPECT_FALSE(cache.LookupNnShared({0.5, 0.5}, 5, &out));

  // Deleting a non-member leaves the all-points answer intact; deleting
  // a member kills it.
  cache.InsertNn(5, kUnit, kUnit, {{0.2, 0.2}, {0.8, 0.8}}, {},
                 MakeBytes(8, 2));
  EXPECT_EQ(cache.InvalidateAt({0.9, 0.1}, UpdateKind::kDelete), 0u);
  EXPECT_EQ(cache.InvalidateAt({0.8, 0.8}, UpdateKind::kDelete), 1u);
}

TEST(SemanticCacheTest, WindowKillPredicateIsDilatedBase) {
  SemanticCache cache(kUnit, CacheConfig{});
  // Base [0.3, 0.5]^2 with half-extents 0.1: an update interacts with
  // the answer iff its hx x hy box can reach the base, i.e. iff it lies
  // in the dilated base [0.2, 0.6]^2 (closed — the engine's candidate
  // window uses closed containment).
  InsertWindowRect(&cache, 0.1, 0.1, geo::Rect(0.3, 0.3, 0.5, 0.5),
                   MakeBytes(8, 1));
  EXPECT_EQ(cache.InvalidateAt({0.61, 0.3}, UpdateKind::kInsert), 0u);
  EXPECT_EQ(cache.InvalidateAt({0.61, 0.3}, UpdateKind::kDelete), 0u);
  CachedBytes out;
  EXPECT_TRUE(cache.LookupWindowShared({0.4, 0.4}, 0.1, 0.1, &out));
  EXPECT_EQ(cache.InvalidateAt({0.6, 0.6}, UpdateKind::kInsert), 1u);
  EXPECT_FALSE(cache.LookupWindowShared({0.4, 0.4}, 0.1, 0.1, &out));
}

TEST(SemanticCacheTest, RangeKillPredicateIsDilatedBounds) {
  SemanticCache cache(kUnit, CacheConfig{});
  // Region bounds [0.4, 0.6]^2 at radius 0.1: influence candidates come
  // from bounds.Dilated(r, r) = [0.3, 0.7]^2.
  geo::DiskRegion region(geo::Rect(0.4, 0.4, 0.6, 0.6),
                         {{{0.5, 0.5}, 0.05}}, {});
  cache.InsertRange(0.1, region, MakeBytes(8, 1));
  EXPECT_EQ(cache.InvalidateAt({0.75, 0.5}, UpdateKind::kInsert), 0u);
  CachedBytes out;
  EXPECT_TRUE(cache.LookupRangeShared({0.5, 0.5}, 0.1, &out));
  EXPECT_EQ(cache.InvalidateAt({0.65, 0.5}, UpdateKind::kDelete), 1u);
  EXPECT_FALSE(cache.LookupRangeShared({0.5, 0.5}, 0.1, &out));
}

TEST(SemanticCacheTest, InvalidateAtOutsideUniverseFallsBackToEpoch) {
  SemanticCache cache(kUnit, CacheConfig{});
  InsertWindowRect(&cache, 0.1, 0.1, geo::Rect(0.2, 0.2, 0.4, 0.4),
                   MakeBytes(8, 1));
  // The grid clamps out-of-universe points into border cells and could
  // miss entries; the cache must take the epoch path instead.
  EXPECT_EQ(cache.InvalidateAt({1.5, 0.5}, UpdateKind::kInsert), 0u);
  EXPECT_EQ(cache.stats().epoch_invalidations, 1u);
  CachedBytes out;
  EXPECT_FALSE(cache.LookupWindowShared({0.3, 0.3}, 0.1, 0.1, &out));
  EXPECT_EQ(cache.stats().stale_drops, 1u);
}

TEST(SemanticCacheTest, CellCompactionReclaimsDeadCapacity) {
  CacheConfig config;
  config.grid_resolution = 1;  // every entry lands in the single cell
  config.max_entries = 1u << 12;
  SemanticCache cache(kUnit, config);
  constexpr int kEntries = 100;
  for (int i = 0; i < kEntries; ++i) {
    const double lo = 0.001 * i;
    InsertWindowRect(&cache, 0.05, 0.05,
                     geo::Rect(lo, lo, lo + 0.05, lo + 0.05),
                     MakeBytes(8, static_cast<uint8_t>(i)));
  }
  ASSERT_EQ(cache.entries(), static_cast<size_t>(kEntries));
  EXPECT_EQ(cache.stats().cell_compactions, 0u);
  // Epoch-invalidate and scrub: the cell drains one swap-erase at a
  // time, and once it is mostly slack its capacity must be compacted
  // instead of pinning the 100-entry peak forever.
  cache.Invalidate();
  EXPECT_EQ(cache.Scrub(), static_cast<size_t>(kEntries));
  EXPECT_GT(cache.stats().cell_compactions, 0u);
  // The cache still works after compaction.
  InsertWindowRect(&cache, 0.05, 0.05, geo::Rect(0.2, 0.2, 0.3, 0.3),
                   MakeBytes(8, 1));
  CachedBytes out;
  EXPECT_TRUE(cache.LookupWindowShared({0.25, 0.25}, 0.05, 0.05, &out));
}

TEST(SemanticCacheTest, AccountingInvariantHolds) {
  CacheConfig config;
  config.max_entries = 16;  // force eviction churn
  SemanticCache cache(kUnit, config);
  CachedBytes out;
  for (int i = 0; i < 200; ++i) {
    const double lo = 0.004 * (i % 200);
    InsertWindowRect(&cache, 0.05, 0.05,
                     geo::Rect(lo, lo, lo + 0.05, lo + 0.05),
                     MakeBytes(8, static_cast<uint8_t>(i)));
    cache.LookupWindowShared({lo + 0.02, lo + 0.02}, 0.05, 0.05, &out);
    if (i % 31 == 0) cache.Invalidate();
    if (i % 7 == 0) {
      cache.InvalidateAt({lo, lo}, UpdateKind::kInsert);
    }
  }
  cache.Scrub();
  const CacheStats stats = cache.stats();
  // Every insert is accounted for exactly once: still live, evicted,
  // dropped stale, or killed by an update.
  EXPECT_EQ(stats.inserts,
            stats.evictions + stats.stale_drops +
                stats.entries_invalidated_by_update + stats.entries);
}

// Anti-drift pin for the shared kill-footprint definitions. The static
// NnKillFootprint / WindowKillFootprint / RangeKillFootprint helpers are
// the one definition of "which update points can kill this answer" —
// the cache registers entries under it, the partition router places
// boundary entries with it, and the push predictor derives corrective
// liability from it. If the cache's internal kill predicate ever grows
// beyond the shared definition, a subscription would miss a corrective
// push for an update the cache considers fatal. The property: every
// update point that actually kills an entry lies inside the shared
// footprint computed from the same inputs.
TEST(SemanticCacheTest, KillFootprintDefinitionsCoverEveryActualKill) {
  struct Probe {
    const char* name;
    geo::Rect footprint;
    std::function<void(SemanticCache*)> insert;
    std::function<bool(SemanticCache*)> present;
  };

  const std::vector<geo::Point> nn_answers{{0.45, 0.5}};
  const std::vector<BisectorConstraint> nn_constraints{
      {{0.45, 0.5}, {0.62, 0.5}}};
  const geo::Rect nn_bounds(0.3, 0.35, 0.6, 0.7);
  const geo::Rect window_base(0.2, 0.2, 0.5, 0.6);
  const geo::Rect range_bounds(0.3, 0.3, 0.7, 0.7);
  geo::DiskRegion range_region(range_bounds, {{{0.5, 0.5}, 0.2}}, {});

  std::vector<Probe> probes;
  probes.push_back(
      {"nn",
       SemanticCache::NnKillFootprint(1, kUnit, nn_bounds, nn_answers,
                                      nn_constraints),
       [&](SemanticCache* c) {
         c->InsertNn(1, kUnit, nn_bounds, nn_answers, nn_constraints,
                     MakeBytes(8, 1));
       },
       [&](SemanticCache* c) {
         CachedBytes out;
         return c->LookupNnShared({0.45, 0.5}, 1, &out);
       }});
  probes.push_back(
      {"window", SemanticCache::WindowKillFootprint(window_base, 0.05, 0.07),
       [&](SemanticCache* c) {
         c->InsertWindow(0.05, 0.07, geo::RectMinusBoxes(window_base, {}),
                         MakeBytes(8, 2));
       },
       [&](SemanticCache* c) {
         CachedBytes out;
         return c->LookupWindowShared({0.3, 0.4}, 0.05, 0.07, &out);
       }});
  probes.push_back(
      {"range", SemanticCache::RangeKillFootprint(range_bounds, 0.25),
       [&](SemanticCache* c) {
         c->InsertRange(0.25, range_region, MakeBytes(8, 3));
       },
       [&](SemanticCache* c) {
         CachedBytes out;
         return c->LookupRangeShared({0.5, 0.5}, 0.25, &out);
       }});

  for (const Probe& probe : probes) {
    SemanticCache cache(kUnit, CacheConfig{});
    probe.insert(&cache);
    ASSERT_TRUE(probe.present(&cache)) << probe.name;
    size_t kills = 0;
    for (int xi = 0; xi < 40; ++xi) {
      for (int yi = 0; yi < 40; ++yi) {
        const geo::Point p{(xi + 0.5) / 40.0, (yi + 0.5) / 40.0};
        for (const UpdateKind kind :
             {UpdateKind::kInsert, UpdateKind::kDelete}) {
          if (cache.InvalidateAt(p, kind) > 0) {
            EXPECT_TRUE(probe.footprint.Contains(p))
                << probe.name << " entry killed by an update at (" << p.x
                << ", " << p.y << ") outside its shared kill footprint";
            ++kills;
            probe.insert(&cache);
          }
        }
      }
    }
    // The sweep must actually exercise the kill path, or the pin is
    // vacuous.
    EXPECT_GT(kills, 0u) << probe.name;
  }
}

}  // namespace
}  // namespace lbsq::cache
