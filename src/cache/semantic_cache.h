#ifndef LBSQ_CACHE_SEMANTIC_CACHE_H_
#define LBSQ_CACHE_SEMANTIC_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "geometry/disk_region.h"
#include "geometry/point.h"
#include "geometry/rect.h"
#include "geometry/region.h"

// Server-side semantic answer cache keyed by validity regions.
//
// The paper's central artifact — a validity region V(q) proving the
// answer is constant for every point inside it — is exactly a cache key:
// when millions of mobile clients cluster in the same cells, the server
// can hand the second client in a cell the *already-encoded* wire bytes
// of the first client's answer without touching the R-tree or the page
// store at all. This is the server-side dual of the paper's client-side
// region check (and of the influence-set reuse in INSQ-style moving-kNN
// serving): the same geometry that saves the wireless link also saves
// the server's I/O.
//
// Design:
//   * Entries store the completed answer's wire encoding plus the exact
//     membership test of its validity geometry — the bisector
//     constraints of a k-NN answer (what NnValidityResult::IsValidAt
//     evaluates), the inner-rectangle-minus-holes region of a window
//     answer, the arc-bounded region of a range answer. A hit therefore
//     serves bytes that the *client's own* validity check accepts at its
//     position; the cache can never hand out an answer the client would
//     immediately re-query.
//   * A uniform grid over the universe maps cells -> candidate entries,
//     so a lookup is O(cell occupancy) point-in-region tests instead of
//     a scan (the multi-layer point-in-cell idea of Voronoi-index NN
//     serving, applied to dynamically discovered cells).
//   * LRU eviction bounded by entry count and byte budget, same
//     list-plus-hash-map model as storage::LruBufferPool.
//   * Two invalidation paths. Region-scoped (InvalidateAt): a dataset
//     insert/delete at point p kills exactly the entries whose answer
//     bytes the update can change — the per-kind predicates are derived
//     from the same arithmetic as the validity tests (see the
//     "invalidation lattice" section of DESIGN.md) and looked up through
//     a second grid registration covering each entry's kill footprint.
//     Epoch (Invalidate): bumps the data epoch so *every* current entry
//     becomes stale — the fallback for BulkLoad and for updates the
//     serving layer cannot attribute to a point (stale entries are
//     rejected and dropped lazily on lookup; Scrub() purges eagerly).
//
// SemanticCache is single-threaded: the serving pipeline
// (core/serving_pipeline.h) uses its caches from the one serving thread.

namespace lbsq::cache {

struct CacheConfig {
  // Master switch: serving layers skip every cache interaction when
  // false (the measurement baseline).
  bool enabled = true;
  // LRU bounds: maximum live entries and maximum total charged bytes
  // (wire bytes + geometry payload + index bookkeeping).
  size_t max_entries = 4096;
  size_t max_bytes = 4u << 20;
  // Uniform grid resolution (cells per axis) of the spatial index.
  size_t grid_resolution = 64;
  // The serving pipeline's invalidation rule: kill per update via
  // InvalidateAt when the change is attributed to points (the RTree
  // update log, PartitionedServer's Insert/Delete); false forces the
  // epoch sledgehammer — the pre-region-scoping differential twin.
  bool region_scoped = true;
};

// Cumulative counters since construction or ResetCounters(); entries and
// bytes are the current occupancy at the time stats() was called.
// Accounting invariant (absent Clear()):
//   inserts == evictions + stale_drops + entries_invalidated_by_update
//              + entries
struct CacheStats {
  uint64_t lookups = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;
  uint64_t evictions = 0;            // LRU/budget evictions
  uint64_t epoch_invalidations = 0;  // epoch bumps (Invalidate calls)
  // Entries killed surgically by InvalidateAt (region-scoped path).
  uint64_t entries_invalidated_by_update = 0;
  uint64_t stale_drops = 0;    // stale entries dropped (lazily or Scrub)
  uint64_t rejected = 0;       // inserts refused (oversize / empty region)
  uint64_t hit_bytes = 0;      // wire bytes served from cache
  uint64_t cell_compactions = 0;  // grid cell lists shrunk after churn
  size_t entries = 0;
  size_t bytes = 0;

  // Field-wise sum, for totals over several caches.
  CacheStats& operator+=(const CacheStats& o) {
    lookups += o.lookups;
    hits += o.hits;
    misses += o.misses;
    inserts += o.inserts;
    evictions += o.evictions;
    epoch_invalidations += o.epoch_invalidations;
    entries_invalidated_by_update += o.entries_invalidated_by_update;
    stale_drops += o.stale_drops;
    rejected += o.rejected;
    hit_bytes += o.hit_bytes;
    cell_compactions += o.cell_compactions;
    entries += o.entries;
    bytes += o.bytes;
    return *this;
  }
};

// One bisector constraint of a k-NN validity cell: the position is valid
// while `keep` (an answer member) is at least as close as `rival` (the
// influence object that would displace it) — the exact per-pair test of
// NnValidityResult::IsValidAt.
struct BisectorConstraint {
  geo::Point keep;
  geo::Point rival;
};

// What a dataset update did at its point, for InvalidateAt. Mirrors
// rtree::UpdateKind (the cache does not depend on the rtree layer).
enum class UpdateKind : uint8_t { kInsert, kDelete };

// Cached wire payloads are immutable and reference-counted: a hit can
// hand out the stored bytes without copying, and a holder (the serving
// layer's in-flight iovec queue) keeps them alive even if the entry is
// evicted or invalidated before the socket drains them.
using CachedBytes = std::shared_ptr<const std::vector<uint8_t>>;

inline CachedBytes MakeCachedBytes(std::vector<uint8_t> bytes) {
  return std::make_shared<const std::vector<uint8_t>>(std::move(bytes));
}

class SemanticCache {
 public:
  // `universe` is the data space every query point lies in; the grid
  // covers it. The config is fixed at construction.
  SemanticCache(const geo::Rect& universe, const CacheConfig& config);

  SemanticCache(const SemanticCache&) = delete;
  SemanticCache& operator=(const SemanticCache&) = delete;

  // -- Lookup --------------------------------------------------------------
  // Each lookup finds the most recently used live entry whose query
  // parameters match exactly and whose validity region contains `p`; on a
  // hit the entry is touched and *out shares its stored payload without
  // copying (the reference keeps it alive past eviction). Returns true on
  // hit.
  bool LookupNnShared(const geo::Point& p, size_t k, CachedBytes* out);
  bool LookupWindowShared(const geo::Point& p, double hx, double hy,
                          CachedBytes* out);
  bool LookupRangeShared(const geo::Point& p, double radius,
                         CachedBytes* out);

  // -- Insert --------------------------------------------------------------
  // Registers a completed answer under its validity geometry. `bounds`
  // must contain the region (entries are indexed by the grid cells the
  // bounds overlap); `answers` are the positions of the k result objects
  // (region-scoped invalidation tests inserts against them); `bytes` is
  // the encoded wire answer served verbatim on a hit. Inserts that could
  // never fit (charge > max_bytes) or whose bounds are empty are rejected
  // and counted.
  void InsertNn(size_t k, const geo::Rect& universe, const geo::Rect& bounds,
                std::vector<geo::Point> answers,
                std::vector<BisectorConstraint> constraints,
                CachedBytes bytes);
  void InsertWindow(double hx, double hy, geo::RectMinusBoxes region,
                    CachedBytes bytes);
  void InsertRange(double radius, geo::DiskRegion region, CachedBytes bytes);

  // -- Kill footprints -----------------------------------------------------
  // The kill footprint of an entry is the closed set of update positions
  // that can possibly invalidate it (the rectangle InvalidateAt registers
  // the entry under). Exposed as pure functions of the entry geometry so
  // other layers reasoning about an answer's blast radius — the sharded
  // serving layer deciding whether an entry stays inside one fragment's
  // territory, the push registry deciding whether an update forces a
  // corrective push — share one definition with the cache's own
  // registration (semantic_cache_test pins them together). The NN helper
  // takes the full query context so the under-filled rule lives here too:
  // with fewer than k answers (dataset smaller than k) any insert joins
  // the answer set everywhere, so the footprint is the whole universe.
  static geo::Rect NnKillFootprint(
      size_t k, const geo::Rect& universe, const geo::Rect& bounds,
      const std::vector<geo::Point>& answers,
      const std::vector<BisectorConstraint>& constraints);
  static geo::Rect WindowKillFootprint(const geo::Rect& base, double hx,
                                       double hy);
  static geo::Rect RangeKillFootprint(const geo::Rect& bounds, double radius);

  // -- Invalidation --------------------------------------------------------
  // Region-scoped invalidation for one dataset update at `p`: eagerly
  // removes exactly the live entries whose kill predicate fires (see
  // DESIGN.md "invalidation lattice" — a k-NN entry dies only if the new
  // point can beat an answer member somewhere in its region, or the
  // deleted point is one of its answer/influence objects; window/range
  // entries die only if the update can enter their candidate windows).
  // An update outside the universe falls back to Invalidate() — the grid
  // cannot scope it. Returns the number of entries removed by the
  // predicate (stale entries swept in passing count as stale drops).
  size_t InvalidateAt(const geo::Point& p, UpdateKind kind);

  // Bumps the cache epoch: every current entry becomes stale and is
  // rejected (and dropped) by subsequent lookups. The serving layer calls
  // this when the dataset changed in a way it cannot attribute to
  // individual update points (BulkLoad, trimmed update log).
  void Invalidate();

  // Eagerly purges every stale entry; returns how many were dropped.
  size_t Scrub();

  // Drops everything (entries only; counters and epoch unchanged).
  void Clear();

  uint64_t epoch() const { return epoch_; }
  size_t entries() const { return entries_.size(); }
  size_t bytes() const { return bytes_; }
  const CacheConfig& config() const { return config_; }
  const geo::Rect& universe() const { return universe_; }

  CacheStats stats() const;
  void ResetCounters();

 private:
  enum class Kind : uint8_t { kNn, kWindow, kRange };
  enum class RemoveCause : uint8_t { kEvicted, kStale, kUpdate };

  struct Entry {
    uint64_t id = 0;
    uint64_t epoch = 0;
    Kind kind = Kind::kNn;
    // Exact-match query parameters: (k, 0) / (hx, hy) / (radius, 0).
    double param_a = 0.0;
    double param_b = 0.0;
    // Universe-clipped bounding rect of the validity region (the kill
    // predicate's corner tests run against it).
    geo::Rect bounds;
    // Lookup-grid cell range covered by `bounds` (inclusive).
    size_t cx0 = 0, cy0 = 0, cx1 = 0, cy1 = 0;
    // Invalidation-grid cell range covered by the kill footprint — the
    // (larger) rect containing every update point whose predicate could
    // fire for this entry (inclusive).
    size_t ix0 = 0, iy0 = 0, ix1 = 0, iy1 = 0;
    // Validity geometry (one of, by kind).
    geo::Rect nn_universe;                          // kNn
    std::vector<geo::Point> nn_answers;             // kNn: result positions
    std::vector<BisectorConstraint> constraints;    // kNn
    geo::RectMinusBoxes window_region;              // kWindow
    geo::DiskRegion range_region;                   // kRange
    // The answer: encoded wire bytes, served verbatim (shared so a hit
    // needs no copy and in-flight holders survive eviction).
    CachedBytes bytes;
    // Byte accounting charge (bytes + geometry + index bookkeeping).
    size_t charge = 0;
  };
  using EntryList = std::list<Entry>;  // front = most recently used

  bool Lookup(Kind kind, double a, double b, const geo::Point& p,
              CachedBytes* out);
  void Insert(Entry entry, const geo::Rect& bounds);
  // True when `p` satisfies the entry's validity test.
  static bool Covers(const Entry& entry, const geo::Point& p);
  // True when an update of `kind` at `p` can change the entry's answer
  // bytes (the per-kind kill predicate).
  static bool AffectedByUpdate(const Entry& entry, const geo::Point& p,
                               UpdateKind kind);
  // The rect containing every update point that could kill `entry`
  // (already clipped bounds in hand); clipped to the universe by Insert.
  geo::Rect KillFootprint(const Entry& entry) const;
  // Registers/unregisters the entry id in every cell of both grids.
  void AddToGrid(const Entry& entry);
  void RemoveFromGrid(const Entry& entry);
  // Swap-erases `id` from one cell list, compacting the list's capacity
  // when mostly dead (see kCellCompactionMinCapacity in the .cc).
  void EraseFromCell(std::vector<uint64_t>& cell, uint64_t id);
  void RemoveEntry(EntryList::iterator it, RemoveCause cause);
  void EvictOverBudget();

  size_t CellIndex(size_t cx, size_t cy) const { return cy * grid_ + cx; }
  size_t CellX(double x) const;
  size_t CellY(double y) const;

  geo::Rect universe_;
  CacheConfig config_;
  size_t grid_;  // cells per axis (>= 1)
  uint64_t epoch_ = 0;
  uint64_t next_id_ = 0;
  size_t bytes_ = 0;
  EntryList entries_;
  std::unordered_map<uint64_t, EntryList::iterator> index_;
  // Two parallel grids over the universe (grid_ * grid_ id lists each):
  // cells_ indexes entries by their region bounds (lookup: which entries
  // might cover a query point), inval_cells_ by their kill footprint
  // (InvalidateAt: which entries might die from an update at a point).
  // Keeping them separate keeps the hot lookup path's cells small — kill
  // footprints are strictly larger than region bounds.
  std::vector<std::vector<uint64_t>> cells_;
  std::vector<std::vector<uint64_t>> inval_cells_;

  // The cumulative counters; stats() fills in entries and bytes.
  CacheStats counters_;
};

}  // namespace lbsq::cache

#endif  // LBSQ_CACHE_SEMANTIC_CACHE_H_
