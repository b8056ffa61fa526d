#include "cache/semantic_cache.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"

namespace lbsq::cache {

namespace {

// Fixed per-entry overhead charged against the byte budget on top of the
// dynamic payloads: list node, hash-map slot, and the Entry struct
// itself. An estimate — the budget bounds memory order-of-magnitude, it
// is not an allocator audit.
constexpr size_t kEntryOverhead = sizeof(void*) * 8 + 256;

// Grid cell lists are swap-erased, so after heavy eviction/invalidation
// churn a cell that once held many entries pins its peak capacity even
// when nearly empty (the WriteQueue dead-prefix problem in vector
// clothes). A cell is reallocated to fit once it is mostly slack and the
// slack is worth reclaiming: capacity at least this many slots and
// occupancy at or below a quarter of it.
constexpr size_t kCellCompactionMinCapacity = 64;

size_t GeometryCharge(const std::vector<geo::Point>& nn_answers,
                      const std::vector<BisectorConstraint>& constraints,
                      const geo::RectMinusBoxes& window_region,
                      const geo::DiskRegion& range_region) {
  return nn_answers.size() * sizeof(geo::Point) +
         constraints.size() * sizeof(BisectorConstraint) +
         window_region.holes().size() * sizeof(geo::Rect) +
         (range_region.inner().size() + range_region.outer().size()) *
             sizeof(geo::DiskRegion::Disk);
}

}  // namespace

SemanticCache::SemanticCache(const geo::Rect& universe,
                             const CacheConfig& config)
    : universe_(universe),
      config_(config),
      grid_(config.grid_resolution > 0 ? config.grid_resolution : 1) {
  LBSQ_CHECK(!universe.IsEmpty());
  cells_.resize(grid_ * grid_);
  inval_cells_.resize(grid_ * grid_);
}

size_t SemanticCache::CellX(double x) const {
  const double w = universe_.width();
  if (w <= 0.0) return 0;
  const double t = (x - universe_.min_x) / w * static_cast<double>(grid_);
  const auto c = static_cast<long long>(t);
  if (c < 0) return 0;
  if (c >= static_cast<long long>(grid_)) return grid_ - 1;
  return static_cast<size_t>(c);
}

size_t SemanticCache::CellY(double y) const {
  const double h = universe_.height();
  if (h <= 0.0) return 0;
  const double t = (y - universe_.min_y) / h * static_cast<double>(grid_);
  const auto c = static_cast<long long>(t);
  if (c < 0) return 0;
  if (c >= static_cast<long long>(grid_)) return grid_ - 1;
  return static_cast<size_t>(c);
}

bool SemanticCache::Covers(const Entry& entry, const geo::Point& p) {
  switch (entry.kind) {
    case Kind::kNn:
      // Mirror NnValidityResult::IsValidAt exactly: every answer member
      // must stay at least as close as the rival that would displace it,
      // and the position must stay inside the universe. Any divergence
      // here would let the cache serve an answer the client's own check
      // rejects (an immediate re-query loop), so the arithmetic is kept
      // identical rather than delegated to the polygon.
      for (const BisectorConstraint& c : entry.constraints) {
        if (geo::SquaredDistance(p, c.keep) > geo::SquaredDistance(p, c.rival))
          return false;
      }
      return entry.nn_universe.Contains(p);
    case Kind::kWindow:
      return entry.window_region.Contains(p);
    case Kind::kRange:
      return entry.range_region.Contains(p);
  }
  return false;
}

bool SemanticCache::AffectedByUpdate(const Entry& entry, const geo::Point& p,
                                     UpdateKind kind) {
  switch (entry.kind) {
    case Kind::kNn: {
      if (kind == UpdateKind::kInsert) {
        // With fewer than k objects cached (dataset smaller than k),
        // any insert joins the answer set everywhere.
        if (entry.nn_answers.size() < static_cast<size_t>(entry.param_a))
          return true;
        // The new object kills the entry iff it could displace (or tie)
        // an answer member somewhere in the validity region V: exists
        // q in V and answer a with d^2(q,a) >= d^2(q,p). The
        // discriminant d^2(q,a) - d^2(q,p) is linear in q, so its max
        // over the bounding rect (>= its max over V) is attained at a
        // corner — four evaluations decide the whole rect exactly. >=
        // kills ties: the validity test is closed (keep wins ties), so
        // a point landing exactly on a bisector joins the influence
        // frontier and changes the encoded region.
        const geo::Point corners[4] = {
            {entry.bounds.min_x, entry.bounds.min_y},
            {entry.bounds.min_x, entry.bounds.max_y},
            {entry.bounds.max_x, entry.bounds.min_y},
            {entry.bounds.max_x, entry.bounds.max_y}};
        for (const geo::Point& a : entry.nn_answers) {
          for (const geo::Point& c : corners) {
            if (geo::SquaredDistance(c, a) >= geo::SquaredDistance(c, p))
              return true;
          }
        }
        return false;
      }
      // Delete: the bytes reference only the answer members and the
      // influence pairs; removing any other object changes neither the
      // k nearest at any q in V nor which rivals are minimal.
      for (const geo::Point& a : entry.nn_answers) {
        if (a.x == p.x && a.y == p.y) return true;
      }
      for (const BisectorConstraint& c : entry.constraints) {
        if ((c.keep.x == p.x && c.keep.y == p.y) ||
            (c.rival.x == p.x && c.rival.y == p.y))
          return true;
      }
      return false;
    }
    case Kind::kWindow:
      // Insert and delete alike: the engine collects every hole
      // candidate from base.Dilated(hx, hy) (window_validity.cc), and
      // the inner rect depends only on the result set and focus — an
      // object that cannot reach the dilated base appears nowhere in
      // the encoding.
      return entry.window_region.base()
          .Dilated(entry.param_a, entry.param_b)
          .Contains(p);
    case Kind::kRange:
      // Insert and delete alike: the engine fetches its outer candidates
      // from the candidate window of the bounds (range_validity.cc), and
      // its result from the candidate window of the focus, inside it.
      return RangeKillFootprint(entry.range_region.bounds(), entry.param_a)
          .Contains(p);
  }
  return true;
}

geo::Rect SemanticCache::NnKillFootprint(
    size_t k, const geo::Rect& universe, const geo::Rect& bounds,
    const std::vector<geo::Point>& answers,
    const std::vector<BisectorConstraint>& constraints) {
  // Under-filled answers die on any insert: the footprint is everything.
  if (answers.size() < k) return universe;
  // Insert-kill points lie within max corner-to-answer distance of
  // a bounds corner; delete-kill points are the stored answer /
  // keep / rival positions themselves, all within the same reach
  // (keeps are answers; rivals enter the max below).
  double reach2 = 0.0;
  const geo::Point corners[4] = {{bounds.min_x, bounds.min_y},
                                 {bounds.min_x, bounds.max_y},
                                 {bounds.max_x, bounds.min_y},
                                 {bounds.max_x, bounds.max_y}};
  for (const geo::Point& c : corners) {
    for (const geo::Point& a : answers) {
      reach2 = std::max(reach2, geo::SquaredDistance(c, a));
    }
    for (const BisectorConstraint& bc : constraints) {
      reach2 = std::max(reach2, geo::SquaredDistance(c, bc.keep));
      reach2 = std::max(reach2, geo::SquaredDistance(c, bc.rival));
    }
  }
  const double reach = std::sqrt(reach2);
  return bounds.Dilated(reach, reach);
}

geo::Rect SemanticCache::WindowKillFootprint(const geo::Rect& base, double hx,
                                             double hy) {
  return base.Dilated(hx, hy);
}

geo::Rect SemanticCache::RangeKillFootprint(const geo::Rect& bounds,
                                            double radius) {
  return geo::RangeCandidateWindow(bounds, radius);
}

geo::Rect SemanticCache::KillFootprint(const Entry& entry) const {
  switch (entry.kind) {
    case Kind::kNn:
      return NnKillFootprint(static_cast<size_t>(entry.param_a), universe_,
                             entry.bounds, entry.nn_answers,
                             entry.constraints);
    case Kind::kWindow:
      return WindowKillFootprint(entry.window_region.base(), entry.param_a,
                                 entry.param_b);
    case Kind::kRange:
      return RangeKillFootprint(entry.range_region.bounds(), entry.param_a);
  }
  return universe_;
}

bool SemanticCache::Lookup(Kind kind, double a, double b, const geo::Point& p,
                           CachedBytes* out) {
  ++counters_.lookups;
  std::vector<uint64_t>& cell = cells_[CellIndex(CellX(p.x), CellY(p.y))];
  // First covering entry wins: any covering entry is an equally valid
  // answer for a client at p, so there is nothing to rank.
  size_t i = 0;
  while (i < cell.size()) {
    const auto it = index_.find(cell[i]);
    LBSQ_DCHECK(it != index_.end());
    EntryList::iterator entry_it = it->second;
    if (entry_it->epoch != epoch_) {
      // Lazy invalidation: drop the stale entry; the swap-erase refilled
      // slot i, so do not advance.
      RemoveEntry(entry_it, RemoveCause::kStale);
      continue;
    }
    if (entry_it->kind == kind && entry_it->param_a == a &&
        entry_it->param_b == b && Covers(*entry_it, p)) {
      entries_.splice(entries_.begin(), entries_, entry_it);  // touch
      ++counters_.hits;
      counters_.hit_bytes += entry_it->bytes->size();
      *out = entry_it->bytes;
      return true;
    }
    ++i;
  }
  ++counters_.misses;
  return false;
}

bool SemanticCache::LookupNnShared(const geo::Point& p, size_t k,
                                   CachedBytes* out) {
  return Lookup(Kind::kNn, static_cast<double>(k), 0.0, p, out);
}

bool SemanticCache::LookupWindowShared(const geo::Point& p, double hx,
                                       double hy, CachedBytes* out) {
  return Lookup(Kind::kWindow, hx, hy, p, out);
}

bool SemanticCache::LookupRangeShared(const geo::Point& p, double radius,
                                      CachedBytes* out) {
  return Lookup(Kind::kRange, radius, 0.0, p, out);
}

void SemanticCache::Insert(Entry entry, const geo::Rect& bounds) {
  LBSQ_DCHECK(entry.bytes != nullptr);
  entry.charge = entry.bytes->size() + kEntryOverhead +
                 GeometryCharge(entry.nn_answers, entry.constraints,
                                entry.window_region, entry.range_region);
  const geo::Rect clipped = bounds.Intersection(universe_);
  if (clipped.IsEmpty() || entry.charge > config_.max_bytes ||
      config_.max_entries == 0) {
    ++counters_.rejected;
    return;
  }
  entry.bounds = clipped;
  entry.cx0 = CellX(clipped.min_x);
  entry.cy0 = CellY(clipped.min_y);
  entry.cx1 = CellX(clipped.max_x);
  entry.cy1 = CellY(clipped.max_y);
  // Every update point that could kill the entry lies in its kill
  // footprint (and in the universe — outside updates fall back to the
  // epoch path), so clipping before registering loses nothing.
  const geo::Rect inval = KillFootprint(entry).Intersection(universe_);
  LBSQ_DCHECK(!inval.IsEmpty());
  entry.ix0 = CellX(inval.min_x);
  entry.iy0 = CellY(inval.min_y);
  entry.ix1 = CellX(inval.max_x);
  entry.iy1 = CellY(inval.max_y);
  entry.charge += ((entry.cx1 - entry.cx0 + 1) * (entry.cy1 - entry.cy0 + 1) +
                   (entry.ix1 - entry.ix0 + 1) * (entry.iy1 - entry.iy0 + 1)) *
                  sizeof(uint64_t);
  if (entry.charge > config_.max_bytes) {
    ++counters_.rejected;
    return;
  }
  entry.id = next_id_++;
  entry.epoch = epoch_;
  bytes_ += entry.charge;
  entries_.push_front(std::move(entry));
  index_.emplace(entries_.front().id, entries_.begin());
  AddToGrid(entries_.front());
  ++counters_.inserts;
  EvictOverBudget();
}

void SemanticCache::InsertNn(size_t k, const geo::Rect& universe,
                             const geo::Rect& bounds,
                             std::vector<geo::Point> answers,
                             std::vector<BisectorConstraint> constraints,
                             CachedBytes bytes) {
  Entry entry;
  entry.kind = Kind::kNn;
  entry.param_a = static_cast<double>(k);
  entry.nn_universe = universe;
  entry.nn_answers = std::move(answers);
  entry.constraints = std::move(constraints);
  entry.bytes = std::move(bytes);
  Insert(std::move(entry), bounds);
}

void SemanticCache::InsertWindow(double hx, double hy,
                                 geo::RectMinusBoxes region,
                                 CachedBytes bytes) {
  Entry entry;
  entry.kind = Kind::kWindow;
  entry.param_a = hx;
  entry.param_b = hy;
  const geo::Rect bounds = region.base();
  entry.window_region = std::move(region);
  entry.bytes = std::move(bytes);
  Insert(std::move(entry), bounds);
}

void SemanticCache::InsertRange(double radius, geo::DiskRegion region,
                                CachedBytes bytes) {
  Entry entry;
  entry.kind = Kind::kRange;
  entry.param_a = radius;
  const geo::Rect bounds = region.bounds();
  entry.range_region = std::move(region);
  entry.bytes = std::move(bytes);
  Insert(std::move(entry), bounds);
}

void SemanticCache::AddToGrid(const Entry& entry) {
  for (size_t cy = entry.cy0; cy <= entry.cy1; ++cy) {
    for (size_t cx = entry.cx0; cx <= entry.cx1; ++cx) {
      cells_[CellIndex(cx, cy)].push_back(entry.id);
    }
  }
  for (size_t cy = entry.iy0; cy <= entry.iy1; ++cy) {
    for (size_t cx = entry.ix0; cx <= entry.ix1; ++cx) {
      inval_cells_[CellIndex(cx, cy)].push_back(entry.id);
    }
  }
}

void SemanticCache::EraseFromCell(std::vector<uint64_t>& cell, uint64_t id) {
  for (size_t i = 0; i < cell.size(); ++i) {
    if (cell[i] == id) {
      cell[i] = cell.back();  // swap-erase: cells are unordered
      cell.pop_back();
      break;
    }
  }
  if (cell.capacity() >= kCellCompactionMinCapacity &&
      cell.size() * 4 <= cell.capacity()) {
    // Copy-and-swap instead of shrink_to_fit: the latter is a
    // non-binding request. Live iterations index the cell vector object,
    // not its buffer, so reallocating here is safe.
    std::vector<uint64_t>(cell.begin(), cell.end()).swap(cell);
    ++counters_.cell_compactions;
  }
}

void SemanticCache::RemoveFromGrid(const Entry& entry) {
  for (size_t cy = entry.cy0; cy <= entry.cy1; ++cy) {
    for (size_t cx = entry.cx0; cx <= entry.cx1; ++cx) {
      EraseFromCell(cells_[CellIndex(cx, cy)], entry.id);
    }
  }
  for (size_t cy = entry.iy0; cy <= entry.iy1; ++cy) {
    for (size_t cx = entry.ix0; cx <= entry.ix1; ++cx) {
      EraseFromCell(inval_cells_[CellIndex(cx, cy)], entry.id);
    }
  }
}

void SemanticCache::RemoveEntry(EntryList::iterator it, RemoveCause cause) {
  RemoveFromGrid(*it);
  LBSQ_DCHECK(bytes_ >= it->charge);
  bytes_ -= it->charge;
  index_.erase(it->id);
  entries_.erase(it);
  switch (cause) {
    case RemoveCause::kEvicted:
      ++counters_.evictions;
      break;
    case RemoveCause::kStale:
      ++counters_.stale_drops;
      break;
    case RemoveCause::kUpdate:
      ++counters_.entries_invalidated_by_update;
      break;
  }
}

void SemanticCache::EvictOverBudget() {
  while (!entries_.empty() && (entries_.size() > config_.max_entries ||
                               bytes_ > config_.max_bytes)) {
    RemoveEntry(std::prev(entries_.end()), RemoveCause::kEvicted);
  }
}

size_t SemanticCache::InvalidateAt(const geo::Point& p, UpdateKind kind) {
  if (!universe_.Contains(p)) {
    // The grid clamps out-of-universe coordinates into border cells, so
    // a far-away update could miss entries it should kill; such updates
    // (rare — the universe is the data space) take the epoch path.
    Invalidate();
    return 0;
  }
  std::vector<uint64_t>& cell =
      inval_cells_[CellIndex(CellX(p.x), CellY(p.y))];
  size_t killed = 0;
  size_t i = 0;
  while (i < cell.size()) {
    const auto it = index_.find(cell[i]);
    LBSQ_DCHECK(it != index_.end());
    EntryList::iterator entry_it = it->second;
    if (entry_it->epoch != epoch_) {
      // Sweep stale entries in passing, same as Lookup; slot i was
      // refilled by the swap-erase, so do not advance.
      RemoveEntry(entry_it, RemoveCause::kStale);
      continue;
    }
    if (AffectedByUpdate(*entry_it, p, kind)) {
      RemoveEntry(entry_it, RemoveCause::kUpdate);
      ++killed;
      continue;
    }
    ++i;
  }
  return killed;
}

void SemanticCache::Invalidate() {
  ++epoch_;
  ++counters_.epoch_invalidations;
}

size_t SemanticCache::Scrub() {
  size_t dropped = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    const auto next = std::next(it);
    if (it->epoch != epoch_) {
      RemoveEntry(it, RemoveCause::kStale);
      ++dropped;
    }
    it = next;
  }
  return dropped;
}

void SemanticCache::Clear() {
  for (std::vector<uint64_t>& cell : cells_) cell.clear();
  for (std::vector<uint64_t>& cell : inval_cells_) cell.clear();
  entries_.clear();
  index_.clear();
  bytes_ = 0;
}

CacheStats SemanticCache::stats() const {
  CacheStats stats = counters_;
  stats.entries = entries_.size();
  stats.bytes = bytes_;
  return stats;
}

void SemanticCache::ResetCounters() { counters_ = {}; }

}  // namespace lbsq::cache
