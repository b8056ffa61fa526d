#ifndef LBSQ_STORAGE_LRU_BUFFER_POOL_H_
#define LBSQ_STORAGE_LRU_BUFFER_POOL_H_

#include <cstdint>
#include <list>

#include "storage/page.h"
#include "storage/page_index.h"
#include "storage/page_store.h"

// LRU page buffer with midpoint insertion. The paper's cost experiments
// (Figures 27, 28, 34, 35) report both node accesses (every logical
// fetch) and page accesses (fetches that miss an LRU buffer sized at 10%
// of the R-tree). This pool produces both numbers: `Fetch` counts a node
// access, and misses fall through to the PageManager whose read counter
// is the page-access count.
//
// Replacement policy: the frame list is split into a *young* (hot)
// sublist at the front and an *old* sublist at the tail, with the old
// sublist kept at 3/8 of the capacity (the InnoDB/RonDB buf0buf
// midpoint). A missed page is inserted at the head of the old sublist,
// not at the global MRU position; only a subsequent hit promotes it to
// the young head. Eviction always takes the global tail. A one-touch
// scan (bulk load, table scan, a range query sweeping leaves) therefore
// cycles through the old 3/8 of the pool and cannot displace the young
// sublist, while genuinely re-referenced pages earn their promotion.
// The young_evictions() counter reports how often a promoted page was
// evicted anyway — the scan-resistance proof is that it stays at zero
// while a scan churns the old sublist.

namespace lbsq::storage {

class LruBufferPool {
 public:
  // `capacity` = number of buffered pages; 0 disables caching (every fetch
  // is a miss). The pool does not own the manager.
  LruBufferPool(PageStore* manager, size_t capacity);

  LruBufferPool(const LruBufferPool&) = delete;
  LruBufferPool& operator=(const LruBufferPool&) = delete;

  ~LruBufferPool();

  // Returns a read-only view of the page, valid until the next non-const
  // call on this pool. Counts one logical access; on miss, one physical
  // read against the manager.
  const Page& Fetch(PageId id);

  // Writes through the pool: updates the cached copy (if any, marking it
  // dirty for statistics symmetry) and schedules the physical write at
  // eviction/flush. Counts one logical access.
  void Write(PageId id, const Page& page);

  // In-place variant of Write: returns the cached frame's page for the
  // caller to serialize into directly, skipping the intermediate page
  // copy (on a miss the frame starts zeroed, exactly like a fresh Page).
  // Accounting is identical to Write — one logical access plus the same
  // hit/miss bookkeeping — and the frame is marked dirty. Returns nullptr
  // when caching is disabled (capacity 0); callers fall back to Write().
  // The pointer is invalidated by the next call on this pool.
  Page* MutablePage(PageId id);

  // Drops the page from the pool (e.g. after Free) without writing back.
  void Discard(PageId id);

  // Writes back all dirty pages (physical writes) and keeps them cached.
  void FlushAll();

  // Empties the pool, writing back dirty pages. Counters are unchanged.
  void Clear();

  // Changes the capacity (evicting as needed). Used when the tree size is
  // known only after bulk loading and the buffer must be 10% of it.
  void Resize(size_t capacity);

  uint64_t logical_accesses() const { return logical_accesses_; }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

  // Midpoint-policy counters: frames inserted at the old-sublist head,
  // old frames promoted young by a hit, and evictions that hit a young
  // (promoted) frame — the last stays 0 while scans churn the old
  // sublist, which is the scan-resistance claim in numbers.
  uint64_t midpoint_insertions() const { return midpoint_insertions_; }
  uint64_t promotions() const { return promotions_; }
  uint64_t young_evictions() const { return young_evictions_; }

  void ResetCounters() {
    logical_accesses_ = hits_ = misses_ = 0;
    midpoint_insertions_ = promotions_ = young_evictions_ = 0;
  }

  size_t capacity() const { return capacity_; }
  size_t size() const { return map_.size(); }
  // Current length of the old sublist (the scan-cycling 3/8).
  size_t old_sublist_size() const { return old_len_; }

 private:
  struct Frame {
    PageId id;
    Page page;
    bool dirty = false;
    bool young = false;  // promoted past the midpoint by a hit
  };
  using FrameList = std::list<Frame>;

  // Desired old-sublist length: 3/8 of capacity, at least one frame so
  // a miss never lands directly on the young head.
  size_t OldTarget() const {
    const size_t t = capacity_ * 3 / 8;
    return t > 0 ? t : 1;
  }

  // Moves the frame to the young MRU position (promoting it if it was
  // old) and returns it.
  Frame& Touch(FrameList::iterator it);
  // Inserts a frame for `id` at the old-sublist head and returns its
  // iterator. When the pool is full it evicts first and reuses the
  // victim's node, page included, so the frame can never be its own
  // victim; the page's bytes are then unspecified (a new node starts
  // zeroed), and every caller overwrites or clears them.
  FrameList::iterator InsertFrame(PageId id, bool dirty);
  // Evicts the global tail (old tail when the old sublist is nonempty):
  // writes it back if dirty and drops it from the map and the sublist
  // bookkeeping, but leaves its node in the list for the caller to
  // erase or reuse.
  FrameList::iterator UnlinkVictim();
  void EvictOne();
  void EvictIfNeeded();
  // Refills the old sublist up to OldTarget() by demoting young-tail
  // frames in place (the boundary slides forward; nothing moves).
  void Rebalance();
  void WriteBack(Frame& frame);

  PageStore* manager_;
  size_t capacity_;
  FrameList frames_;  // front = young MRU, back = eviction victim
  // Head of the old sublist ([old_begin_, end())); end() when empty.
  FrameList::iterator old_begin_ = frames_.end();
  size_t old_len_ = 0;
  PageIndex<FrameList::iterator> map_;
  uint64_t logical_accesses_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t midpoint_insertions_ = 0;
  uint64_t promotions_ = 0;
  uint64_t young_evictions_ = 0;
};

}  // namespace lbsq::storage

#endif  // LBSQ_STORAGE_LRU_BUFFER_POOL_H_
