#include "storage/lru_buffer_pool.h"

#include <iterator>
#include <utility>

#include "common/check.h"

namespace lbsq::storage {

LruBufferPool::LruBufferPool(PageStore* manager, size_t capacity)
    : manager_(manager), capacity_(capacity) {
  LBSQ_CHECK(manager != nullptr);
}

LruBufferPool::~LruBufferPool() { FlushAll(); }

const Page& LruBufferPool::Fetch(PageId id) {
  ++logical_accesses_;
  if (capacity_ == 0) {
    // Unbuffered mode: read straight through (the map is always empty, so
    // no lookup is needed — every access is a miss). The returned
    // reference stays valid because PageManager storage is stable.
    ++misses_;
    return manager_->ReadRef(id);
  }
  if (auto* it = map_.Find(id)) {
    ++hits_;
    return Touch(*it).page;
  }
  ++misses_;
  const FrameList::iterator it = InsertFrame(id, /*dirty=*/false);
  manager_->Read(id, &it->page);
  return it->page;
}

void LruBufferPool::Write(PageId id, const Page& page) {
  ++logical_accesses_;
  if (capacity_ == 0) {
    manager_->Write(id, page);
    return;
  }
  if (auto* it = map_.Find(id)) {
    ++hits_;
    Frame& frame = Touch(*it);
    frame.page = page;
    frame.dirty = true;
    return;
  }
  ++misses_;
  InsertFrame(id, /*dirty=*/true)->page = page;
}

Page* LruBufferPool::MutablePage(PageId id) {
  if (capacity_ == 0) return nullptr;
  ++logical_accesses_;
  if (auto* it = map_.Find(id)) {
    ++hits_;
    Frame& frame = Touch(*it);
    frame.dirty = true;
    return &frame.page;
  }
  ++misses_;
  Page* page = &InsertFrame(id, /*dirty=*/true)->page;
  page->Clear();
  return page;
}

void LruBufferPool::Discard(PageId id) {
  if (auto* pit = map_.Find(id)) {
    const FrameList::iterator it = *pit;
    if (it == old_begin_) old_begin_ = std::next(it);
    if (!it->young) --old_len_;
    frames_.erase(it);
    map_.Erase(id);
    Rebalance();
  }
}

void LruBufferPool::FlushAll() {
  for (Frame& frame : frames_) WriteBack(frame);
}

void LruBufferPool::Clear() {
  FlushAll();
  frames_.clear();
  map_.Clear();
  old_begin_ = frames_.end();
  old_len_ = 0;
}

void LruBufferPool::Resize(size_t capacity) {
  capacity_ = capacity;
  EvictIfNeeded();
  Rebalance();
}

LruBufferPool::Frame& LruBufferPool::Touch(FrameList::iterator it) {
  if (it == old_begin_) old_begin_ = std::next(it);
  if (!it->young) {
    it->young = true;
    --old_len_;
    ++promotions_;
  }
  frames_.splice(frames_.begin(), frames_, it);
  Rebalance();
  return *it;
}

LruBufferPool::FrameList::iterator LruBufferPool::InsertFrame(PageId id,
                                                              bool dirty) {
  LBSQ_DCHECK(map_.size() <= capacity_);  // Resize evicts at once
  FrameList::iterator it;
  if (map_.size() == capacity_) {
    // Full: the victim's list node becomes the fresh frame, moved to
    // where a new node would be inserted, so its page is reused instead
    // of freed and reallocated.
    it = UnlinkVictim();
    frames_.splice(old_begin_, frames_, it);
  } else {
    it = frames_.emplace(old_begin_);
  }
  it->id = id;
  it->dirty = dirty;
  it->young = false;
  old_begin_ = it;
  ++old_len_;
  ++midpoint_insertions_;
  map_.Insert(id, it);
  Rebalance();
  return it;
}

LruBufferPool::FrameList::iterator LruBufferPool::UnlinkVictim() {
  LBSQ_CHECK(!frames_.empty());
  const FrameList::iterator victim = std::prev(frames_.end());
  if (victim == old_begin_) old_begin_ = frames_.end();
  if (victim->young) {
    ++young_evictions_;
  } else {
    --old_len_;
  }
  WriteBack(*victim);
  map_.Erase(victim->id);
  return victim;
}

void LruBufferPool::EvictOne() { frames_.erase(UnlinkVictim()); }

void LruBufferPool::EvictIfNeeded() {
  while (map_.size() > capacity_) EvictOne();
}

void LruBufferPool::Rebalance() {
  const size_t target = OldTarget();
  while (old_len_ < target && old_begin_ != frames_.begin()) {
    --old_begin_;
    old_begin_->young = false;
    ++old_len_;
  }
}

void LruBufferPool::WriteBack(Frame& frame) {
  if (frame.dirty) {
    manager_->Write(frame.id, frame.page);
    frame.dirty = false;
  }
}

}  // namespace lbsq::storage
