#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/status.h"
#include "storage/checksummed_page_store.h"
#include "storage/fault_injecting_page_store.h"
#include "storage/lru_buffer_pool.h"
#include "storage/page.h"
#include "storage/page_manager.h"

namespace lbsq::storage {
namespace {

TEST(PageTest, TypedReadWriteRoundTrip) {
  Page page;
  page.WriteAt<double>(0, 3.25);
  page.WriteAt<uint32_t>(8, 42u);
  page.WriteAt<uint16_t>(kPageSize - 2, 7u);
  EXPECT_DOUBLE_EQ(page.ReadAt<double>(0), 3.25);
  EXPECT_EQ(page.ReadAt<uint32_t>(8), 42u);
  EXPECT_EQ(page.ReadAt<uint16_t>(kPageSize - 2), 7u);
}

TEST(PageManagerTest, AllocateReadWrite) {
  PageManager manager;
  const PageId a = manager.Allocate();
  const PageId b = manager.Allocate();
  EXPECT_NE(a, b);
  EXPECT_EQ(manager.live_pages(), 2u);

  Page page;
  page.WriteAt<uint64_t>(0, 0xdeadbeefULL);
  manager.Write(a, page);

  Page out;
  manager.Read(a, &out);
  EXPECT_EQ(out.ReadAt<uint64_t>(0), 0xdeadbeefULL);
  EXPECT_EQ(manager.read_count(), 1u);
  EXPECT_EQ(manager.write_count(), 1u);
}

TEST(PageManagerTest, FreedPagesAreReusedZeroed) {
  PageManager manager;
  const PageId a = manager.Allocate();
  Page page;
  page.WriteAt<uint64_t>(0, 123u);
  manager.Write(a, page);
  manager.Free(a);
  EXPECT_EQ(manager.live_pages(), 0u);
  const PageId b = manager.Allocate();
  EXPECT_EQ(a, b);  // reused
  Page out;
  manager.Read(b, &out);
  EXPECT_EQ(out.ReadAt<uint64_t>(0), 0u);  // zeroed on reuse
}

TEST(PageManagerTest, CountersResetIndependentlyOfContent) {
  PageManager manager;
  const PageId a = manager.Allocate();
  Page page;
  manager.Write(a, page);
  manager.Read(a, &page);
  manager.ResetCounters();
  EXPECT_EQ(manager.read_count(), 0u);
  EXPECT_EQ(manager.write_count(), 0u);
  manager.Read(a, &page);
  EXPECT_EQ(manager.read_count(), 1u);
}

TEST(LruBufferPoolTest, HitsAvoidPhysicalReads) {
  PageManager manager;
  const PageId a = manager.Allocate();
  LruBufferPool pool(&manager, 4);
  manager.ResetCounters();

  pool.Fetch(a);
  pool.Fetch(a);
  pool.Fetch(a);
  EXPECT_EQ(pool.logical_accesses(), 3u);
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_EQ(pool.hits(), 2u);
  EXPECT_EQ(manager.read_count(), 1u);  // only the first fetch went to disk
}

TEST(LruBufferPoolTest, EvictsLeastRecentlyUsed) {
  PageManager manager;
  PageId ids[3] = {manager.Allocate(), manager.Allocate(),
                   manager.Allocate()};
  LruBufferPool pool(&manager, 2);
  manager.ResetCounters();

  pool.Fetch(ids[0]);
  pool.Fetch(ids[1]);
  pool.Fetch(ids[0]);  // 0 is now MRU; LRU order: 1, 0
  pool.Fetch(ids[2]);  // evicts 1
  EXPECT_EQ(manager.read_count(), 3u);

  pool.Fetch(ids[0]);  // hit
  EXPECT_EQ(manager.read_count(), 3u);
  pool.Fetch(ids[1]);  // miss (was evicted)
  EXPECT_EQ(manager.read_count(), 4u);
}

TEST(LruBufferPoolTest, WriteThroughCachingAndFlush) {
  PageManager manager;
  const PageId a = manager.Allocate();
  LruBufferPool pool(&manager, 2);
  manager.ResetCounters();

  Page page;
  page.WriteAt<uint32_t>(0, 9u);
  pool.Write(a, page);
  EXPECT_EQ(manager.write_count(), 0u);  // buffered, not yet on disk

  // Reading through the pool sees the dirty copy.
  EXPECT_EQ(pool.Fetch(a).ReadAt<uint32_t>(0), 9u);
  EXPECT_EQ(manager.read_count(), 0u);

  pool.FlushAll();
  EXPECT_EQ(manager.write_count(), 1u);
  Page out;
  manager.Read(a, &out);
  EXPECT_EQ(out.ReadAt<uint32_t>(0), 9u);
}

TEST(LruBufferPoolTest, DirtyEvictionWritesBack) {
  PageManager manager;
  PageId ids[3] = {manager.Allocate(), manager.Allocate(),
                   manager.Allocate()};
  LruBufferPool pool(&manager, 1);
  manager.ResetCounters();

  Page page;
  page.WriteAt<uint32_t>(0, 77u);
  pool.Write(ids[0], page);
  pool.Fetch(ids[1]);  // evicts dirty page 0
  EXPECT_EQ(manager.write_count(), 1u);
  Page out;
  manager.Read(ids[0], &out);
  EXPECT_EQ(out.ReadAt<uint32_t>(0), 77u);
  (void)ids[2];
}

TEST(LruBufferPoolTest, RecycledFramesHoldOnlyTheNewPage) {
  // Capacity 1: every miss reuses the one frame of the last page.
  PageManager manager;
  const PageId a = manager.Allocate();
  const PageId b = manager.Allocate();
  const PageId c = manager.Allocate();
  Page pattern;
  std::memset(pattern.mutable_data(), 0xab, kPageSize);
  manager.Write(c, pattern);
  LruBufferPool pool(&manager, 1);

  pool.Write(a, pattern);
  // A write-path miss into the full pool starts from a zeroed page, not
  // from the victim's bytes; the dirty victim was written back first.
  Page* page = pool.MutablePage(b);
  ASSERT_NE(page, nullptr);
  const Page zero;
  EXPECT_EQ(std::memcmp(page->data(), zero.data(), kPageSize), 0);
  page->WriteAt<uint32_t>(0, 5u);
  Page out;
  manager.Read(a, &out);
  EXPECT_EQ(std::memcmp(out.data(), pattern.data(), kPageSize), 0);

  // A read miss fills the reused frame with exactly the stored page.
  const Page& fetched = pool.Fetch(c);
  EXPECT_EQ(std::memcmp(fetched.data(), pattern.data(), kPageSize), 0);
  EXPECT_EQ(pool.misses(), 3u);
  EXPECT_EQ(pool.size(), 1u);
  manager.Read(b, &out);
  EXPECT_EQ(out.ReadAt<uint32_t>(0), 5u);
}

TEST(LruBufferPoolTest, MidpointInsertionKeepsScansOffTheHotSet) {
  // Capacity 8 → old-sublist target 3, young capacity 5. Fill the pool,
  // promote five pages into the young sublist by re-fetching them, then
  // sweep 100 one-touch pages. The sweep must cycle entirely through the
  // old 3/8: every hot page survives and no young frame is ever evicted.
  PageManager manager;
  std::vector<PageId> hot, cold, filler;
  for (int i = 0; i < 5; ++i) hot.push_back(manager.Allocate());
  for (int i = 0; i < 3; ++i) filler.push_back(manager.Allocate());
  for (int i = 0; i < 100; ++i) cold.push_back(manager.Allocate());

  LruBufferPool pool(&manager, 8);
  for (const PageId id : hot) pool.Fetch(id);
  for (const PageId id : filler) pool.Fetch(id);
  for (const PageId id : hot) pool.Fetch(id);  // promote to young
  EXPECT_EQ(pool.promotions(), 5u);
  EXPECT_EQ(pool.old_sublist_size(), 3u);
  pool.ResetCounters();

  for (const PageId id : cold) pool.Fetch(id);  // one-touch scan
  EXPECT_EQ(pool.midpoint_insertions(), 100u);
  EXPECT_EQ(pool.young_evictions(), 0u);  // the hot set was never touched

  const uint64_t misses_before = pool.misses();
  for (const PageId id : hot) pool.Fetch(id);
  EXPECT_EQ(pool.misses(), misses_before);  // all five still resident

  // A plain MRU-insert LRU would have flushed them: the fillers, which
  // stayed in the old sublist, did get scanned out.
  pool.Fetch(filler[0]);
  EXPECT_EQ(pool.misses(), misses_before + 1);
}

TEST(LruBufferPoolTest, ZeroCapacityBypassesCache) {
  PageManager manager;
  const PageId a = manager.Allocate();
  LruBufferPool pool(&manager, 0);
  manager.ResetCounters();

  pool.Fetch(a);
  pool.Fetch(a);
  EXPECT_EQ(manager.read_count(), 2u);  // every access is physical
  EXPECT_EQ(pool.logical_accesses(), 2u);

  Page page;
  pool.Write(a, page);
  EXPECT_EQ(manager.write_count(), 1u);
}

TEST(LruBufferPoolTest, ResizeShrinksAndEvicts) {
  PageManager manager;
  PageId ids[4];
  for (auto& id : ids) id = manager.Allocate();
  LruBufferPool pool(&manager, 4);
  for (const auto& id : ids) pool.Fetch(id);
  EXPECT_EQ(pool.size(), 4u);
  pool.Resize(2);
  EXPECT_EQ(pool.size(), 2u);
}

TEST(LruBufferPoolTest, DiscardDropsWithoutWriteback) {
  PageManager manager;
  const PageId a = manager.Allocate();
  LruBufferPool pool(&manager, 2);
  manager.ResetCounters();
  Page page;
  page.WriteAt<uint32_t>(0, 5u);
  pool.Write(a, page);
  pool.Discard(a);
  pool.FlushAll();
  EXPECT_EQ(manager.write_count(), 0u);  // dirty copy was discarded
}

TEST(ChecksummedPageStoreTest, CleanReadsPassThroughUnchanged) {
  PageManager manager;
  ChecksummedPageStore store(&manager);
  const PageId a = store.Allocate();
  Page page;
  page.WriteAt<uint64_t>(0, 0xfeedfaceULL);
  page.WriteAt<uint64_t>(kPageSize - 8, 77u);
  store.Write(a, page);

  PageStore::ClearReadError();
  Page out;
  store.Read(a, &out);
  EXPECT_EQ(out.ReadAt<uint64_t>(0), 0xfeedfaceULL);
  EXPECT_EQ(out.ReadAt<uint64_t>(kPageSize - 8), 77u);
  EXPECT_EQ(store.ReadRef(a).ReadAt<uint64_t>(0), 0xfeedfaceULL);
  EXPECT_TRUE(PageStore::TakeReadError().ok());
  EXPECT_EQ(store.verification_failures(), 0u);
}

TEST(ChecksummedPageStoreTest, DetectsCorruptionAndDegradesToZeroPage) {
  PageManager manager;
  ChecksummedPageStore store(&manager);
  const PageId a = store.Allocate();
  Page page;
  page.WriteAt<uint64_t>(0, 0xfeedfaceULL);
  store.Write(a, page);

  // Corrupt the page *underneath* the checksum layer: flip one bit.
  Page raw;
  manager.Read(a, &raw);
  raw.mutable_data()[100] ^= 0x04;
  manager.Write(a, raw);

  PageStore::ClearReadError();
  Page out;
  store.Read(a, &out);
  const Status error = PageStore::TakeReadError();
  ASSERT_FALSE(error.ok());
  EXPECT_EQ(error.code(), StatusCode::kDataLoss);
  EXPECT_EQ(store.verification_failures(), 1u);
  // The caller never sees the corrupt bytes: the page degrades to zeros,
  // which parses as an empty leaf.
  for (size_t i = 0; i < kPageSize; i += 8) {
    EXPECT_EQ(out.ReadAt<uint64_t>(i), 0u);
  }

  // ReadRef likewise returns a zero page, not the corrupt bytes.
  PageStore::ClearReadError();
  const Page& ref = store.ReadRef(a);
  EXPECT_EQ(ref.ReadAt<uint64_t>(0), 0u);
  EXPECT_FALSE(PageStore::TakeReadError().ok());

  // Writing fresh content re-stamps the checksum and heals the page.
  store.Write(a, page);
  PageStore::ClearReadError();
  store.Read(a, &out);
  EXPECT_TRUE(PageStore::TakeReadError().ok());
  EXPECT_EQ(out.ReadAt<uint64_t>(0), 0xfeedfaceULL);
}

TEST(ChecksummedPageStoreTest, FirstReadErrorWinsUntilTaken) {
  PageManager manager;
  ChecksummedPageStore store(&manager);
  const PageId a = store.Allocate();
  const PageId b = store.Allocate();
  Page raw;
  raw.WriteAt<uint64_t>(0, 1u);
  manager.Write(a, raw);  // bypasses the stamp: page a is now corrupt
  raw.WriteAt<uint64_t>(0, 2u);
  manager.Write(b, raw);  // so is page b

  PageStore::ClearReadError();
  Page out;
  store.Read(a, &out);
  store.Read(b, &out);
  const Status first = PageStore::TakeReadError();
  ASSERT_FALSE(first.ok());
  EXPECT_NE(first.message().find("page " + std::to_string(a)),
            std::string::npos);
  // Taking the error resets the channel.
  EXPECT_TRUE(PageStore::PendingReadError().ok());
}

TEST(ChecksummedPageStoreTest, ScrubCountsCorruptPagesWithoutSideEffects) {
  PageManager manager;
  ChecksummedPageStore store(&manager);
  Page page;
  std::vector<PageId> ids;
  for (int i = 0; i < 8; ++i) {
    const PageId id = store.Allocate();
    page.WriteAt<uint64_t>(0, 1000 + i);
    store.Write(id, page);
    ids.push_back(id);
  }
  EXPECT_EQ(store.Scrub(), 0u);

  Page raw;
  manager.Read(ids[2], &raw);
  raw.mutable_data()[1] ^= 0x80;
  manager.Write(ids[2], raw);
  manager.Read(ids[5], &raw);
  raw.mutable_data()[4000] ^= 0x01;
  manager.Write(ids[5], raw);

  PageStore::ClearReadError();
  EXPECT_EQ(store.Scrub(), 2u);
  // Scrub is a diagnostic: it records no read error.
  EXPECT_TRUE(PageStore::TakeReadError().ok());
}

TEST(FaultInjectingPageStoreTest, DisarmedIsTransparent) {
  PageManager manager;
  FaultInjectingPageStore::Options options;
  options.read_fault_probability = 1.0;
  options.torn_write_probability = 1.0;
  FaultInjectingPageStore store(&manager, options);
  const PageId a = store.Allocate();
  Page page;
  page.WriteAt<uint64_t>(0, 42u);
  store.Write(a, page);  // not torn: faults start disarmed

  PageStore::ClearReadError();
  Page out;
  store.Read(a, &out);
  EXPECT_EQ(out.ReadAt<uint64_t>(0), 42u);
  EXPECT_TRUE(PageStore::TakeReadError().ok());
  EXPECT_EQ(store.injected_read_faults(), 0u);
  EXPECT_EQ(store.injected_torn_writes(), 0u);
}

TEST(FaultInjectingPageStoreTest, ReadFaultIsUnavailableAndTransient) {
  PageManager manager;
  FaultInjectingPageStore::Options options;
  options.seed = 7;
  options.read_fault_probability = 0.5;
  FaultInjectingPageStore store(&manager, options);
  const PageId a = store.Allocate();
  Page page;
  page.WriteAt<uint64_t>(0, 42u);
  store.Write(a, page);
  store.arm();

  // With p = 0.5, 200 reads see both failures and successes; failures are
  // kUnavailable (retryable) and hand back a zero page.
  size_t failures = 0, successes = 0;
  for (int i = 0; i < 200; ++i) {
    PageStore::ClearReadError();
    Page out;
    store.Read(a, &out);
    const Status s = PageStore::TakeReadError();
    if (s.ok()) {
      ++successes;
      EXPECT_EQ(out.ReadAt<uint64_t>(0), 42u);
    } else {
      ++failures;
      EXPECT_EQ(s.code(), StatusCode::kUnavailable);
      EXPECT_TRUE(IsRetryable(s));
      EXPECT_EQ(out.ReadAt<uint64_t>(0), 0u);
    }
  }
  EXPECT_GT(failures, 0u);
  EXPECT_GT(successes, 0u);
  EXPECT_EQ(store.injected_read_faults(), failures);
}

TEST(FaultInjectingPageStoreTest, CorruptionIsSilentUntilChecksummed) {
  PageManager manager;
  FaultInjectingPageStore::Options options;
  options.seed = 11;
  options.read_corruption_probability = 1.0;
  FaultInjectingPageStore faulty(&manager, options);
  // Production stacking: verification sits *above* the corruption source.
  ChecksummedPageStore store(&faulty);
  const PageId a = store.Allocate();
  Page page;
  page.WriteAt<uint64_t>(0, 42u);
  store.Write(a, page);
  faulty.arm();

  PageStore::ClearReadError();
  Page out;
  store.Read(a, &out);
  const Status s = PageStore::TakeReadError();
  ASSERT_FALSE(s.ok());
  // Every read is bit-flipped, and the checksum layer reports it as data
  // loss — not as a transient fault.
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  EXPECT_GT(faulty.injected_corruptions(), 0u);
  EXPECT_EQ(store.verification_failures(), 1u);
}

TEST(FaultInjectingPageStoreTest, TornWriteIsCaughtOnLaterRead) {
  PageManager manager;
  FaultInjectingPageStore::Options options;
  options.seed = 13;
  options.torn_write_probability = 1.0;
  FaultInjectingPageStore faulty(&manager, options);
  ChecksummedPageStore store(&faulty);
  const PageId a = store.Allocate();
  Page page;
  // Content in the second half of the page, which a torn write drops.
  page.WriteAt<uint64_t>(kPageSize - 8, 0xabcdefULL);
  faulty.arm();
  store.Write(a, page);
  EXPECT_EQ(faulty.injected_torn_writes(), 1u);
  faulty.disarm();

  PageStore::ClearReadError();
  Page out;
  store.Read(a, &out);
  const Status s = PageStore::TakeReadError();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
}

TEST(FaultInjectingPageStoreTest, SameSeedSameSchedule) {
  auto run = [](uint64_t seed) {
    PageManager manager;
    FaultInjectingPageStore::Options options;
    options.seed = seed;
    options.read_fault_probability = 0.3;
    FaultInjectingPageStore store(&manager, options);
    const PageId a = store.Allocate();
    store.arm();
    std::vector<bool> fates;
    for (int i = 0; i < 64; ++i) {
      PageStore::ClearReadError();
      Page out;
      store.Read(a, &out);
      fates.push_back(PageStore::TakeReadError().ok());
    }
    return fates;
  };
  EXPECT_EQ(run(21), run(21));
  EXPECT_NE(run(21), run(22));
}

}  // namespace
}  // namespace lbsq::storage
