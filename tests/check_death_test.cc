// Death tests for the invariant-checking layer: LBSQ_CHECK must abort
// with a diagnostic, and the bounds checks guarding serialization and
// storage must actually fire on misuse.

#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/check.h"
#include "core/nn_validity.h"
#include "core/spatial_backend.h"
#include "storage/page_manager.h"
#include "tests/test_util.h"

namespace lbsq {
namespace {

TEST(CheckDeathTest, CheckFailureAborts) {
  EXPECT_DEATH(LBSQ_CHECK(1 == 2), "LBSQ_CHECK failed");
  EXPECT_DEATH(LBSQ_CHECK_EQ(3, 4), "LBSQ_CHECK failed");
  EXPECT_DEATH(LBSQ_CHECK_LT(5, 5), "LBSQ_CHECK failed");
}

TEST(CheckDeathTest, CheckPassesSilently) {
  LBSQ_CHECK(true);
  LBSQ_CHECK_EQ(3, 3);
  LBSQ_CHECK_LE(3, 4);
}

TEST(CheckDeathTest, ByteReaderOverrunAborts) {
  ByteWriter writer;
  writer.Append<uint32_t>(7);
  EXPECT_DEATH(
      {
        ByteReader reader(writer.bytes());
        reader.Read<uint64_t>();  // 8 bytes from a 4-byte buffer
      },
      "LBSQ_CHECK failed");
}

TEST(CheckDeathTest, PageManagerRejectsDeadPages) {
  EXPECT_DEATH(
      {
        storage::PageManager manager;
        const storage::PageId id = manager.Allocate();
        manager.Free(id);
        storage::Page page;
        manager.Read(id, &page);  // use after free
      },
      "LBSQ_CHECK failed");
  EXPECT_DEATH(
      {
        storage::PageManager manager;
        storage::Page page;
        manager.Read(42, &page);  // never allocated
      },
      "LBSQ_CHECK failed");
}

TEST(CheckDeathTest, DoubleFreeAborts) {
  EXPECT_DEATH(
      {
        storage::PageManager manager;
        const storage::PageId id = manager.Allocate();
        manager.Free(id);
        manager.Free(id);
      },
      "LBSQ_CHECK failed");
}

// The paper's TPNN algorithm runs on the engine's own tree; an engine
// built on a backend serves Query only.
TEST(CheckDeathTest, QueryTpnnWithoutTreeAborts) {
  const std::vector<rtree::DataEntry> data = {{{0.25, 0.5}, 1},
                                              {{0.75, 0.5}, 2}};
  test::TreeFixture fx(data);
  core::RTreeBackend backend(fx.tree.get());
  core::NnValidityEngine engine(&backend, geo::Rect(0.0, 0.0, 1.0, 1.0));
  EXPECT_EQ(engine.Query({0.5, 0.5}, 1).answers().size(), 1u);
  EXPECT_DEATH(engine.QueryTpnn({0.5, 0.5}, 1),
               "LBSQ_CHECK failed.*owned_.has_value");
}

}  // namespace
}  // namespace lbsq
