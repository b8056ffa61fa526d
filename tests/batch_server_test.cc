#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "core/batch_server.h"
#include "core/server.h"
#include "core/wire_format.h"
#include "geometry/point.h"
#include "geometry/rect.h"
#include "rtree/knn.h"
#include "rtree/rtree.h"
#include "storage/page_manager.h"
#include "tests/test_util.h"

// The BatchServer must be a drop-in parallel replacement for Server:
// byte-identical wire answers for every query, for any thread count, on
// repeated batches — plus sane perf counters.

namespace lbsq {
namespace {

using core::BatchServer;

struct Workload {
  std::vector<BatchServer::NnQuery> nn;
  std::vector<BatchServer::WindowQuery> window;
  std::vector<BatchServer::RangeQuery> range;
};

Workload MakeWorkload(size_t nn, size_t window, size_t range, uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> coord(0.02, 0.98);
  std::uniform_real_distribution<double> extent(0.002, 0.02);
  std::uniform_int_distribution<size_t> kdist(1, 10);
  Workload w;
  for (size_t i = 0; i < nn; ++i) {
    w.nn.push_back({{coord(rng), coord(rng)}, kdist(rng)});
  }
  for (size_t i = 0; i < window; ++i) {
    w.window.push_back({{coord(rng), coord(rng)}, extent(rng), extent(rng)});
  }
  for (size_t i = 0; i < range; ++i) {
    w.range.push_back({{coord(rng), coord(rng)}, extent(rng)});
  }
  return w;
}

class BatchServerTest : public ::testing::Test {
 protected:
  static constexpr size_t kPoints = 20000;

  void SetUp() override {
    std::mt19937 rng(99);
    std::uniform_real_distribution<double> coord(0.0, 1.0);
    std::vector<rtree::DataEntry> data;
    data.reserve(kPoints);
    for (size_t i = 0; i < kPoints; ++i) {
      data.push_back({{coord(rng), coord(rng)}, static_cast<uint32_t>(i)});
    }
    tree_ = std::make_unique<rtree::RTree>(&disk_, 64);
    tree_->BulkLoad(std::move(data));
    // Workers attach to the shared store directly; push the builder's
    // dirty pages down to it first.
    tree_->buffer().FlushAll();
  }

  BatchServer MakeBatchServer(size_t threads) {
    core::BatchServerOptions options;
    options.num_threads = threads;
    return BatchServer(&disk_, tree_->meta(), universe_, options);
  }

  storage::PageManager disk_;
  std::unique_ptr<rtree::RTree> tree_;
  geo::Rect universe_{0.0, 0.0, 1.0, 1.0};
};

// Serial oracle: the single-threaded Server run over the same store,
// answers encoded to wire bytes in query order.
std::vector<std::vector<uint8_t>> SerialWireAnswers(core::Server& server,
                                                    const Workload& w) {
  std::vector<std::vector<uint8_t>> out;
  out.reserve(w.nn.size() + w.window.size() + w.range.size());
  for (const auto& q : w.nn) {
    out.push_back(core::wire::EncodeNnResult(server.NnQuery(q.q, q.k)).value());
  }
  for (const auto& q : w.window) {
    out.push_back(
        core::wire::EncodeWindowResult(server.WindowQuery(q.focus, q.hx, q.hy)).value());
  }
  for (const auto& q : w.range) {
    out.push_back(
        core::wire::EncodeRangeResult(server.RangeQuery(q.focus, q.radius)).value());
  }
  return out;
}

std::vector<std::vector<uint8_t>> BatchWireAnswers(BatchServer& server,
                                                   const Workload& w) {
  std::vector<std::vector<uint8_t>> out;
  out.reserve(w.nn.size() + w.window.size() + w.range.size());
  for (const auto& r : server.NnQueryBatch(w.nn)) {
    out.push_back(core::wire::EncodeNnResult(r).value());
  }
  for (const auto& r : server.WindowQueryBatch(w.window)) {
    out.push_back(core::wire::EncodeWindowResult(r).value());
  }
  for (const auto& r : server.RangeQueryBatch(w.range)) {
    out.push_back(core::wire::EncodeRangeResult(r).value());
  }
  return out;
}

TEST_F(BatchServerTest, FourThreadBatchMatchesSerialServerByteForByte) {
  // 10k mixed location-based queries; every wire answer must be
  // byte-identical to the serial Server's.
  const Workload w = MakeWorkload(6000, 2000, 2000, 7);
  core::Server serial(tree_.get(), universe_);
  const std::vector<std::vector<uint8_t>> want = SerialWireAnswers(serial, w);

  BatchServer batch = MakeBatchServer(4);
  const std::vector<std::vector<uint8_t>> got = BatchWireAnswers(batch, w);

  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "query " << i;
  }
}

TEST_F(BatchServerTest, ThreadCountDoesNotChangeAnswers) {
  const Workload w = MakeWorkload(600, 300, 300, 13);
  BatchServer one = MakeBatchServer(1);
  const std::vector<std::vector<uint8_t>> want = BatchWireAnswers(one, w);
  for (const size_t threads : {2u, 4u}) {
    BatchServer many = MakeBatchServer(threads);
    EXPECT_EQ(BatchWireAnswers(many, w), want) << threads << " threads";
  }
}

TEST_F(BatchServerTest, RepeatedBatchesAreDeterministic) {
  const Workload w = MakeWorkload(400, 200, 200, 21);
  BatchServer server = MakeBatchServer(4);
  const std::vector<std::vector<uint8_t>> first = BatchWireAnswers(server, w);
  const std::vector<std::vector<uint8_t>> second = BatchWireAnswers(server, w);
  EXPECT_EQ(first, second);
}

TEST_F(BatchServerTest, PlainBatchesMatchSerialQueries) {
  const Workload w = MakeWorkload(500, 300, 300, 31);
  BatchServer server = MakeBatchServer(4);

  const auto nn = server.PlainNnBatch(w.nn);
  ASSERT_EQ(nn.size(), w.nn.size());
  for (size_t i = 0; i < nn.size(); ++i) {
    const auto want = rtree::KnnBestFirst(*tree_, w.nn[i].q, w.nn[i].k);
    ASSERT_EQ(nn[i].size(), want.size()) << "query " << i;
    for (size_t j = 0; j < want.size(); ++j) {
      EXPECT_EQ(nn[i][j].entry.id, want[j].entry.id);
      EXPECT_EQ(nn[i][j].distance, want[j].distance);
    }
  }

  const auto windows = server.PlainWindowBatch(w.window);
  ASSERT_EQ(windows.size(), w.window.size());
  for (size_t i = 0; i < windows.size(); ++i) {
    std::vector<rtree::DataEntry> want;
    tree_->WindowQuery(
        geo::Rect::Centered(w.window[i].focus, w.window[i].hx, w.window[i].hy),
        &want);
    EXPECT_EQ(test::Ids(windows[i]), test::Ids(want)) << "query " << i;
  }

  const auto ranges = server.PlainRangeBatch(w.range);
  ASSERT_EQ(ranges.size(), w.range.size());
  for (size_t i = 0; i < ranges.size(); ++i) {
    std::vector<rtree::DataEntry> box;
    tree_->WindowQuery(geo::Rect::Centered(w.range[i].focus, w.range[i].radius,
                                           w.range[i].radius),
                       &box);
    std::vector<rtree::ObjectId> want;
    for (const rtree::DataEntry& e : box) {
      if (geo::Distance(w.range[i].focus, e.point) <= w.range[i].radius) {
        want.push_back(e.id);
      }
    }
    std::sort(want.begin(), want.end());
    EXPECT_EQ(test::Ids(ranges[i]), want) << "query " << i;
  }
}

TEST_F(BatchServerTest, PerfStatsAreCoherent) {
  const Workload w = MakeWorkload(500, 200, 200, 41);
  BatchServer server = MakeBatchServer(4);
  core::BatchPerfStats before = server.perf_stats();
  EXPECT_EQ(before.queries, 0u);
  EXPECT_EQ(before.node_accesses, 0u);

  (void)BatchWireAnswers(server, w);
  const core::BatchPerfStats stats = server.perf_stats();
  EXPECT_EQ(stats.queries, 900u);
  EXPECT_GT(stats.node_accesses, 0u);
  // Unbuffered workers: every fetch misses to the shared store.
  EXPECT_EQ(stats.page_accesses, stats.node_accesses);
  EXPECT_GT(stats.wall_seconds, 0.0);
  EXPECT_LE(stats.p50_us, stats.p95_us);
  EXPECT_LE(stats.p95_us, stats.p99_us);
  EXPECT_LE(stats.p99_us, stats.max_us);
  EXPECT_GT(stats.max_us, 0.0);

  server.ResetPerfStats();
  const core::BatchPerfStats after = server.perf_stats();
  EXPECT_EQ(after.queries, 0u);
  EXPECT_EQ(after.node_accesses, 0u);
  EXPECT_EQ(after.page_accesses, 0u);
}

TEST_F(BatchServerTest, BufferedWorkersStillMatchSerial) {
  const Workload w = MakeWorkload(300, 150, 150, 51);
  core::Server serial(tree_.get(), universe_);
  const std::vector<std::vector<uint8_t>> want = SerialWireAnswers(serial, w);

  core::BatchServerOptions options;
  options.num_threads = 4;
  options.buffer_pages_per_worker = 32;
  BatchServer batch(&disk_, tree_->meta(), universe_, options);
  EXPECT_EQ(BatchWireAnswers(batch, w), want);
}

// On a healthy store the checked batch API is a cost-free wrapper: every
// result is OK, no errors or retries are counted, and the answers are
// byte-identical to the plain batch path.
TEST_F(BatchServerTest, CheckedBatchesMatchPlainOnHealthyStore) {
  const Workload w = MakeWorkload(60, 60, 60, 23);
  BatchServer batch = MakeBatchServer(4);

  const auto plain_nn = batch.NnQueryBatch(w.nn);
  const auto plain_window = batch.WindowQueryBatch(w.window);
  const auto plain_range = batch.RangeQueryBatch(w.range);

  const auto checked_nn = batch.NnQueryBatchChecked(w.nn);
  const auto checked_window = batch.WindowQueryBatchChecked(w.window);
  const auto checked_range = batch.RangeQueryBatchChecked(w.range);

  ASSERT_EQ(checked_nn.size(), w.nn.size());
  for (size_t i = 0; i < w.nn.size(); ++i) {
    ASSERT_TRUE(checked_nn[i].ok()) << checked_nn[i].status().ToString();
    EXPECT_EQ(core::wire::EncodeNnResult(checked_nn[i].value()).value(),
              core::wire::EncodeNnResult(plain_nn[i]).value());
  }
  for (size_t i = 0; i < w.window.size(); ++i) {
    ASSERT_TRUE(checked_window[i].ok());
    EXPECT_EQ(core::wire::EncodeWindowResult(checked_window[i].value()).value(),
              core::wire::EncodeWindowResult(plain_window[i]).value());
  }
  for (size_t i = 0; i < w.range.size(); ++i) {
    ASSERT_TRUE(checked_range[i].ok());
    EXPECT_EQ(core::wire::EncodeRangeResult(checked_range[i].value()).value(),
              core::wire::EncodeRangeResult(plain_range[i]).value());
  }

  const auto stats = batch.perf_stats();
  EXPECT_EQ(stats.query_errors, 0u);
  EXPECT_EQ(stats.query_retries, 0u);
}

}  // namespace
}  // namespace lbsq
