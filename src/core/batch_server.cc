#include "core/batch_server.h"

#include <algorithm>
#include <chrono>

#include "common/check.h"
#include "common/stats.h"
#include "core/serving_pipeline.h"
#include "geometry/rect.h"

namespace lbsq::core {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Queries are handed out in chunks of this size: one atomic claim plus
// one indirect call per chunk instead of per query, and each worker
// writes a contiguous run of result slots (no false sharing on
// neighboring slots). Small enough that load stays balanced even for
// expensive validity queries.
constexpr size_t kClaimChunk = 64;

}  // namespace

BatchServer::BatchServer(storage::PageStore* disk,
                         const rtree::RTree::Meta& meta,
                         const geo::Rect& universe,
                         const BatchServerOptions& options)
    : disk_(disk), max_query_retries_(options.max_query_retries) {
  LBSQ_CHECK(options.num_threads >= 1);
  workers_.reserve(options.num_threads);
  for (size_t i = 0; i < options.num_threads; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->tree = std::make_unique<rtree::RTree>(
        disk, options.buffer_pages_per_worker, options.tree_options, meta);
    worker->nn_engine =
        std::make_unique<NnValidityEngine>(worker->tree.get(), universe);
    worker->window_engine =
        std::make_unique<WindowValidityEngine>(worker->tree.get(), universe);
    worker->range_engine =
        std::make_unique<RangeValidityEngine>(worker->tree.get(), universe);
    // Drop the accesses made by the attach-time sanity check so the stats
    // reflect query work only.
    worker->tree->buffer().ResetCounters();
    workers_.push_back(std::move(worker));
  }
  disk_reads_baseline_ = disk_->read_count();

  // Worker 0 is driven by the dispatching thread inside RunBatch; only
  // the remaining workers get pool threads.
  threads_.reserve(options.num_threads - 1);
  for (size_t i = 1; i < options.num_threads; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

BatchServer::~BatchServer() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void BatchServer::ServeClaims(Worker& worker, size_t count) {
  // Dynamic chunked claiming balances skew (an expensive validity query
  // on one worker does not stall the others); the result slot is fixed
  // by the query index, so claiming order never affects output.
  while (true) {
    const size_t begin = cursor_.fetch_add(kClaimChunk,
                                           std::memory_order_relaxed);
    if (begin >= count) break;
    const size_t end = std::min(begin + kClaimChunk, count);
    for (size_t i = begin; i < end; ++i) {
      const Clock::time_point start = Clock::now();
      job_(worker, i);
      worker.latencies_us.push_back(SecondsSince(start) * 1e6);
    }
  }
}

void BatchServer::WorkerLoop(size_t worker_index) {
  Worker& worker = *workers_[worker_index];
  uint64_t seen_epoch = 0;
  while (true) {
    size_t count = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock,
                    [&] { return stopping_ || job_epoch_ != seen_epoch; });
      if (stopping_) return;
      seen_epoch = job_epoch_;
      count = job_count_;
    }
    ServeClaims(worker, count);
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++workers_done_;
    }
    done_cv_.notify_one();
  }
}

void BatchServer::PublishJobLocked(
    size_t count, const std::function<void(Worker&, size_t)>& job) {
  LBSQ_ASSERT_HELD(mu_);
  job_ = job;
  job_count_ = count;
  cursor_.store(0, std::memory_order_relaxed);
  workers_done_ = 0;
  ++job_epoch_;
}

void BatchServer::RunBatch(size_t count,
                           const std::function<void(Worker&, size_t)>& job) {
  const Clock::time_point start = Clock::now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    PublishJobLocked(count, job);
  }
  work_cv_.notify_all();
  // The dispatcher is worker 0: serve the batch alongside the pool
  // threads instead of sleeping until they finish.
  ServeClaims(*workers_[0], count);
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return workers_done_ == threads_.size(); });
  }
  wall_seconds_ += SecondsSince(start);
  queries_ += count;
  for (const std::unique_ptr<Worker>& worker : workers_) {
    latencies_us_.insert(latencies_us_.end(), worker->latencies_us.begin(),
                         worker->latencies_us.end());
    worker->latencies_us.clear();
  }
}

template <typename Result, typename Fn>
StatusOr<Result> BatchServer::ServeChecked(Worker& worker, const Fn& fn) {
  // Purging through the worker's own handle drops only its buffer pool,
  // the one a failed fetch on this thread can have poisoned.
  RTreeBackend backend(worker.tree.get());
  CheckedCounts counts;
  StatusOr<Result> result =
      RunChecked<Result>(backend, max_query_retries_, &counts, fn);
  query_errors_.fetch_add(counts.errors, std::memory_order_relaxed);
  query_retries_.fetch_add(counts.retries, std::memory_order_relaxed);
  return result;
}

std::vector<StatusOr<NnValidityResult>> BatchServer::NnQueryBatchChecked(
    const std::vector<NnQuery>& queries) {
  std::vector<StatusOr<NnValidityResult>> out(queries.size());
  RunBatch(queries.size(), [this, &queries, &out](Worker& w, size_t i) {
    out[i] = ServeChecked<NnValidityResult>(
        w, [&] { return w.nn_engine->Query(queries[i].q, queries[i].k); });
  });
  return out;
}

std::vector<StatusOr<WindowValidityResult>>
BatchServer::WindowQueryBatchChecked(const std::vector<WindowQuery>& queries) {
  std::vector<StatusOr<WindowValidityResult>> out(queries.size());
  RunBatch(queries.size(), [this, &queries, &out](Worker& w, size_t i) {
    out[i] = ServeChecked<WindowValidityResult>(w, [&] {
      return w.window_engine->Query(queries[i].focus, queries[i].hx,
                                    queries[i].hy);
    });
  });
  return out;
}

std::vector<StatusOr<RangeValidityResult>> BatchServer::RangeQueryBatchChecked(
    const std::vector<RangeQuery>& queries) {
  std::vector<StatusOr<RangeValidityResult>> out(queries.size());
  RunBatch(queries.size(), [this, &queries, &out](Worker& w, size_t i) {
    out[i] = ServeChecked<RangeValidityResult>(w, [&] {
      return w.range_engine->Query(queries[i].focus, queries[i].radius);
    });
  });
  return out;
}

std::vector<NnValidityResult> BatchServer::NnQueryBatch(
    const std::vector<NnQuery>& queries) {
  std::vector<NnValidityResult> out(queries.size());
  RunBatch(queries.size(), [&queries, &out](Worker& w, size_t i) {
    out[i] = w.nn_engine->Query(queries[i].q, queries[i].k);
  });
  return out;
}

std::vector<WindowValidityResult> BatchServer::WindowQueryBatch(
    const std::vector<WindowQuery>& queries) {
  std::vector<WindowValidityResult> out(queries.size());
  RunBatch(queries.size(), [&queries, &out](Worker& w, size_t i) {
    out[i] =
        w.window_engine->Query(queries[i].focus, queries[i].hx, queries[i].hy);
  });
  return out;
}

std::vector<RangeValidityResult> BatchServer::RangeQueryBatch(
    const std::vector<RangeQuery>& queries) {
  std::vector<RangeValidityResult> out(queries.size());
  RunBatch(queries.size(), [&queries, &out](Worker& w, size_t i) {
    out[i] = w.range_engine->Query(queries[i].focus, queries[i].radius);
  });
  return out;
}

std::vector<std::vector<rtree::Neighbor>> BatchServer::PlainNnBatch(
    const std::vector<NnQuery>& queries) {
  std::vector<std::vector<rtree::Neighbor>> out(queries.size());
  RunBatch(queries.size(), [&queries, &out](Worker& w, size_t i) {
    out[i] = rtree::KnnBestFirst(*w.tree, queries[i].q, queries[i].k);
  });
  return out;
}

std::vector<std::vector<rtree::DataEntry>> BatchServer::PlainWindowBatch(
    const std::vector<WindowQuery>& queries) {
  std::vector<std::vector<rtree::DataEntry>> out(queries.size());
  RunBatch(queries.size(), [&queries, &out](Worker& w, size_t i) {
    w.tree->WindowQuery(
        geo::Rect::Centered(queries[i].focus, queries[i].hx, queries[i].hy),
        &out[i]);
  });
  return out;
}

std::vector<std::vector<rtree::DataEntry>> BatchServer::PlainRangeBatch(
    const std::vector<RangeQuery>& queries) {
  std::vector<std::vector<rtree::DataEntry>> out(queries.size());
  RunBatch(queries.size(), [&queries, &out](Worker& w, size_t i) {
    const geo::Point& c = queries[i].focus;
    const double r = queries[i].radius;
    // Squared-distance compare: d > r iff d^2 > r^2 for nonnegative d, r.
    const double r2 = r * r;
    std::vector<rtree::DataEntry>& result = out[i];
    w.tree->WindowQuery(geo::Rect::Centered(c, r, r), &result);
    result.erase(std::remove_if(result.begin(), result.end(),
                                [&](const rtree::DataEntry& e) {
                                  return geo::SquaredDistance(c, e.point) > r2;
                                }),
                 result.end());
    std::sort(result.begin(), result.end(),
              [](const rtree::DataEntry& a, const rtree::DataEntry& b) {
                return a.id < b.id;
              });
  });
  return out;
}

BatchPerfStats BatchServer::perf_stats() const {
  BatchPerfStats stats;
  stats.queries = queries_;
  for (const std::unique_ptr<Worker>& worker : workers_) {
    stats.node_accesses += worker->tree->buffer().logical_accesses();
  }
  stats.page_accesses = disk_->read_count() - disk_reads_baseline_;
  stats.query_errors = query_errors_.load(std::memory_order_relaxed);
  stats.query_retries = query_retries_.load(std::memory_order_relaxed);
  stats.wall_seconds = wall_seconds_;
  if (!latencies_us_.empty()) {
    stats.p50_us = Percentile(latencies_us_, 50.0);
    stats.p95_us = Percentile(latencies_us_, 95.0);
    stats.p99_us = Percentile(latencies_us_, 99.0);
    stats.max_us = Percentile(latencies_us_, 100.0);
  }
  return stats;
}

void BatchServer::ResetPerfStats() {
  queries_ = 0;
  query_errors_.store(0, std::memory_order_relaxed);
  query_retries_.store(0, std::memory_order_relaxed);
  wall_seconds_ = 0.0;
  latencies_us_.clear();
  for (const std::unique_ptr<Worker>& worker : workers_) {
    worker->tree->buffer().ResetCounters();
  }
  disk_reads_baseline_ = disk_->read_count();
}

}  // namespace lbsq::core
