#ifndef LBSQ_CORE_BATCH_SERVER_H_
#define LBSQ_CORE_BATCH_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/annotations.h"
#include "common/status.h"
#include "core/nn_validity.h"
#include "core/range_validity.h"
#include "core/window_validity.h"
#include "geometry/point.h"
#include "geometry/rect.h"
#include "rtree/knn.h"
#include "rtree/rtree.h"

// Multi-threaded batch query server: the scaled-up version of Server for
// the paper's mobile-computing scenario, where many clients hit the
// server at once. A fixed pool of worker threads serves one batch at a
// time; each worker owns a *private* R-tree handle (re-attached via
// RTree::Meta) and a private LRU buffer pool over one shared read-only
// PageStore, so the query hot path takes no locks and shares no mutable
// state (shared-nothing). The only cross-thread traffic is the relaxed
// atomic batch cursor that hands out query indices and the store's
// relaxed access counters.
//
// Determinism: workers claim query indices dynamically but write each
// result into the slot of its query index, and every engine is a pure
// function of (tree contents, query), so a batch's result vector is
// byte-identical to running the queries serially through Server — for
// any thread count and any interleaving (batch_server_test.cc checks
// this on the wire encoding).
//
// Store requirements: the store must be treated as read-only while the
// server is alive, and with buffer_pages_per_worker == 0 the workers
// call PageStore::ReadRef concurrently — safe for PageManager (stable
// page storage), NOT for FilePageManager (single scratch page); give
// file-backed stores a per-worker buffer capacity > 0 so reads copy
// through PageStore::Read instead.
//
// BatchServer serves plain and checked batches only: the wire path and
// the semantic cache belong to the serving pipeline behind core::Server
// (serving_pipeline.h).

namespace lbsq::core {

struct BatchServerOptions {
  // Total workers serving a batch. The dispatching thread itself serves
  // as worker 0 (so num_threads - 1 pool threads are spawned): batch
  // calls do useful work instead of sleeping, and num_threads == 1
  // degenerates to a plain serial loop with no thread handoff at all.
  size_t num_threads = 4;
  // Per-worker LRU capacity in pages. 0 = unbuffered: every fetch is a
  // zero-copy ReadRef into the shared store (fastest for in-memory
  // stores; required to be > 0 for FilePageManager, see above).
  size_t buffer_pages_per_worker = 0;
  // Retry budget of the *Checked batch variants for transient
  // (kUnavailable) read faults. Unused by the plain variants.
  size_t max_query_retries = 2;
  // Must match the options the tree in the store was built with.
  rtree::RTree::Options tree_options;
};

// Cumulative performance counters since construction (or the last
// ResetPerfStats). Latency percentiles are exact, over every query
// served; wall_seconds covers batch execution only, not idle time.
struct BatchPerfStats {
  uint64_t queries = 0;
  uint64_t node_accesses = 0;        // logical fetches across all workers
  uint64_t page_accesses = 0;        // shared-store reads (buffer misses)
  uint64_t query_errors = 0;         // checked queries that returned a Status
  uint64_t query_retries = 0;        // transient-fault retries that were taken
  double wall_seconds = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
};

class BatchServer {
 public:
  struct NnQuery {
    geo::Point q;
    size_t k = 1;
  };
  struct WindowQuery {
    geo::Point focus;
    double hx = 0.0;
    double hy = 0.0;
  };
  struct RangeQuery {
    geo::Point focus;
    double radius = 0.0;
  };

  // `disk` holds a tree described by `meta` (e.g. built by a separate
  // RTree over the same store); the server does not own it. If the tree
  // was built through a buffered RTree, flush its pool first
  // (tree.buffer().FlushAll()) so the store holds every page.
  BatchServer(storage::PageStore* disk, const rtree::RTree::Meta& meta,
              const geo::Rect& universe, const BatchServerOptions& options);
  ~BatchServer();

  BatchServer(const BatchServer&) = delete;
  BatchServer& operator=(const BatchServer&) = delete;

  // Location-based batches: full validity-region answers, result i for
  // query i. Each call blocks until the whole batch is done.
  std::vector<NnValidityResult> NnQueryBatch(
      const std::vector<NnQuery>& queries);
  std::vector<WindowValidityResult> WindowQueryBatch(
      const std::vector<WindowQuery>& queries);
  std::vector<RangeValidityResult> RangeQueryBatch(
      const std::vector<RangeQuery>& queries);

  // Checked batches for untrusted storage (a checksummed / fault-injected
  // store): result i is either query i's answer or the Status of the read
  // failure that poisoned it. Transient faults are retried (purging the
  // worker's buffer pool in between) up to options.max_query_retries
  // times; queries untouched by faults produce answers bit-identical to
  // the plain batch variants. The batch always completes — one bad page
  // fails one query, not the process.
  [[nodiscard]] std::vector<StatusOr<NnValidityResult>> NnQueryBatchChecked(
      const std::vector<NnQuery>& queries);
  [[nodiscard]] std::vector<StatusOr<WindowValidityResult>> WindowQueryBatchChecked(
      const std::vector<WindowQuery>& queries);
  [[nodiscard]] std::vector<StatusOr<RangeValidityResult>> RangeQueryBatchChecked(
      const std::vector<RangeQuery>& queries);

  // Conventional batches without validity computation (the naive-client
  // load). Range results are sorted by object id.
  std::vector<std::vector<rtree::Neighbor>> PlainNnBatch(
      const std::vector<NnQuery>& queries);
  std::vector<std::vector<rtree::DataEntry>> PlainWindowBatch(
      const std::vector<WindowQuery>& queries);
  std::vector<std::vector<rtree::DataEntry>> PlainRangeBatch(
      const std::vector<RangeQuery>& queries);

  BatchPerfStats perf_stats() const;
  void ResetPerfStats();

  size_t num_threads() const { return threads_.size(); }

 private:
  // Everything one worker thread touches on the hot path. Engines are
  // constructed over the worker's private tree handle.
  struct Worker {
    std::unique_ptr<rtree::RTree> tree;
    std::unique_ptr<NnValidityEngine> nn_engine;
    std::unique_ptr<WindowValidityEngine> window_engine;
    std::unique_ptr<RangeValidityEngine> range_engine;
    std::vector<double> latencies_us;  // scratch, merged after each batch
  };

  void WorkerLoop(size_t worker_index);

  // Serves one checked query on `worker` through the serving pipeline's
  // retry loop (RunChecked), purging the worker's buffer pool.
  template <typename Result, typename Fn>
  StatusOr<Result> ServeChecked(Worker& worker, const Fn& fn);

  // Claims chunks of query indices off cursor_ and serves them on
  // `worker` until the batch is drained.
  void ServeClaims(Worker& worker, size_t count);

  // Publishes `job` to the pool, serves alongside the pool threads on
  // worker 0 until all `count` indices are processed, then folds the
  // per-worker latency scratch into the cumulative stats.
  void RunBatch(size_t count,
                const std::function<void(Worker&, size_t)>& job);

  // Publishes one batch to the worker pool: stores the job and its
  // size, rewinds the claim cursor, and bumps job_epoch_ — the bump
  // must be the workers' release point, which is why the caller must
  // already hold mu_ (enforced statically by lbsq_lint / clang
  // -Wthread-safety, and at runtime by LBSQ_ASSERT_HELD).
  void PublishJobLocked(size_t count,
                        const std::function<void(Worker&, size_t)>& job)
      LBSQ_REQUIRES(mu_);

  // Fixed at construction; workers only read them afterwards.
  storage::PageStore* disk_ LBSQ_EXCLUDED(const_after_init);
  size_t max_query_retries_ LBSQ_EXCLUDED(const_after_init);
  std::vector<std::unique_ptr<Worker>> workers_ LBSQ_EXCLUDED(const_after_init);
  std::vector<std::thread> threads_ LBSQ_EXCLUDED(const_after_init);

  // Checked-path counters; relaxed atomics, updated by workers mid-batch
  // and read between batches on the dispatcher thread.
  std::atomic<uint64_t> query_errors_ LBSQ_EXCLUDED(relaxed_atomic){0};
  std::atomic<uint64_t> query_retries_ LBSQ_EXCLUDED(relaxed_atomic){0};

  // Batch handoff. A batch is published by bumping job_epoch_ under mu_;
  // workers claim indices from the lock-free cursor and report completion
  // via workers_done_. Only one batch runs at a time (RunBatch holds no
  // lock while the batch runs but is itself not thread-safe; call batch
  // methods from one dispatcher thread).
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  uint64_t job_epoch_ LBSQ_GUARDED_BY(mu_) = 0;
  size_t job_count_ LBSQ_GUARDED_BY(mu_) = 0;
  // Published under mu_ before the epoch bump, then read lock-free by
  // workers for the duration of the batch: the epoch acquire in
  // WorkerLoop orders the reads, and RunBatch does not touch job_ again
  // until every worker reported done.
  std::function<void(Worker&, size_t)> job_ LBSQ_EXCLUDED(epoch_handoff);
  std::atomic<size_t> cursor_ LBSQ_EXCLUDED(relaxed_atomic){0};
  size_t workers_done_ LBSQ_GUARDED_BY(mu_) = 0;
  bool stopping_ LBSQ_GUARDED_BY(mu_) = false;

  // Cumulative stats (mutated only between batches, on the dispatcher
  // thread). page-access baseline = store reads at construction / reset.
  uint64_t queries_ LBSQ_EXCLUDED(dispatcher_only) = 0;
  uint64_t disk_reads_baseline_ LBSQ_EXCLUDED(dispatcher_only) = 0;
  double wall_seconds_ LBSQ_EXCLUDED(dispatcher_only) = 0.0;
  std::vector<double> latencies_us_ LBSQ_EXCLUDED(dispatcher_only);
};

}  // namespace lbsq::core

#endif  // LBSQ_CORE_BATCH_SERVER_H_
