// Aggregate query throughput of the batch server: N concurrent mobile
// clients firing a mixed plain-query workload (k-NN / window / range) at
// one shared R-tree store. Two server configurations are timed over the
// same query stream:
//
//   serial-view   the zero-copy NodeView path, one thread
//   batch-T       BatchServer with T worker threads over per-worker
//                 unbuffered pools (every fetch a zero-copy ReadRef)
//
// A second section times the *wire-serving* path of core::Server (full
// validity-region answers, encoded; one thread) on a clustered client
// population — many mobile clients concentrated around a few hotspots —
// with the semantic answer cache off and on, reporting the cache hit
// rate alongside q/s.
//
// Output: an aligned table plus one machine-readable "BENCH {...}" JSON
// line with queries/second per configuration, batch latency
// percentiles, and the cache section's q/s + hit rate. All rates are
// min-of-N-rounds (MeasureQps).
//
// Environment knobs: LBSQ_SCALE scales the dataset (default 100k
// points, bench_util.h); LBSQ_CLIENTS sets the number of concurrent
// clients (default 8000; each client contributes one query per round).

#include <algorithm>
#include <chrono>
#include <limits>
#include <cstdio>
#include <random>
#include <vector>

#include "bench/bench_util.h"
#include "cache/semantic_cache.h"
#include "common/status.h"
#include "core/batch_server.h"
#include "core/server.h"
#include "geometry/rect.h"
#include "rtree/knn.h"
#include "rtree/rtree.h"

namespace {

using namespace lbsq;
using Clock = std::chrono::steady_clock;

constexpr size_t kPoints = 100000;
constexpr double kMinSeconds = 0.5;  // per-configuration timing floor

// NN-heavy mix, matching the paper's workload emphasis (nearest-neighbor
// queries are the primary location-based query class).
struct Workload {
  std::vector<core::BatchServer::NnQuery> nn;        // 60% of clients, k=10
  std::vector<core::BatchServer::WindowQuery> window;  // 25%
  std::vector<core::BatchServer::RangeQuery> range;    // 15%
  size_t total() const { return nn.size() + window.size() + range.size(); }
};

Workload MakeWorkload(const bench::Workbench& wb, size_t clients) {
  const std::vector<geo::Point> locations = bench::QueryWorkload(wb);
  std::mt19937 rng(777);
  std::uniform_real_distribution<double> extent(0.005, 0.02);
  Workload w;
  for (size_t i = 0; i < clients; ++i) {
    const geo::Point& q = locations[i % locations.size()];
    switch (i % 20) {
      case 12: case 13: case 14: case 15: case 16:
        w.window.push_back({q, extent(rng), extent(rng)});
        break;
      case 17: case 18: case 19:
        w.range.push_back({q, extent(rng)});
        break;
      default:
        w.nn.push_back({q, 10});
        break;
    }
  }
  return w;
}

// Filters a box result down to the disk of radius r (shared by all range
// implementations so every configuration does identical work).
void FilterRange(const geo::Point& c, double r,
                 std::vector<rtree::DataEntry>* result) {
  // Compare squared distances: d > r iff d^2 > r^2 for nonnegative d, r.
  const double r2 = r * r;
  result->erase(std::remove_if(result->begin(), result->end(),
                               [&](const rtree::DataEntry& e) {
                                 return geo::SquaredDistance(c, e.point) > r2;
                               }),
                result->end());
  std::sort(result->begin(), result->end(),
            [](const rtree::DataEntry& a, const rtree::DataEntry& b) {
              return a.id < b.id;
            });
}

// Runs `round` (which serves the whole workload once) repeatedly until
// the timing floor, returning queries/second of the *fastest* round.
// The minimum over many rounds estimates the uncontended rate: unrelated
// load steals whole timeslices, inflating some rounds but never
// deflating one, so the mean is biased by interference while the min is
// stable (same reasoning as benchmark --benchmark_min_time repetitions).
template <typename Fn>
double MeasureQps(size_t queries_per_round, Fn&& round) {
  round();  // warm-up, untimed
  double best_seconds = std::numeric_limits<double>::infinity();
  double total = 0.0;
  do {
    const Clock::time_point start = Clock::now();
    round();
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    best_seconds = std::min(best_seconds, elapsed);
    total += elapsed;
  } while (total < kMinSeconds);
  return static_cast<double>(queries_per_round) / best_seconds;
}

// Every configuration materializes one answer per client (what a server
// returning results must do), so serial and batch runs do identical work.
double SerialQps(bench::Workbench& wb, const Workload& w) {
  rtree::RTree& tree = *wb.tree;
  return MeasureQps(w.total(), [&] {
    std::vector<std::vector<rtree::Neighbor>> nn(w.nn.size());
    for (size_t i = 0; i < w.nn.size(); ++i) {
      nn[i] = rtree::KnnBestFirst(tree, w.nn[i].q, w.nn[i].k);
    }
    asm volatile("" : : "r,m"(nn.data()) : "memory");
    std::vector<std::vector<rtree::DataEntry>> win(w.window.size());
    for (size_t i = 0; i < w.window.size(); ++i) {
      const geo::Rect rect =
          geo::Rect::Centered(w.window[i].focus, w.window[i].hx, w.window[i].hy);
      tree.WindowQuery(rect, &win[i]);
    }
    asm volatile("" : : "r,m"(win.data()) : "memory");
    std::vector<std::vector<rtree::DataEntry>> rng(w.range.size());
    for (size_t i = 0; i < w.range.size(); ++i) {
      const geo::Rect rect = geo::Rect::Centered(
          w.range[i].focus, w.range[i].radius, w.range[i].radius);
      tree.WindowQuery(rect, &rng[i]);
      FilterRange(w.range[i].focus, w.range[i].radius, &rng[i]);
    }
    asm volatile("" : : "r,m"(rng.data()) : "memory");
  });
}

double BatchQps(core::BatchServer& server, const Workload& w) {
  return MeasureQps(w.total(), [&] {
    auto nn = server.PlainNnBatch(w.nn);
    asm volatile("" : : "r,m"(nn.data()) : "memory");
    auto win = server.PlainWindowBatch(w.window);
    asm volatile("" : : "r,m"(win.data()) : "memory");
    auto rng = server.PlainRangeBatch(w.range);
    asm volatile("" : : "r,m"(rng.data()) : "memory");
  });
}

// Clustered client population for the cache section: query locations
// drawn from a few Gaussian hotspots, with *discrete* per-type
// parameters so nearby clients ask comparable queries (distinct window
// extents per client would make region reuse impossible by key).
Workload MakeClusteredWorkload(const bench::Workbench& wb, size_t clients) {
  const std::vector<geo::Point> locations = workload::MakeHotspotQueries(
      wb.dataset.universe, clients, /*hotspots=*/16, /*seed=*/4711,
      /*sigma=*/0.005);
  Workload w;
  for (size_t i = 0; i < clients; ++i) {
    const geo::Point& q = locations[i];
    switch (i % 20) {
      case 12: case 13: case 14: case 15: case 16:
        w.window.push_back({q, 0.01, 0.008});
        break;
      case 17: case 18: case 19:
        w.range.push_back({q, 0.01});
        break;
      default:
        w.nn.push_back({q, 10});
        break;
    }
  }
  return w;
}

// Wire-serving rounds: full validity answers, encoded — the load the
// semantic cache absorbs. The cache persists across rounds (that is the
// point: a steady-state server), so the measured rate is the warm rate.
double WireQps(core::Server& server, const Workload& w) {
  return MeasureQps(w.total(), [&] {
    std::vector<StatusOr<std::vector<uint8_t>>> out;
    out.reserve(w.total());
    for (const auto& q : w.nn) out.push_back(server.NnQueryWire(q.q, q.k));
    for (const auto& q : w.window) {
      out.push_back(server.WindowQueryWire(q.focus, q.hx, q.hy));
    }
    for (const auto& q : w.range) {
      out.push_back(server.RangeQueryWire(q.focus, q.radius));
    }
    asm volatile("" : : "r,m"(out.data()) : "memory");
  });
}

}  // namespace

int main() {
  const size_t n = bench::Scaled(kPoints);
  bench::Workbench wb = bench::MakeUniformBench(n, /*buffer_fraction=*/0.0);
  const size_t clients = bench::EnvCount("LBSQ_CLIENTS", 8000);
  const Workload w = MakeWorkload(wb, clients);

  bench::PrintTitle("Batch query throughput (" + bench::FormatCount(n) +
                    " points, " + bench::FormatCount(w.total()) +
                    " concurrent clients)");
  std::printf("%-14s %12s\n", "configuration", "queries/s");

  const double view_qps = SerialQps(wb, w);
  std::printf("%-14s %12.0f\n", "serial-view", view_qps);

  const size_t thread_counts[] = {1, 2, 4};
  double batch_qps[3] = {0.0, 0.0, 0.0};
  core::BatchPerfStats stats4;
  for (int i = 0; i < 3; ++i) {
    core::BatchServerOptions options;
    options.num_threads = thread_counts[i];
    core::BatchServer server(wb.disk.get(), wb.tree->meta(),
                             wb.dataset.universe, options);
    batch_qps[i] = BatchQps(server, w);
    char label[32];
    std::snprintf(label, sizeof(label), "batch-%zu", thread_counts[i]);
    std::printf("%-14s %12.0f\n", label, batch_qps[i]);
    if (thread_counts[i] == 4) stats4 = server.perf_stats();
  }

  std::printf(
      "\nbatch-4 stats: %llu queries, %llu node accesses, "
      "%llu page accesses\n"
      "latency p50 %.1fus  p95 %.1fus  p99 %.1fus  max %.1fus\n",
      static_cast<unsigned long long>(stats4.queries),
      static_cast<unsigned long long>(stats4.node_accesses),
      static_cast<unsigned long long>(stats4.page_accesses),
      stats4.p50_us, stats4.p95_us, stats4.p99_us, stats4.max_us);

  // -- Wire serving with the semantic answer cache ------------------------
  // Clustered clients, full validity-region answers encoded to wire
  // bytes by core::Server; cache off vs on (one thread, so any speedup
  // comes from work avoided, not parallelism).
  const Workload cw = MakeClusteredWorkload(wb, clients);
  bench::PrintTitle("Wire serving, clustered clients (semantic cache)");
  std::printf("%-14s %12s %10s %9s\n", "configuration", "queries/s",
              "speedup", "hit rate");

  double wire_qps[2] = {0.0, 0.0};
  double hit_rate = 0.0;
  for (int on = 0; on < 2; ++on) {
    core::Server server(wb.tree.get(), wb.dataset.universe);
    if (on != 0) {
      cache::CacheConfig config;
      config.max_entries = 1u << 15;
      config.max_bytes = 32u << 20;
      server.EnableCache(config);
    }
    wire_qps[on] = WireQps(server, cw);
    if (on != 0) {
      const cache::CacheStats stats = server.cache_stats();
      hit_rate = stats.lookups == 0 ? 0.0
                                    : static_cast<double>(stats.hits) /
                                          static_cast<double>(stats.lookups);
    }
    std::printf("%-14s %12.0f %9.2fx %8.1f%%\n",
                on != 0 ? "wire-cache" : "wire-nocache", wire_qps[on],
                wire_qps[on] / wire_qps[0], on != 0 ? hit_rate * 100.0 : 0.0);
  }

  char json[1024];
  std::snprintf(
      json, sizeof(json),
      "{\"name\":\"throughput\",\"points\":%zu,\"clients\":%zu,"
      "\"serial_view_qps\":%.0f,"
      "\"batch1_qps\":%.0f,\"batch2_qps\":%.0f,\"batch4_qps\":%.0f,"
      "\"p50_us\":%.1f,\"p95_us\":%.1f,\"p99_us\":%.1f,\"max_us\":%.1f,"
      "\"wire_nocache_qps\":%.0f,\"wire_cache_qps\":%.0f,"
      "\"cache_speedup\":%.3f,\"cache_hit_rate\":%.3f}",
      n, w.total(), view_qps, batch_qps[0], batch_qps[1], batch_qps[2],
      stats4.p50_us, stats4.p95_us, stats4.p99_us, stats4.max_us,
      wire_qps[0], wire_qps[1], wire_qps[1] / wire_qps[0], hit_rate);
  std::printf("\nBENCH %s\n", json);
  bench::WriteBenchArtifact("throughput", json);
  return 0;
}
