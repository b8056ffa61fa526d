// Partitioned-serving benchmark: q/s, per-query page cost, and churn
// cache hit rate as the dataset is sharded into K ∈ {1, 2, 4, 8} spatial
// fragments behind the FragmentRouter. The same clustered mixed stream
// (hotspot queries + Poisson-arrival inserts/deletes) is served at every
// K, in two modes:
//
//   * cache off — measures the raw router: throughput plus node/page
//     accesses per query. The best-first frontier should keep a K-way
//     router close to the single tree (most queries touch one fragment).
//   * cache on — measures sharded semantic caching under churn: each
//     update invalidates one fragment cache plus the boundary cache
//     instead of everything, so the hit rate at K > 1 must hold up
//     against the K = 1 region-scoped baseline.
//
// The total buffer-pool budget is held constant across K (split evenly
// between fragments) so page counts compare like for like.
//
// Emits BENCH_partition.json; min time of LBSQ_ROUNDS rounds (default 3).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "cache/semantic_cache.h"
#include "partition/partitioned_server.h"
#include "workload/datasets.h"
#include "workload/queries.h"

namespace {

using namespace lbsq;

struct RunResult {
  double qps = 0.0;
  double node_accesses_per_query = 0.0;
  double page_accesses_per_query = 0.0;
  double fanout_per_query = 0.0;
  double hit_rate = 0.0;
  uint64_t owner_inserts = 0;
  uint64_t boundary_inserts = 0;
  uint64_t owner_kills = 0;
  uint64_t boundary_kills = 0;
};

RunResult RunOnce(const workload::Dataset& dataset,
                  const workload::MixedWorkload& mixed, size_t fragments,
                  size_t total_buffer_frames, bool cache_on) {
  partition::PartitionedServerOptions options;
  options.fragments = fragments;
  options.buffer_capacity =
      std::max<size_t>(8, total_buffer_frames / fragments);
  partition::PartitionedServer server(dataset.entries, dataset.universe,
                                      options);
  if (cache_on) {
    cache::CacheConfig config;
    config.max_entries = 8192;
    config.max_bytes = 16u << 20;
    server.EnableCache(config);
  }

  constexpr double kHx = 0.02, kHy = 0.015;
  constexpr double kRadius = 0.025;

  const uint64_t na_before = server.router().node_accesses();
  const uint64_t pa_before = server.router().page_accesses();
  const uint64_t fq_before = server.router().fanout_queries();
  const uint64_t ff_before = server.router().fanout_fragments();
  size_t qi = 0;
  size_t wire_hits = 0;
  const auto start = std::chrono::steady_clock::now();
  for (const workload::MixedOp& op : mixed.ops) {
    switch (op.kind) {
      case workload::MixedOp::Kind::kInsert:
        server.Insert(op.point, op.id);
        break;
      case workload::MixedOp::Kind::kDelete:
        server.Delete(op.point, op.id);
        break;
      case workload::MixedOp::Kind::kQuery: {
        const geo::Point& p = op.point;
        switch (qi++ % 5) {
          case 0:
          case 1:
            (void)server.NnQueryWireShared(p, 1).value();
            break;
          case 2:
            (void)server.NnQueryWireShared(p, 4).value();
            break;
          case 3:
            (void)server.WindowQueryWireShared(p, kHx, kHy).value();
            break;
          default:
            (void)server.RangeQueryWireShared(p, kRadius).value();
            break;
        }
        if (server.last_wire_from_cache()) ++wire_hits;
        break;
      }
    }
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  RunResult r;
  const auto queries = static_cast<double>(mixed.queries);
  r.qps = seconds > 0.0 ? queries / seconds : 0.0;
  r.node_accesses_per_query =
      static_cast<double>(server.router().node_accesses() - na_before) /
      queries;
  r.page_accesses_per_query =
      static_cast<double>(server.router().page_accesses() - pa_before) /
      queries;
  // Fragments visited per *routed backend primitive* (a wire query can
  // route several primitives — the kNN plus its validity-region TP
  // probes — and a cache hit routes none, so the primitive count, not
  // the client query count, is the denominator the thread-per-fragment
  // split would fan out over).
  const uint64_t routed = server.router().fanout_queries() - fq_before;
  r.fanout_per_query =
      routed == 0 ? 0.0
                  : static_cast<double>(server.router().fanout_fragments() -
                                        ff_before) /
                        static_cast<double>(routed);
  if (cache_on) {
    // Per-query hit fraction (a query that probes the owner cache and
    // then the boundary cache is still one lookup from the client's
    // point of view, so raw cache-stats lookups would dilute K > 1).
    r.hit_rate = static_cast<double>(wire_hits) / queries;
    r.owner_inserts = server.owner_cache_inserts();
    r.boundary_inserts = server.boundary_cache_inserts();
    r.owner_kills = server.owner_cache_kills();
    r.boundary_kills = server.boundary_cache_kills();
  }
  return r;
}

RunResult RunBest(const workload::Dataset& dataset,
                  const workload::MixedWorkload& mixed, size_t fragments,
                  size_t total_buffer_frames, bool cache_on, size_t rounds) {
  RunResult best;
  for (size_t i = 0; i < rounds; ++i) {
    const RunResult r =
        RunOnce(dataset, mixed, fragments, total_buffer_frames, cache_on);
    if (i == 0 || r.qps > best.qps) best = r;
  }
  return best;
}

}  // namespace

int main() {
  const size_t n = bench::Scaled(20000);
  const size_t queries = std::max<size_t>(bench::NumQueries() * 40, 1000);
  const size_t rounds = bench::EnvCount("LBSQ_ROUNDS", 3);
  // Deliberately smaller than the tree (about 100 pages at the default
  // scale) so the page-access column measures real buffer pressure.
  constexpr size_t kTotalBufferFrames = 64;
  const size_t fragment_counts[] = {1, 2, 4, 8};

  const workload::Dataset dataset = workload::MakeClustered(
      n, geo::Rect(0, 0, 1, 1), 12, 1.1, 0.01, 0.05, 0.1, 8101);
  const workload::MixedWorkload mixed = workload::MakeMixedWorkload(
      dataset, queries, /*updates_per_kilo_query=*/100.0, /*hotspots=*/16,
      8102, /*sigma=*/0.005);

  bench::PrintTitle("Partitioned serving: K-fragment sweep");
  std::printf(
      "dataset: %zu clustered points; %zu hotspot queries (60%% kNN / 20%% "
      "window / 20%% range) + %zu inserts / %zu deletes; %zu total buffer "
      "frames split across fragments; min time of %zu rounds\n\n",
      n, queries, mixed.inserts, mixed.deletes, kTotalBufferFrames, rounds);
  std::printf("%4s %12s %8s %8s %8s %12s %10s %14s\n", "K", "raw q/s", "NA/q",
              "PA/q", "fan-out", "cached q/s", "hit rate", "owner entries");

  std::string series;
  double hit_rate_k1 = 0.0, hit_rate_k4 = 0.0;
  for (const size_t k : fragment_counts) {
    const RunResult raw =
        RunBest(dataset, mixed, k, kTotalBufferFrames, false, rounds);
    const RunResult cached =
        RunBest(dataset, mixed, k, kTotalBufferFrames, true, rounds);
    if (k == 1) hit_rate_k1 = cached.hit_rate;
    if (k == 4) hit_rate_k4 = cached.hit_rate;

    const double owned_share =
        cached.owner_inserts + cached.boundary_inserts == 0
            ? 0.0
            : static_cast<double>(cached.owner_inserts) /
                  static_cast<double>(cached.owner_inserts +
                                      cached.boundary_inserts);
    std::printf("%4zu %12.0f %8.2f %8.2f %8.2f %12.0f %9.1f%% %13.1f%%\n", k,
                raw.qps, raw.node_accesses_per_query,
                raw.page_accesses_per_query, raw.fanout_per_query, cached.qps,
                100.0 * cached.hit_rate, 100.0 * owned_share);

    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "%s{\"fragments\":%zu,"
        "\"raw\":{\"qps\":%.0f,\"node_accesses_per_query\":%.3f,"
        "\"page_accesses_per_query\":%.3f,\"fanout_per_query\":%.3f},"
        "\"cached\":{\"qps\":%.0f,\"hit_rate\":%.4f,"
        "\"owner_inserts\":%llu,\"boundary_inserts\":%llu,"
        "\"owner_kills\":%llu,\"boundary_kills\":%llu}}",
        series.empty() ? "" : ",", k, raw.qps, raw.node_accesses_per_query,
        raw.page_accesses_per_query, raw.fanout_per_query, cached.qps,
        cached.hit_rate,
        static_cast<unsigned long long>(cached.owner_inserts),
        static_cast<unsigned long long>(cached.boundary_inserts),
        static_cast<unsigned long long>(cached.owner_kills),
        static_cast<unsigned long long>(cached.boundary_kills));
    series += buf;
  }

  std::printf("\nchurn hit rate: K=4 %.1f%% vs K=1 baseline %.1f%%\n",
              100.0 * hit_rate_k4, 100.0 * hit_rate_k1);

  char json[512];
  std::snprintf(json, sizeof(json),
                "{\"bench\":\"partition\",\"points\":%zu,\"queries\":%zu,"
                "\"updates\":%zu,\"series\":[",
                n, queries, mixed.inserts + mixed.deletes);
  const std::string artifact = std::string(json) + series + "]}";
  std::printf("\nBENCH %s\n", artifact.c_str());
  bench::WriteBenchArtifact("partition", artifact);
  return 0;
}
