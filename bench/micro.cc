// Micro-benchmarks (google-benchmark): wall-clock latency of the core
// operations — the index bulk load, plain k-NN search, TPNN, full
// location-based NN and window queries, the [SR01] client step and the
// Voronoi-index query. These are not paper figures (the paper reports
// I/O counts); they document the CPU cost of the implementation.

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "baselines/sr01.h"
#include "baselines/voronoi.h"
#include "bench/bench_util.h"
#include "cache/semantic_cache.h"
#include "core/nn_validity.h"
#include "core/range_validity.h"
#include "core/window_validity.h"
#include "rtree/knn.h"
#include "tp/tpnn.h"

namespace {

using namespace lbsq;

constexpr size_t kPoints = 100000;

// Min-of-N-rounds timing: on a shared one-core box, unrelated load can
// only inflate a round, never deflate it, so the minimum over
// repetitions estimates the uncontended latency while the default mean
// is biased by interference. Applied to every benchmark below.
void MinOfRounds(benchmark::internal::Benchmark* b) {
  b->Repetitions(5)->ReportAggregatesOnly(true)->ComputeStatistics(
      "min", [](const std::vector<double>& v) {
        return *std::min_element(v.begin(), v.end());
      });
}

bench::Workbench& SharedBench() {
  static bench::Workbench wb(bench::MakeUniformBench(kPoints, 0.1));
  return wb;
}

std::vector<geo::Point>& SharedQueries() {
  static std::vector<geo::Point> queries =
      workload::MakeDataDistributedQueries(SharedBench().dataset, 1024, 5);
  return queries;
}

// Index build: an STR bulk load of n uniform points into a fresh
// unbuffered tree, as the serving benchmark's set-up loads one (the
// entry copy, the radix orders and the page writes). Arg: points.
void BM_BulkLoad(benchmark::State& state) {
  const workload::Dataset dataset =
      workload::MakeUnitUniform(static_cast<size_t>(state.range(0)), 4242);
  for (auto _ : state) {
    storage::PageManager disk;
    rtree::RTree tree(&disk, 0);
    tree.BulkLoad(dataset.entries);
    benchmark::DoNotOptimize(tree.root());
  }
}
BENCHMARK(BM_BulkLoad)->Arg(20000)->Arg(100000)->Apply(MinOfRounds);

void BM_KnnBestFirst(benchmark::State& state) {
  auto& wb = SharedBench();
  const auto& queries = SharedQueries();
  const auto k = static_cast<size_t>(state.range(0));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rtree::KnnBestFirst(*wb.tree, queries[i++ % queries.size()], k));
  }
}
BENCHMARK(BM_KnnBestFirst)->Arg(1)->Arg(10)->Arg(100)->Apply(MinOfRounds);

void BM_KnnDepthFirst(benchmark::State& state) {
  auto& wb = SharedBench();
  const auto& queries = SharedQueries();
  const auto k = static_cast<size_t>(state.range(0));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rtree::KnnDepthFirst(*wb.tree, queries[i++ % queries.size()], k));
  }
}
BENCHMARK(BM_KnnDepthFirst)->Arg(1)->Arg(10)->Arg(100)->Apply(MinOfRounds);

void BM_WindowQuery(benchmark::State& state) {
  auto& wb = SharedBench();
  const auto& queries = SharedQueries();
  const double half = 1e-3 * static_cast<double>(state.range(0));
  size_t i = 0;
  std::vector<rtree::DataEntry> out;
  for (auto _ : state) {
    wb.tree->WindowQuery(
        geo::Rect::Centered(queries[i++ % queries.size()], half, half), &out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_WindowQuery)->Arg(10)->Arg(50)->Arg(150)->Apply(MinOfRounds);

void BM_Tpnn(benchmark::State& state) {
  auto& wb = SharedBench();
  const auto& queries = SharedQueries();
  size_t i = 0;
  for (auto _ : state) {
    const geo::Point& q = queries[i++ % queries.size()];
    const auto nn = rtree::KnnBestFirst(*wb.tree, q, 1);
    benchmark::DoNotOptimize(tp::Tpnn(*wb.tree, q, {1.0, 0.0},
                                      nn[0].entry.point, nn[0].entry.id));
  }
}
BENCHMARK(BM_Tpnn)->Apply(MinOfRounds);

void BM_NnValidityQuery(benchmark::State& state) {
  auto& wb = SharedBench();
  const auto& queries = SharedQueries();
  core::NnValidityEngine engine(wb.tree.get(), wb.dataset.universe);
  const auto k = static_cast<size_t>(state.range(0));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Query(queries[i++ % queries.size()], k));
  }
}
BENCHMARK(BM_NnValidityQuery)->Arg(1)->Arg(10)->Apply(MinOfRounds);

void BM_WindowValidityQuery(benchmark::State& state) {
  auto& wb = SharedBench();
  const auto& queries = SharedQueries();
  core::WindowValidityEngine engine(wb.tree.get(), wb.dataset.universe);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.Query(queries[i++ % queries.size()], 0.015, 0.015));
  }
}
BENCHMARK(BM_WindowValidityQuery)->Apply(MinOfRounds);

void BM_RangeValidityQuery(benchmark::State& state) {
  auto& wb = SharedBench();
  const auto& queries = SharedQueries();
  core::RangeValidityEngine engine(wb.tree.get(), wb.dataset.universe);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.Query(queries[i++ % queries.size()], 0.02));
  }
}
BENCHMARK(BM_RangeValidityQuery)->Apply(MinOfRounds);

// The thin client's cost of deriving the conservative polygon from a
// range answer's exact region, once per fresh answer (MobileRangeClient's
// conservative mode). Arg: radius in thousandths.
void BM_RangeConservativePolygon(benchmark::State& state) {
  auto& wb = SharedBench();
  const auto& queries = SharedQueries();
  core::RangeValidityEngine engine(wb.tree.get(), wb.dataset.universe);
  const double radius = 1e-3 * static_cast<double>(state.range(0));
  std::vector<core::RangeValidityResult> answers;
  answers.reserve(queries.size());
  for (const geo::Point& q : queries) {
    answers.push_back(engine.Query(q, radius));
  }
  size_t i = 0;
  for (auto _ : state) {
    const core::RangeValidityResult& a = answers[i++ % answers.size()];
    benchmark::DoNotOptimize(a.region().ConservativePolygon(a.focus()));
  }
}
BENCHMARK(BM_RangeConservativePolygon)->Arg(25)->Arg(50)->Apply(MinOfRounds);

// Cost of a semantic-cache hit on the wire-serving path: one grid-cell
// scan plus a handful of bisector tests, handing out the shared payload
// as serving does (LookupNnShared, no byte copy). Compare against
// BM_NnValidityQuery/10 — the work a hit avoids.
void BM_SemanticCacheHit(benchmark::State& state) {
  auto& wb = SharedBench();
  const auto& queries = SharedQueries();
  core::NnValidityEngine engine(wb.tree.get(), wb.dataset.universe);
  cache::SemanticCache sc(wb.dataset.universe, cache::CacheConfig{});
  // Seed the cache with one k=10 answer per query location; the timed
  // loop then hits the entry covering each location.
  for (const geo::Point& q : queries) {
    const core::NnValidityResult result = engine.Query(q, 10);
    std::vector<cache::BisectorConstraint> constraints;
    for (const auto& pair : result.influence_pairs()) {
      constraints.push_back({pair.displaced.point, pair.incoming.point});
    }
    std::vector<geo::Point> answers;
    for (const auto& n : result.answers()) answers.push_back(n.entry.point);
    sc.InsertNn(10, result.universe(), result.region().BoundingBox(),
                std::move(answers), std::move(constraints),
                cache::MakeCachedBytes(std::vector<uint8_t>(512, 0)));
  }
  cache::CachedBytes out;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sc.LookupNnShared(queries[i++ % queries.size()], 10, &out));
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_SemanticCacheHit)->Apply(MinOfRounds);

void BM_Sr01MoveTo(benchmark::State& state) {
  auto& wb = SharedBench();
  const auto& queries = SharedQueries();
  baselines::Sr01Client client(wb.tree.get(), 1, 8);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.MoveTo(queries[i++ % queries.size()]));
  }
}
BENCHMARK(BM_Sr01MoveTo)->Apply(MinOfRounds);

void BM_VoronoiIndexQuery(benchmark::State& state) {
  // Smaller dataset: the index build is O(n log n) but the point here is
  // query latency.
  static workload::Dataset dataset = workload::MakeUnitUniform(20000, 3);
  static baselines::VoronoiIndex index(dataset.entries, dataset.universe);
  const auto& queries = SharedQueries();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Query(queries[i++ % queries.size()]));
  }
}
BENCHMARK(BM_VoronoiIndexQuery)->Apply(MinOfRounds);

}  // namespace

// BENCHMARK_MAIN, plus the BENCH_micro.json artifact: unless the caller
// already picked an output file, google-benchmark's own JSON reporter is
// pointed at bench::BenchArtifactPath("micro") — full name → ns/op data
// in the same place the other bench binaries drop their artifacts.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  }
  std::string out_flag;
  std::string format_flag = "--benchmark_out_format=json";
  if (!has_out) {
    out_flag = "--benchmark_out=" + bench::BenchArtifactPath("micro");
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
