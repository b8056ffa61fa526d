// Figure 24: number of edges of V(q) for k-NN queries on uniform data —
// (a) vs N with k = 1, (b) vs k with N = 100k. The paper (and classic
// Voronoi theory) expects ~6 under all settings; this is the client-side
// validity-check cost in half-plane tests.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/nn_validity.h"

namespace {

using namespace lbsq;

double AverageEdges(size_t n, size_t k) {
  bench::Workbench wb = bench::MakeUniformBench(n, 0.1);
  core::NnValidityEngine engine(wb.tree.get(), wb.dataset.universe);
  double total = 0.0;
  const auto queries = bench::QueryWorkload(wb);
  for (const geo::Point& q : queries) {
    total += static_cast<double>(engine.QueryTpnn(q, k).region().num_vertices());
  }
  return total / static_cast<double>(queries.size());
}

}  // namespace

int main() {
  bench::PrintTitle("Figure 24a: number of edges of V(q) vs N (uniform, k=1)");
  std::printf("%8s %12s\n", "N", "edges");
  for (size_t n : {10000u, 30000u, 100000u, 300000u, 1000000u}) {
    const size_t scaled = bench::Scaled(n);
    std::printf("%8s %12.2f\n", bench::FormatCount(scaled).c_str(),
                AverageEdges(scaled, 1));
  }

  bench::PrintTitle("Figure 24b: number of edges of V(q) vs k (uniform, N=100k)");
  std::printf("%8s %12s\n", "k", "edges");
  for (size_t k : {1u, 3u, 10u, 30u, 100u}) {
    std::printf("%8zu %12.2f\n", k, AverageEdges(bench::Scaled(100000), k));
  }
  return 0;
}
