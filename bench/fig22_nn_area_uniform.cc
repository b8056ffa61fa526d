// Figure 22: area of the validity region V(q) of k-NN queries on uniform
// data — (a) k = 1, cardinality N from 10k to 1000k; (b) N = 100k, k from
// 1 to 100. Each row prints the measured average over the query workload
// next to the Section-5 analytical estimate.

#include <cstdio>

#include "analysis/models.h"
#include "bench/bench_util.h"
#include "core/nn_validity.h"

namespace {

using namespace lbsq;

void RunSetting(size_t n, size_t k) {
  bench::Workbench wb = bench::MakeUniformBench(n, 0.1);
  core::NnValidityEngine engine(wb.tree.get(), wb.dataset.universe);
  double total = 0.0;
  const auto queries = bench::QueryWorkload(wb);
  for (const geo::Point& q : queries) {
    total += engine.QueryTpnn(q, k).region().Area();
  }
  const double actual = total / static_cast<double>(queries.size());
  const double estimated =
      analysis::ExpectedNnValidityArea(k, static_cast<double>(n));
  std::printf("%8s %6zu %12.3e %12.3e\n", bench::FormatCount(n).c_str(), k,
              actual, estimated);
}

}  // namespace

int main() {
  bench::PrintTitle("Figure 22a: area of V(q) vs N (uniform, k=1)");
  std::printf("%8s %6s %12s %12s\n", "N", "k", "actual", "estimated");
  for (size_t n : {10000u, 30000u, 100000u, 300000u, 1000000u}) {
    RunSetting(bench::Scaled(n), 1);
  }

  bench::PrintTitle("Figure 22b: area of V(q) vs k (uniform, N=100k)");
  std::printf("%8s %6s %12s %12s\n", "N", "k", "actual", "estimated");
  for (size_t k : {1u, 3u, 10u, 30u, 100u}) {
    RunSetting(bench::Scaled(100000), k);
  }
  return 0;
}
