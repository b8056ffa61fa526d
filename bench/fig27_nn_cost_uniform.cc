// Figure 27: server-side cost of location-based 1-NN queries on uniform
// data vs N — (a) node accesses split between the initial NN query and
// the TPNN queries (no buffer effect on NA), (b) page accesses with an
// LRU buffer of 10% of the R-tree. The paper reports the TPNN component
// at ~12x the NN query in NA but mostly absorbed by the buffer in PA.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/nn_validity.h"

namespace {

using namespace lbsq;

struct CostRow {
  double nn_na = 0.0;
  double tpnn_na = 0.0;
  double nn_pa = 0.0;
  double tpnn_pa = 0.0;
};

CostRow Measure(size_t n, size_t k) {
  bench::Workbench wb = bench::MakeUniformBench(n, 0.1);
  core::NnValidityEngine engine(wb.tree.get(), wb.dataset.universe);
  const auto queries = bench::QueryWorkload(wb);
  CostRow row;
  for (const geo::Point& q : queries) {
    engine.QueryTpnn(q, k);
    const auto& stats = engine.stats();
    row.nn_na += static_cast<double>(stats.nn_node_accesses);
    row.tpnn_na += static_cast<double>(stats.tpnn_node_accesses);
    row.nn_pa += static_cast<double>(stats.nn_page_accesses);
    row.tpnn_pa += static_cast<double>(stats.tpnn_page_accesses);
  }
  const auto count = static_cast<double>(queries.size());
  row.nn_na /= count;
  row.tpnn_na /= count;
  row.nn_pa /= count;
  row.tpnn_pa /= count;
  return row;
}

}  // namespace

int main() {
  bench::PrintTitle(
      "Figure 27: cost of location-based 1-NN vs N (uniform, 10% LRU)");
  std::printf("%8s | %10s %12s | %10s %12s\n", "N", "NA(query)", "NA(TPNN)",
              "PA(query)", "PA(TPNN)");
  for (size_t n : {10000u, 30000u, 100000u, 300000u, 1000000u}) {
    const size_t scaled = bench::Scaled(n);
    const CostRow row = Measure(scaled, 1);
    std::printf("%8s | %10.2f %12.2f | %10.3f %12.3f\n",
                bench::FormatCount(scaled).c_str(), row.nn_na, row.tpnn_na,
                row.nn_pa, row.tpnn_pa);
  }
  return 0;
}
