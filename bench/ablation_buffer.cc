// Ablation: sensitivity of the paper's headline cost claim to the LRU
// buffer size. Figure 27's "TPNN overhead is absorbed by the buffer"
// depends on the 10% buffer; this sweep shows page accesses per
// location-based 1-NN query as the buffer shrinks to nothing.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/nn_validity.h"

namespace {

using namespace lbsq;

}  // namespace

int main() {
  const size_t n = bench::Scaled(100000);
  bench::PrintTitle(
      "Ablation: buffer fraction vs page accesses (1-NN validity, N=100k)");
  std::printf("%8s | %10s %12s | %12s\n", "buffer", "PA(query)", "PA(TPNN)",
              "NA total");
  for (double fraction : {0.0, 0.01, 0.05, 0.1, 0.25, 0.5}) {
    bench::Workbench wb = bench::MakeUniformBench(n, fraction);
    core::NnValidityEngine engine(wb.tree.get(), wb.dataset.universe);
    const auto queries = bench::QueryWorkload(wb);
    double nn_pa = 0.0, tp_pa = 0.0, na = 0.0;
    for (const geo::Point& q : queries) {
      engine.QueryTpnn(q, 1);
      nn_pa += static_cast<double>(engine.stats().nn_page_accesses);
      tp_pa += static_cast<double>(engine.stats().tpnn_page_accesses);
      na += static_cast<double>(engine.stats().nn_node_accesses +
                                engine.stats().tpnn_node_accesses);
    }
    const auto count = static_cast<double>(queries.size());
    std::printf("%7.0f%% | %10.2f %12.2f | %12.2f\n", fraction * 100.0,
                nn_pa / count, tp_pa / count, na / count);
  }
  return 0;
}
