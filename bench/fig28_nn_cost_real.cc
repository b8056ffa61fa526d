// Figure 28: server-side cost of location-based k-NN queries vs k on the
// GR-like and NA-like datasets (node accesses and page accesses with a
// 10% LRU buffer, split between the k-NN query and the TPkNN queries).

#include <cstdio>

#include "bench/bench_util.h"
#include "core/nn_validity.h"

namespace {

using namespace lbsq;

void RunDataset(const char* name, workload::Dataset dataset) {
  bench::Workbench wb = bench::MakeBench(std::move(dataset), 0.1);
  core::NnValidityEngine engine(wb.tree.get(), wb.dataset.universe);
  const auto queries = bench::QueryWorkload(wb);

  bench::PrintTitle(std::string("Figure 28 (") + name +
                    "): cost of location-based k-NN vs k (10% LRU)");
  std::printf("%6s | %10s %12s | %10s %12s | %6s\n", "k", "NA(query)",
              "NA(TPkNN)", "PA(query)", "PA(TPkNN)", "TPkNN");
  for (size_t k : {1u, 3u, 10u, 30u, 100u}) {
    double nn_na = 0.0, tp_na = 0.0, nn_pa = 0.0, tp_pa = 0.0, tp_count = 0.0;
    for (const geo::Point& q : queries) {
      engine.QueryTpnn(q, k);
      const auto& stats = engine.stats();
      nn_na += static_cast<double>(stats.nn_node_accesses);
      tp_na += static_cast<double>(stats.tpnn_node_accesses);
      nn_pa += static_cast<double>(stats.nn_page_accesses);
      tp_pa += static_cast<double>(stats.tpnn_page_accesses);
      tp_count += static_cast<double>(stats.tpnn_queries);
    }
    const auto count = static_cast<double>(queries.size());
    std::printf("%6zu | %10.2f %12.2f | %10.3f %12.3f | %6.1f\n", k,
                nn_na / count, tp_na / count, nn_pa / count, tp_pa / count,
                tp_count / count);
  }
}

}  // namespace

int main() {
  RunDataset("GR", workload::MakeGrLike(31, bench::Scaled(23268)));
  RunDataset("NA", workload::MakeNaLike(37, bench::Scaled(569120)));
  return 0;
}
