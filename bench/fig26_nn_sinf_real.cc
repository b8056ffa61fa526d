// Figure 26: |S_inf| vs k on the GR-like and NA-like datasets. Shapes
// should match Figure 25b: ~6 influence objects at k = 1, declining
// toward ~4 as objects start contributing multiple edges.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/nn_validity.h"

namespace {

using namespace lbsq;

void RunDataset(const char* name, workload::Dataset dataset) {
  bench::Workbench wb = bench::MakeBench(std::move(dataset), 0.1);
  core::NnValidityEngine engine(wb.tree.get(), wb.dataset.universe);
  const auto queries = bench::QueryWorkload(wb);

  bench::PrintTitle(std::string("Figure 26 (") + name + "): |S_inf| vs k");
  std::printf("%6s %12s\n", "k", "|S_inf|");
  for (size_t k : {1u, 3u, 10u, 30u, 100u}) {
    double total = 0.0;
    for (const geo::Point& q : queries) {
      total += static_cast<double>(engine.QueryTpnn(q, k).InfluenceSetSize());
    }
    std::printf("%6zu %12.2f\n", k,
                total / static_cast<double>(queries.size()));
  }
}

}  // namespace

int main() {
  RunDataset("GR", workload::MakeGrLike(31, bench::Scaled(23268)));
  RunDataset("NA", workload::MakeNaLike(37, bench::Scaled(569120)));
  return 0;
}
