// Extension experiment (Section 7 future work): location-based *range*
// queries. Mirrors the window-query figures — validity-region area,
// influence-set size, and two-step server cost — as a function of the
// query radius, on uniform data.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "core/range_validity.h"

namespace {

using namespace lbsq;

}  // namespace

int main() {
  const size_t n = bench::Scaled(100000);
  bench::Workbench wb = bench::MakeUniformBench(n, 0.1);
  core::RangeValidityEngine engine(wb.tree.get(), wb.dataset.universe);
  const auto queries = bench::QueryWorkload(wb);

  bench::PrintTitle(
      "Extension: location-based range queries vs radius (uniform, N=100k)");
  std::printf("%8s %10s %12s %8s %8s | %9s %9s\n", "radius", "|result|",
              "area V(q)", "inner", "outer", "NA(res)", "NA(inf)");
  for (double radius : {0.005, 0.01, 0.02, 0.05, 0.1}) {
    double result_size = 0.0, area = 0.0, inner = 0.0, outer = 0.0;
    double na1 = 0.0, na2 = 0.0;
    std::vector<size_t> cut_inner, cut_outer;
    for (const geo::Point& q : queries) {
      const auto result = engine.Query(q, radius);
      result_size += static_cast<double>(result.result().size());
      area += result.region().Area(128);
      // Influence objects of the conservative polygon a thin client
      // derives from the region.
      result.region().ConservativePolygon(q, 16, &cut_inner, &cut_outer);
      inner += static_cast<double>(cut_inner.size());
      outer += static_cast<double>(cut_outer.size());
      na1 += static_cast<double>(engine.stats().result_node_accesses);
      na2 += static_cast<double>(engine.stats().influence_node_accesses);
    }
    const auto count = static_cast<double>(queries.size());
    std::printf("%8.3f %10.1f %12.3e %8.2f %8.2f | %9.2f %9.2f\n", radius,
                result_size / count, area / count, inner / count,
                outer / count, na1 / count, na2 / count);
  }
  return 0;
}
