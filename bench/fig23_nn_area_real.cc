// Figure 23: area of V(q) (m^2) vs k on the two skewed datasets (GR-like
// and NA-like stand-ins; see DESIGN.md). Estimates use the Section-5
// model fed with local densities from a 500-bucket Minskew histogram, as
// in the paper.

#include <algorithm>
#include <cstdio>

#include "analysis/minskew.h"
#include "analysis/models.h"
#include "bench/bench_util.h"
#include "core/nn_validity.h"

namespace {

using namespace lbsq;

void RunDataset(const char* name, workload::Dataset dataset) {
  bench::Workbench wb = bench::MakeBench(std::move(dataset), 0.1);
  const analysis::MinskewHistogram hist(wb.dataset.entries,
                                        wb.dataset.universe, 500, 100);
  core::NnValidityEngine engine(wb.tree.get(), wb.dataset.universe);
  analysis::NnValidityAreaCache model;
  const auto queries = bench::QueryWorkload(wb);

  bench::PrintTitle(std::string("Figure 23 (") + name +
                    "): area of V(q) (m^2) vs k");
  std::printf("%6s %14s %14s\n", "k", "actual", "estimated");
  for (size_t k : {1u, 3u, 10u, 30u, 100u}) {
    double actual = 0.0;
    double estimated = 0.0;
    for (const geo::Point& q : queries) {
      actual += engine.QueryTpnn(q, k).region().Area();
      const double rho =
          hist.NnLocalDensity(q, std::max<double>(64.0, 4.0 * k));
      if (rho > 0.0) estimated += model.Get(k, rho);
    }
    actual /= static_cast<double>(queries.size());
    estimated /= static_cast<double>(queries.size());
    std::printf("%6zu %14.4e %14.4e\n", k, actual, estimated);
  }
}

}  // namespace

int main() {
  RunDataset("GR", workload::MakeGrLike(31, bench::Scaled(23268)));
  RunDataset("NA", workload::MakeNaLike(37, bench::Scaled(569120)));
  return 0;
}
