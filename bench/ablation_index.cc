// Ablation: index-construction choices. DESIGN.md substitutes STR bulk
// loading (fill 0.7) for the paper's insertion-built R*-trees; this
// experiment quantifies the difference: window-query and validity-query
// node accesses for insertion-built trees vs bulk-loaded trees at
// several fill factors.

#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"
#include "core/nn_validity.h"
#include "rtree/rtree.h"
#include "storage/page_manager.h"

namespace {

using namespace lbsq;

struct Measured {
  double window_na = 0.0;
  double validity_na = 0.0;
  size_t nodes = 0;
};

Measured Run(rtree::RTree& tree, const workload::Dataset& dataset) {
  tree.SetBufferFraction(0.1);
  tree.buffer().ResetCounters();
  core::NnValidityEngine engine(&tree, dataset.universe);
  const auto queries =
      workload::MakeDataDistributedQueries(dataset, bench::NumQueries(), 13);
  Measured out;
  out.nodes = tree.num_nodes();
  const double side = std::sqrt(0.001);
  for (const geo::Point& q : queries) {
    tree.buffer().ResetCounters();
    std::vector<rtree::DataEntry> result;
    tree.WindowQuery(geo::Rect::Centered(q, side / 2, side / 2), &result);
    out.window_na += static_cast<double>(tree.buffer().logical_accesses());
    engine.QueryTpnn(q, 1);
    out.validity_na +=
        static_cast<double>(engine.stats().nn_node_accesses +
                            engine.stats().tpnn_node_accesses);
  }
  const auto count = static_cast<double>(queries.size());
  out.window_na /= count;
  out.validity_na /= count;
  return out;
}

}  // namespace

int main() {
  const size_t n = bench::Scaled(50000);
  const workload::Dataset dataset = workload::MakeUnitUniform(n, 21);

  bench::PrintTitle("Ablation: index construction (N=50k uniform)");
  std::printf("%-22s %8s %12s %14s\n", "construction", "nodes", "window NA",
              "validity NA");

  for (double fill : {0.5, 0.7, 0.9, 1.0}) {
    storage::PageManager disk;
    rtree::RTree tree(&disk, 0);
    tree.BulkLoad(dataset.entries, fill);
    const Measured m = Run(tree, dataset);
    char label[32];
    std::snprintf(label, sizeof(label), "STR bulk load %0.0f%%", fill * 100);
    std::printf("%-22s %8zu %12.2f %14.2f\n", label, m.nodes, m.window_na,
                m.validity_na);
  }
  {
    storage::PageManager disk;
    rtree::RTree tree(&disk, 256);  // buffered build, counters reset after
    for (const rtree::DataEntry& e : dataset.entries) {
      tree.Insert(e.point, e.id);
    }
    const Measured m = Run(tree, dataset);
    std::printf("%-22s %8zu %12.2f %14.2f\n", "R* insertion", m.nodes,
                m.window_na, m.validity_na);
  }
  return 0;
}
