// Quickstart: build a spatial index, run one location-based nearest-
// neighbor query and one location-based window query, and inspect the
// validity regions that make client-side result caching possible.
//
//   ./build/examples/quickstart

#include <cstdio>

#include "core/nn_validity.h"
#include "core/window_validity.h"
#include "rtree/rtree.h"
#include "storage/page_manager.h"
#include "workload/datasets.h"

int main() {
  using namespace lbsq;

  // 1. Generate 100k points in the unit square and bulk-load an R*-tree
  //    backed by 4 KiB pages with an LRU buffer of 10% of the tree.
  const workload::Dataset dataset = workload::MakeUnitUniform(100000, 42);
  storage::PageManager disk;
  rtree::RTree tree(&disk, /*buffer_capacity=*/0);
  tree.BulkLoad(dataset.entries);
  tree.SetBufferFraction(0.1);
  std::printf("index: %zu points, %zu nodes, height %d\n", tree.size(),
              tree.num_nodes(), tree.height());

  // 2. Location-based 1-NN query: result + validity region.
  core::NnValidityEngine nn_engine(&tree, dataset.universe);
  const geo::Point me{0.31, 0.74};
  const core::NnValidityResult nn = nn_engine.Query(me, 1);
  std::printf("\n1-NN of (%.2f, %.2f): object %u at distance %.5f\n", me.x,
              me.y, nn.answers()[0].entry.id, nn.answers()[0].distance);
  std::printf("validity region: %zu edges, area %.3g, influence set %zu\n",
              nn.region().num_vertices(), nn.region().Area(),
              nn.InfluenceSetSize());
  std::printf("server work: one nearest-first traversal, %llu node "
              "accesses (%llu page accesses)\n",
              static_cast<unsigned long long>(
                  nn_engine.stats().nn_node_accesses),
              static_cast<unsigned long long>(
                  nn_engine.stats().nn_page_accesses));

  // 3. The client-side check: no server contact while inside the region.
  const geo::Point nearby{me.x + 0.001, me.y - 0.001};
  const geo::Point far_away{me.x + 0.2, me.y};
  std::printf("still valid at (%.3f, %.3f)? %s\n", nearby.x, nearby.y,
              nn.IsValidAt(nearby) ? "yes - reuse cached result"
                                   : "no - re-query");
  std::printf("still valid at (%.3f, %.3f)? %s\n", far_away.x, far_away.y,
              nn.IsValidAt(far_away) ? "yes - reuse cached result"
                                     : "no - re-query");

  // 4. Location-based window query: all objects in a moving viewport.
  core::WindowValidityEngine window_engine(&tree, dataset.universe);
  const core::WindowValidityResult window =
      window_engine.Query(me, /*hx=*/0.02, /*hy=*/0.02);
  std::printf("\nwindow 0.04x0.04 around me: %zu objects\n",
              window.result().size());
  std::printf("inner influence objects: %zu, outer: %zu\n",
              window.inner_influencers().size(),
              window.outer_influencers().size());
  const geo::Rect cons = window.conservative_region();
  std::printf("conservative validity rectangle: [%.4f, %.4f] x [%.4f, %.4f]"
              " (area %.3g)\n",
              cons.min_x, cons.max_x, cons.min_y, cons.max_y, cons.Area());
  return 0;
}
