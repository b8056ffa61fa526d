#include "partition/partitioned_server.h"

#include <utility>

#include "common/check.h"

namespace lbsq::partition {

PartitionedServer::PartitionedServer(std::vector<rtree::DataEntry> entries,
                                     const geo::Rect& universe,
                                     const PartitionedServerOptions& options)
    : PartitionedServer(BuildShards(std::move(entries), universe, options),
                        universe) {}

PartitionedServer::PartitionedServer(Shards shards, const geo::Rect& universe)
    : core::ServingPipeline(shards.router.get(), universe,
                            &shards.router->layout()),
      shards_(std::move(shards)) {}

PartitionedServer::Shards PartitionedServer::BuildShards(
    std::vector<rtree::DataEntry> entries, const geo::Rect& universe,
    const PartitionedServerOptions& options) {
  LBSQ_CHECK(options.fragments >= 1);
  PartitionLayout layout(entries, universe, options.fragments);
  std::vector<std::vector<rtree::DataEntry>> buckets =
      PartitionEntries(layout, entries);

  Shards shards;
  shards.fragments.reserve(options.fragments);
  std::vector<rtree::RTree*> trees;
  trees.reserve(options.fragments);
  for (size_t f = 0; f < options.fragments; ++f) {
    auto fragment = std::make_unique<Fragment>();
    fragment->tree = std::make_unique<rtree::RTree>(
        &fragment->pages, options.buffer_capacity, options.tree_options);
    fragment->tree->BulkLoad(std::move(buckets[f]), options.bulk_fill);
    trees.push_back(fragment->tree.get());
    shards.fragments.push_back(std::move(fragment));
  }
  shards.router =
      std::make_unique<FragmentRouter>(std::move(trees), std::move(layout));
  return shards;
}

core::ServiceInfo PartitionedServer::info() const {
  core::ServiceInfo out = core::ServingPipeline::info();
  out.fragments.reserve(shards_.fragments.size());
  for (size_t f = 0; f < shards_.fragments.size(); ++f) {
    core::FragmentStat stat;
    stat.mbr = shards_.router->FragmentExtent(f);
    stat.points = shards_.router->FragmentSize(f);
    const cache::CacheStats s = owner_cache_stats(f);
    stat.cache_lookups = s.lookups;
    stat.cache_hits = s.hits;
    out.fragments.push_back(stat);
  }
  return out;
}

// -- Updates ----------------------------------------------------------------

void PartitionedServer::Insert(const geo::Point& p, rtree::ObjectId id) {
  const size_t owner = shards_.router->OwnerOf(p);
  shards_.fragments[owner]->tree->Insert(p, id);
  shards_.router->RefreshFragment(owner);
  const rtree::UpdateRecord update{p, rtree::UpdateKind::kInsert};
  ApplyUpdates({&update, 1});
}

bool PartitionedServer::Delete(const geo::Point& p, rtree::ObjectId id) {
  const size_t owner = shards_.router->OwnerOf(p);
  if (!shards_.fragments[owner]->tree->Delete(p, id)) return false;
  shards_.router->RefreshFragment(owner);
  const rtree::UpdateRecord update{p, rtree::UpdateKind::kDelete};
  ApplyUpdates({&update, 1});
  return true;
}

}  // namespace lbsq::partition
