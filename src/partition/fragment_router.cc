#include "partition/fragment_router.h"

#include <utility>

#include "common/check.h"
#include "rtree/knn.h"

namespace lbsq::partition {

FragmentRouter::FragmentRouter(std::vector<rtree::RTree*> trees,
                               PartitionLayout layout)
    : trees_(std::move(trees)), layout_(std::move(layout)) {
  LBSQ_CHECK(trees_.size() == layout_.num_fragments());
  std::vector<RouteEntry> table;
  table.reserve(trees_.size());
  for (rtree::RTree* tree : trees_) {
    LBSQ_CHECK(tree != nullptr);
    table.push_back(RouteEntry{tree->bounding_box(), tree->size()});
  }
  std::lock_guard<std::mutex> lock(mu_);
  table_ = std::move(table);
}

void FragmentRouter::RefreshFragment(size_t f) {
  LBSQ_CHECK(f < trees_.size());
  const RouteEntry fresh{trees_[f]->bounding_box(), trees_[f]->size()};
  std::lock_guard<std::mutex> lock(mu_);
  table_[f] = fresh;
}

geo::Rect FragmentRouter::FragmentExtent(size_t f) const {
  std::lock_guard<std::mutex> lock(mu_);
  return table_[f].extent;
}

size_t FragmentRouter::FragmentSize(size_t f) const {
  std::lock_guard<std::mutex> lock(mu_);
  return table_[f].points;
}

std::vector<FragmentRouter::RouteEntry> FragmentRouter::SnapshotTable()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return table_;
}

size_t FragmentRouter::size() const {
  size_t total = 0;
  for (rtree::RTree* tree : trees_) total += tree->size();
  return total;
}

uint64_t FragmentRouter::node_accesses() const {
  uint64_t total = 0;
  for (rtree::RTree* tree : trees_) total += tree->buffer().logical_accesses();
  return total;
}

uint64_t FragmentRouter::page_accesses() const {
  uint64_t total = 0;
  for (rtree::RTree* tree : trees_) total += tree->disk().read_count();
  return total;
}

void FragmentRouter::BrowseNearest(const geo::Point& q,
                                   const rtree::StreamVisitor& visit) {
  const std::vector<RouteEntry> table = SnapshotTable();
  std::vector<rtree::StreamSource> sources;
  sources.reserve(table.size());
  for (size_t f = 0; f < table.size(); ++f) {
    if (table[f].points == 0) continue;
    sources.push_back(rtree::StreamSource{
        trees_[f], geo::SquaredMinDist(q, table[f].extent)});
  }
  ++fanout_queries_;
  fanout_fragments_ += rtree::BrowseNearest(sources, q, visit);
}

void FragmentRouter::WindowQuery(const geo::Rect& w,
                                 std::vector<rtree::DataEntry>* out) {
  const std::vector<RouteEntry> table = SnapshotTable();
  out->clear();
  ++fanout_queries_;
  for (size_t f = 0; f < table.size(); ++f) {
    if (table[f].points == 0 || !w.Intersects(table[f].extent)) continue;
    ++fanout_fragments_;
    // Streaming overload: appends into the shared output across
    // fragments (the materializing overload clears its argument).
    trees_[f]->WindowQuery(
        w, [out](const rtree::DataEntry& e) { out->push_back(e); });
  }
}

void FragmentRouter::DropBuffers() {
  for (rtree::RTree* tree : trees_) tree->buffer().Clear();
}

}  // namespace lbsq::partition
