#include "partition/fragment_router.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/check.h"
#include "rtree/knn.h"

namespace lbsq::partition {

namespace {

// The global neighbor order: increasing distance, exact distance ties
// toward the smaller id — identical to rtree::KnnBestFirst's result
// order, so merging per-fragment lists under it yields the single-tree
// answer bit for bit.
bool NeighborBefore(const rtree::Neighbor& a, const rtree::Neighbor& b) {
  if (a.distance != b.distance) return a.distance < b.distance;
  return a.entry.id < b.entry.id;
}

// tp::Tpnn / tp::Tpknn's internal preference, reproduced for the
// cross-fragment merge: smaller influence time wins; exact ties prefer
// the smaller incoming object id.
bool InfluenceImproves(double time, rtree::ObjectId id, double best_time,
                       rtree::ObjectId best_id, bool best_found) {
  if (time < best_time) return true;
  return best_found && time == best_time && id < best_id;
}

}  // namespace

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

std::vector<rtree::Neighbor> FragmentRouter::Knn(const geo::Point& q,
                                                 size_t k) {
  const std::vector<RouteEntry> table = SnapshotTable();

  // Best-first frontier over fragments, ordered by mindist to the
  // fragment's conservative extent (ties by fragment index — irrelevant
  // to the answer, the merge order is commutative).
  struct Frontier {
    double mindist2;
    size_t frag;
  };
  std::vector<Frontier> frontier;
  frontier.reserve(table.size());
  for (size_t f = 0; f < table.size(); ++f) {
    if (table[f].points == 0) continue;
    frontier.push_back(Frontier{geo::SquaredMinDist(q, table[f].extent), f});
  }
  std::sort(frontier.begin(), frontier.end(),
            [](const Frontier& a, const Frontier& b) {
              if (a.mindist2 != b.mindist2) return a.mindist2 < b.mindist2;
              return a.frag < b.frag;
            });

  std::vector<rtree::Neighbor> best;
  std::vector<rtree::Neighbor> merged;
  last_knn_fragments_visited_ = 0;
  for (const Frontier& fr : frontier) {
    if (best.size() == k) {
      // Stop once the next fragment cannot improve the answer. Every
      // point in the fragment is at least mindist away (the same
      // per-axis monotone bound single-tree best-first uses), so a
      // strictly larger mindist than the k-th best distance rules the
      // whole fragment out; an exact tie must still be visited — it
      // could hold an equal-distance point with a smaller id.
      const double kth2 = geo::SquaredDistance(q, best[k - 1].entry.point);
      if (fr.mindist2 > kth2) break;
    }
    ++last_knn_fragments_visited_;
    const std::vector<rtree::Neighbor> local =
        rtree::KnnBestFirst(*trees_[fr.frag], q, k);
    merged.clear();
    merged.reserve(best.size() + local.size());
    std::merge(best.begin(), best.end(), local.begin(), local.end(),
               std::back_inserter(merged), NeighborBefore);
    if (merged.size() > k) merged.resize(k);
    std::swap(best, merged);
  }
  ++fanout_queries_;
  fanout_fragments_ += last_knn_fragments_visited_;
  return best;
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
  core::SpatialBackend::SortCanonical(out);
}

tp::TpnnResult FragmentRouter::Tpnn(const geo::Point& q, const geo::Vec2& l,
                                    const geo::Point& o,
                                    rtree::ObjectId o_id) {
  const std::vector<RouteEntry> table = SnapshotTable();
  tp::TpnnResult best;
  ++fanout_queries_;
  for (size_t f = 0; f < table.size(); ++f) {
    if (table[f].points == 0) continue;
    ++fanout_fragments_;
    const tp::TpnnResult r = tp::Tpnn(*trees_[f], q, l, o, o_id);
    if (r.found && InfluenceImproves(r.time, r.object.id, best.time,
                                     best.object.id, best.found)) {
      best = r;
    }
  }
  return best;
}

tp::TpknnResult FragmentRouter::Tpknn(
    const geo::Point& q, const geo::Vec2& l,
    const std::vector<rtree::Neighbor>& answers) {
  const std::vector<RouteEntry> table = SnapshotTable();
  tp::TpknnResult best;
  ++fanout_queries_;
  for (size_t f = 0; f < table.size(); ++f) {
    if (table[f].points == 0) continue;
    ++fanout_fragments_;
    const tp::TpknnResult r = tp::Tpknn(*trees_[f], q, l, answers);
    if (r.found && InfluenceImproves(r.time, r.incoming.id, best.time,
                                     best.incoming.id, best.found)) {
      best = r;
    }
  }
  return best;
}

void FragmentRouter::DropBuffers() {
  for (rtree::RTree* tree : trees_) tree->buffer().Clear();
}

}  // namespace lbsq::partition
