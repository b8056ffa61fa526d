#include "core/nn_validity.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "common/check.h"
#include "geometry/convex_polygon.h"
#include "geometry/halfplane.h"
#include "rtree/knn.h"
#include "storage/page_store.h"
#include "tp/tpnn.h"

namespace lbsq::core {

namespace {

// Tracks which vertices of the evolving polygon are confirmed. Vertices
// that survive a clip keep their exact coordinates, so matching by value
// is reliable.
class VertexFlags {
 public:
  explicit VertexFlags(const geo::ConvexPolygon& poly) {
    flags_.assign(poly.num_vertices(), false);
  }

  // Rebuilds the flag list after `poly` was clipped: surviving vertices
  // keep their confirmation, new vertices start unconfirmed.
  void Rebuild(const geo::ConvexPolygon& old_poly,
               const std::vector<bool>& old_flags,
               const geo::ConvexPolygon& new_poly) {
    flags_.assign(new_poly.num_vertices(), false);
    for (size_t i = 0; i < new_poly.num_vertices(); ++i) {
      const geo::Point& v = new_poly.vertices()[i];
      for (size_t j = 0; j < old_poly.num_vertices(); ++j) {
        if (old_poly.vertices()[j] == v) {
          flags_[i] = old_flags[j];
          break;
        }
      }
    }
  }

  std::vector<bool>& flags() { return flags_; }

  // Index of some unconfirmed vertex, or npos.
  static constexpr size_t kNone = static_cast<size_t>(-1);
  size_t FirstUnconfirmed() const {
    for (size_t i = 0; i < flags_.size(); ++i) {
      if (!flags_[i]) return i;
    }
    return kNone;
  }

 private:
  std::vector<bool> flags_;
};

constexpr uint32_t kUniverseEdge = UINT32_MAX;
constexpr double kNoStop = std::numeric_limits<double>::infinity();

// Squared stop radius of Query's stream. f(x) = |q - x| + max_a |x - a|
// is convex, so over the polygon P its maximum B is reached at a vertex.
// An object p with |q - p| >= B is, at every x in P, at least
// |q - p| - |q - x| >= max_a |x - a| away: none of its bisectors cuts P,
// and no object beyond it can either. B is inflated by a relative 1e-12
// so that rounding in its evaluation never stops the stream early.
double StopRadius2(const geo::Point& q, const geo::ConvexPolygon& poly,
                   const std::vector<rtree::Neighbor>& answers) {
  double b = 0.0;
  for (const geo::Point& v : poly.vertices()) {
    double far2 = 0.0;
    for (const rtree::Neighbor& a : answers) {
      far2 = std::max(far2, geo::SquaredDistance(v, a.entry.point));
    }
    b = std::max(b, geo::Distance(q, v) + std::sqrt(far2));
  }
  b *= 1.0 + 1e-12;
  return b * b;
}

}  // namespace

NnValidityEngine::NnValidityEngine(rtree::RTree* tree,
                                   const geo::Rect& universe)
    : owned_(RTreeBackend(tree)), universe_(universe) {
  LBSQ_CHECK(tree != nullptr);
  LBSQ_CHECK(!universe.IsEmpty());
}

NnValidityEngine::NnValidityEngine(SpatialBackend* backend,
                                   const geo::Rect& universe)
    : external_(backend), universe_(universe) {
  LBSQ_CHECK(backend != nullptr);
  LBSQ_CHECK(!universe.IsEmpty());
}

NnValidityResult NnValidityEngine::Query(const geo::Point& q, size_t k) {
  LBSQ_CHECK(k > 0);
  LBSQ_CHECK(universe_.Contains(q));
  stats_ = Stats();
  SpatialBackend* be = backend();
  const uint64_t na_before = be->node_accesses();
  const uint64_t pa_before = be->page_accesses();

  std::vector<rtree::Neighbor> answers;
  answers.reserve(k);
  geo::ConvexPolygon poly = geo::ConvexPolygon::FromRect(universe_);
  // edge_cut[i] labels polygon edge i with the index in `cuts` of the
  // pair whose half-plane made it (kUniverseEdge for the universe's
  // sides); `cuts` holds every pair that clipped, in stream order.
  std::vector<uint32_t> edge_cut(poly.num_vertices(), kUniverseEdge);
  std::vector<InfluencePair> cuts;
  double stop2 = kNoStop;
  be->BrowseNearest(q, [&](const rtree::Neighbor& n) {
    if (answers.size() < k) {
      answers.push_back(n);
      if (answers.size() == k) stop2 = StopRadius2(q, poly, answers);
      return stop2;
    }
    bool clipped = false;
    for (const rtree::Neighbor& a : answers) {
      const geo::HalfPlane h =
          geo::BisectorTowards(a.entry.point, n.entry.point);
      if (!poly.IsCutBy(h)) continue;
      poly = poly.ClipHalfPlane(h, &edge_cut,
                                static_cast<uint32_t>(cuts.size()));
      // q lies in every half-plane, so the polygon never empties.
      LBSQ_CHECK(!poly.IsEmpty());
      cuts.push_back(InfluencePair{n.entry, a.entry});
      clipped = true;
    }
    if (clipped) stop2 = StopRadius2(q, poly, answers);
    return stop2;
  });
  stats_.nn_node_accesses = be->node_accesses() - na_before;
  stats_.nn_page_accesses = be->page_accesses() - pa_before;

  if (!storage::PageStore::PendingReadError().ok()) {
    // A page failed mid-stream: the answers themselves are suspect.
    // Return a degraded result; the checked query layer that enabled
    // error reporting discards it (and may retry).
    return NnValidityResult(q, universe_, std::move(answers), {},
                            geo::ConvexPolygon::FromRect(universe_));
  }

  // The influence set: the pairs labelling edges of the final polygon.
  // An edge no longer than Simplified's tolerance is a vertex of the
  // served region, and its pair (typically a bisector through that
  // vertex) bounds nothing.
  const double tol = poly.Tolerance();
  std::vector<uint32_t> labels;
  const std::vector<geo::Point>& v = poly.vertices();
  for (size_t i = 0; i < v.size(); ++i) {
    const geo::Point& next = v[(i + 1) % v.size()];
    if (edge_cut[i] == kUniverseEdge) continue;
    if (std::abs(next.x - v[i].x) <= tol && std::abs(next.y - v[i].y) <= tol) {
      continue;
    }
    labels.push_back(edge_cut[i]);
  }
  std::sort(labels.begin(), labels.end());
  labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
  std::vector<InfluencePair> pairs;
  pairs.reserve(labels.size());
  for (uint32_t label : labels) pairs.push_back(cuts[label]);
  return NnValidityResult(q, universe_, std::move(answers), std::move(pairs),
                          poly.Simplified());
}

NnValidityResult NnValidityEngine::QueryTpnn(const geo::Point& q, size_t k) {
  LBSQ_CHECK(k > 0);
  LBSQ_CHECK(universe_.Contains(q));
  // The paper's algorithm runs on the engine's own tree; an engine built
  // on a backend has none.
  LBSQ_CHECK(owned_.has_value());
  const RTreeBackend& be = *owned_;
  rtree::RTree& tree = *be.tree();
  stats_ = Stats();

  // Step (i): the answer set.
  const uint64_t na_before = be.node_accesses();
  const uint64_t pa_before = be.page_accesses();
  std::vector<rtree::Neighbor> answers = rtree::KnnBestFirst(tree, q, k);
  stats_.nn_node_accesses = be.node_accesses() - na_before;
  stats_.nn_page_accesses = be.page_accesses() - pa_before;

  geo::ConvexPolygon poly = geo::ConvexPolygon::FromRect(universe_);
  std::vector<InfluencePair> pairs;
  // Pairs discovered so far (the algorithm's "o_inf in S_inf" test in
  // Figures 10/12); re-discoveries confirm the vertex, which also makes
  // termination independent of floating-point grazing cases.
  std::set<std::pair<rtree::ObjectId, rtree::ObjectId>> seen;

  if (!storage::PageStore::PendingReadError().ok()) {
    // A page failed during step (i): the answer set itself is suspect, so
    // the region-refinement invariants (q closest to its own answers) no
    // longer hold. Return a degraded result immediately — the checked
    // query layer that enabled error reporting will discard it.
    return NnValidityResult(q, universe_, std::move(answers), std::move(pairs),
                            std::move(poly));
  }

  if (answers.size() < k || be.size() <= k) {
    // No outside objects exist: the result can never change inside the
    // universe.
    return NnValidityResult(q, universe_, std::move(answers), std::move(pairs),
                            std::move(poly));
  }

  // Step (ii): shrink the polygon with TPNN/TPkNN queries until every
  // vertex is confirmed.
  VertexFlags flags(poly);
  const uint64_t tp_na_before = be.node_accesses();
  const uint64_t tp_pa_before = be.page_accesses();
  while (true) {
    // A TP query hit a bad page: the influence set cannot be completed,
    // so stop refining (the partial region stays a superset-of-truth
    // artifact that the checked query layer will discard).
    if (!storage::PageStore::PendingReadError().ok()) break;
    const size_t vi = flags.FirstUnconfirmed();
    if (vi == VertexFlags::kNone) break;
    const geo::Point v = poly.vertices()[vi];

    const geo::Vec2 to_vertex = v - q;
    if (to_vertex.SquaredNorm() == 0.0) {
      // Degenerate: the region collapsed onto the query point.
      flags.flags()[vi] = true;
      continue;
    }
    const geo::Vec2 dir = to_vertex.Normalized();

    ++stats_.tpnn_queries;
    bool found_cutting_plane = false;
    geo::HalfPlane h;
    InfluencePair pair;
    bool found = false;
    if (k == 1) {
      const tp::TpnnResult res =
          tp::Tpnn(tree, q, dir, answers[0].entry.point, answers[0].entry.id);
      if (res.found) {
        found = true;
        pair = InfluencePair{res.object, answers[0].entry};
      }
    } else {
      const tp::TpknnResult res = tp::Tpknn(tree, q, dir, answers);
      if (res.found) {
        found = true;
        pair = InfluencePair{res.incoming, res.displaced};
      }
    }
    if (found && seen.insert({pair.incoming.id, pair.displaced.id}).second) {
      h = geo::BisectorTowards(pair.displaced.point, pair.incoming.point);
      found_cutting_plane = poly.IsCutBy(h);
    }

    if (!found_cutting_plane) {
      // No object influences before the vertex (or only an already-known
      // bisector grazes it): v is confirmed.
      ++stats_.confirming_queries;
      flags.flags()[vi] = true;
      continue;
    }

    ++stats_.discovering_queries;
    pairs.push_back(pair);
    const geo::ConvexPolygon clipped = poly.ClipHalfPlane(h);
    // The query point is inside its own validity region, so clipping can
    // never produce an empty polygon.
    LBSQ_CHECK(!clipped.IsEmpty());
    VertexFlags new_flags(clipped);
    new_flags.Rebuild(poly, flags.flags(), clipped);
    poly = clipped;
    flags = new_flags;
  }
  stats_.tpnn_node_accesses = be.node_accesses() - tp_na_before;
  stats_.tpnn_page_accesses = be.page_accesses() - tp_pa_before;

  // Canonicalize: clipping can leave near-duplicate or collinear
  // vertices behind; the region (and its edge count) is the simplified
  // polygon.
  return NnValidityResult(q, universe_, std::move(answers), std::move(pairs),
                          poly.Simplified());
}

}  // namespace lbsq::core
