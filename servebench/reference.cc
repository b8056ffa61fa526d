#include "reference.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace lbsq::servebench {

uint64_t IdSetHash(std::vector<rtree::ObjectId> ids) {
  std::sort(ids.begin(), ids.end());
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const rtree::ObjectId id : ids) {
    for (int shift = 0; shift < 32; shift += 8) {
      h ^= (id >> shift) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
  return h ^ ids.size();
}

ReferenceIndex::ReferenceIndex(const geo::Rect& universe,
                               const std::vector<rtree::DataEntry>& entries)
    : universe_(universe) {
  // About two objects per cell.
  side_ = std::max<size_t>(
      1, static_cast<size_t>(std::sqrt(static_cast<double>(entries.size()) / 2)));
  cell_w_ = universe_.width() / static_cast<double>(side_);
  cell_h_ = universe_.height() / static_cast<double>(side_);
  cells_.resize(side_ * side_);
  for (const rtree::DataEntry& e : entries) Insert(e.point, e.id);
}

size_t ReferenceIndex::CellX(double x) const {
  const double c = std::floor((x - universe_.min_x) / cell_w_);
  return static_cast<size_t>(std::clamp(c, 0.0, static_cast<double>(side_ - 1)));
}

size_t ReferenceIndex::CellY(double y) const {
  const double c = std::floor((y - universe_.min_y) / cell_h_);
  return static_cast<size_t>(std::clamp(c, 0.0, static_cast<double>(side_ - 1)));
}

std::vector<rtree::DataEntry>& ReferenceIndex::Cell(const geo::Point& p) {
  return cells_[CellY(p.y) * side_ + CellX(p.x)];
}

void ReferenceIndex::Insert(const geo::Point& p, rtree::ObjectId id) {
  Cell(p).push_back({p, id});
  ++size_;
}

bool ReferenceIndex::Delete(const geo::Point& p, rtree::ObjectId id) {
  std::vector<rtree::DataEntry>& cell = Cell(p);
  for (size_t i = 0; i < cell.size(); ++i) {
    if (cell[i].id == id && cell[i].point.x == p.x && cell[i].point.y == p.y) {
      cell[i] = cell.back();
      cell.pop_back();
      --size_;
      return true;
    }
  }
  return false;
}

std::vector<rtree::ObjectId> ReferenceIndex::Knn(const geo::Point& q,
                                                 size_t k) const {
  // Ring search around q's cell: after ring r, every unvisited object is
  // at least `reach` away, so the search stops once the k-th best is
  // strictly closer than that (an equal distance could still be a tie
  // with a smaller id).
  using Candidate = std::pair<double, rtree::ObjectId>;
  std::vector<Candidate> best;  // max-heap on (distance, id), size <= k
  const long cx = static_cast<long>(CellX(q.x));
  const long cy = static_cast<long>(CellY(q.y));
  const long side = static_cast<long>(side_);
  auto visit = [&](long x, long y) {
    if (x < 0 || y < 0 || x >= side || y >= side) return;
    for (const rtree::DataEntry& e : cells_[y * side + x]) {
      const double dx = e.point.x - q.x;
      const double dy = e.point.y - q.y;
      const Candidate c{dx * dx + dy * dy, e.id};
      if (best.size() < k) {
        best.push_back(c);
        std::push_heap(best.begin(), best.end());
      } else if (c < best.front()) {
        std::pop_heap(best.begin(), best.end());
        best.back() = c;
        std::push_heap(best.begin(), best.end());
      }
    }
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (long r = 0; r < side; ++r) {
    if (r == 0) {
      visit(cx, cy);
    } else {
      for (long x = cx - r; x <= cx + r; ++x) {
        visit(x, cy - r);
        visit(x, cy + r);
      }
      for (long y = cy - r + 1; y <= cy + r - 1; ++y) {
        visit(cx - r, y);
        visit(cx + r, y);
      }
    }
    if (best.size() < k) continue;
    // Distance from q to the nearest cell outside rings 0..r; a side
    // that already reaches the universe edge has nothing beyond it.
    double reach = kInf;
    if (cx - r > 0) {
      reach = std::min(reach, q.x - (universe_.min_x + (cx - r) * cell_w_));
    }
    if (cx + r < side - 1) {
      reach = std::min(reach, universe_.min_x + (cx + r + 1) * cell_w_ - q.x);
    }
    if (cy - r > 0) {
      reach = std::min(reach, q.y - (universe_.min_y + (cy - r) * cell_h_));
    }
    if (cy + r < side - 1) {
      reach = std::min(reach, universe_.min_y + (cy + r + 1) * cell_h_ - q.y);
    }
    reach = std::max(reach, 0.0);
    if (best.front().first < reach * reach) break;
  }
  std::vector<rtree::ObjectId> ids;
  ids.reserve(best.size());
  for (const Candidate& c : best) ids.push_back(c.second);
  return ids;
}

std::vector<rtree::ObjectId> ReferenceIndex::Window(const geo::Point& focus,
                                                    double hx,
                                                    double hy) const {
  const geo::Rect w = geo::Rect::Centered(focus, hx, hy);
  std::vector<rtree::ObjectId> ids;
  for (size_t y = CellY(w.min_y); y <= CellY(w.max_y); ++y) {
    for (size_t x = CellX(w.min_x); x <= CellX(w.max_x); ++x) {
      for (const rtree::DataEntry& e : cells_[y * side_ + x]) {
        if (w.Contains(e.point)) ids.push_back(e.id);
      }
    }
  }
  return ids;
}

std::vector<rtree::ObjectId> ReferenceIndex::Range(const geo::Point& focus,
                                                   double radius) const {
  const geo::Rect box = geo::Rect::Centered(focus, radius, radius);
  const double r_sq = radius * radius;
  std::vector<rtree::ObjectId> ids;
  for (size_t y = CellY(box.min_y); y <= CellY(box.max_y); ++y) {
    for (size_t x = CellX(box.min_x); x <= CellX(box.max_x); ++x) {
      for (const rtree::DataEntry& e : cells_[y * side_ + x]) {
        const double dx = e.point.x - focus.x;
        const double dy = e.point.y - focus.y;
        if (dx * dx + dy * dy <= r_sq) ids.push_back(e.id);
      }
    }
  }
  return ids;
}

}  // namespace lbsq::servebench
