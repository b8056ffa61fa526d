#ifndef SERVEBENCH_REFERENCE_H_
#define SERVEBENCH_REFERENCE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geometry/point.h"
#include "geometry/rect.h"
#include "rtree/node.h"

// The benchmark's own answer oracle: a uniform bucket grid over the
// universe, independent of the R-tree, engines and cache under test.
// Answers are reduced to an order-free fingerprint of their object ids,
// which is what a served answer must match at its request point (a cache
// hit may list the same objects in another order or carry another region).

namespace lbsq::servebench {

// Fingerprint of a set of object ids: FNV-1a over the sorted ids.
uint64_t IdSetHash(std::vector<rtree::ObjectId> ids);

class ReferenceIndex {
 public:
  ReferenceIndex(const geo::Rect& universe,
                 const std::vector<rtree::DataEntry>& entries);

  void Insert(const geo::Point& p, rtree::ObjectId id);
  // False when no object with that id sits at p.
  bool Delete(const geo::Point& p, rtree::ObjectId id);

  // The k nearest objects, ties at equal distance broken toward the
  // smaller id (the serving path's rule).
  std::vector<rtree::ObjectId> Knn(const geo::Point& q, size_t k) const;
  // Objects inside the closed window Rect::Centered(focus, hx, hy).
  std::vector<rtree::ObjectId> Window(const geo::Point& focus, double hx,
                                      double hy) const;
  // Objects within distance `radius` of `focus` (closed).
  std::vector<rtree::ObjectId> Range(const geo::Point& focus,
                                     double radius) const;

  size_t size() const { return size_; }

 private:
  size_t CellX(double x) const;
  size_t CellY(double y) const;
  std::vector<rtree::DataEntry>& Cell(const geo::Point& p);

  geo::Rect universe_;
  size_t side_ = 1;  // cells per axis
  double cell_w_ = 1.0;
  double cell_h_ = 1.0;
  std::vector<std::vector<rtree::DataEntry>> cells_;
  size_t size_ = 0;
};

}  // namespace lbsq::servebench

#endif  // SERVEBENCH_REFERENCE_H_
