#ifndef LBSQ_CORE_MOBILE_CLIENT_H_
#define LBSQ_CORE_MOBILE_CLIENT_H_

#include <cstddef>
#include <vector>

#include "core/server.h"
#include "core/validity_region.h"
#include "geometry/convex_polygon.h"
#include "geometry/point.h"
#include "rtree/rtree.h"

// Mobile clients that move through the data space and keep their query
// answer current. A validity-region client re-contacts the server only
// after leaving the validity region; a naive client re-queries at every
// position update (the conventional approach the paper's introduction
// argues against). Both expose the number of server round trips, the
// quantity the validity-region machinery exists to reduce.

namespace lbsq::core {

// Continuous k-NN client ("show me the k closest restaurants as I move").
class MobileNnClient {
 public:
  enum class Mode {
    kValidityRegion,  // re-query only when outside V(q)
    kAlwaysQuery,     // conventional: re-query at every update
  };

  MobileNnClient(Server* server, size_t k, Mode mode = Mode::kValidityRegion)
      : server_(server), k_(k), mode_(mode) {}

  // Updates the client position and returns the current k-NN answer set.
  // The returned identity set is position-accurate; within a validity
  // region the cached set is returned without contacting the server.
  const std::vector<rtree::Neighbor>& MoveTo(const geo::Point& p) {
    if (mode_ == Mode::kAlwaysQuery) {
      // Conventional client: plain query, no validity machinery.
      last_cached_ = false;
      answers_ = server_->PlainNnQuery(p, k_);
      ++server_queries_;
      return answers_;
    }
    const bool fresh_needed = !has_result_ || !result_.IsValidAt(p);
    last_cached_ = !fresh_needed;
    if (fresh_needed) {
      result_ = server_->NnQuery(p, k_);
      has_result_ = true;
      ++server_queries_;
    }
    return result_.answers();
  }

  // True when the last MoveTo was answered from the cache.
  bool last_answer_was_cached() const { return last_cached_; }

  size_t server_queries() const { return server_queries_; }
  const NnValidityResult& last_result() const { return result_; }

 private:
  Server* server_;
  size_t k_;
  Mode mode_;
  NnValidityResult result_;
  std::vector<rtree::Neighbor> answers_;  // kAlwaysQuery mode only
  bool has_result_ = false;
  bool last_cached_ = false;
  size_t server_queries_ = 0;
};

// Continuous window-query client: a window of fixed extents follows the
// client ("all hotels within the map viewport around me").
class MobileWindowClient {
 public:
  enum class Mode { kValidityRegion, kConservativeRegion, kAlwaysQuery };

  MobileWindowClient(Server* server, double hx, double hy,
                     Mode mode = Mode::kValidityRegion)
      : server_(server), hx_(hx), hy_(hy), mode_(mode) {}

  const std::vector<rtree::DataEntry>& MoveTo(const geo::Point& p) {
    if (mode_ == Mode::kAlwaysQuery) {
      last_cached_ = false;
      objects_ = server_->PlainWindowQuery(p, hx_, hy_);
      ++server_queries_;
      return objects_;
    }
    bool valid = has_result_;
    if (valid) {
      valid = mode_ == Mode::kConservativeRegion
                  ? result_.IsValidAtConservative(p)
                  : result_.IsValidAt(p);
    }
    last_cached_ = valid;
    if (!valid) {
      result_ = server_->WindowQuery(p, hx_, hy_);
      has_result_ = true;
      ++server_queries_;
    }
    return result_.result();
  }

  // True when the last MoveTo was answered from the cache (cf. the NN
  // client): the cache-hit-rate measurements of EXPERIMENTS.md-style runs
  // read this after each update.
  bool last_answer_was_cached() const { return last_cached_; }

  size_t server_queries() const { return server_queries_; }
  const WindowValidityResult& last_result() const { return result_; }

 private:
  Server* server_;
  double hx_;
  double hy_;
  Mode mode_;
  WindowValidityResult result_;
  std::vector<rtree::DataEntry> objects_;  // kAlwaysQuery mode only
  bool has_result_ = false;
  bool last_cached_ = false;
  size_t server_queries_ = 0;
};

// Continuous range-query client ("everything within 5 km of me"), using
// the arc-bounded validity regions of the range extension.
class MobileRangeClient {
 public:
  enum class Mode { kValidityRegion, kConservativeRegion, kAlwaysQuery };

  MobileRangeClient(Server* server, double radius,
                    Mode mode = Mode::kValidityRegion)
      : server_(server), radius_(radius), mode_(mode) {}

  const std::vector<rtree::DataEntry>& MoveTo(const geo::Point& p) {
    bool valid = has_result_ && mode_ != Mode::kAlwaysQuery;
    if (valid) {
      valid = mode_ == Mode::kConservativeRegion ? conservative_.Contains(p)
                                                 : result_.IsValidAt(p);
    }
    last_cached_ = valid;
    if (!valid) {
      result_ = server_->RangeQuery(p, radius_);
      // A thin client tests only the convex polygon it derives once per
      // fresh answer, not the arc-bounded region.
      if (mode_ == Mode::kConservativeRegion) {
        conservative_ = result_.region().ConservativePolygon(p);
      }
      has_result_ = true;
      ++server_queries_;
    }
    return result_.result();
  }

  // True when the last MoveTo was answered from the cache (cf. the NN
  // client).
  bool last_answer_was_cached() const { return last_cached_; }

  size_t server_queries() const { return server_queries_; }
  const RangeValidityResult& last_result() const { return result_; }

 private:
  Server* server_;
  double radius_;
  Mode mode_;
  RangeValidityResult result_;
  geo::ConvexPolygon conservative_;  // kConservativeRegion mode only
  bool has_result_ = false;
  bool last_cached_ = false;
  size_t server_queries_ = 0;
};

}  // namespace lbsq::core

#endif  // LBSQ_CORE_MOBILE_CLIENT_H_
