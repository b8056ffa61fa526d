#ifndef SERVEBENCH_WORKLOADS_H_
#define SERVEBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "geometry/point.h"
#include "rtree/node.h"
#include "workload/datasets.h"

// Inputs of the four workloads, all generated from the seed before any
// server exists: datasets, op streams, update positions, trajectory legs
// and the reference fingerprint of every request's answer. The program
// under test only ever sees the requests.

namespace lbsq::servebench {

enum class WorkloadId { kHotHits, kColdMiss, kChurnK4, kPushWalk };

// Request kinds of the 40/20/20/20 mix, plus the push walk's subscribed
// 8-NN query.
enum class QueryKind : uint8_t { kNn1, kNn10, kWindow, kRange, kPush };
inline constexpr size_t kNumQueryKinds = 5;

// Window and range extents of bench/churn.cc.
inline constexpr double kWindowHx = 0.02;
inline constexpr double kWindowHy = 0.015;
inline constexpr double kRangeRadius = 0.025;
// Distances use the unit square as a 100 km x 100 km metro area, as in
// bench/push_loadgen.cc.
inline constexpr double kKmPerUnit = 100.0;

struct RequestOp {
  QueryKind kind = QueryKind::kNn1;
  geo::Point point;
  uint64_t ref_hash = 0;  // IdSetHash of the reference answer at `point`
};

struct Update {
  geo::Point point;
  rtree::ObjectId id = 0;
  bool insert = true;
};

// A request stream with the updates that precede each request:
// updates[update_begin[i] .. update_begin[i + 1]) are applied just before
// request i (update_begin has ops.size() + 1 entries).
struct Stream {
  std::vector<RequestOp> ops;
  std::vector<Update> updates;
  std::vector<uint32_t> update_begin;
};

struct Leg {
  geo::Point start;
  geo::Vec2 velocity;
};

struct Shape {
  size_t points = 0;
  double buffer_fraction = 0.0;  // LRU buffer as a share of the tree
  size_t in_flight = 1;          // requests per lockstep batch
  size_t stream_ops = 0;         // timed requests generated
  size_t warm_ops = 0;           // untimed warm-up requests
  size_t checkpoint = 0;         // ops (legs on push_walk) with exact counts
  size_t legs = 0;               // push_walk legs generated
  size_t setup_repeats = 1;      // set-ups timed for setup_s
  bool cycle = false;            // the timed phase may replay the stream
};

struct Inputs {
  WorkloadId id = WorkloadId::kHotHits;
  Shape shape;
  workload::Dataset dataset;
  Stream warm;   // untimed: applied in-process before serving starts
  Stream timed;  // sent over the wire in order
  std::vector<Leg> legs;
};

bool ParseWorkload(const std::string& name, WorkloadId* out);
const char* WorkloadName(WorkloadId id);

// `small` shrinks every size for the determinism self-test.
Inputs MakeInputs(WorkloadId id, uint64_t seed, bool small);

}  // namespace lbsq::servebench

#endif  // SERVEBENCH_WORKLOADS_H_
