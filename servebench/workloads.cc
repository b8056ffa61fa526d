#include "workloads.h"

#include <cmath>

#include "reference.h"
#include "workload/queries.h"

namespace lbsq::servebench {

namespace {

// Independent sub-seeds for the dataset and each stream (SplitMix64).
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// The request mix by stream position: 40% 1-NN, 20% 10-NN, 20% window,
// 20% range.
QueryKind MixKind(size_t i) {
  static constexpr QueryKind kPattern[5] = {QueryKind::kNn1, QueryKind::kNn1,
                                            QueryKind::kNn10,
                                            QueryKind::kWindow,
                                            QueryKind::kRange};
  return kPattern[i % 5];
}

Shape ShapeOf(WorkloadId id, bool small) {
  Shape s;
  switch (id) {
    case WorkloadId::kHotHits:
      s.points = small ? 2000 : 20000;
      s.buffer_fraction = 0.1;
      s.in_flight = 32;
      s.stream_ops = small ? 512 : 4096;
      s.checkpoint = s.stream_ops;  // one full replay of the stream
      s.setup_repeats = small ? 1 : 5;
      s.cycle = true;
      break;
    case WorkloadId::kColdMiss:
      s.points = small ? 5000 : 100000;
      s.buffer_fraction = 0.1;
      s.in_flight = 1;
      s.stream_ops = small ? 2000 : 60000;
      s.warm_ops = small ? 256 : 4608;
      s.checkpoint = small ? 512 : 4096;
      s.setup_repeats = small ? 1 : 3;
      s.cycle = true;
      break;
    case WorkloadId::kChurnK4:
      s.points = small ? 2000 : 20000;
      s.in_flight = 8;
      s.stream_ops = small ? 4000 : 600000;
      s.warm_ops = small ? 256 : 2048;
      s.checkpoint = small ? 1024 : 8192;
      s.setup_repeats = small ? 1 : 7;
      break;
    case WorkloadId::kPushWalk:
      s.points = small ? 2000 : 20000;
      s.buffer_fraction = 0.1;
      s.legs = small ? 40 : 3000;
      s.checkpoint = small ? 20 : 200;
      s.setup_repeats = small ? 1 : 21;  // a set-up takes milliseconds
      break;
  }
  return s;
}

// Fills in the reference fingerprint of every request, applying each
// request's preceding updates to the oracle first.
void ComputeReferences(ReferenceIndex* oracle, Stream* stream) {
  for (size_t i = 0; i < stream->ops.size(); ++i) {
    for (uint32_t u = stream->update_begin[i]; u < stream->update_begin[i + 1];
         ++u) {
      const Update& up = stream->updates[u];
      if (up.insert) {
        oracle->Insert(up.point, up.id);
      } else {
        (void)oracle->Delete(up.point, up.id);
      }
    }
    RequestOp& op = stream->ops[i];
    switch (op.kind) {
      case QueryKind::kNn1:
        op.ref_hash = IdSetHash(oracle->Knn(op.point, 1));
        break;
      case QueryKind::kNn10:
        op.ref_hash = IdSetHash(oracle->Knn(op.point, 10));
        break;
      case QueryKind::kWindow:
        op.ref_hash =
            IdSetHash(oracle->Window(op.point, kWindowHx, kWindowHy));
        break;
      case QueryKind::kRange:
        op.ref_hash = IdSetHash(oracle->Range(op.point, kRangeRadius));
        break;
      case QueryKind::kPush:
        break;
    }
  }
}

Stream QueryStream(const std::vector<geo::Point>& points) {
  Stream s;
  s.ops.reserve(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    s.ops.push_back(RequestOp{MixKind(i), points[i], 0});
  }
  s.update_begin.assign(points.size() + 1, 0);
  return s;
}

// Splits a mixed query/update stream after `warm_queries` queries. The
// exact reservations keep the peak resident set from depending on where
// vector growth happens to double for a seed.
void SplitMixed(const workload::MixedWorkload& mixed, size_t warm_queries,
                Stream* warm, Stream* timed) {
  const size_t updates = mixed.inserts + mixed.deletes;
  warm->ops.reserve(warm_queries);
  warm->update_begin.reserve(warm_queries + 1);
  warm->updates.reserve(updates);
  timed->ops.reserve(mixed.queries - warm_queries);
  timed->update_begin.reserve(mixed.queries - warm_queries + 1);
  timed->updates.reserve(updates);
  Stream* cur = warm;
  size_t queries = 0;
  cur->update_begin.push_back(0);
  for (const workload::MixedOp& op : mixed.ops) {
    if (op.kind == workload::MixedOp::Kind::kQuery) {
      cur->ops.push_back(RequestOp{MixKind(queries), op.point, 0});
      cur->update_begin.push_back(static_cast<uint32_t>(cur->updates.size()));
      if (++queries == warm_queries) {
        cur = timed;
        cur->update_begin.push_back(0);
      }
      continue;
    }
    cur->updates.push_back(Update{
        op.point, op.id, op.kind == workload::MixedOp::Kind::kInsert});
  }
  // Updates after the last query are never applied; drop them so
  // update_begin stays ops.size() + 1 long.
  cur->updates.resize(cur->update_begin.back());
}

// Random-waypoint legs as in bench/push_loadgen.cc: each leg starts at a
// data-distributed waypoint and heads for the next one at constant speed.
std::vector<Leg> MakeLegs(const workload::Dataset& dataset, size_t count,
                          uint64_t seed) {
  constexpr double kSpeed = 0.25;  // universe units per trajectory second
  const std::vector<geo::Point> waypoints =
      workload::MakeRandomWaypointTrajectory(dataset, 2 * count + 2, 0.1,
                                             seed);
  std::vector<Leg> legs;
  legs.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const geo::Point start = waypoints[2 * i];
    geo::Vec2 dir = waypoints[2 * i + 1] - start;
    if (dir.SquaredNorm() == 0.0) dir = geo::Vec2{1.0, 0.5};
    legs.push_back(Leg{start, dir * (kSpeed / std::sqrt(dir.SquaredNorm()))});
  }
  return legs;
}

}  // namespace

bool ParseWorkload(const std::string& name, WorkloadId* out) {
  for (const WorkloadId id : {WorkloadId::kHotHits, WorkloadId::kColdMiss,
                              WorkloadId::kChurnK4, WorkloadId::kPushWalk}) {
    if (name == WorkloadName(id)) {
      *out = id;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(WorkloadId id) {
  switch (id) {
    case WorkloadId::kHotHits:
      return "hot_hits";
    case WorkloadId::kColdMiss:
      return "cold_miss";
    case WorkloadId::kChurnK4:
      return "churn_k4";
    case WorkloadId::kPushWalk:
      return "push_walk";
  }
  return "unknown";
}

Inputs MakeInputs(WorkloadId id, uint64_t seed, bool small) {
  Inputs in;
  in.id = id;
  in.shape = ShapeOf(id, small);
  const Shape& s = in.shape;
  in.dataset = workload::MakeUnitUniform(s.points, SubSeed(seed, 0));
  const geo::Rect& universe = in.dataset.universe;
  switch (id) {
    case WorkloadId::kHotHits:
      // The warm-up fills the cache with exactly the stream it replays.
      in.timed = QueryStream(workload::MakeHotspotQueries(
          universe, s.stream_ops, /*hotspots=*/16, SubSeed(seed, 1),
          /*sigma=*/0.005));
      in.warm = in.timed;
      break;
    case WorkloadId::kColdMiss:
      in.timed = QueryStream(
          workload::MakeUniformQueries(universe, s.stream_ops, SubSeed(seed, 1)));
      in.warm = QueryStream(
          workload::MakeUniformQueries(universe, s.warm_ops, SubSeed(seed, 2)));
      break;
    case WorkloadId::kChurnK4:
      SplitMixed(workload::MakeMixedWorkload(
                     in.dataset, s.warm_ops + s.stream_ops,
                     /*updates_per_kilo_query=*/100.0, /*hotspots=*/16,
                     SubSeed(seed, 1), /*sigma=*/0.001),
                 s.warm_ops, &in.warm, &in.timed);
      break;
    case WorkloadId::kPushWalk:
      in.legs = MakeLegs(in.dataset, s.legs, SubSeed(seed, 1));
      return in;  // crossing points depend on the answers; checked later
  }
  ReferenceIndex oracle(universe, in.dataset.entries);
  if (id == WorkloadId::kColdMiss) {
    // A disjoint warm-up stream: only the timed answers need references.
    ComputeReferences(&oracle, &in.timed);
  } else if (id == WorkloadId::kChurnK4) {
    ComputeReferences(&oracle, &in.warm);
    ComputeReferences(&oracle, &in.timed);
  } else {
    ComputeReferences(&oracle, &in.timed);
  }
  return in;
}

}  // namespace lbsq::servebench
