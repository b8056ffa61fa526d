#include "core/wire_format.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "common/bytes.h"
#include "geometry/convex_polygon.h"
#include "geometry/halfplane.h"

namespace lbsq::core::wire {

namespace {

constexpr size_t kEntryBytes = 2 * sizeof(double) + sizeof(rtree::ObjectId);
constexpr size_t kPointBytes = 2 * sizeof(double);
constexpr size_t kRectBytes = 4 * sizeof(double);

Status Truncated() { return Status::InvalidArgument("truncated message"); }

void AppendEntry(ByteWriter* writer, const rtree::DataEntry& e) {
  writer->Append(e.point.x);
  writer->Append(e.point.y);
  writer->Append(e.id);
}

// All Read* helpers are bounded (false = truncated) and reject non-finite
// coordinates: every value the wire ships is a coordinate or a distance,
// and a NaN/inf would otherwise leak into client-side geometry.
bool ReadDouble(ByteReader* reader, double* out) {
  return reader->TryRead(out) && std::isfinite(*out);
}

bool ReadEntry(ByteReader* reader, rtree::DataEntry* e) {
  return ReadDouble(reader, &e->point.x) && ReadDouble(reader, &e->point.y) &&
         reader->TryRead(&e->id);
}

bool ReadPoint(ByteReader* reader, geo::Point* p) {
  return ReadDouble(reader, &p->x) && ReadDouble(reader, &p->y);
}

void AppendRect(ByteWriter* writer, const geo::Rect& r) {
  writer->Append(r.min_x);
  writer->Append(r.min_y);
  writer->Append(r.max_x);
  writer->Append(r.max_y);
}

bool ReadRect(ByteReader* reader, geo::Rect* r) {
  return ReadDouble(reader, &r->min_x) && ReadDouble(reader, &r->min_y) &&
         ReadDouble(reader, &r->max_x) && ReadDouble(reader, &r->max_y);
}

// Preallocation clamp: never reserve more slots than the remaining bytes
// could possibly hold. A hostile count in a 12-byte message then reserves
// nothing, while a truthful count reserves exactly right.
size_t ClampedReserve(uint32_t count, size_t remaining, size_t entry_bytes) {
  return std::min<size_t>(count, remaining / entry_bytes);
}

}  // namespace

StatusOr<std::vector<uint8_t>> EncodeNnResult(const NnValidityResult& result) {
  ByteWriter writer;
  writer.Append(result.query().x);
  writer.Append(result.query().y);
  // The universe travels with the first answer so that the client can
  // evaluate the boundary part of the validity check.
  // (It is part of NnValidityResult's client check.)
  // Encoded region: the universe rect reconstructed below.
  // Note: the polygon itself is deliberately NOT shipped.
  writer.AppendVarCount(static_cast<uint32_t>(result.answers().size()));
  for (const rtree::Neighbor& n : result.answers()) {
    AppendEntry(&writer, n.entry);
  }
  // Each pair ships its incoming object and the index of the answer it
  // displaces. A pair displacing a non-answer has no index — encoding one
  // anyway (the old behavior was to emit 0) would decode into a
  // *different* bisector and hence a silently wrong validity region, so
  // fail loudly instead.
  struct IndexedPair {
    uint32_t index;
    const rtree::DataEntry* incoming;
  };
  std::vector<IndexedPair> indexed;
  indexed.reserve(result.influence_pairs().size());
  for (const InfluencePair& pair : result.influence_pairs()) {
    const auto it = std::find_if(
        result.answers().begin(), result.answers().end(),
        [&](const rtree::Neighbor& a) {
          return a.entry.id == pair.displaced.id;
        });
    if (it == result.answers().end()) {
      return Status::Internal(
          "influence pair displaces an object that is not among the answers");
    }
    indexed.push_back(IndexedPair{
        static_cast<uint32_t>(it - result.answers().begin()), &pair.incoming});
  }
  // Canonical pair order — (displaced answer index, incoming id), then
  // (x, y) for the degenerate duplicate-id case — so the bytes are a
  // pure function of the answers and the pair set, whichever order the
  // engine discovered the pairs in.
  std::sort(indexed.begin(), indexed.end(),
            [](const IndexedPair& a, const IndexedPair& b) {
              if (a.index != b.index) return a.index < b.index;
              if (a.incoming->id != b.incoming->id) {
                return a.incoming->id < b.incoming->id;
              }
              if (a.incoming->point.x != b.incoming->point.x) {
                return a.incoming->point.x < b.incoming->point.x;
              }
              return a.incoming->point.y < b.incoming->point.y;
            });
  writer.AppendVarCount(static_cast<uint32_t>(indexed.size()));
  for (const IndexedPair& pair : indexed) {
    AppendEntry(&writer, *pair.incoming);
    writer.AppendVarCount(pair.index);
  }
  // Universe (the boundary part of IsValidAt): 32 bytes.
  AppendRect(&writer, result.universe());
  return writer.Take();
}

StatusOr<NnValidityResult> DecodeNnResult(const std::vector<uint8_t>& bytes) {
  ByteReader reader(bytes);
  geo::Point query;
  if (!ReadPoint(&reader, &query)) return Truncated();

  uint32_t answer_count = 0;
  if (!reader.TryReadVarCount(&answer_count)) return Truncated();
  std::vector<rtree::Neighbor> answers;
  answers.reserve(ClampedReserve(answer_count, reader.remaining(),
                                 kEntryBytes));
  for (uint32_t i = 0; i < answer_count; ++i) {
    rtree::Neighbor n;
    if (!ReadEntry(&reader, &n.entry)) return Truncated();
    n.distance = geo::Distance(query, n.entry.point);
    answers.push_back(n);
  }

  uint32_t pair_count = 0;
  if (!reader.TryReadVarCount(&pair_count)) return Truncated();
  std::vector<InfluencePair> pairs;
  pairs.reserve(ClampedReserve(pair_count, reader.remaining(),
                               kEntryBytes + 1));
  for (uint32_t i = 0; i < pair_count; ++i) {
    InfluencePair pair;
    if (!ReadEntry(&reader, &pair.incoming)) return Truncated();
    uint32_t index = 0;
    if (!reader.TryReadVarCount(&index)) return Truncated();
    if (index >= answers.size()) {
      return Status::InvalidArgument("influence pair index out of range");
    }
    pair.displaced = answers[index].entry;
    pairs.push_back(pair);
  }
  geo::Rect universe;
  if (!ReadRect(&reader, &universe)) return Truncated();
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after message");
  }

  // Rebuild the region polygon from the half-planes — identical to the
  // server's (same constraints, same clipping).
  geo::ConvexPolygon region =
      universe.IsEmpty() ? geo::ConvexPolygon()
                         : geo::ConvexPolygon::FromRect(universe);
  std::vector<geo::Point> scratch;
  for (const InfluencePair& pair : pairs) {
    region.ClipInPlace(
        geo::BisectorTowards(pair.displaced.point, pair.incoming.point),
        &scratch);
  }
  return NnValidityResult(query, universe, std::move(answers),
                          std::move(pairs), std::move(region));
}

StatusOr<std::vector<uint8_t>> EncodeWindowResult(
    const WindowValidityResult& result) {
  ByteWriter writer;
  writer.Append(result.focus().x);
  writer.Append(result.focus().y);
  writer.Append(result.hx());
  writer.Append(result.hy());
  writer.AppendVarCount(static_cast<uint32_t>(result.result().size()));
  for (const rtree::DataEntry& e : result.result()) {
    AppendEntry(&writer, e);
  }
  AppendRect(&writer, result.region().base());
  AppendRect(&writer, result.conservative_region());
  // Hole boxes are Minkowski boxes of outer points: ship the points.
  writer.AppendVarCount(
      static_cast<uint32_t>(result.region().holes().size()));
  for (const geo::Rect& hole : result.region().holes()) {
    const geo::Point center = hole.Center();
    writer.Append(center.x);
    writer.Append(center.y);
  }
  return writer.Take();
}

StatusOr<WindowValidityResult> DecodeWindowResult(
    const std::vector<uint8_t>& bytes) {
  ByteReader reader(bytes);
  geo::Point focus;
  if (!ReadPoint(&reader, &focus)) return Truncated();
  double hx = 0.0, hy = 0.0;
  if (!ReadDouble(&reader, &hx) || !ReadDouble(&reader, &hy)) {
    return Truncated();
  }
  if (hx <= 0.0 || hy <= 0.0) {
    return Status::InvalidArgument("non-positive window extents");
  }
  uint32_t result_count = 0;
  if (!reader.TryReadVarCount(&result_count)) return Truncated();
  std::vector<rtree::DataEntry> result;
  result.reserve(ClampedReserve(result_count, reader.remaining(),
                                kEntryBytes));
  for (uint32_t i = 0; i < result_count; ++i) {
    rtree::DataEntry e;
    if (!ReadEntry(&reader, &e)) return Truncated();
    result.push_back(e);
  }
  geo::Rect base, conservative;
  if (!ReadRect(&reader, &base) || !ReadRect(&reader, &conservative)) {
    return Truncated();
  }
  uint32_t hole_count = 0;
  if (!reader.TryReadVarCount(&hole_count)) return Truncated();
  std::vector<geo::Rect> holes;
  holes.reserve(ClampedReserve(hole_count, reader.remaining(), kPointBytes));
  for (uint32_t i = 0; i < hole_count; ++i) {
    geo::Point center;
    if (!ReadPoint(&reader, &center)) return Truncated();
    holes.push_back(geo::Rect::Centered(center, hx, hy));
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after message");
  }
  // Influence-object lists are a server-side diagnostic; clients only
  // need the region, so they decode as empty.
  return WindowValidityResult(focus, hx, hy, std::move(result), {}, {},
                              geo::RectMinusBoxes(base, std::move(holes)),
                              conservative);
}

StatusOr<std::vector<uint8_t>> EncodeRangeResult(
    const RangeValidityResult& result) {
  ByteWriter writer;
  writer.Append(result.focus().x);
  writer.Append(result.focus().y);
  writer.Append(result.radius());
  writer.AppendVarCount(static_cast<uint32_t>(result.result().size()));
  for (const rtree::DataEntry& e : result.result()) {
    AppendEntry(&writer, e);
  }
  AppendRect(&writer, result.region().bounds());
  writer.AppendVarCount(
      static_cast<uint32_t>(result.region().outer().size()));
  for (const geo::DiskRegion::Disk& d : result.region().outer()) {
    writer.Append(d.center.x);
    writer.Append(d.center.y);
  }
  return writer.Take();
}

StatusOr<RangeValidityResult> DecodeRangeResult(
    const std::vector<uint8_t>& bytes) {
  ByteReader reader(bytes);
  geo::Point focus;
  if (!ReadPoint(&reader, &focus)) return Truncated();
  double radius = 0.0;
  if (!ReadDouble(&reader, &radius)) return Truncated();
  if (radius <= 0.0) {
    return Status::InvalidArgument("non-positive range radius");
  }
  uint32_t result_count = 0;
  if (!reader.TryReadVarCount(&result_count)) return Truncated();
  std::vector<rtree::DataEntry> result;
  result.reserve(ClampedReserve(result_count, reader.remaining(),
                                kEntryBytes));
  for (uint32_t i = 0; i < result_count; ++i) {
    rtree::DataEntry e;
    if (!ReadEntry(&reader, &e)) return Truncated();
    result.push_back(e);
  }
  geo::Rect bounds;
  if (!ReadRect(&reader, &bounds)) return Truncated();
  uint32_t outer_count = 0;
  if (!reader.TryReadVarCount(&outer_count)) return Truncated();
  std::vector<geo::DiskRegion::Disk> outer;
  outer.reserve(ClampedReserve(outer_count, reader.remaining(), kPointBytes));
  for (uint32_t i = 0; i < outer_count; ++i) {
    geo::DiskRegion::Disk d;
    if (!ReadPoint(&reader, &d.center)) return Truncated();
    d.radius = radius;
    outer.push_back(d);
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after message");
  }

  std::vector<geo::DiskRegion::Disk> inner;
  inner.reserve(result.size());
  for (const rtree::DataEntry& e : result) {
    inner.push_back({e.point, radius});
  }
  geo::DiskRegion region(bounds, std::move(inner), std::move(outer));
  // In a genuine answer the focus lies in its own validity region; a
  // mutated message can break that. A client that derives the
  // conservative polygon from the region requires it (an internal
  // CHECK), so reject here rather than let that client abort.
  if (!region.Contains(focus)) {
    return Status::InvalidArgument("focus outside decoded validity region");
  }
  return RangeValidityResult(focus, radius, std::move(result),
                             std::move(region));
}

size_t PlainNnAnswerBytes(size_t k) {
  return VarCountBytes(k) + k * kEntryBytes;
}

size_t PlainWindowAnswerBytes(size_t result_size) {
  return VarCountBytes(result_size) + result_size * kEntryBytes;
}

size_t Sr01AnswerBytes(size_t m) {
  // m neighbors plus the two distances of the validity test.
  return VarCountBytes(m) + m * kEntryBytes + 2 * sizeof(double);
}

std::vector<uint8_t> EncodePlainNnAnswer(
    const std::vector<rtree::Neighbor>& answers) {
  ByteWriter writer;
  writer.AppendVarCount(static_cast<uint32_t>(answers.size()));
  for (const rtree::Neighbor& n : answers) AppendEntry(&writer, n.entry);
  return writer.Take();
}

std::vector<uint8_t> EncodeSr01Answer(
    const std::vector<rtree::Neighbor>& neighbors, size_t k) {
  ByteWriter writer;
  writer.AppendVarCount(static_cast<uint32_t>(neighbors.size()));
  for (const rtree::Neighbor& n : neighbors) AppendEntry(&writer, n.entry);
  // The two distances of the [SR01] validity test: dist_k and dist_m.
  const size_t bound = std::min(k, neighbors.size());
  writer.Append(bound == 0 ? 0.0 : neighbors[bound - 1].distance);
  writer.Append(neighbors.empty() ? 0.0 : neighbors.back().distance);
  return writer.Take();
}

}  // namespace lbsq::core::wire
