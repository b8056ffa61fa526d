#ifndef LBSQ_CORE_WIRE_FORMAT_H_
#define LBSQ_CORE_WIRE_FORMAT_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/range_validity.h"
#include "core/validity_region.h"

// Wire encoding of query answers: what the server actually transmits to
// the mobile client over the wireless link. The paper's design goal is a
// *compact* validity-region representation — the influence set, not the
// region geometry — and these encoders make the byte counts measurable
// (bench/netcost.cc compares against [SR01] and naive re-querying).
//
// Encodings (little-endian fixed-width scalars, LEB128 varint counts):
//   k-NN answer:   query point, universe, answers (point+id), influence
//                  pairs (incoming point+id, displaced answer index)
//                  sorted by (displaced answer index, incoming id)
//   window answer: focus, half-extents, result (point+id), conservative
//                  rectangle, holes of the exact region
//   range answer:  focus, radius, result (point+id), bounding rectangle
//                  and outer-disk centres of the exact region
//
// Decoded answers reconstruct objects that behave identically for
// client-side purposes (IsValidAt, answers/result); server-only
// artifacts (the NN region polygon) are rebuilt from the pairs.
//
// Error handling: both directions return Status instead of aborting.
// Decoders treat the buffer as hostile — truncated input, trailing bytes,
// inflated counts, and non-finite or out-of-domain values all come back
// as kInvalidArgument, never as a crash or an unbounded allocation
// (preallocation is capped by the bytes actually remaining). Encoders
// fail with kInternal when the result violates a wire invariant (e.g. an
// influence pair displacing an object that is not among the answers)
// rather than silently emitting a message that decodes to a wrong
// validity region.

namespace lbsq::core::wire {

[[nodiscard]] StatusOr<std::vector<uint8_t>> EncodeNnResult(const NnValidityResult& result);
[[nodiscard]] StatusOr<NnValidityResult> DecodeNnResult(const std::vector<uint8_t>& bytes);

[[nodiscard]] StatusOr<std::vector<uint8_t>> EncodeWindowResult(
    const WindowValidityResult& result);
[[nodiscard]] StatusOr<WindowValidityResult> DecodeWindowResult(
    const std::vector<uint8_t>& bytes);

[[nodiscard]] StatusOr<std::vector<uint8_t>> EncodeRangeResult(
    const RangeValidityResult& result);
[[nodiscard]] StatusOr<RangeValidityResult> DecodeRangeResult(
    const std::vector<uint8_t>& bytes);

// Byte size of a conventional answer without any validity information
// (what the naive strategy ships per query): a varint result count plus
// the result objects — the same framing the validity answers use, so the
// transmission-cost comparison is apples to apples.
size_t PlainNnAnswerBytes(size_t k);
size_t PlainWindowAnswerBytes(size_t result_size);

// Byte size of an [SR01] answer: m neighbors (the client needs all of
// them to re-rank locally) plus the two distances of the validity test.
size_t Sr01AnswerBytes(size_t m);

// Actual encodings of the conventional answers, with the same framing
// the size formulas above describe. bench/netcost.cc encodes the real
// answers a run produces and reconciles the measured buffer sizes
// against the formulas — a formula that drifts from its encoder would
// silently skew the paper's transmission-cost comparison.
[[nodiscard]] std::vector<uint8_t> EncodePlainNnAnswer(
    const std::vector<rtree::Neighbor>& answers);
[[nodiscard]] std::vector<uint8_t> EncodeSr01Answer(
    const std::vector<rtree::Neighbor>& neighbors, size_t k);

}  // namespace lbsq::core::wire

#endif  // LBSQ_CORE_WIRE_FORMAT_H_
