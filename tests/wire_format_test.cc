#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/nn_validity.h"
#include "core/range_validity.h"
#include "core/window_validity.h"
#include "core/wire_format.h"
#include "geometry/convex_polygon.h"
#include "tests/test_util.h"
#include "workload/datasets.h"

namespace lbsq::core::wire {
namespace {

using test::SmallNodeOptions;
using test::TreeFixture;
using workload::MakeUnitUniform;

const geo::Rect kUnit(0.0, 0.0, 1.0, 1.0);

TEST(ByteBufferTest, RoundTripPrimitives) {
  ByteWriter writer;
  writer.Append<double>(3.5);
  writer.Append<uint32_t>(42);
  writer.AppendVarCount(7);
  writer.Append<uint16_t>(9);
  ByteReader reader(writer.bytes());
  EXPECT_DOUBLE_EQ(reader.Read<double>(), 3.5);
  EXPECT_EQ(reader.Read<uint32_t>(), 42u);
  EXPECT_EQ(reader.ReadVarCount(), 7u);
  EXPECT_EQ(reader.Read<uint16_t>(), 9u);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(WireFormatTest, NnResultRoundTripPreservesClientBehavior) {
  const auto dataset = MakeUnitUniform(5000, 601);
  TreeFixture fx(dataset.entries, 64, SmallNodeOptions());
  NnValidityEngine engine(fx.tree.get(), kUnit);
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const geo::Point q{rng.NextDouble(), rng.NextDouble()};
    const size_t k = 1 + rng.NextBounded(5);
    const NnValidityResult original = engine.Query(q, k);
    const auto bytes = EncodeNnResult(original).value();
    const NnValidityResult decoded = DecodeNnResult(bytes).value();

    ASSERT_EQ(decoded.answers().size(), original.answers().size());
    for (size_t i = 0; i < original.answers().size(); ++i) {
      EXPECT_EQ(decoded.answers()[i].entry.id,
                original.answers()[i].entry.id);
      EXPECT_DOUBLE_EQ(decoded.answers()[i].distance,
                       original.answers()[i].distance);
    }
    EXPECT_EQ(decoded.InfluenceSetSize(), original.InfluenceSetSize());
    EXPECT_NEAR(decoded.region().Area(), original.region().Area(), 1e-12);
    for (int i = 0; i < 200; ++i) {
      const geo::Point p{rng.NextDouble(), rng.NextDouble()};
      EXPECT_EQ(decoded.IsValidAt(p), original.IsValidAt(p));
    }
  }
}

// The pair order on the wire is canonical — (displaced answer index,
// incoming id) — so the bytes depend only on the answers and the pair
// set: a result with its pairs permuted encodes to the same bytes, and a
// decode/re-encode cycle reproduces them.
TEST(WireFormatTest, NnPairOrderIsCanonical) {
  const auto dataset = MakeUnitUniform(5000, 609);
  TreeFixture fx(dataset.entries, 64, SmallNodeOptions());
  NnValidityEngine engine(fx.tree.get(), kUnit);
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const geo::Point q{rng.NextDouble(), rng.NextDouble()};
    const size_t k = 1 + rng.NextBounded(5);
    const NnValidityResult original = engine.Query(q, k);
    ASSERT_GT(original.influence_pairs().size(), 1u);
    const auto bytes = EncodeNnResult(original).value();

    std::vector<InfluencePair> pairs = original.influence_pairs();
    std::reverse(pairs.begin(), pairs.end());
    std::rotate(pairs.begin(), pairs.begin() + trial % pairs.size(),
                pairs.end());
    const NnValidityResult permuted(original.query(), original.universe(),
                                    original.answers(), pairs,
                                    original.region());
    EXPECT_EQ(EncodeNnResult(permuted).value(), bytes);

    EXPECT_EQ(EncodeNnResult(DecodeNnResult(bytes).value()).value(), bytes);
  }
}

TEST(WireFormatTest, WindowResultRoundTripPreservesClientBehavior) {
  const auto dataset = MakeUnitUniform(5000, 603);
  TreeFixture fx(dataset.entries, 64, SmallNodeOptions());
  WindowValidityEngine engine(fx.tree.get(), kUnit);
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const geo::Point focus{rng.Uniform(0.1, 0.9), rng.Uniform(0.1, 0.9)};
    const WindowValidityResult original = engine.Query(focus, 0.03, 0.05);
    const auto bytes = EncodeWindowResult(original).value();
    const WindowValidityResult decoded = DecodeWindowResult(bytes).value();

    EXPECT_EQ(test::Ids(decoded.result()), test::Ids(original.result()));
    EXPECT_EQ(decoded.conservative_region(), original.conservative_region());
    for (int i = 0; i < 300; ++i) {
      const geo::Point p{rng.NextDouble(), rng.NextDouble()};
      EXPECT_EQ(decoded.IsValidAt(p), original.IsValidAt(p));
      EXPECT_EQ(decoded.IsValidAtConservative(p),
                original.IsValidAtConservative(p));
    }
  }
}

TEST(WireFormatTest, RangeResultRoundTripPreservesClientBehavior) {
  const auto dataset = MakeUnitUniform(5000, 605);
  TreeFixture fx(dataset.entries, 64, SmallNodeOptions());
  RangeValidityEngine engine(fx.tree.get(), kUnit);
  Rng rng(9);
  for (int trial = 0; trial < 15; ++trial) {
    const geo::Point focus{rng.Uniform(0.2, 0.8), rng.Uniform(0.2, 0.8)};
    const RangeValidityResult original = engine.Query(focus, 0.04);
    const auto bytes = EncodeRangeResult(original).value();
    const RangeValidityResult decoded = DecodeRangeResult(bytes).value();

    EXPECT_EQ(test::Ids(decoded.result()), test::Ids(original.result()));
    for (int i = 0; i < 300; ++i) {
      const geo::Point p{focus.x + rng.Uniform(-0.1, 0.1),
                         focus.y + rng.Uniform(-0.1, 0.1)};
      EXPECT_EQ(decoded.IsValidAt(p), original.IsValidAt(p));
    }
  }

  // A member the distance mask admits although its square of half-width
  // r misses the focus by an ulp: the region's bounds must still hold
  // the focus, or the decoder rejects the engine's own answer.
  const geo::Point focus{0.01092432939285761, 0.5};
  const std::vector<rtree::DataEntry> member = {
      {{0.03592432939285761, 0.5}, 0}};
  ASSERT_GT(geo::Rect::Centered(member[0].point, 0.025, 0.025).min_x,
            focus.x);
  TreeFixture tiny(member, 8);
  RangeValidityEngine tiny_engine(tiny.tree.get(), kUnit);
  const RangeValidityResult original = tiny_engine.Query(focus, 0.025);
  ASSERT_EQ(test::Ids(original.result()), std::vector<rtree::ObjectId>{0});
  EXPECT_TRUE(original.IsValidAt(focus));
  const auto decoded = DecodeRangeResult(EncodeRangeResult(original).value());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(test::Ids(decoded->result()), test::Ids(original.result()));
}

TEST(WireFormatTest, ValidityAnswerIsCompact) {
  // The paper's claim: the influence set adds little to a plain answer.
  const auto dataset = MakeUnitUniform(100000, 607);
  TreeFixture fx(dataset.entries, 64);
  NnValidityEngine engine(fx.tree.get(), kUnit);
  const NnValidityResult result = engine.Query({0.4, 0.4}, 1);
  const size_t validity_bytes = EncodeNnResult(result).value().size();
  const size_t plain_bytes = PlainNnAnswerBytes(1);
  // ~6 influence objects at 24 bytes each plus fixed overhead: the
  // validity answer stays within a few hundred bytes.
  EXPECT_LT(validity_bytes, plain_bytes + 64 + 8 * 24 + 32);
  // And is far smaller than shipping an [SR01] cache of m = 20.
  EXPECT_LT(validity_bytes, Sr01AnswerBytes(20) + 200);
}

// Regression: an influence pair whose displaced object is not among the
// answers used to encode as index 0, which decodes into a different
// bisector and a silently wrong validity region. The encoder must refuse.
TEST(WireFormatTest, EncodeNnRejectsDisplacedObjectNotInAnswers) {
  std::vector<rtree::Neighbor> answers;
  answers.push_back({{{0.5, 0.5}, 7}, 0.1});
  answers.push_back({{{0.6, 0.5}, 9}, 0.2});
  std::vector<InfluencePair> pairs;
  // Displaced id 1234 is not an answer id.
  pairs.push_back({{{0.9, 0.9}, 42}, {{0.7, 0.7}, 1234}});
  const NnValidityResult bad({0.5, 0.55}, kUnit, answers, pairs,
                             geo::ConvexPolygon::FromRect(kUnit));
  const auto encoded = EncodeNnResult(bad);
  ASSERT_FALSE(encoded.ok());
  EXPECT_EQ(encoded.status().code(), StatusCode::kInternal);

  // A pair that displaces a genuine answer still encodes (and round-trips
  // to the same displaced id).
  pairs.clear();
  pairs.push_back({{{0.9, 0.9}, 42}, answers[1].entry});
  const NnValidityResult good({0.5, 0.55}, kUnit, answers, pairs,
                              geo::ConvexPolygon::FromRect(kUnit));
  const auto bytes = EncodeNnResult(good);
  ASSERT_TRUE(bytes.ok());
  const auto decoded = DecodeNnResult(bytes.value());
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->influence_pairs().size(), 1u);
  EXPECT_EQ(decoded->influence_pairs()[0].displaced.id, 9u);
}

// Every strict prefix of a valid message must decode to an error (never a
// crash, never a silently short answer), and every message with trailing
// garbage must be rejected too.
TEST(WireFormatTest, TruncatedAndOversizedMessagesAreRejected) {
  const auto dataset = MakeUnitUniform(2000, 611);
  TreeFixture fx(dataset.entries, 64, SmallNodeOptions());
  NnValidityEngine engine(fx.tree.get(), kUnit);
  const auto bytes = EncodeNnResult(engine.Query({0.4, 0.6}, 3)).value();
  for (size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + len);
    EXPECT_FALSE(DecodeNnResult(prefix).ok()) << "prefix length " << len;
  }
  std::vector<uint8_t> oversized = bytes;
  oversized.push_back(0);
  EXPECT_FALSE(DecodeNnResult(oversized).ok());
  EXPECT_TRUE(DecodeNnResult(bytes).ok());
}

// A hostile count field must not drive preallocation: a tiny message
// claiming 2^32 - 1 answers decodes to an error without reserving
// gigabytes first.
TEST(WireFormatTest, InflatedCountDoesNotPreallocate) {
  ByteWriter writer;
  writer.Append(0.5);  // query point
  writer.Append(0.5);
  writer.AppendVarCount(0xFFFFFFFFu);  // hostile answer count
  writer.Append(0.25);                 // one half-entry of payload
  const auto decoded = DecodeNnResult(writer.bytes());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireFormatTest, NonFiniteCoordinatesAreRejected) {
  const auto dataset = MakeUnitUniform(2000, 613);
  TreeFixture fx(dataset.entries, 64, SmallNodeOptions());
  NnValidityEngine engine(fx.tree.get(), kUnit);
  auto bytes = EncodeNnResult(engine.Query({0.4, 0.6}, 2)).value();
  // Overwrite the query point with NaN bytes.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::memcpy(bytes.data(), &nan, sizeof(nan));
  EXPECT_FALSE(DecodeNnResult(bytes).ok());
}

TEST(WireFormatTest, WindowDecodeRejectsBadExtents) {
  const auto dataset = MakeUnitUniform(2000, 617);
  TreeFixture fx(dataset.entries, 64, SmallNodeOptions());
  WindowValidityEngine engine(fx.tree.get(), kUnit);
  auto bytes = EncodeWindowResult(engine.Query({0.5, 0.5}, 0.05, 0.05)).value();
  // hx lives at offset 16; zero it out.
  const double zero = 0.0;
  std::memcpy(bytes.data() + 2 * sizeof(double), &zero, sizeof(zero));
  const auto decoded = DecodeWindowResult(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireFormatTest, RangeDecodeRejectsFocusOutsideRegion) {
  const auto dataset = MakeUnitUniform(2000, 619);
  TreeFixture fx(dataset.entries, 64, SmallNodeOptions());
  RangeValidityEngine engine(fx.tree.get(), kUnit);
  auto bytes = EncodeRangeResult(engine.Query({0.5, 0.5}, 0.05)).value();
  // Teleport the focus far outside the decoded validity region: the
  // decoder must reject it, since a client that derives the conservative
  // polygon would trip ConservativePolygon's contract.
  const double far_away = 123.0;
  std::memcpy(bytes.data(), &far_away, sizeof(far_away));
  std::memcpy(bytes.data() + sizeof(double), &far_away, sizeof(far_away));
  EXPECT_FALSE(DecodeRangeResult(bytes).ok());
}

}  // namespace
}  // namespace lbsq::core::wire
