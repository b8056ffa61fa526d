#include <cmath>
#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/parse.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"

namespace lbsq {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
  Rng c(124);
  bool differs = false;
  Rng a2(123);
  for (int i = 0; i < 100; ++i) {
    if (a2.NextU64() != c.NextU64()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformRespectsBoundsAndMean) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Uniform(2.0, 6.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 6.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 4.0, 0.02);
}

TEST(RngTest, NextBoundedCoversRange) {
  Rng rng(13);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.NextBounded(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, GaussianMomentsAreStandard) {
  Rng rng(17);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Gaussian();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.02);
}

TEST(RunningStatsTest, BasicMoments) {
  RunningStats stats;
  for (double x : {1.0, 2.0, 3.0, 4.0}) stats.Add(x);
  EXPECT_EQ(stats.count(), 4u);
  EXPECT_DOUBLE_EQ(stats.mean(), 2.5);
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 4.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 1.25);  // population variance
}

TEST(RunningStatsTest, EmptyIsSafe) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
}

TEST(PercentileTest, InterpolatesBetweenSamples) {
  EXPECT_DOUBLE_EQ(Percentile({1.0, 2.0, 3.0, 4.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile({1.0, 2.0, 3.0, 4.0}, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(Percentile({1.0, 2.0, 3.0, 4.0}, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(Percentile({4.0, 1.0, 3.0, 2.0}, 50.0), 2.5);  // unsorted
  EXPECT_DOUBLE_EQ(Percentile({5.0}, 99.0), 5.0);
}

TEST(StatusTest, OkAndErrorBasics) {
  const Status ok = Status::Ok();
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.ToString(), "OK");

  const Status err = Status::DataLoss("page 7 failed checksum");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), StatusCode::kDataLoss);
  EXPECT_EQ(err.message(), "page 7 failed checksum");
  EXPECT_EQ(err.ToString(), "DATA_LOSS: page 7 failed checksum");
  EXPECT_EQ(err, Status::DataLoss("page 7 failed checksum"));
  EXPECT_FALSE(err == Status::DataLoss("other"));
}

TEST(StatusTest, OnlyUnavailableIsRetryable) {
  EXPECT_TRUE(IsRetryable(Status::Unavailable("transient")));
  EXPECT_FALSE(IsRetryable(Status::Ok()));
  EXPECT_FALSE(IsRetryable(Status::DataLoss("x")));
  EXPECT_FALSE(IsRetryable(Status::InvalidArgument("x")));
  EXPECT_FALSE(IsRetryable(Status::Internal("x")));
}

TEST(StatusOrTest, CarriesValueOrError) {
  StatusOr<int> value = 42;
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value.value(), 42);
  EXPECT_EQ(*value, 42);

  StatusOr<int> error = Status::InvalidArgument("bad");
  ASSERT_FALSE(error.ok());
  EXPECT_EQ(error.status().code(), StatusCode::kInvalidArgument);

  // Default construction is an error, so a pre-sized result vector never
  // silently reads as "OK with a garbage value".
  StatusOr<int> uninitialized;
  EXPECT_FALSE(uninitialized.ok());
}

TEST(VarintTest, KnownEncodings) {
  // LEB128 boundary values and their exact byte counts.
  const struct {
    uint32_t value;
    size_t bytes;
  } cases[] = {
      {0, 1},        {1, 1},         {127, 1},      {128, 2},
      {16383, 2},    {16384, 3},     {2097151, 3},  {2097152, 4},
      {268435455, 4}, {268435456, 5}, {0xFFFFFFFFu, 5},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(VarCountBytes(c.value), c.bytes) << c.value;
    ByteWriter writer;
    writer.AppendVarCount(c.value);
    EXPECT_EQ(writer.size(), c.bytes) << c.value;
    ByteReader reader(writer.bytes());
    uint32_t decoded = 0;
    ASSERT_TRUE(reader.TryReadVarCount(&decoded)) << c.value;
    EXPECT_EQ(decoded, c.value);
    EXPECT_TRUE(reader.AtEnd());
  }
}

TEST(VarintTest, RandomRoundTrip) {
  Rng rng(29);
  ByteWriter writer;
  std::vector<uint32_t> values;
  for (int i = 0; i < 10000; ++i) {
    // Mix small counts (the common case) with full-range values.
    const uint32_t v = (i % 2 == 0)
                           ? static_cast<uint32_t>(rng.NextBounded(200))
                           : static_cast<uint32_t>(rng.NextU64());
    values.push_back(v);
    writer.AppendVarCount(v);
  }
  ByteReader reader(writer.bytes());
  for (const uint32_t v : values) {
    uint32_t decoded = 0;
    ASSERT_TRUE(reader.TryReadVarCount(&decoded));
    EXPECT_EQ(decoded, v);
  }
  EXPECT_TRUE(reader.AtEnd());
}

TEST(VarintTest, RejectsTruncatedAndOverlong) {
  // Truncated: continuation bit set but the buffer ends.
  {
    const std::vector<uint8_t> bytes = {0x80, 0x80};
    ByteReader reader(bytes);
    uint32_t out = 0;
    EXPECT_FALSE(reader.TryReadVarCount(&out));
    EXPECT_EQ(reader.remaining(), 2u);  // no consumption on failure
  }
  // Overlong: a 6th continuation byte exceeds the 32-bit cap.
  {
    const std::vector<uint8_t> bytes = {0x80, 0x80, 0x80, 0x80, 0x80, 0x01};
    ByteReader reader(bytes);
    uint32_t out = 0;
    EXPECT_FALSE(reader.TryReadVarCount(&out));
  }
  // 5-byte encoding whose value exceeds uint32.
  {
    const std::vector<uint8_t> bytes = {0xFF, 0xFF, 0xFF, 0xFF, 0x7F};
    ByteReader reader(bytes);
    uint32_t out = 0;
    EXPECT_FALSE(reader.TryReadVarCount(&out));
  }
  // Maximum uint32 still decodes: 0xFFFFFFFF = FF FF FF FF 0F.
  {
    const std::vector<uint8_t> bytes = {0xFF, 0xFF, 0xFF, 0xFF, 0x0F};
    ByteReader reader(bytes);
    uint32_t out = 0;
    ASSERT_TRUE(reader.TryReadVarCount(&out));
    EXPECT_EQ(out, 0xFFFFFFFFu);
  }
}

TEST(ByteReaderTest, TryReadIsBoundedAndNonConsumingOnFailure) {
  ByteWriter writer;
  writer.Append<uint32_t>(7);
  ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.remaining(), 4u);
  double too_big = 0.0;
  EXPECT_FALSE(reader.TryRead(&too_big));  // 8 > 4 remaining
  EXPECT_EQ(reader.remaining(), 4u);       // nothing consumed
  uint32_t value = 0;
  ASSERT_TRUE(reader.TryRead(&value));
  EXPECT_EQ(value, 7u);
  EXPECT_TRUE(reader.AtEnd());
  uint8_t byte = 0;
  EXPECT_FALSE(reader.TryRead(&byte));
}

TEST(ParseTest, CountTakesOnlyWholeUnsignedDecimals) {
  EXPECT_EQ(ParseCount("0"), std::optional<uint64_t>(0));
  EXPECT_EQ(ParseCount("500"), std::optional<uint64_t>(500));
  EXPECT_EQ(ParseCount("18446744073709551615"),
            std::optional<uint64_t>(UINT64_MAX));
  for (const char* bad : {"-1", "+1", "1x", "", " 1", "1 ", "0x10", "1.5",
                          "18446744073709551616", "inf", "nan"}) {
    EXPECT_EQ(ParseCount(bad), std::nullopt) << "'" << bad << "'";
  }
}

TEST(ParseTest, FiniteTakesOnlyWholeFiniteDoubles) {
  EXPECT_EQ(ParseFinite("0.25"), std::optional<double>(0.25));
  EXPECT_EQ(ParseFinite("-0.5"), std::optional<double>(-0.5));
  EXPECT_EQ(ParseFinite("1e-3"), std::optional<double>(1e-3));
  EXPECT_EQ(ParseFinite("7"), std::optional<double>(7.0));
  for (const char* bad : {"inf", "-inf", "infinity", "nan", "1e400", "-1e400",
                          "", "1x", "abc", "+1", " 1", "1 ", "0.5.5"}) {
    EXPECT_EQ(ParseFinite(bad), std::nullopt) << "'" << bad << "'";
  }
}

}  // namespace
}  // namespace lbsq
