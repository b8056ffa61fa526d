// Tests pinning the specific quantitative claims the paper makes about
// its algorithms — beyond mere correctness, these assert the *shape* of
// the behavior Section 6 reports.

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/nn_validity.h"
#include "core/window_validity.h"
#include "tests/test_util.h"
#include "workload/datasets.h"
#include "workload/queries.h"

namespace lbsq::core {
namespace {

using test::TreeFixture;
using workload::MakeUnitUniform;

const geo::Rect kUnit(0.0, 0.0, 1.0, 1.0);

// Lemma 3.2: the algorithm performs exactly n_inf + n_v TPNN queries,
// where n_inf is the number of discovered influence pairs and n_v the
// number of confirmed vertices of the final region.
TEST(PaperPropertiesTest, Lemma32QueryCount) {
  const auto dataset = MakeUnitUniform(5000, 201);
  TreeFixture fx(dataset.entries, 64);
  NnValidityEngine engine(fx.tree.get(), kUnit);
  Rng rng(202);
  for (int i = 0; i < 50; ++i) {
    const geo::Point q{rng.NextDouble(), rng.NextDouble()};
    const NnValidityResult result = engine.QueryTpnn(q, 1);
    const auto& stats = engine.stats();
    EXPECT_EQ(stats.discovering_queries, result.influence_pairs().size());
    // Every vertex of the final region was confirmed by one TPNN query.
    // (A few extra confirmations can occur when a discovered plane does
    // not remove the aimed-at vertex, so >=.)
    EXPECT_GE(stats.confirming_queries, result.region().num_vertices() - 4);
    EXPECT_EQ(stats.tpnn_queries,
              stats.discovering_queries + stats.confirming_queries);
  }
}

// Figure 27's narrative: the TPNN phase costs roughly an order of
// magnitude more node accesses than the plain NN query (the paper says
// ~12x), and ~12 TPNN queries run per 1-NN validity query.
TEST(PaperPropertiesTest, TpnnPhaseCostsAboutTwelveQueries) {
  const auto dataset = MakeUnitUniform(100000, 203);
  TreeFixture fx(dataset.entries, 0);
  fx.tree->SetBufferFraction(0.1);
  NnValidityEngine engine(fx.tree.get(), kUnit);
  const auto queries =
      workload::MakeDataDistributedQueries(dataset, 100, 204);
  double tpnn_count = 0.0;
  double nn_na = 0.0;
  double tpnn_na = 0.0;
  for (const geo::Point& q : queries) {
    engine.QueryTpnn(q, 1);
    tpnn_count += static_cast<double>(engine.stats().tpnn_queries);
    nn_na += static_cast<double>(engine.stats().nn_node_accesses);
    tpnn_na += static_cast<double>(engine.stats().tpnn_node_accesses);
  }
  const double avg_tpnn = tpnn_count / static_cast<double>(queries.size());
  EXPECT_GT(avg_tpnn, 8.0);
  EXPECT_LT(avg_tpnn, 16.0);
  const double ratio = tpnn_na / nn_na;
  EXPECT_GT(ratio, 4.0);
  EXPECT_LT(ratio, 30.0);
}

// Figure 27b/28: with a 10% LRU buffer the TPNN queries are mostly
// absorbed — their page accesses shrink to a small multiple of the NN
// query's.
TEST(PaperPropertiesTest, BufferAbsorbsTpnnPageAccesses) {
  const auto dataset = MakeUnitUniform(100000, 205);
  TreeFixture fx(dataset.entries, 0);
  fx.tree->SetBufferFraction(0.1);
  NnValidityEngine engine(fx.tree.get(), kUnit);
  const auto queries =
      workload::MakeDataDistributedQueries(dataset, 200, 206);
  double tpnn_na = 0.0;
  double tpnn_pa = 0.0;
  for (const geo::Point& q : queries) {
    engine.QueryTpnn(q, 1);
    tpnn_na += static_cast<double>(engine.stats().tpnn_node_accesses);
    tpnn_pa += static_cast<double>(engine.stats().tpnn_page_accesses);
  }
  // The overwhelming share of TPNN node accesses hit the buffer.
  EXPECT_LT(tpnn_pa, 0.05 * tpnn_na);
}

// Figure 22a: the validity-region area drops roughly linearly with the
// cardinality (double N -> halve the area).
TEST(PaperPropertiesTest, RegionAreaScalesInverselyWithN) {
  Rng rng(207);
  double areas[2] = {0.0, 0.0};
  const size_t ns[2] = {20000, 80000};
  for (int which = 0; which < 2; ++which) {
    const auto dataset = MakeUnitUniform(ns[which], 208);
    TreeFixture fx(dataset.entries, 64);
    NnValidityEngine engine(fx.tree.get(), kUnit);
    for (int i = 0; i < 150; ++i) {
      const geo::Point q{rng.Uniform(0.1, 0.9), rng.Uniform(0.1, 0.9)};
      areas[which] += engine.Query(q, 1).region().Area();
    }
  }
  const double ratio = areas[0] / areas[1];
  EXPECT_GT(ratio, 2.8);  // ideal 4.0 for a 4x cardinality step
  EXPECT_LT(ratio, 5.6);
}

// Figure 31/32: window queries average about two inner and two outer
// influence objects.
TEST(PaperPropertiesTest, WindowInfluenceSetAboutTwoPlusTwo) {
  const auto dataset = MakeUnitUniform(100000, 209);
  TreeFixture fx(dataset.entries, 64);
  WindowValidityEngine engine(fx.tree.get(), kUnit);
  const auto queries =
      workload::MakeDataDistributedQueries(dataset, 200, 210);
  const double side = std::sqrt(0.001);
  double inner = 0.0;
  double outer = 0.0;
  for (const geo::Point& q : queries) {
    const auto result = engine.Query(q, side / 2, side / 2);
    inner += static_cast<double>(result.inner_influencers().size());
    outer += static_cast<double>(result.outer_influencers().size());
  }
  const auto count = static_cast<double>(queries.size());
  EXPECT_GT(inner / count, 1.0);
  EXPECT_LT(inner / count, 4.0);
  EXPECT_GT(outer / count, 1.0);
  EXPECT_LT(outer / count, 4.0);
}

// Section 4 / Figure 33: the validity region of a window query is
// usually a rectangle — outer objects replace inner edges rather than
// denting them — so the conservative rectangle rarely loses area.
TEST(PaperPropertiesTest, WindowRegionsMostlyRectangular) {
  const auto dataset = MakeUnitUniform(50000, 211);
  TreeFixture fx(dataset.entries, 64);
  WindowValidityEngine engine(fx.tree.get(), kUnit);
  const auto queries =
      workload::MakeDataDistributedQueries(dataset, 200, 212);
  const double side = std::sqrt(0.001);
  int rectangular = 0;
  for (const geo::Point& q : queries) {
    const auto result = engine.Query(q, side / 2, side / 2);
    const double exact = result.region().Area();
    const double cons = result.conservative_region().Area();
    if (cons >= 0.8 * exact) ++rectangular;
  }
  // More often than not, the conservative rectangle captures most of the
  // exact region.
  EXPECT_GT(rectangular, 120);
}

// The influence set is the *wire format*: the region the client
// reconstructs from the pairs must match the polygon the server
// computed, point for point.
TEST(PaperPropertiesTest, ClientReconstructionMatchesServerRegion) {
  const auto dataset = MakeUnitUniform(20000, 213);
  TreeFixture fx(dataset.entries, 64);
  NnValidityEngine engine(fx.tree.get(), kUnit);
  Rng rng(214);
  for (int i = 0; i < 20; ++i) {
    const geo::Point q{rng.NextDouble(), rng.NextDouble()};
    const size_t k = 1 + rng.NextBounded(5);
    const NnValidityResult result = engine.Query(q, k);
    for (int j = 0; j < 300; ++j) {
      const geo::Point p{rng.NextDouble(), rng.NextDouble()};
      // Clients check pairs; the server's polygon is the ground truth.
      // Skip points within rounding distance of the boundary.
      const bool server = result.region().Contains(p);
      const bool client = result.IsValidAt(p);
      if (server != client) {
        // Tolerate only boundary-grazing disagreement.
        const geo::Point toward_q = p + (q - p) * 1e-6;
        const geo::Point away_q = p + (p - q) * 1e-6;
        EXPECT_TRUE(result.region().Contains(toward_q) !=
                        result.region().Contains(away_q) ||
                    result.IsValidAt(toward_q) != result.IsValidAt(away_q))
            << "client and server disagree far from the boundary";
      }
    }
  }
}

}  // namespace
}  // namespace lbsq::core
