// Validity-region property tests on the skewed, kilometer-scale datasets
// (GR-like roads, NA-like cities). Large coordinates exercise the
// numerical robustness of the bisector clipping — absolute-epsilon logic
// that works on the unit square fails here (see the relative-tolerance
// handling in ConvexPolygon::IsCutBy).

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/nn_validity.h"
#include "core/window_validity.h"
#include "tests/test_util.h"
#include "workload/datasets.h"
#include "workload/queries.h"

namespace lbsq::core {
namespace {

using test::BruteForceKnn;
using test::BruteForceWindow;
using test::Ids;
using test::TreeFixture;

struct DatasetCase {
  const char* name;
  bool gr;  // true: GR-like roads, false: NA-like cities
  size_t n;
  uint64_t seed;
};

class RealDatasetValidityTest : public ::testing::TestWithParam<DatasetCase> {
 protected:
  workload::Dataset MakeData() const {
    const DatasetCase& param = GetParam();
    return param.gr ? workload::MakeGrLike(param.seed, param.n)
                    : workload::MakeNaLike(param.seed, param.n);
  }
};

TEST_P(RealDatasetValidityTest, NnRegionsAreCorrectAtScale) {
  const auto dataset = MakeData();
  TreeFixture fx(dataset.entries, 64);
  NnValidityEngine engine(fx.tree.get(), dataset.universe);
  const auto queries =
      workload::MakeDataDistributedQueries(dataset, 25, 1, 0.001);
  Rng rng(2);
  for (const geo::Point& q : queries) {
    const NnValidityResult result = engine.Query(q, 1);
    EXPECT_TRUE(result.IsValidAt(q));
    EXPECT_GT(result.region().Area(), 0.0);
    // Sample displaced positions around the query at the region's scale.
    const geo::Rect box = result.region().BoundingBox();
    const double span = std::max(box.width(), box.height());
    for (int i = 0; i < 60; ++i) {
      geo::Point p{q.x + rng.Uniform(-span, span),
                   q.y + rng.Uniform(-span, span)};
      p.x = std::clamp(p.x, dataset.universe.min_x, dataset.universe.max_x);
      p.y = std::clamp(p.y, dataset.universe.min_y, dataset.universe.max_y);
      const auto truth = BruteForceKnn(dataset.entries, p, 1);
      if (result.IsValidAt(p)) {
        EXPECT_EQ(truth[0].entry.id, result.answers()[0].entry.id)
            << GetParam().name << ": NN changed inside region";
      }
    }
  }
}

TEST_P(RealDatasetValidityTest, KnnRegionsAreCorrectAtScale) {
  const auto dataset = MakeData();
  TreeFixture fx(dataset.entries, 64);
  NnValidityEngine engine(fx.tree.get(), dataset.universe);
  const auto queries =
      workload::MakeDataDistributedQueries(dataset, 10, 3, 0.001);
  Rng rng(4);
  for (const geo::Point& q : queries) {
    const NnValidityResult result = engine.Query(q, 5);
    const auto expected_ids = Ids(result.answers());
    const geo::Rect box = result.region().BoundingBox();
    const double span = std::max(box.width(), box.height());
    for (int i = 0; i < 40; ++i) {
      geo::Point p{q.x + rng.Uniform(-span, span),
                   q.y + rng.Uniform(-span, span)};
      p.x = std::clamp(p.x, dataset.universe.min_x, dataset.universe.max_x);
      p.y = std::clamp(p.y, dataset.universe.min_y, dataset.universe.max_y);
      if (!result.IsValidAt(p)) continue;
      EXPECT_EQ(Ids(BruteForceKnn(dataset.entries, p, 5)), expected_ids)
          << GetParam().name << ": 5-NN set changed inside region";
    }
  }
}

TEST_P(RealDatasetValidityTest, WindowRegionsAreCorrectAtScale) {
  const auto dataset = MakeData();
  TreeFixture fx(dataset.entries, 64);
  WindowValidityEngine engine(fx.tree.get(), dataset.universe);
  const double h = dataset.universe.width() * 0.01;
  const auto queries =
      workload::MakeDataDistributedQueries(dataset, 15, 5, 0.001);
  Rng rng(6);
  for (const geo::Point& q : queries) {
    const WindowValidityResult result = engine.Query(q, h, h);
    const auto expected_ids = Ids(result.result());
    const double span = 2.0 * std::max(result.region().base().width(),
                                       result.region().base().height());
    for (int i = 0; i < 60; ++i) {
      geo::Point p{q.x + rng.Uniform(-span, span),
                   q.y + rng.Uniform(-span, span)};
      p.x = std::clamp(p.x, dataset.universe.min_x, dataset.universe.max_x);
      p.y = std::clamp(p.y, dataset.universe.min_y, dataset.universe.max_y);
      if (!result.IsValidAt(p)) continue;
      EXPECT_EQ(Ids(BruteForceWindow(dataset.entries,
                                     geo::Rect::Centered(p, h, h))),
                expected_ids)
          << GetParam().name << ": window result changed inside region";
    }
  }
}

TEST_P(RealDatasetValidityTest, EngineTerminatesWithBoundedQueries) {
  // Regression guard for the grazing-bisector livelock: the number of
  // TPNN queries stays near the n_inf + n_v bound of Lemma 3.2.
  const auto dataset = MakeData();
  TreeFixture fx(dataset.entries, 64);
  NnValidityEngine engine(fx.tree.get(), dataset.universe);
  const auto queries =
      workload::MakeDataDistributedQueries(dataset, 30, 7, 0.001);
  for (const geo::Point& q : queries) {
    engine.QueryTpnn(q, 1);
    EXPECT_LT(engine.stats().tpnn_queries, 60u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Datasets, RealDatasetValidityTest,
    ::testing::Values(DatasetCase{"gr", true, 4000, 11},
                      DatasetCase{"gr", true, 12000, 12},
                      DatasetCase{"na", false, 8000, 13},
                      DatasetCase{"na", false, 20000, 14}),
    [](const ::testing::TestParamInfo<DatasetCase>& param_info) {
      return std::string(param_info.param.name) + "_" +
             std::to_string(param_info.param.n);
    });

}  // namespace
}  // namespace lbsq::core
