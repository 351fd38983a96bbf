//===- CostModelTests.cpp - Tests for featurizer, cost models, trainer ------===//

#include "cost/CostModel.h"
#include "cost/Gbt.h"
#include "cost/Trainer.h"
#include "graph/Generators.h"
#include "support/Rng.h"
#include "models/Models.h"
#include "assoc/Enumerate.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

using namespace granii;

namespace {

std::vector<Graph> tinySuite() {
  return {makeErdosRenyi(200, 800, 1), makeRmat(256, 1200, 0.55, 0.2, 0.15, 2),
          makeRoadLattice(12, 12, 0.0, 3), makeStar(150),
          makeCommunityGraph(12, 8, 0.7, 60, 4), makeMycielskian(7),
          makeErdosRenyi(300, 3000, 5), makeRing(250)};
}

} // namespace

TEST(Featurizer, VectorShapeAndNames) {
  EXPECT_EQ(costFeatureNames().size(), NumCostFeatures);
  GraphStats Stats = makeStar(100).stats();
  PrimitiveDesc Desc{PrimitiveKind::SpMMWeighted, 100, 32, 0, 198};
  FeatureVector F = featurize(Desc, Stats);
  EXPECT_NEAR(F[0], std::log1p(100.0), 1e-12);   // log nodes
  EXPECT_NEAR(F[11], std::log1p(198.0), 1e-12);  // log nnz
  EXPECT_GT(F[5], 0.0);                          // star has degree CV
}

TEST(Featurizer, DistinguishesGraphShapes) {
  PrimitiveDesc Desc{PrimitiveKind::SpMMWeighted, 100, 32, 0, 400};
  FeatureVector Star = featurize(Desc, makeStar(100).stats());
  FeatureVector Ring = featurize(Desc, makeRing(100).stats());
  EXPECT_NE(Star[5], Ring[5]);
  EXPECT_NE(Star[6], Ring[6]);
}

TEST(AnalyticCostModel, MatchesHardwareEstimate) {
  HardwareModel Hw = HardwareModel::byName("a100");
  AnalyticCostModel Model(Hw);
  GraphStats Stats = makeRing(500).stats();
  PrimitiveDesc Desc{PrimitiveKind::Gemm, 500, 64, 64, 0};
  EXPECT_DOUBLE_EQ(Model.primitiveSeconds(Desc, Stats),
                   Hw.estimateSeconds(Desc, &Stats));
}

TEST(CostModel, PlanSecondsAmortizesSetup) {
  GnnModel M = makeModel(ModelKind::GCN);
  auto Plans = enumerateCompositions(M.Root);
  AnalyticCostModel Model(HardwareModel::byName("h100"));
  GraphStats Stats = makeMycielskian(8).stats();
  DimBinding B{Stats.NumNodes, 64, 64, Stats.NumEdges};
  for (const CompositionPlan &P : Plans) {
    double One = Model.planSeconds(P, B, Stats, 1);
    double Ten = Model.planSeconds(P, B, Stats, 10);
    EXPECT_GT(Ten, One);
    EXPECT_LT(Ten, 10.0 * One + 1e-9);
  }
}

TEST(LearnedCostModel, FallsBackWithoutModels) {
  HardwareModel Hw = HardwareModel::byName("h100");
  LearnedCostModel Learned(Hw);
  AnalyticCostModel Analytic(Hw);
  GraphStats Stats = makeRing(100).stats();
  PrimitiveDesc Desc{PrimitiveKind::Gemm, 100, 8, 8, 0};
  EXPECT_DOUBLE_EQ(Learned.primitiveSeconds(Desc, Stats),
                   Analytic.primitiveSeconds(Desc, Stats));
}

TEST(Trainer, CollectsSamplesForEveryKind) {
  HardwareModel Hw = HardwareModel::byName("h100"); // Simulated: fast.
  auto Samples = collectProfileData(Hw, tinySuite(), {8, 16});
  EXPECT_GT(Samples.size(), 100u);
  std::map<PrimitiveKind, size_t> Counts;
  for (const ProfileSample &S : Samples)
    ++Counts[S.Kind];
  for (PrimitiveKind Kind : allPrimitiveKinds())
    EXPECT_GT(Counts[Kind], 0u) << primitiveName(Kind);
  for (const ProfileSample &S : Samples)
    EXPECT_GT(S.Seconds, 0.0);
}

TEST(Trainer, MeasuredCpuSamplesArePositive) {
  HardwareModel Hw = HardwareModel::byName("cpu");
  auto Samples =
      collectProfileData(Hw, {makeErdosRenyi(150, 600, 9)}, {8});
  EXPECT_GT(Samples.size(), 10u);
  for (const ProfileSample &S : Samples)
    EXPECT_GT(S.Seconds, 0.0);
}

TEST(Trainer, FlopBudgetSkipsHugeMeasuredKernels) {
  HardwareModel Hw = HardwareModel::byName("cpu");
  auto Samples = collectProfileData(Hw, {makeErdosRenyi(400, 2000, 10)},
                                    {64}, /*MaxFlops=*/1.0);
  // Every kernel on this graph exceeds one FLOP, so everything is skipped.
  EXPECT_TRUE(Samples.empty());
}

TEST(Trainer, LearnedModelTracksSimulatedTimes) {
  HardwareModel Hw = HardwareModel::byName("a100");
  auto Samples = collectProfileData(Hw, tinySuite(), {8, 16, 32});
  TrainReport Report;
  LearnedCostModel Model = trainCostModel(Hw, Samples, GbtParams(), &Report);
  EXPECT_GT(Model.modelCount(), 8u);
  EXPECT_EQ(Report.SampleCount, Samples.size());

  // Predictions should be within ~2x of the analytic ground truth for the
  // bulk kinds (log-RMSE below log(2)).
  ASSERT_TRUE(Report.TrainRmse.count(PrimitiveKind::SpMMWeighted));
  EXPECT_LT(Report.TrainRmse[PrimitiveKind::SpMMWeighted], 0.7);
  EXPECT_LT(Report.TrainRmse[PrimitiveKind::Gemm], 0.7);
}

TEST(Trainer, LearnedPreservesRelativeOrderOfBigVsSmall) {
  HardwareModel Hw = HardwareModel::byName("h100");
  auto Samples = collectProfileData(Hw, tinySuite(), {8, 16, 32});
  LearnedCostModel Model = trainCostModel(Hw, Samples);
  GraphStats Stats = makeErdosRenyi(250, 1500, 6).stats();
  PrimitiveDesc Small{PrimitiveKind::Gemm, 250, 8, 8, 0};
  PrimitiveDesc Large{PrimitiveKind::Gemm, 250, 32, 32, 0};
  EXPECT_LT(Model.primitiveSeconds(Small, Stats),
            Model.primitiveSeconds(Large, Stats));
}

TEST(LearnedCostModel, SerializeRoundTrip) {
  HardwareModel Hw = HardwareModel::byName("h100");
  auto Samples = collectProfileData(Hw, tinySuite(), {8, 16});
  LearnedCostModel Model = trainCostModel(Hw, Samples);
  auto Restored = LearnedCostModel::deserialize(Model.serialize(), Hw);
  ASSERT_TRUE(Restored.has_value());
  EXPECT_EQ(Restored->modelCount(), Model.modelCount());
  GraphStats Stats = makeRing(300).stats();
  PrimitiveDesc Desc{PrimitiveKind::SpMMWeighted, 300, 16, 0, 600};
  EXPECT_DOUBLE_EQ(Restored->primitiveSeconds(Desc, Stats),
                   Model.primitiveSeconds(Desc, Stats));
}

TEST(LearnedCostModel, DeserializeRejectsMalformed) {
  HardwareModel Hw = HardwareModel::byName("cpu");
  EXPECT_FALSE(LearnedCostModel::deserialize("model gemm\njunk\nend\n", Hw)
                   .has_value());
  EXPECT_FALSE(
      LearnedCostModel::deserialize("bogus header\n", Hw).has_value());
  EXPECT_FALSE(LearnedCostModel::deserialize(
                   "model nosuchkind\ngbt 1 0x1p0 0x0p0 0\nend\n", Hw)
                   .has_value());
}

TEST(LearnedCostModel, LoadOrTrainUsesCache) {
  HardwareModel Hw = HardwareModel::byName("h100");
  std::string Path = ::testing::TempDir() + "/granii_costmodel_cache.txt";
  std::remove(Path.c_str());
  LearnedCostModel First =
      loadOrTrainCostModel(Path, Hw, tinySuite(), {8, 16});
  EXPECT_GT(First.modelCount(), 0u);
  // Second call must load the cache and agree exactly.
  LearnedCostModel Second =
      loadOrTrainCostModel(Path, Hw, {/*no graphs needed*/}, {8});
  EXPECT_EQ(Second.modelCount(), First.modelCount());
  GraphStats Stats = makeRing(123).stats();
  PrimitiveDesc Desc{PrimitiveKind::RowBroadcast, 123, 16, 0, 0};
  EXPECT_DOUBLE_EQ(First.primitiveSeconds(Desc, Stats),
                   Second.primitiveSeconds(Desc, Stats));
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Row-length regularity features (golden values on hand-computed fixtures)
//===----------------------------------------------------------------------===//

// A ring is perfectly regular: every row has exactly 2 entries, so the ELL
// layout has no padding (fill ratio 1) and the row-length variance is 0.
TEST(Featurizer, FormatFeaturesOnRegularRing) {
  GraphStats Stats = makeRing(8).stats();
  ASSERT_DOUBLE_EQ(Stats.MaxDegree, 2.0);
  ASSERT_EQ(Stats.NumEdges, 16);
  PrimitiveDesc Desc{PrimitiveKind::SpMMWeighted, 8, 4, 0, 16};
  FeatureVector F = featurize(Desc, Stats);
  EXPECT_DOUBLE_EQ(F[16], 1.0); // nnz / (nodes * maxdeg) = 16 / (8*2)
  EXPECT_DOUBLE_EQ(F[17], 0.0); // log1p(variance of constant degrees)
}

// star(5): degrees are [4, 1, 1, 1, 1] -> 8 directed edges, max degree 4.
// ELL fill = 8 / (5*4) = 0.4; mean degree 1.6, variance
// ((4-1.6)^2 + 4*(1-1.6)^2)/5 = 1.44.
TEST(Featurizer, FormatFeaturesOnSkewedStar) {
  GraphStats Stats = makeStar(5).stats();
  ASSERT_DOUBLE_EQ(Stats.MaxDegree, 4.0);
  ASSERT_EQ(Stats.NumEdges, 8);
  PrimitiveDesc Desc{PrimitiveKind::SpMMWeighted, 5, 4, 0, 8};
  FeatureVector F = featurize(Desc, Stats);
  EXPECT_NEAR(F[16], 0.4, 1e-12);
  EXPECT_NEAR(F[17], std::log1p(1.44), 1e-9);
}

// A cost-model cache written before the featurizer grew to NumCostFeatures
// carries ensembles trained on the old width; loadOrTrainCostModel must
// reject it and retrain rather than feed the trees misaligned vectors.
TEST(Trainer, StaleFeatureWidthCacheIsRejected) {
  HardwareModel Hw = HardwareModel::byName("h100");
  std::string Path = ::testing::TempDir() + "/granii_stale_cache.txt";
  std::remove(Path.c_str());

  // Simulate an older featurizer: a valid cache whose models were trained
  // on narrower feature vectors.
  GbtDataset Old;
  Old.NumFeatures = NumCostFeatures - 3;
  Rng R(9);
  std::vector<double> Row(Old.NumFeatures);
  for (int I = 0; I < 64; ++I) {
    for (double &V : Row)
      V = R.nextDouble();
    Old.add(Row.data(), Row[0] + 0.5 * Row[1]);
  }
  GbtModel Stale = GbtModel::fit(Old, GbtParams());
  ASSERT_EQ(Stale.numFeatures(), NumCostFeatures - 3);
  LearnedCostModel Seeded(Hw);
  Seeded.setModel(PrimitiveKind::SpMMWeighted, Stale);
  ASSERT_TRUE(Seeded.saveToFile(Path));

  // Enough graphs that SpMMWeighted clears the trainer's 8-sample floor
  // (one sample per graph per width) and gets an ensemble again.
  std::vector<Graph> Suite;
  for (int64_t I = 0; I < 12; ++I)
    Suite.push_back(makeErdosRenyi(100 + 10 * I, 400 + 40 * I,
                                   static_cast<uint64_t>(I + 1)));
  LearnedCostModel Fresh = loadOrTrainCostModel(Path, Hw, Suite, {8});
  ASSERT_TRUE(Fresh.hasModel(PrimitiveKind::SpMMWeighted));
  EXPECT_EQ(Fresh.model(PrimitiveKind::SpMMWeighted)->numFeatures(),
            NumCostFeatures)
      << "stale cache was served instead of being retrained";
  std::remove(Path.c_str());
}
