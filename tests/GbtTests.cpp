//===- GbtTests.cpp - Tests for gradient-boosted regression trees -----------===//

#include "cost/Gbt.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

using namespace granii;

namespace {

/// Builds a dataset y = f(x) + noise over random feature vectors.
GbtDataset makeDataset(size_t Samples, size_t Features, uint64_t Seed,
                       double (*F)(const double *), double Noise = 0.0) {
  Rng R(Seed);
  GbtDataset Data;
  Data.NumFeatures = Features;
  std::vector<double> Row(Features);
  for (size_t I = 0; I < Samples; ++I) {
    for (double &V : Row)
      V = R.nextDouble() * 4.0 - 2.0;
    Data.add(Row.data(), F(Row.data()) + Noise * R.nextGaussian());
  }
  return Data;
}

double linearFn(const double *X) { return 3.0 * X[0] - 2.0 * X[1] + 1.0; }
double linearFn1(const double *X) { return 3.0 * X[0] + 1.0; }
double quadraticFn(const double *X) { return X[0] * X[0] + X[1]; }
double interactionFn(const double *X) { return X[0] > 0 ? X[1] : -X[1]; }

} // namespace

TEST(Gbt, FitsLinearFunction) {
  GbtDataset Data = makeDataset(400, 3, 1, linearFn);
  GbtModel Model = GbtModel::fit(Data, GbtParams());
  EXPECT_LT(Model.mse(Data), 0.05);
}

TEST(Gbt, FitsQuadraticFunction) {
  GbtDataset Data = makeDataset(500, 2, 2, quadraticFn);
  GbtModel Model = GbtModel::fit(Data, GbtParams());
  EXPECT_LT(Model.mse(Data), 0.05);
}

TEST(Gbt, FitsNonAdditiveInteraction) {
  // Requires depth >= 2 splits; a linear model cannot express this.
  GbtDataset Data = makeDataset(600, 2, 3, interactionFn);
  GbtModel Model = GbtModel::fit(Data, GbtParams());
  EXPECT_LT(Model.mse(Data), 0.1);
}

TEST(Gbt, GeneralizesToHeldOutData) {
  GbtDataset Train = makeDataset(600, 2, 4, quadraticFn, 0.05);
  GbtDataset Test = makeDataset(200, 2, 5, quadraticFn, 0.0);
  GbtModel Model = GbtModel::fit(Train, GbtParams());
  EXPECT_LT(Model.mse(Test), 0.15);
}

TEST(Gbt, MoreTreesReduceTrainingError) {
  GbtDataset Data = makeDataset(300, 2, 6, quadraticFn);
  GbtParams Few;
  Few.NumTrees = 5;
  GbtParams Many;
  Many.NumTrees = 120;
  EXPECT_GT(GbtModel::fit(Data, Few).mse(Data),
            GbtModel::fit(Data, Many).mse(Data));
}

TEST(Gbt, DeterministicGivenSeed) {
  GbtDataset Data = makeDataset(200, 2, 7, linearFn, 0.1);
  GbtModel A = GbtModel::fit(Data, GbtParams());
  GbtModel B = GbtModel::fit(Data, GbtParams());
  EXPECT_EQ(A.serialize(), B.serialize());
}

TEST(Gbt, ConstantTargetPredictsConstant) {
  GbtDataset Data;
  Data.NumFeatures = 1;
  for (int I = 0; I < 50; ++I) {
    double X = I;
    Data.add(&X, 5.0);
  }
  GbtModel Model = GbtModel::fit(Data, GbtParams());
  double Probe = 3.5;
  EXPECT_NEAR(Model.predict(&Probe), 5.0, 1e-6);
}

TEST(Gbt, MinSamplesLeafLimitsTreeGrowth) {
  GbtDataset Data = makeDataset(40, 1, 8, linearFn1);
  GbtParams Params;
  Params.MinSamplesLeaf = 20;
  Params.NumTrees = 3;
  // Every tree sees all 40 samples: a subsample below 40 rows cannot hold
  // two 20-sample leaves, and the fit would skip the tree altogether.
  Params.Subsample = 1.0;
  GbtModel Model = GbtModel::fit(Data, Params);
  // With 40 samples and a 20-sample floor, each tree has at most 1 split.
  // serialize() writes one "tree <nodes>" line per tree, then one
  // "node <feature> ..." line per node; a split node has feature >= 0.
  std::vector<int> SplitsPerTree;
  std::istringstream Text(Model.serialize());
  std::string Line;
  while (std::getline(Text, Line)) {
    std::istringstream Fields(Line);
    std::string Kind;
    Fields >> Kind;
    if (Kind == "tree") {
      SplitsPerTree.push_back(0);
    } else if (Kind == "node") {
      int Feature = -1;
      Fields >> Feature;
      ASSERT_FALSE(SplitsPerTree.empty());
      SplitsPerTree.back() += Feature >= 0;
    }
  }
  ASSERT_EQ(Model.numTrees(), 3u);
  ASSERT_EQ(SplitsPerTree.size(), 3u);
  for (int Splits : SplitsPerTree)
    EXPECT_LE(Splits, 1);
  // The floor still admits the one 20/20 split of a linear target.
  EXPECT_EQ(SplitsPerTree.front(), 1);
}

TEST(Gbt, SerializeDeserializeRoundTripExact) {
  GbtDataset Data = makeDataset(300, 3, 9, quadraticFn, 0.1);
  GbtModel Model = GbtModel::fit(Data, GbtParams());
  auto Restored = GbtModel::deserialize(Model.serialize());
  ASSERT_TRUE(Restored.has_value());
  Rng R(10);
  for (int I = 0; I < 50; ++I) {
    double Probe[3] = {R.nextDouble() * 4 - 2, R.nextDouble() * 4 - 2,
                       R.nextDouble() * 4 - 2};
    EXPECT_DOUBLE_EQ(Model.predict(Probe), Restored->predict(Probe));
  }
  EXPECT_EQ(Restored->numFeatures(), 3u);
  EXPECT_EQ(Restored->numTrees(), Model.numTrees());
}

TEST(Gbt, DeserializeRejectsGarbage) {
  EXPECT_FALSE(GbtModel::deserialize("not a model").has_value());
  EXPECT_FALSE(GbtModel::deserialize("").has_value());
  EXPECT_FALSE(GbtModel::deserialize("gbt 3 0x1p0 0x0p0 1\ntree 1\n")
                   .has_value()); // Truncated node list.
}

TEST(Gbt, SubsampleBelowOneStillFits) {
  GbtDataset Data = makeDataset(500, 2, 11, linearFn);
  GbtParams Params;
  Params.Subsample = 0.5;
  GbtModel Model = GbtModel::fit(Data, Params);
  EXPECT_LT(Model.mse(Data), 0.2);
}

TEST(Gbt, FeatureImportanceIdentifiesDrivingFeature) {
  // y depends only on feature 0; importance must concentrate there.
  GbtDataset Data = makeDataset(400, 3, 20, [](const double *X) {
    return X[0] * X[0] * 3.0;
  });
  GbtModel Model = GbtModel::fit(Data, GbtParams());
  std::vector<double> Importance = Model.featureImportance();
  ASSERT_EQ(Importance.size(), 3u);
  // Deep trees spend some splits on noise; the driving feature must still
  // dominate clearly.
  EXPECT_GT(Importance[0], 0.5);
  EXPECT_GT(Importance[0], 3.0 * Importance[1]);
  EXPECT_GT(Importance[0], 3.0 * Importance[2]);
  double Sum = Importance[0] + Importance[1] + Importance[2];
  EXPECT_NEAR(Sum, 1.0, 1e-9);
}

TEST(Gbt, FeatureImportanceEmptyForStumplessModel) {
  GbtDataset Data;
  Data.NumFeatures = 2;
  for (int I = 0; I < 20; ++I) {
    double Row[2] = {0.0, 0.0}; // No valid split thresholds exist.
    Data.add(Row, 1.0);
  }
  GbtModel Model = GbtModel::fit(Data, GbtParams());
  std::vector<double> Importance = Model.featureImportance();
  for (double V : Importance)
    EXPECT_EQ(V, 0.0);
}
