//===- SageTests.cpp - Tests for the GraphSAGE-mean extension ---------------===//

#include "assoc/Enumerate.h"
#include "assoc/Prune.h"
#include "granii/Granii.h"
#include "graph/Generators.h"
#include "kernels/Kernels.h"
#include "models/Baselines.h"

#include <gtest/gtest.h>

using namespace granii;

TEST(Sage, ModelMetadata) {
  GnnModel M = makeModel(ModelKind::SAGE);
  EXPECT_EQ(M.Name, "SAGE");
  EXPECT_EQ(M.WeightCount, 2);
  EXPECT_FALSE(M.UsesAttention);
  EXPECT_EQ(extendedModels().size(), 7u);
  EXPECT_EQ(allModels().size(), 5u); // Paper benches keep the main five.
}

TEST(Sage, DslUsesReciprocalDegree) {
  GnnModel M = makeModel(ModelKind::SAGE);
  bool HasDegreeInv = false;
  for (const LeafNode *Leaf : collectLeaves(M.Root))
    HasDegreeInv |= Leaf->role() == LeafRole::DegreeInv;
  EXPECT_TRUE(HasDegreeInv);
}

TEST(Sage, EnumerationFindsUpdateOrderings) {
  GnnModel M = makeModel(ModelKind::SAGE);
  auto Plans = enumerateCompositions(M.Root);
  EXPECT_GE(Plans.size(), 3u);
  bool UpdateFirst = false, AggregateFirst = false, UsesInvDeg = false;
  for (const CompositionPlan &P : Plans) {
    (planIsUpdateFirst(P) ? UpdateFirst : AggregateFirst) = true;
    for (const PlanStep &Step : P.Steps)
      UsesInvDeg |= Step.Op == StepOp::InvVec;
  }
  EXPECT_TRUE(UpdateFirst);
  EXPECT_TRUE(AggregateFirst);
  EXPECT_TRUE(UsesInvDeg);
}

TEST(Sage, MeanAggregationSemantics) {
  // The selected composition must compute exactly mean-of-neighbors before
  // the Wneigh update: verify against a direct reference computation.
  Graph G = makeErdosRenyi(60, 300, 9);
  GnnModel M = makeModel(ModelKind::SAGE);
  LayerParams Params = makeLayerParams(M, G, 6, 5, 2);
  Executor Exec(HardwareModel::byName("cpu"));
  auto Plans = enumerateCompositions(M.Root);
  DenseMatrix Out = Exec.run(Plans[0], Params.inputs(), Params.Stats).Output;

  // Reference: relu(H Wself + D^-1 A H Wneigh) with dense ops.
  const CsrMatrix &A = Params.AdjSelf;
  const DenseMatrix &H = Params.Features;
  const int64_t N = A.rows();
  std::vector<float> Deg(static_cast<size_t>(N)), InvDeg(Deg.size());
  kernels::degreeFromOffsetsInto(A, Deg);
  kernels::invDegreeInto(Deg, InvDeg);
  DenseMatrix Sum(N, H.cols()), Mean(N, H.cols());
  kernels::spmmInto(A, {}, H, Sum);
  kernels::rowBroadcastMulInto(InvDeg, Sum, Mean);
  DenseMatrix Self(N, 5), Neigh(N, 5), Pre(N, 5), Ref(N, 5);
  kernels::gemmInto(H, Params.Weights.at("Wself"), Self);
  kernels::gemmInto(Mean, Params.Weights.at("Wneigh"), Neigh);
  kernels::addMatricesInto(Self, Neigh, Pre);
  kernels::reluInto(Pre, Ref);
  EXPECT_TRUE(Out.approxEquals(Ref, 1e-3f, 1e-3f));
}

TEST(Sage, AllPlansEquivalent) {
  Graph G = makeRmat(120, 900, 0.5, 0.2, 0.2, 3);
  GnnModel M = makeModel(ModelKind::SAGE);
  LayerParams Params = makeLayerParams(M, G, 8, 12, 4);
  Executor Exec(HardwareModel::byName("cpu"));
  auto Plans = enumerateCompositions(M.Root);
  DenseMatrix Ref = Exec.run(Plans[0], Params.inputs(), Params.Stats).Output;
  for (size_t I = 1; I < Plans.size(); ++I)
    EXPECT_TRUE(Exec.run(Plans[I], Params.inputs(), Params.Stats)
                    .Output.approxEquals(Ref, 2e-3f, 2e-3f))
        << "plan " << I;
}

TEST(Sage, TrainingGradientsFlowToBothWeights) {
  Graph G = makeErdosRenyi(50, 250, 5);
  GnnModel M = makeModel(ModelKind::SAGE);
  LayerParams Params = makeLayerParams(M, G, 5, 7, 6);
  Executor Exec(HardwareModel::byName("cpu"));
  auto Plans = enumerateCompositions(M.Root);
  ExecResult R = Exec.runTraining(Plans[0], Params.inputs(), Params.Stats);
  ASSERT_TRUE(R.WeightGrads.count("Wself"));
  ASSERT_TRUE(R.WeightGrads.count("Wneigh"));
  EXPECT_GT(R.WeightGrads.at("Wself").frobeniusNorm(), 0.0);
  EXPECT_GT(R.WeightGrads.at("Wneigh").frobeniusNorm(), 0.0);
}

TEST(Sage, OptimizerEndToEnd) {
  GnnModel M = makeModel(ModelKind::SAGE);
  OptimizerOptions Opts;
  Opts.Hw = HardwareModel::byName("h100");
  AnalyticCostModel Cost(Opts.Hw);
  Optimizer Opt(M, Opts, &Cost);
  EXPECT_GE(Opt.promoted().size(), 2u);
  Graph G = makeCommunityGraph(30, 10, 0.5, 150, 7);
  Selection Sel = Opt.select(G, 16, 32);
  LayerParams Params = makeLayerParams(M, G, 16, 32, 8);
  ExecResult R = Opt.execute(Sel, Params, false);
  EXPECT_EQ(R.Output.cols(), 32);
}
