//===- EnumerateTests.cpp - Tests for association-tree enumeration ----------===//

#include "assoc/Enumerate.h"
#include "ir/Rewrite.h"
#include "models/Baselines.h"
#include "models/Models.h"

#include <gtest/gtest.h>

#include <set>

using namespace granii;

namespace {

size_t countSteps(const CompositionPlan &Plan, StepOp Op) {
  size_t Count = 0;
  for (const PlanStep &Step : Plan.Steps)
    Count += Step.Op == Op;
  return Count;
}

} // namespace

TEST(Enumerate, SingleGemmChain) {
  IRNodeRef Root = ir::matMul({ir::featuresLeaf(), ir::weightLeaf()});
  auto Plans = enumerateCompositions(Root);
  ASSERT_EQ(Plans.size(), 1u);
  EXPECT_EQ(Plans[0].Steps.size(), 1u);
  EXPECT_EQ(Plans[0].Steps[0].Op, StepOp::Gemm);
}

TEST(Enumerate, ThreeDenseOperandsGiveTwoAssociations) {
  IRNodeRef H = ir::featuresLeaf();
  // H (N x Kin) * W1 (Kin x Kout) * W2 (Kout x Kout).
  IRNodeRef W1 = ir::weightLeaf("W1");
  IRNodeRef W2 = ir::weightLeafWithShape("W2", {SymDim::kOut(), SymDim::kOut()});
  auto Plans = enumerateCompositions(ir::matMul({H, W1, W2}));
  EXPECT_EQ(Plans.size(), 2u); // (HW1)W2 and H(W1W2).
}

TEST(Enumerate, SparseSparseChainIsDeadEnd) {
  // A * A * H admits only right-to-left association (no SpGEMM rule).
  IRNodeRef Root = ir::matMul(
      {ir::adjacencyLeaf(), ir::adjacencyLeaf(), ir::featuresLeaf()});
  auto Plans = enumerateCompositions(Root);
  ASSERT_EQ(Plans.size(), 1u);
  ASSERT_EQ(Plans[0].Steps.size(), 2u);
  EXPECT_EQ(Plans[0].Steps[0].Op, StepOp::SpmmUnweighted);
  EXPECT_EQ(Plans[0].Steps[1].Op, StepOp::SpmmUnweighted);
}

TEST(Enumerate, GcnCountsMatchStructure) {
  GnnModel M = makeModel(ModelKind::GCN);
  auto Plans = enumerateCompositions(M.Root);
  EXPECT_EQ(Plans.size(), 16u);
  // Both paper §III-A compositions appear: dynamic normalization (no
  // sparse scaling) and precomputed \tilde{N} (fused two-sided scaling).
  bool AnyDynamic = false, AnyPrecompute = false;
  for (const CompositionPlan &P : Plans) {
    AnyDynamic |= !planUsesPrecompute(P);
    AnyPrecompute |= countSteps(P, StepOp::SddmmScaleBoth) == 1;
  }
  EXPECT_TRUE(AnyDynamic);
  EXPECT_TRUE(AnyPrecompute);
}

TEST(Enumerate, GatExactlyReuseAndRecompute) {
  GnnModel M = makeModel(ModelKind::GAT);
  auto Plans = enumerateCompositions(M.Root);
  ASSERT_EQ(Plans.size(), 2u); // Paper §VI-B: 2 compositions for GAT.
  size_t Reuse = 0, Recompute = 0;
  for (const CompositionPlan &P : Plans) {
    if (planRecomputesTheta(P))
      ++Recompute;
    else
      ++Reuse;
  }
  EXPECT_EQ(Reuse, 1u);
  EXPECT_EQ(Recompute, 1u);
}

TEST(Enumerate, GatReusePlanSharesThetaGemm) {
  GnnModel M = makeModel(ModelKind::GAT);
  auto Plans = enumerateCompositions(M.Root);
  for (const CompositionPlan &P : Plans) {
    size_t Gemms = countSteps(P, StepOp::Gemm);
    if (planRecomputesTheta(P))
      EXPECT_EQ(Gemms, 2u); // Theta GEMM + post-aggregation GEMM.
    else
      EXPECT_EQ(Gemms, 1u); // CSE: one shared Theta GEMM.
  }
}

TEST(Enumerate, GinContainsUpdateFirstAndAggregateFirst) {
  GnnModel M = makeModel(ModelKind::GIN);
  auto Plans = enumerateCompositions(M.Root);
  bool UpdateFirst = false, AggregateFirst = false;
  for (const CompositionPlan &P : Plans) {
    if (planIsUpdateFirst(P))
      UpdateFirst = true;
    else
      AggregateFirst = true;
  }
  EXPECT_TRUE(UpdateFirst);
  EXPECT_TRUE(AggregateFirst);
}

TEST(Enumerate, GinUpdateFirstSharesGemmViaScalePullOut) {
  GnnModel M = makeModel(ModelKind::GIN);
  auto Plans = enumerateCompositions(M.Root);
  // The efficient update-first GIN has exactly one GEMM: (1+eps)(HW)+A(HW).
  bool SingleGemmUpdateFirst = false;
  for (const CompositionPlan &P : Plans)
    if (planIsUpdateFirst(P) && countSteps(P, StepOp::Gemm) == 1)
      SingleGemmUpdateFirst = true;
  EXPECT_TRUE(SingleGemmUpdateFirst);
}

TEST(Enumerate, AllPlansVerifyAndDeduplicate) {
  for (ModelKind Kind : allModels()) {
    GnnModel M = makeModel(Kind);
    auto Plans = enumerateCompositions(M.Root);
    std::set<std::string> Keys;
    for (const CompositionPlan &P : Plans) {
      P.verify();
      EXPECT_TRUE(Keys.insert(P.canonicalKey()).second)
          << "duplicate plan in " << M.Name;
    }
  }
}

TEST(Enumerate, SetupFlagsMarkGraphOnlySteps) {
  GnnModel M = makeModel(ModelKind::GCN);
  auto Plans = enumerateCompositions(M.Root);
  for (const CompositionPlan &P : Plans) {
    for (const PlanStep &Step : P.Steps) {
      if (Step.Op == StepOp::DegreeOffsets || Step.Op == StepOp::InvSqrtVec ||
          Step.Op == StepOp::SddmmScaleBoth) {
        EXPECT_TRUE(Step.Setup) << stepOpName(Step.Op);
      }
      if (Step.Op == StepOp::Gemm || Step.Op == StepOp::SpmmUnweighted ||
          Step.Op == StepOp::Relu) {
        EXPECT_FALSE(Step.Setup) << stepOpName(Step.Op);
      }
    }
  }
}

TEST(Enumerate, HoistingDisabledMarksNothingSetup) {
  GnnModel M = makeModel(ModelKind::GCN);
  EnumOptions Opts;
  Opts.HoistGraphOnlySteps = false;
  for (const CompositionPlan &P : enumerateCompositions(M.Root, Opts))
    for (const PlanStep &Step : P.Steps)
      EXPECT_FALSE(Step.Setup);
}

TEST(Enumerate, BinningOptionSwitchesDegreeKernel) {
  GnnModel M = makeModel(ModelKind::GCN);
  EnumOptions Opts;
  Opts.UseBinningDegree = true;
  for (const CompositionPlan &P : enumerateCompositions(M.Root, Opts)) {
    EXPECT_EQ(countSteps(P, StepOp::DegreeOffsets), 0u);
    EXPECT_GE(countSteps(P, StepOp::DegreeBinning), 1u);
  }
}

TEST(Enumerate, TernaryAblationRemovesFusedScaling) {
  GnnModel M = makeModel(ModelKind::GCN);
  EnumOptions Opts;
  Opts.EnableTernaryRule = false;
  for (const CompositionPlan &P : enumerateCompositions(M.Root, Opts))
    EXPECT_EQ(countSteps(P, StepOp::SddmmScaleBoth), 0u);
}

TEST(Enumerate, MaxPlansCapRespected) {
  GnnModel M = makeModel(ModelKind::SGC);
  EnumOptions Opts;
  Opts.MaxPlans = 10;
  EXPECT_LE(enumerateCompositions(M.Root, Opts).size(), 10u);
}

TEST(Enumerate, SgcMultiHopScales) {
  GnnModel Sgc3 = makeModel(ModelKind::SGC, 3);
  auto Plans = enumerateCompositions(Sgc3.Root);
  EXPECT_GT(Plans.size(), 20u);
  for (const CompositionPlan &P : Plans)
    P.verify();
}

TEST(Enumerate, TagcnCrossTermCseSharesNormalizedAdjacency) {
  GnnModel M = makeModel(ModelKind::TAGCN, 2);
  auto Plans = enumerateCompositions(M.Root);
  // Some plan computes the normalized adjacency once and feeds both hops.
  bool SharedNorm = false;
  for (const CompositionPlan &P : Plans) {
    size_t ScaleBoth = countSteps(P, StepOp::SddmmScaleBoth);
    size_t Spmms = countSteps(P, StepOp::SpmmWeighted);
    if (ScaleBoth == 1 && Spmms >= 3)
      SharedNorm = true; // One \tilde{N}, three aggregations through it.
  }
  EXPECT_TRUE(SharedNorm);
}
