//===- PruneTests.cpp - Tests for offline pruning and composition plans -----===//

#include "assoc/Enumerate.h"
#include "assoc/Prune.h"
#include "models/Baselines.h"
#include "models/Models.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

using namespace granii;

namespace {

/// Minimal hand-built plan: out = gemm-chain over H, W with an optional
/// extra broadcast step; used to exercise the domination rules directly.
CompositionPlan makeToyPlan(bool GemmFirst, bool ExtraBroadcast) {
  GnnModel M = makeModel(ModelKind::GCN);
  auto Plans = enumerateCompositions(M.Root);
  // Pick structurally specific plans out of the real GCN space.
  for (const CompositionPlan &P : Plans) {
    bool HasBcast = false;
    for (const PlanStep &S : P.Steps)
      HasBcast |= S.Op == StepOp::RowBcast;
    if (planIsUpdateFirst(P) == GemmFirst && HasBcast == ExtraBroadcast)
      return P;
  }
  return Plans.front();
}

} // namespace

TEST(Prune, ScenarioBindingsAreOpposed) {
  EXPECT_GE(pruneScenarioGe().KIn, pruneScenarioGe().KOut);
  EXPECT_LT(pruneScenarioLt().KIn, pruneScenarioLt().KOut);
}

TEST(Prune, SubsetRuleDominates) {
  // The GCN precompute plan {scale_both, spmm_w, gemm, ...} dominates a
  // hypothetical plan with the same steps plus an extra broadcast.
  CompositionPlan Small = makeToyPlan(true, false);
  CompositionPlan Big = Small;
  // Append a redundant row-broadcast over the output.
  PlanValue Extra{PlanValueKind::Dense,
                  Big.Values[static_cast<size_t>(Big.OutputValue)].Shape,
                  false,
                  "extra",
                  std::nullopt,
                  false};
  int DiagId = -1;
  for (size_t V = 0; V < Big.Values.size(); ++V)
    if (Big.Values[V].Kind == PlanValueKind::Diag)
      DiagId = static_cast<int>(V);
  ASSERT_GE(DiagId, 0);
  int NewId = static_cast<int>(Big.Values.size());
  Big.Values.push_back(Extra);
  Big.Steps.push_back({StepOp::RowBcast, {DiagId, Big.OutputValue}, NewId,
                       0.0, false});
  Big.OutputValue = NewId;

  SizedMultiset SmallSet = sizedMultiset(Small, pruneScenarioGe());
  SizedMultiset BigSet = sizedMultiset(Big, pruneScenarioGe());
  EXPECT_TRUE(subsetDominates(SmallSet, BigSet));
  EXPECT_FALSE(subsetDominates(BigSet, SmallSet));
  EXPECT_TRUE(dominates(SmallSet, BigSet));
  EXPECT_FALSE(dominates(BigSet, SmallSet));
}

TEST(Prune, SizeRuleRequiresSameKinds) {
  CompositionPlan UpdateFirst = makeToyPlan(true, false);
  CompositionPlan AggFirst = makeToyPlan(false, false);
  // Under K_in >= K_out the update-first variant has no-larger sizes.
  DimBinding Ge = pruneScenarioGe();
  SizedMultiset UpdateSet = sizedMultiset(UpdateFirst, Ge);
  SizedMultiset AggSet = sizedMultiset(AggFirst, Ge);
  if (UpdateSet != AggSet) {
    // They differ only in SpMM width -> size rule applies one way.
    bool Either =
        sizeDominates(UpdateSet, AggSet) || sizeDominates(AggSet, UpdateSet);
    EXPECT_TRUE(Either);
  }
}

TEST(Prune, SelfNeverDominates) {
  SizedMultiset Set =
      sizedMultiset(makeToyPlan(true, false), pruneScenarioGe());
  EXPECT_FALSE(dominates(Set, Set));
}

TEST(Prune, GcnPromotesFourWithScenarioAnnotations) {
  GnnModel M = makeModel(ModelKind::GCN);
  PruneStats Stats;
  auto Promoted = pruneCompositions(enumerateCompositions(M.Root), &Stats);
  EXPECT_EQ(Stats.Enumerated, 16u);
  ASSERT_EQ(Promoted.size(), 4u);
  // Two candidates per embedding-size scenario, never both scenarios dead.
  size_t Ge = 0, Lt = 0;
  for (const CompositionPlan &P : Promoted) {
    EXPECT_TRUE(P.ViableGe || P.ViableLt);
    Ge += P.ViableGe;
    Lt += P.ViableLt;
  }
  EXPECT_EQ(Ge, 2u);
  EXPECT_EQ(Lt, 2u);
}

TEST(Prune, GatPromotesBothCompositions) {
  GnnModel M = makeModel(ModelKind::GAT);
  PruneStats Stats;
  auto Promoted = pruneCompositions(enumerateCompositions(M.Root), &Stats);
  EXPECT_EQ(Stats.Enumerated, 2u);
  EXPECT_EQ(Stats.Pruned, 0u); // Paper §VI-B: GAT pairs are "2 and 0".
  EXPECT_EQ(Promoted.size(), 2u);
}

TEST(Prune, NeverPrunesTheFlopOptimalPlan) {
  // Property: for random bindings in either scenario, the plan minimizing
  // analytic FLOPs must survive pruning.
  Rng R(2024);
  for (ModelKind Kind : allModels()) {
    GnnModel M = makeModel(Kind);
    auto All = enumerateCompositions(M.Root);
    auto Promoted = pruneCompositions(All);
    for (int Trial = 0; Trial < 10; ++Trial) {
      DimBinding B;
      B.N = 512 + static_cast<int64_t>(R.nextBelow(8192));
      B.E = B.N * (2 + static_cast<int64_t>(R.nextBelow(60)));
      B.KIn = 8 << R.nextBelow(6);
      B.KOut = 8 << R.nextBelow(6);
      double BestAll = 1e300, BestPromoted = 1e300;
      for (const CompositionPlan &P : All)
        BestAll = std::min(BestAll, P.flopCost(B, 100));
      for (const CompositionPlan &P : Promoted)
        BestPromoted = std::min(BestPromoted, P.flopCost(B, 100));
      EXPECT_LE(BestPromoted, BestAll * 1.0001)
          << M.Name << " N=" << B.N << " E=" << B.E << " KIn=" << B.KIn
          << " KOut=" << B.KOut;
    }
  }
}

TEST(Prune, StatsAddUp) {
  GnnModel M = makeModel(ModelKind::SGC);
  PruneStats Stats;
  auto Promoted = pruneCompositions(enumerateCompositions(M.Root), &Stats);
  EXPECT_EQ(Stats.Enumerated, Stats.Pruned + Stats.Promoted);
  EXPECT_EQ(Promoted.size(), Stats.Promoted);
}

//===----------------------------------------------------------------------===//
// CompositionPlan mechanics
//===----------------------------------------------------------------------===//

TEST(Composition, CanonicalKeyStableAcrossCopies) {
  GnnModel M = makeModel(ModelKind::GCN);
  auto Plans = enumerateCompositions(M.Root);
  CompositionPlan Copy = Plans[0];
  EXPECT_EQ(Copy.canonicalKey(), Plans[0].canonicalKey());
}

TEST(Composition, ToStringListsSetupMarkers) {
  GnnModel M = makeModel(ModelKind::GCN);
  auto Plans = enumerateCompositions(M.Root);
  bool AnySetupMarker = false;
  for (const CompositionPlan &P : Plans)
    AnySetupMarker |= P.toString().find("[setup]") != std::string::npos;
  EXPECT_TRUE(AnySetupMarker);
}

TEST(Composition, FlopCostAmortizesSetup) {
  GnnModel M = makeModel(ModelKind::GCN);
  auto Plans = enumerateCompositions(M.Root);
  DimBinding B{1000, 32, 32, 8000};
  for (const CompositionPlan &P : Plans) {
    double One = P.flopCost(B, 1);
    double Hundred = P.flopCost(B, 100);
    EXPECT_LE(Hundred, 100.0 * One + 1.0);
    EXPECT_GE(Hundred, One);
  }
}

TEST(Composition, PrimitiveDescsMatchStepCount) {
  GnnModel M = makeModel(ModelKind::GAT);
  auto Plans = enumerateCompositions(M.Root);
  DimBinding B{100, 16, 24, 700};
  for (const CompositionPlan &P : Plans) {
    auto Descs = P.primitiveDescs(B);
    ASSERT_EQ(Descs.size(), P.Steps.size());
    for (size_t I = 0; I < Descs.size(); ++I)
      EXPECT_EQ(Descs[I].Kind, primitiveKindOf(P.Steps[I].Op));
  }
}

TEST(Composition, GemmDescUsesEmbeddingSizes) {
  IRNodeRef Root = ir::matMul({ir::featuresLeaf(), ir::weightLeaf()});
  auto Plans = enumerateCompositions(Root);
  DimBinding B{100, 16, 24, 0};
  auto Descs = Plans[0].primitiveDescs(B);
  ASSERT_EQ(Descs.size(), 1u);
  EXPECT_EQ(Descs[0].Rows, 100);
  EXPECT_EQ(Descs[0].Inner, 16);
  EXPECT_EQ(Descs[0].Cols, 24);
}

TEST(Composition, VerifyCatchesUseBeforeDef) {
  CompositionPlan Bad;
  Bad.Values.resize(2);
  Bad.Values[0].InputRole = LeafRole::Features;
  Bad.Steps.push_back({StepOp::Relu, {1}, 1, 0.0, false}); // v1 undefined.
  Bad.OutputValue = 1;
  EXPECT_DEATH(Bad.verify(), "used before definition");
}

TEST(Composition, VerifyCatchesDoubleDefinition) {
  CompositionPlan Bad;
  Bad.Values.resize(2);
  Bad.Values[0].InputRole = LeafRole::Features;
  Bad.Steps.push_back({StepOp::Relu, {0}, 1, 0.0, false});
  Bad.Steps.push_back({StepOp::Relu, {0}, 1, 0.0, false});
  Bad.OutputValue = 1;
  EXPECT_DEATH(Bad.verify(), "defined twice");
}

TEST(Composition, StepOpNamesUnique) {
  std::vector<StepOp> Ops = {
      StepOp::Gemm,          StepOp::SpmmWeighted,  StepOp::SpmmUnweighted,
      StepOp::SddmmScaleRow, StepOp::SddmmScaleCol, StepOp::SddmmScaleBoth,
      StepOp::RowBcast,      StepOp::ColBcast,      StepOp::DiagDiag,
      StepOp::AddDense,      StepOp::ScaleDense,    StepOp::Relu,
      StepOp::DegreeOffsets, StepOp::DegreeBinning, StepOp::InvSqrtVec,
      StepOp::AttnGemv,      StepOp::EdgeLogits,    StepOp::EdgeLeakyRelu,
      StepOp::EdgeSoftmax};
  std::set<std::string> Names;
  for (StepOp Op : Ops)
    EXPECT_TRUE(Names.insert(stepOpName(Op)).second) << stepOpName(Op);
}
