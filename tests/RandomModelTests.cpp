//===- RandomModelTests.cpp - Randomized re-association properties ----------===//
//
// Property-based testing over randomly generated model IRs: whatever chain
// of normalizations, aggregations, additions and updates we build, every
// enumerated composition must compute the same function and the pruner must
// keep an analytically optimal candidate. This complements the fixed-model
// tests with structural diversity.
//
//===----------------------------------------------------------------------===//

#include "assoc/Enumerate.h"
#include "assoc/Prune.h"
#include "granii/Granii.h"
#include "graph/Generators.h"
#include "runtime/BufferPlan.h"
#include "support/Rng.h"
#include "verify/VerifyBuffers.h"
#include "verify/VerifyPlan.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace granii;

namespace {

/// Builds a random single-layer model IR:
///   h := H
///   repeat 1..3 times: h := one of
///     { aggregate(A, h), row_scale(D, h), row_scale(Dinv, h),
///       scale(c, h), h + aggregate(A, h) }
///   out := relu(h * W)
IRNodeRef randomModelIR(Rng &R) {
  IRNodeRef A = ir::adjacencyLeaf();
  IRNodeRef D = ir::degreeNormLeaf();
  IRNodeRef Dinv = ir::degreeInvLeaf();
  IRNodeRef H = ir::featuresLeaf();
  IRNodeRef W = ir::weightLeaf();

  IRNodeRef Cur = H;
  int Ops = 1 + static_cast<int>(R.nextBelow(3));
  for (int I = 0; I < Ops; ++I) {
    switch (R.nextBelow(5)) {
    case 0:
      Cur = ir::matMul({A, Cur});
      break;
    case 1:
      Cur = ir::rowBroadcast(D, Cur);
      break;
    case 2:
      Cur = ir::rowBroadcast(Dinv, Cur);
      break;
    case 3:
      Cur = ir::scale(0.5 + R.nextDouble(), Cur);
      break;
    case 4:
      Cur = ir::add({Cur, ir::matMul({A, Cur})});
      break;
    }
  }
  return ir::relu(ir::matMul({Cur, W}));
}

GnnModel wrapRandom(IRNodeRef Root, int Index) {
  GnnModel Model;
  Model.Name = "random" + std::to_string(Index);
  Model.Root = std::move(Root);
  Model.WeightCount = 1;
  return Model;
}

} // namespace

class RandomModels : public ::testing::TestWithParam<int> {};

TEST_P(RandomModels, AllCompositionsAgreeAndPruningIsSafe) {
  Rng R(1000 + static_cast<uint64_t>(GetParam()));
  IRNodeRef Root = randomModelIR(R);
  verifyIR(Root);
  GnnModel Model = wrapRandom(Root, GetParam());

  std::vector<CompositionPlan> All = enumerateCompositions(Root);
  ASSERT_FALSE(All.empty());
  std::vector<CompositionPlan> Promoted = pruneCompositions(All);
  ASSERT_FALSE(Promoted.empty());

  // Semantic equivalence of every plan on a random graph.
  Graph G = makeErdosRenyi(70, 420, 500 + GetParam());
  LayerParams Params = makeLayerParams(Model, G, 6, 9, GetParam());
  Executor Exec(HardwareModel::byName("cpu"));
  DenseMatrix Ref = Exec.run(All[0], Params.inputs(), Params.Stats).Output;
  EXPECT_FALSE(std::isnan(Ref.sum()));
  for (size_t I = 1; I < All.size(); ++I) {
    DenseMatrix Out = Exec.run(All[I], Params.inputs(), Params.Stats).Output;
    EXPECT_TRUE(Out.approxEquals(Ref, 5e-3f, 5e-3f))
        << "plan " << I << " of " << All.size() << " diverges by "
        << Out.maxAbsDiff(Ref) << "\n"
        << All[I].toString();
  }

  // The analytically cheapest plan survives pruning at random bindings.
  for (int Trial = 0; Trial < 4; ++Trial) {
    DimBinding B;
    B.N = 256 + static_cast<int64_t>(R.nextBelow(4096));
    B.E = B.N * (2 + static_cast<int64_t>(R.nextBelow(40)));
    B.KIn = 8 << R.nextBelow(5);
    B.KOut = 8 << R.nextBelow(5);
    double BestAll = 1e300, BestPromoted = 1e300;
    for (const CompositionPlan &P : All)
      BestAll = std::min(BestAll, P.flopCost(B, 100));
    for (const CompositionPlan &P : Promoted)
      BestPromoted = std::min(BestPromoted, P.flopCost(B, 100));
    EXPECT_LE(BestPromoted, BestAll * 1.0001);
  }
}

TEST_P(RandomModels, TrainingBackwardIsFinite) {
  Rng R(9000 + static_cast<uint64_t>(GetParam()));
  IRNodeRef Root = randomModelIR(R);
  GnnModel Model = wrapRandom(Root, GetParam());
  Graph G = makeErdosRenyi(50, 240, 700 + GetParam());
  LayerParams Params = makeLayerParams(Model, G, 5, 6, GetParam());
  Executor Exec(HardwareModel::byName("cpu"));
  for (const CompositionPlan &P : pruneCompositions(
           enumerateCompositions(Root))) {
    ExecResult Res = Exec.runTraining(P, Params.inputs(), Params.Stats);
    ASSERT_TRUE(Res.WeightGrads.count("W"));
    EXPECT_FALSE(std::isnan(Res.WeightGrads.at("W").sum()));
    EXPECT_GT(Res.BackwardSeconds, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomModels, ::testing::Range(0, 12));

//===----------------------------------------------------------------------===//
// Verifier coverage: whatever random model we build, every plan that
// survives pruning must pass the static checkers — plan legality, scenario
// annotations, the survivor-set invariant, and a clean buffer schedule
// under both embedding-size scenarios in both execution modes.
//===----------------------------------------------------------------------===//

class RandomVerify : public ::testing::TestWithParam<int> {};

TEST_P(RandomVerify, SurvivingPlansVerifyClean) {
  Rng R(3000 + static_cast<uint64_t>(GetParam()));
  IRNodeRef Root = randomModelIR(R);
  std::vector<CompositionPlan> Promoted =
      pruneCompositions(enumerateCompositions(Root));
  ASSERT_FALSE(Promoted.empty());

  DiagEngine Diags;
  for (const CompositionPlan &Plan : Promoted) {
    verifyPlanDiags(Plan, Diags);
    verifyScenarioAnnotations(Plan, Diags);
  }
  verifySurvivorSet(Promoted, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.render();

  DimBinding Ge{.N = 4096, .KIn = 128, .KOut = 64, .E = 65536};
  DimBinding Lt{.N = 4096, .KIn = 64, .KOut = 128, .E = 65536};
  for (const CompositionPlan &Plan : Promoted)
    for (const DimBinding &Binding : {Ge, Lt})
      for (bool Training : {false, true}) {
        DiagEngine BufDiags;
        BufferPlan Buffers(Plan, Binding, Training);
        EXPECT_TRUE(verifyBufferPlan(Plan, Binding, Buffers, BufDiags))
            << Plan.Name << (Training ? " (training)" : "") << ":\n"
            << BufDiags.render();
      }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomVerify, ::testing::Range(0, 24));
