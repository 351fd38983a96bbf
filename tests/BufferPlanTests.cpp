//===- BufferPlanTests.cpp - Buffer lifetime planning and arena execution ---===//
//
// Hand-computed lifetime/slot/byte fixtures for BufferPlan, plus the
// executor-level properties the planning exists for: a caller-held
// workspace's outputs bitwise identical to a by-value run (which executes
// on a fresh workspace of its own) at every thread count, and zero
// workspace allocations in the steady state.
//
//===----------------------------------------------------------------------===//

#include "assoc/Enumerate.h"
#include "graph/Generators.h"
#include "granii/Granii.h"
#include "models/Models.h"
#include "runtime/BufferPlan.h"
#include "runtime/Executor.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <string>

using namespace granii;

namespace {

PlanValue denseInput(const char *Name, LeafRole Role, SymDim Rows,
                     SymDim Cols) {
  PlanValue V;
  V.Kind = PlanValueKind::Dense;
  V.Shape = {Rows, Cols};
  V.DebugName = Name;
  V.InputRole = Role;
  return V;
}

PlanValue sparseInput(const char *Name) {
  PlanValue V;
  V.Kind = PlanValueKind::Sparse;
  V.Shape = {SymDim::n(), SymDim::n()};
  V.DebugName = Name;
  V.InputRole = LeafRole::Adjacency;
  return V;
}

PlanValue denseTemp(const char *Name, SymDim Rows, SymDim Cols) {
  PlanValue V;
  V.Kind = PlanValueKind::Dense;
  V.Shape = {Rows, Cols};
  V.DebugName = Name;
  return V;
}

/// N=10, KIn=4, KOut=3, E=20: dense N x KOut temporaries hold 30 floats
/// (120 B), which makes the expected byte totals easy to hand-compute.
DimBinding testBinding() {
  DimBinding B;
  B.N = 10;
  B.KIn = 4;
  B.KOut = 3;
  B.E = 20;
  return B;
}

/// v3 = H * W; v4 = A @ v3; v5 = relu(v4)  (output v5).
CompositionPlan gcnLikePlan() {
  CompositionPlan P;
  P.Name = "gcn-like";
  P.Values = {sparseInput("A"),
              denseInput("H", LeafRole::Features, SymDim::n(), SymDim::kIn()),
              denseInput("W", LeafRole::Weight, SymDim::kIn(), SymDim::kOut()),
              denseTemp("t", SymDim::n(), SymDim::kOut()),
              denseTemp("agg", SymDim::n(), SymDim::kOut()),
              denseTemp("out", SymDim::n(), SymDim::kOut())};
  P.Steps = {{StepOp::Gemm, {1, 2}, 3},
             {StepOp::SpmmUnweighted, {0, 3}, 4},
             {StepOp::Relu, {4}, 5}};
  P.OutputValue = 5;
  P.verify();
  return P;
}

/// v3 = H * W; v4 = relu(v3); v5 = relu(v4); v6 = relu(v5)  (output v6).
/// Long enough for a freed slot to be reused mid-chain.
CompositionPlan reluChainPlan() {
  CompositionPlan P;
  P.Name = "relu-chain";
  P.Values = {sparseInput("A"),
              denseInput("H", LeafRole::Features, SymDim::n(), SymDim::kIn()),
              denseInput("W", LeafRole::Weight, SymDim::kIn(), SymDim::kOut()),
              denseTemp("t0", SymDim::n(), SymDim::kOut()),
              denseTemp("t1", SymDim::n(), SymDim::kOut()),
              denseTemp("t2", SymDim::n(), SymDim::kOut()),
              denseTemp("out", SymDim::n(), SymDim::kOut())};
  P.Steps = {{StepOp::Gemm, {1, 2}, 3},
             {StepOp::Relu, {3}, 4},
             {StepOp::Relu, {4}, 5},
             {StepOp::Relu, {5}, 6}};
  P.OutputValue = 6;
  P.verify();
  return P;
}

} // namespace

//===----------------------------------------------------------------------===//
// Lifetime analysis fixtures
//===----------------------------------------------------------------------===//

TEST(BufferPlan, LifetimesAndBytesOfGcnLikePlan) {
  CompositionPlan P = gcnLikePlan();
  BufferPlan BP(P, testBinding(), /*Training=*/false);

  for (int In : {0, 1, 2})
    EXPECT_EQ(BP.values()[In].Class, BufferClass::InputAlias);

  const ValueBuffer &T = BP.values()[3];
  EXPECT_EQ(T.DefStep, 0);
  EXPECT_EQ(T.LastUse, 1);
  EXPECT_EQ(T.Floats, 30);
  EXPECT_FALSE(T.Pinned);

  const ValueBuffer &Agg = BP.values()[4];
  EXPECT_EQ(Agg.DefStep, 1);
  EXPECT_EQ(Agg.LastUse, 2);

  // The output is read after execution: sentinel last use one past the
  // final step, and a pinned dedicated slot.
  const ValueBuffer &Out = BP.values()[5];
  EXPECT_EQ(Out.DefStep, 2);
  EXPECT_EQ(Out.LastUse, 3);
  EXPECT_TRUE(Out.Pinned);
  ASSERT_GE(Out.Slot, 0);
  EXPECT_TRUE(BP.slots()[static_cast<size_t>(Out.Slot)].Pinned);

  // Worst step holds two 30-float temporaries: 240 B. All three resident
  // at once (the per-call baseline) is 360 B. No interval here admits
  // sharing, so the arena also holds three 120 B slots.
  EXPECT_EQ(BP.peakBytes(), 240u);
  EXPECT_EQ(BP.naiveBytes(), 360u);
  EXPECT_EQ(BP.arenaBytes(), 360u);
  EXPECT_LE(BP.peakBytes(), BP.naiveBytes());
}

TEST(BufferPlan, FreedSlotIsReused) {
  CompositionPlan P = reluChainPlan();
  BufferPlan BP(P, testBinding(), /*Training=*/false);

  // t0 dies after step 1, so t2 (defined at step 2) takes its slot; only
  // the output needs a third (pinned) slot despite four produced values.
  EXPECT_EQ(BP.values()[5].Slot, BP.values()[3].Slot);
  EXPECT_NE(BP.values()[4].Slot, BP.values()[3].Slot);
  EXPECT_EQ(BP.slots().size(), 3u);

  EXPECT_EQ(BP.peakBytes(), 240u);  // two live 30-float values at worst
  EXPECT_EQ(BP.naiveBytes(), 480u); // four produced values
  EXPECT_EQ(BP.arenaBytes(), 360u); // three 120 B slots
}

TEST(BufferPlan, TrainingModePinsEverything) {
  CompositionPlan P = reluChainPlan();
  BufferPlan BP(P, testBinding(), /*Training=*/true);

  EXPECT_TRUE(BP.training());
  for (int V : {3, 4, 5, 6}) {
    EXPECT_TRUE(BP.values()[V].Pinned) << "v" << V;
    EXPECT_TRUE(BP.slots()[static_cast<size_t>(BP.values()[V].Slot)].Pinned);
  }
  // Saved activations forbid sharing: one slot per value, peak == naive.
  EXPECT_EQ(BP.slots().size(), 4u);
  EXPECT_NE(BP.values()[5].Slot, BP.values()[3].Slot);
  EXPECT_EQ(BP.peakBytes(), BP.naiveBytes());
  EXPECT_EQ(BP.arenaBytes(), 480u);
}

TEST(BufferPlan, NeverReadValueDiesAtDefinition) {
  CompositionPlan P = gcnLikePlan();
  // Append a dead step: v6 = relu(v3), never read (output stays v5).
  P.Values.push_back(denseTemp("dead", SymDim::n(), SymDim::kOut()));
  P.Steps.push_back({StepOp::Relu, {3}, 6});
  P.verify();
  BufferPlan BP(P, testBinding(), /*Training=*/false);
  EXPECT_EQ(BP.values()[6].DefStep, 3);
  EXPECT_EQ(BP.values()[6].LastUse, 3);
  // Its definition extends v3's lifetime to step 3.
  EXPECT_EQ(BP.values()[3].LastUse, 3);
}

TEST(BufferPlan, SetupResultsAndSparseValuesArePinned) {
  // v2 = degree(A) [setup]; v3 = inv_sqrt(v2) [setup];
  // v4 = scale_both(v3, A, v3) [setup, sparse]; v5 = A' @ H  (output).
  CompositionPlan P;
  P.Name = "setup-sparse";
  PlanValue Deg;
  Deg.Kind = PlanValueKind::Diag;
  Deg.Shape = {SymDim::n(), SymDim::one()};
  Deg.DebugName = "deg";
  Deg.GraphOnly = true;
  PlanValue Norm = Deg;
  Norm.DebugName = "dnorm";
  PlanValue Ahat;
  Ahat.Kind = PlanValueKind::Sparse;
  Ahat.Shape = {SymDim::n(), SymDim::n()};
  Ahat.SparseWeighted = true;
  Ahat.DebugName = "Ahat";
  Ahat.GraphOnly = true;
  P.Values = {sparseInput("A"),
              denseInput("H", LeafRole::Features, SymDim::n(), SymDim::kIn()),
              Deg, Norm, Ahat,
              denseTemp("out", SymDim::n(), SymDim::kIn())};
  P.Steps = {{StepOp::DegreeOffsets, {0}, 2, 0.0, /*Setup=*/true},
             {StepOp::InvSqrtVec, {2}, 3, 0.0, /*Setup=*/true},
             {StepOp::SddmmScaleBoth, {3, 0, 3}, 4, 0.0, /*Setup=*/true},
             {StepOp::SpmmWeighted, {4, 1}, 5}};
  P.OutputValue = 5;
  P.verify();

  BufferPlan BP(P, testBinding(), /*Training=*/false);
  EXPECT_TRUE(BP.values()[2].Pinned); // setup result
  EXPECT_TRUE(BP.values()[3].Pinned);
  EXPECT_EQ(BP.values()[2].Class, BufferClass::VecSlot);

  // Sparse value: per-edge array sized E, dedicated storage, no slot.
  const ValueBuffer &Sp = BP.values()[4];
  EXPECT_EQ(Sp.Class, BufferClass::SparseVals);
  EXPECT_TRUE(Sp.Pinned);
  EXPECT_EQ(Sp.Slot, -1);
  EXPECT_EQ(Sp.Floats, 20);

  // toString carries the lifetime listing used when debugging plans.
  std::string Listing = BP.toString(P);
  EXPECT_NE(Listing.find("Ahat: sparse 20 floats"), std::string::npos);
  EXPECT_NE(Listing.find("pinned"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Arena execution: bitwise equivalence, zero allocations, step profiles
//===----------------------------------------------------------------------===//

namespace {

/// Degree-skewed R-MAT graph: the adversarial case for any scheme whose
/// output could depend on work partitioning.
const Graph &skewedGraph() {
  static Graph G = makeRmat(500, 4000, 0.6, 0.2, 0.1, 9);
  return G;
}

} // namespace

TEST(PlanWorkspaceExec, ArenaMatchesLegacyBitwise) {
  GnnModel M = makeModel(ModelKind::GCN);
  LayerParams Params = makeLayerParams(M, skewedGraph(), 16, 8, 5);
  Executor Exec(HardwareModel::byName("cpu"));
  auto Plans = enumerateCompositions(M.Root);
  ASSERT_FALSE(Plans.empty());

  for (int Threads : {1, 4}) {
    ThreadPool::get().setNumThreads(Threads);
    for (size_t I = 0; I < Plans.size(); ++I) {
      // "Legacy" is the by-value run: a fresh workspace per call.
      DenseMatrix Legacy =
          Exec.run(Plans[I], Params.inputs(), Params.Stats).Output;
      PlanWorkspace Ws;
      ExecResult R;
      Exec.run(Plans[I], Params.inputs(), Params.Stats, Ws, R);
      ASSERT_EQ(R.Output.rows(), Legacy.rows());
      EXPECT_EQ(R.Output.maxAbsDiff(Legacy), 0.0f)
          << "plan " << I << " at " << Threads << " threads";
      // And again from the warm workspace: reuse must not perturb results.
      Exec.run(Plans[I], Params.inputs(), Params.Stats, Ws, R);
      EXPECT_EQ(R.Output.maxAbsDiff(Legacy), 0.0f)
          << "plan " << I << " rerun at " << Threads << " threads";
    }
  }
  ThreadPool::get().setNumThreads(0);
}

TEST(PlanWorkspaceExec, TrainingArenaMatchesLegacy) {
  GnnModel M = makeModel(ModelKind::GCN);
  LayerParams Params = makeLayerParams(M, skewedGraph(), 12, 6, 7);
  Executor Exec(HardwareModel::byName("cpu"));
  auto Plans = enumerateCompositions(M.Root);
  ASSERT_FALSE(Plans.empty());

  // "Legacy" is the by-value run: a fresh workspace per call.
  ExecResult Legacy = Exec.runTraining(Plans[0], Params.inputs(), Params.Stats);
  PlanWorkspace Ws;
  ExecResult R;
  Exec.runTraining(Plans[0], Params.inputs(), Params.Stats, Ws, R);
  EXPECT_EQ(R.Output.maxAbsDiff(Legacy.Output), 0.0f);
  ASSERT_EQ(R.WeightGrads.size(), Legacy.WeightGrads.size());
  for (const auto &[Name, Grad] : Legacy.WeightGrads) {
    ASSERT_TRUE(R.WeightGrads.count(Name));
    EXPECT_EQ(R.WeightGrads.at(Name).maxAbsDiff(Grad), 0.0f) << Name;
  }
  EXPECT_EQ(R.FeatureGrad.maxAbsDiff(Legacy.FeatureGrad), 0.0f);
}

// A warm training run allocates no workspace gradient buffer, and a reused
// result's feature gradient is written in place; every gradient stays
// bitwise equal to the by-value run.
TEST(PlanWorkspaceExec, TrainingReusesGradientBuffers) {
  GnnModel M = makeModel(ModelKind::GAT);
  LayerParams Params = makeLayerParams(M, skewedGraph(), 12, 6, 7);
  Executor Exec(HardwareModel::byName("cpu"));
  auto Plans = enumerateCompositions(M.Root);
  ASSERT_FALSE(Plans.empty());

  for (size_t I = 0; I < Plans.size(); ++I) {
    SCOPED_TRACE("plan " + std::to_string(I));
    ExecResult Legacy =
        Exec.runTraining(Plans[I], Params.inputs(), Params.Stats);
    PlanWorkspace Ws;
    ExecResult R;
    Exec.runTraining(Plans[I], Params.inputs(), Params.Stats, Ws, R);
    const float *Features = R.FeatureGrad.data();

    Ws.resetAllocationCount();
    Exec.runTraining(Plans[I], Params.inputs(), Params.Stats, Ws, R);
    EXPECT_EQ(Ws.allocationCount(), 0u);
    EXPECT_EQ(R.FeatureGrad.data(), Features);
    EXPECT_EQ(R.FeatureGrad.maxAbsDiff(Legacy.FeatureGrad), 0.0f);
    ASSERT_EQ(R.WeightGrads.size(), Legacy.WeightGrads.size());
    for (const auto &[Name, Grad] : R.WeightGrads)
      EXPECT_EQ(Grad.maxAbsDiff(Legacy.WeightGrads.at(Name)), 0.0f) << Name;
    ASSERT_EQ(R.AttnGrads.size(), Legacy.AttnGrads.size());
    for (const auto &[Name, Grad] : R.AttnGrads)
      EXPECT_EQ(Grad, Legacy.AttnGrads.at(Name)) << Name;
  }
}

TEST(PlanWorkspaceExec, SteadyStatePerformsZeroAllocations) {
  GnnModel M = makeModel(ModelKind::GCN);
  LayerParams Params = makeLayerParams(M, skewedGraph(), 16, 8, 5);
  Executor Exec(HardwareModel::byName("cpu"));
  auto Plans = enumerateCompositions(M.Root);
  ASSERT_FALSE(Plans.empty());

  for (size_t I = 0; I < Plans.size(); ++I) {
    PlanWorkspace Ws;
    ExecResult R;
    Exec.run(Plans[I], Params.inputs(), Params.Stats, Ws, R); // warm-up
    Ws.resetAllocationCount();
    for (int Rep = 0; Rep < 3; ++Rep)
      Exec.run(Plans[I], Params.inputs(), Params.Stats, Ws, R);
    EXPECT_EQ(Ws.allocationCount(), 0u) << "plan " << I;
  }
}

TEST(PlanWorkspaceExec, StepProfilesFilledWhenEnabled) {
  GnnModel M = makeModel(ModelKind::GCN);
  LayerParams Params = makeLayerParams(M, skewedGraph(), 16, 8, 5);
  Executor Exec(HardwareModel::byName("cpu"));
  auto Plans = enumerateCompositions(M.Root);
  ASSERT_FALSE(Plans.empty());
  const CompositionPlan &Plan = Plans[0];

  PlanWorkspace Ws;
  ExecResult R;
  Exec.run(Plan, Params.inputs(), Params.Stats, Ws, R);
  EXPECT_TRUE(R.StepProfiles.empty()); // profiling off by default

  Exec.setStepProfiling(true);
  Exec.run(Plan, Params.inputs(), Params.Stats, Ws, R);
  ASSERT_EQ(R.StepProfiles.size(), Plan.Steps.size());
  for (size_t S = 0; S < R.StepProfiles.size(); ++S) {
    const StepProfile &P = R.StepProfiles[S];
    EXPECT_FALSE(P.Op.empty()) << S;
    EXPECT_FALSE(P.Value.empty()) << S;
    EXPECT_FALSE(P.Shape.empty()) << S;
    EXPECT_EQ(P.Op, stepOpName(Plan.Steps[S].Op));
    EXPECT_EQ(P.Setup, Plan.Steps[S].Setup);
    EXPECT_GT(P.Bytes, 0.0) << S;
    EXPECT_GE(P.Seconds, 0.0) << S;
  }

  // Switching profiling back off clears the records on the next run.
  Exec.setStepProfiling(false);
  Exec.run(Plan, Params.inputs(), Params.Stats, Ws, R);
  EXPECT_TRUE(R.StepProfiles.empty());
}

TEST(PlanWorkspaceExec, OptimizerReusesWorkspaceAcrossExecutes) {
  GnnModel M = makeModel(ModelKind::GCN);
  OptimizerOptions Opts;
  Opts.Hw = HardwareModel::byName("cpu");
  AnalyticCostModel Cost(Opts.Hw);
  Optimizer Opt(M, Opts, &Cost);
  LayerParams Params = makeLayerParams(M, skewedGraph(), 16, 8, 5);

  Selection Sel = Opt.select(skewedGraph(), 16, 8);
  ExecResult First = Opt.execute(Sel, Params, /*Training=*/false);
  ExecResult Second = Opt.execute(Sel, Params, /*Training=*/false);
  EXPECT_EQ(Second.Output.maxAbsDiff(First.Output), 0.0f);
}
