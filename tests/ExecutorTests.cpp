//===- ExecutorTests.cpp - Tests for plan execution and autodiff ------------===//

#include "assoc/Enumerate.h"
#include "graph/Generators.h"
#include "granii/Granii.h"
#include "models/Models.h"
#include "runtime/Executor.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace granii;

namespace {

Executor cpuExecutor() { return Executor(HardwareModel::byName("cpu")); }

/// Loss used by the gradient checks: L = sum(Output), matching the
/// backward pass's all-ones seed.
double lossOf(const Executor &Exec, const CompositionPlan &Plan,
              const LayerParams &Params) {
  return Exec.run(Plan, Params.inputs(), Params.Stats).Output.sum();
}

} // namespace

//===----------------------------------------------------------------------===//
// Semantic equivalence of every enumerated plan (the core re-association
// correctness property) across models and graph shapes.
//===----------------------------------------------------------------------===//

struct EquivCase {
  ModelKind Kind;
  const char *GraphName;
};

class PlanEquivalence : public ::testing::TestWithParam<EquivCase> {};

TEST_P(PlanEquivalence, AllPlansComputeTheSameOutput) {
  auto [Kind, GraphName] = GetParam();
  Graph G = GraphName == std::string("star") ? makeStar(120)
            : GraphName == std::string("dense")
                ? makeMycielskian(7)
                : makeErdosRenyi(200, 1200, 77);
  GnnModel M = makeModel(Kind);
  LayerParams Params = makeLayerParams(M, G, 12, 20, 5);
  Executor Exec = cpuExecutor();

  auto Plans = enumerateCompositions(M.Root);
  ASSERT_FALSE(Plans.empty());
  DenseMatrix Reference =
      Exec.run(Plans[0], Params.inputs(), Params.Stats).Output;
  for (size_t I = 1; I < Plans.size(); ++I) {
    DenseMatrix Out = Exec.run(Plans[I], Params.inputs(), Params.Stats).Output;
    EXPECT_TRUE(Out.approxEquals(Reference, 2e-3f, 2e-3f))
        << M.Name << " plan " << I << " diverges by "
        << Out.maxAbsDiff(Reference);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndGraphs, PlanEquivalence,
    ::testing::Values(EquivCase{ModelKind::GCN, "er"},
                      EquivCase{ModelKind::GCN, "star"},
                      EquivCase{ModelKind::GCN, "dense"},
                      EquivCase{ModelKind::GIN, "er"},
                      EquivCase{ModelKind::GIN, "dense"},
                      EquivCase{ModelKind::SGC, "er"},
                      EquivCase{ModelKind::SGC, "star"},
                      EquivCase{ModelKind::TAGCN, "er"},
                      EquivCase{ModelKind::GAT, "er"},
                      EquivCase{ModelKind::GAT, "dense"}));

//===----------------------------------------------------------------------===//
// Timing semantics
//===----------------------------------------------------------------------===//

TEST(Executor, MeasuredTimesArePositive) {
  GnnModel M = makeModel(ModelKind::GCN);
  Graph G = makeErdosRenyi(300, 1800, 8);
  LayerParams Params = makeLayerParams(M, G, 16, 16, 1);
  auto Plans = enumerateCompositions(M.Root);
  ExecResult R = cpuExecutor().run(Plans[0], Params.inputs(), Params.Stats);
  EXPECT_GT(R.ForwardSeconds, 0.0);
  EXPECT_EQ(R.BackwardSeconds, 0.0);
  EXPECT_EQ(R.StepProfiles.size(), Plans[0].Steps.size());
}

TEST(Executor, SimulatedTimesAreDeterministic) {
  GnnModel M = makeModel(ModelKind::GCN);
  Graph G = makeErdosRenyi(300, 1800, 8);
  LayerParams Params = makeLayerParams(M, G, 16, 16, 1);
  auto Plans = enumerateCompositions(M.Root);
  Executor Sim(HardwareModel::byName("a100"));
  ExecResult A = Sim.run(Plans[0], Params.inputs(), Params.Stats);
  ExecResult B = Sim.run(Plans[0], Params.inputs(), Params.Stats);
  EXPECT_DOUBLE_EQ(A.ForwardSeconds, B.ForwardSeconds);
  EXPECT_DOUBLE_EQ(A.SetupSeconds, B.SetupSeconds);
}

TEST(Executor, SetupSecondsOnlyFromSetupSteps) {
  GnnModel M = makeModel(ModelKind::GCN);
  Graph G = makeErdosRenyi(300, 1800, 8);
  LayerParams Params = makeLayerParams(M, G, 16, 16, 1);
  Executor Sim(HardwareModel::byName("h100"));
  for (const CompositionPlan &P : enumerateCompositions(M.Root)) {
    ExecResult R = Sim.run(P, Params.inputs(), Params.Stats);
    double Setup = 0.0, Iter = 0.0;
    for (size_t I = 0; I < P.Steps.size(); ++I)
      (P.Steps[I].Setup ? Setup : Iter) += R.StepProfiles[I].Seconds;
    EXPECT_NEAR(R.SetupSeconds, Setup, 1e-12);
    EXPECT_NEAR(R.ForwardSeconds, Iter, 1e-12);
  }
}

// Timing observes the one real execution: no hidden warm-up call, on the
// measured CPU and on a simulated GPU alike.
TEST(Executor, TimeKernelRunsItsBodyExactlyOnce) {
  PrimitiveDesc Desc{PrimitiveKind::DenseMap, 64, 8, 0, 0};
  GraphStats Stats = makeErdosRenyi(64, 256, 4).stats();
  for (const char *Hw : {"cpu", "h100"}) {
    SCOPED_TRACE(Hw);
    Executor Exec(HardwareModel::byName(Hw));
    int Calls = 0;
    double Seconds = Exec.timeKernel(Desc, Stats, [&] { ++Calls; });
    EXPECT_EQ(Calls, 1);
    EXPECT_GE(Seconds, 0.0);
  }
}

TEST(Executor, TotalSecondsFormula) {
  ExecResult R;
  R.SetupSeconds = 1.0;
  R.ForwardSeconds = 0.5;
  R.BackwardSeconds = 0.25;
  EXPECT_DOUBLE_EQ(R.totalSeconds(10, false), 1.0 + 5.0);
  EXPECT_DOUBLE_EQ(R.totalSeconds(10, true), 1.0 + 7.5);
}

TEST(Executor, TrainingChargesBackwardTime) {
  GnnModel M = makeModel(ModelKind::GAT);
  Graph G = makeErdosRenyi(150, 900, 3);
  LayerParams Params = makeLayerParams(M, G, 8, 12, 2);
  auto Plans = enumerateCompositions(M.Root);
  Executor Sim(HardwareModel::byName("h100"));
  ExecResult R = Sim.runTraining(Plans[0], Params.inputs(), Params.Stats);
  EXPECT_GT(R.BackwardSeconds, 0.0);
}

//===----------------------------------------------------------------------===//
// Gradient checks: analytic backward vs finite differences
//===----------------------------------------------------------------------===//

namespace {

/// Central finite-difference dL/dW[r][c].
double finiteDiff(const Executor &Exec, const CompositionPlan &Plan,
                  LayerParams &Params, DenseMatrix &W, int64_t R, int64_t C,
                  float Eps = 1e-2f) {
  float Saved = W.at(R, C);
  W.at(R, C) = Saved + Eps;
  double Plus = lossOf(Exec, Plan, Params);
  W.at(R, C) = Saved - Eps;
  double Minus = lossOf(Exec, Plan, Params);
  W.at(R, C) = Saved;
  return (Plus - Minus) / (2.0 * Eps);
}

} // namespace

TEST(Autodiff, BackwardRunsOnEveryPlanOfEveryModel) {
  Graph G = makeErdosRenyi(80, 400, 4);
  Executor Exec = cpuExecutor();
  for (ModelKind Kind : allModels()) {
    GnnModel M = makeModel(Kind);
    LayerParams Params = makeLayerParams(M, G, 6, 10, 7);
    for (const CompositionPlan &P : enumerateCompositions(M.Root)) {
      ExecResult R = Exec.runTraining(P, Params.inputs(), Params.Stats);
      EXPECT_GT(R.BackwardSeconds, 0.0) << M.Name;
      EXPECT_FALSE(std::isnan(R.Output.sum())) << M.Name;
    }
  }
}

TEST(Autodiff, GcnBackwardCostExceedsNothingButIsComparable) {
  // Backward does roughly 2x the forward work for GEMM-dominated plans.
  GnnModel M = makeModel(ModelKind::GCN);
  Graph G = makeErdosRenyi(200, 1200, 4);
  LayerParams Params = makeLayerParams(M, G, 32, 32, 7);
  Executor Sim(HardwareModel::byName("h100"));
  auto Plans = enumerateCompositions(M.Root);
  ExecResult R = Sim.runTraining(Plans[0], Params.inputs(), Params.Stats);
  EXPECT_GT(R.BackwardSeconds, 0.3 * R.ForwardSeconds);
  EXPECT_LT(R.BackwardSeconds, 10.0 * R.ForwardSeconds);
}

// The finite-difference checks use double-precision losses over float
// tensors; tolerances are set accordingly (relative 2% + small absolute).
struct GradCase {
  ModelKind Kind;
};

class GradientCheck : public ::testing::TestWithParam<GradCase> {};

TEST_P(GradientCheck, WeightGradientsMatchFiniteDifferences) {
  ModelKind Kind = GetParam().Kind;
  GnnModel M = makeModel(Kind);
  Graph G = makeErdosRenyi(40, 200, 12);
  LayerParams Params = makeLayerParams(M, G, 5, 7, 21);
  Executor Exec = cpuExecutor();
  auto Plans = enumerateCompositions(M.Root);

  // Compare analytic dW from the tape against central differences, on up
  // to two structurally different plans.
  for (size_t PI = 0; PI < Plans.size() && PI < 2; ++PI) {
    const CompositionPlan &Plan = Plans[PI];
    ExecResult R =
        Exec.runTraining(Plan, Params.inputs(), Params.Stats);
    std::string WName = Params.Weights.count("W") ? "W" : "W0";
    ASSERT_TRUE(R.WeightGrads.count(WName)) << M.Name << " plan " << PI;
    const DenseMatrix &DW = R.WeightGrads.at(WName);
    DenseMatrix &W = Params.Weights.at(WName);
    ASSERT_EQ(DW.rows(), W.rows());
    ASSERT_EQ(DW.cols(), W.cols());
    for (auto [Row, Col] :
         {std::pair<int64_t, int64_t>{0, 0}, {2, 3}, {4, 6}}) {
      double FD = finiteDiff(Exec, Plan, Params, W, Row, Col);
      double Analytic = DW.at(Row, Col);
      EXPECT_NEAR(Analytic, FD, std::abs(FD) * 0.05 + 0.2)
          << M.Name << " plan " << PI << " at (" << Row << "," << Col << ")";
    }
  }
}

TEST(Autodiff, GradientsAgreeAcrossPlans) {
  // Every re-association computes the same function, so gradients must
  // match plan-to-plan as well.
  for (ModelKind Kind : {ModelKind::GCN, ModelKind::GAT, ModelKind::GIN}) {
    GnnModel M = makeModel(Kind);
    Graph G = makeErdosRenyi(60, 300, 15);
    LayerParams Params = makeLayerParams(M, G, 6, 9, 33);
    Executor Exec = cpuExecutor();
    auto Plans = enumerateCompositions(M.Root);
    ExecResult Ref =
        Exec.runTraining(Plans[0], Params.inputs(), Params.Stats);
    for (size_t I = 1; I < Plans.size(); ++I) {
      ExecResult R =
          Exec.runTraining(Plans[I], Params.inputs(), Params.Stats);
      for (const auto &[Name, DW] : Ref.WeightGrads) {
        ASSERT_TRUE(R.WeightGrads.count(Name)) << M.Name;
        EXPECT_TRUE(R.WeightGrads.at(Name).approxEquals(DW, 5e-3f, 5e-3f))
            << M.Name << " plan " << I << " grad " << Name;
      }
      if (!Ref.FeatureGrad.empty()) {
        EXPECT_TRUE(R.FeatureGrad.approxEquals(Ref.FeatureGrad, 5e-3f, 5e-3f))
            << M.Name << " plan " << I;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Models, GradientCheck,
                         ::testing::Values(GradCase{ModelKind::GCN},
                                           GradCase{ModelKind::GIN},
                                           GradCase{ModelKind::SGC},
                                           GradCase{ModelKind::GAT}));

TEST(Executor, MissingWeightBindingAborts) {
  GnnModel M = makeModel(ModelKind::TAGCN);
  Graph G = makeErdosRenyi(50, 250, 2);
  LayerParams Params = makeLayerParams(M, G, 4, 4, 1);
  Params.Weights.erase("W2");
  auto Plans = enumerateCompositions(M.Root);
  Executor Exec = cpuExecutor();
  EXPECT_DEATH(
      { (void)Exec.run(Plans[0], Params.inputs(), Params.Stats); },
      "no weight bound");
}

TEST(Executor, BindingReportsGraphAndEmbeddingSizes) {
  GnnModel M = makeModel(ModelKind::GCN);
  Graph G = makeErdosRenyi(64, 256, 2);
  LayerParams Params = makeLayerParams(M, G, 12, 20, 1);
  DimBinding B = Params.inputs().binding();
  EXPECT_EQ(B.N, 64);
  EXPECT_EQ(B.KIn, 12);
  EXPECT_EQ(B.KOut, 20);
  EXPECT_GT(B.E, 256); // Self loops added.
}

// Regression: with several weights of different widths, K_out must come
// from the weight whose symbolic shape carries KOut, not from whichever
// weight sorts first in the (name-ordered) Weights map. Here the
// alphabetically-first weight "Wa" is a 12x16 input projection and the
// output-producing weight "Wb" is 16x8: the old Weights.begin() logic
// reported K_out = 16 and flipped the K_in >= K_out scenario (12 >= 16 is
// false, but 12 >= 8 is true).
TEST(Executor, BindingDerivesKOutFromPlanOutputWeight) {
  CompositionPlan Plan;
  Plan.Values.resize(5);
  Plan.Values[0].Kind = PlanValueKind::Dense; // H: n x kIn
  Plan.Values[0].Shape = {SymDim::n(), SymDim::kIn()};
  Plan.Values[0].DebugName = "H";
  Plan.Values[0].InputRole = LeafRole::Features;
  Plan.Values[1].Kind = PlanValueKind::Dense; // Wa: kIn x 16 (hidden)
  Plan.Values[1].Shape = {SymDim::kIn(), SymDim::constant(16)};
  Plan.Values[1].DebugName = "Wa";
  Plan.Values[1].InputRole = LeafRole::Weight;
  Plan.Values[2].Kind = PlanValueKind::Dense; // Wb: 16 x kOut (output)
  Plan.Values[2].Shape = {SymDim::constant(16), SymDim::kOut()};
  Plan.Values[2].DebugName = "Wb";
  Plan.Values[2].InputRole = LeafRole::Weight;
  Plan.Values[3].Kind = PlanValueKind::Dense; // H * Wa
  Plan.Values[3].Shape = {SymDim::n(), SymDim::constant(16)};
  Plan.Values[4].Kind = PlanValueKind::Dense; // (H * Wa) * Wb
  Plan.Values[4].Shape = {SymDim::n(), SymDim::kOut()};
  Plan.Steps.push_back({StepOp::Gemm, {0, 1}, 3, 0.0, false});
  Plan.Steps.push_back({StepOp::Gemm, {3, 2}, 4, 0.0, false});
  Plan.OutputValue = 4;

  Graph G = makeErdosRenyi(64, 256, 3);
  DenseMatrix H(64, 12), Wa(12, 16), Wb(16, 8);
  LayerInputs Inputs;
  Inputs.Adjacency = &G.adjacency();
  Inputs.Features = &H;
  Inputs.Weights = {{"Wa", &Wa}, {"Wb", &Wb}};

  DimBinding B = Inputs.binding(&Plan);
  EXPECT_EQ(B.KIn, 12);
  EXPECT_EQ(B.KOut, 8); // Weights.begin() ("Wa") would report 16.

  // The plan-less overload keeps its first-weight behavior for
  // single-weight layers; this is exactly the case it mis-binds.
  EXPECT_EQ(Inputs.binding().KOut, 16);
}
