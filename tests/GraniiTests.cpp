//===- GraniiTests.cpp - Tests for the GRANII optimizer API -----------------===//

#include "granii/Granii.h"
#include "graph/Generators.h"
#include "graph/Sampling.h"
#include "models/Baselines.h"
#include "support/Json.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace granii;

namespace {

/// Shared analytic cost models (selection logic tests don't need training).
const CostModel &analyticFor(const std::string &Hw) {
  static AnalyticCostModel Cpu{HardwareModel::byName("cpu")};
  static AnalyticCostModel A100{HardwareModel::byName("a100")};
  static AnalyticCostModel H100{HardwareModel::byName("h100")};
  if (Hw == "cpu")
    return Cpu;
  return Hw == "a100" ? A100 : H100;
}

Optimizer makeOptimizer(ModelKind Kind, const std::string &Hw = "h100") {
  OptimizerOptions Opts;
  Opts.Hw = HardwareModel::byName(Hw);
  return Optimizer(makeModel(Kind), Opts, &analyticFor(Hw));
}

} // namespace

TEST(Optimizer, OfflineStageRunsOncePerModel) {
  Optimizer Opt = makeOptimizer(ModelKind::GCN);
  EXPECT_EQ(Opt.pruneStats().Enumerated, 16u);
  EXPECT_EQ(Opt.promoted().size(), 4u);
}

TEST(Optimizer, LayerParamsShapes) {
  GnnModel M = makeModel(ModelKind::TAGCN);
  Graph G = makeErdosRenyi(100, 500, 3);
  LayerParams P = makeLayerParams(M, G, 16, 24, 1);
  EXPECT_EQ(P.Features.rows(), 100);
  EXPECT_EQ(P.Features.cols(), 16);
  EXPECT_EQ(P.Weights.size(), 3u);
  EXPECT_EQ(P.Weights.at("W1").cols(), 24);
  EXPECT_TRUE(P.AttnVecs.empty());
  EXPECT_GT(P.AdjSelf.nnz(), G.numEdges()); // Self loops added.
}

TEST(Optimizer, GatParamsIncludeAttention) {
  GnnModel M = makeModel(ModelKind::GAT);
  Graph G = makeErdosRenyi(50, 200, 3);
  LayerParams P = makeLayerParams(M, G, 8, 12, 1);
  ASSERT_EQ(P.AttnVecs.size(), 2u);
  EXPECT_EQ(P.AttnVecs.at("asrc").size(), 12u);
  EXPECT_EQ(P.AttnVecs.at("adst").size(), 12u);
}

TEST(Optimizer, SelectionPrefersSparseAwareChoiceOnSparseGraphs) {
  // On a very sparse graph with K_in < K_out, GCN's precompute composition
  // avoids the per-iteration broadcasts; GRANII should not pick a plan that
  // is analytically much worse than the best.
  Optimizer Opt = makeOptimizer(ModelKind::GCN);
  Graph Sparse = makeRoadLattice(40, 40, 0.0, 1);
  Selection Sel = Opt.select(Sparse, 32, 128);
  // Whatever is chosen must be within 1% of the analytic minimum.
  Graph WithSelf = Sparse.withSelfLoops();
  DimBinding B{WithSelf.numNodes(), 32, 128, WithSelf.numEdges()};
  double Best = 1e300;
  for (const CompositionPlan &P : Opt.promoted())
    Best = std::min(Best, analyticFor("h100").planSeconds(P, B,
                                                          WithSelf.stats(),
                                                          100));
  EXPECT_LE(Sel.PredictedSeconds, Best * 1.01);
}

TEST(Optimizer, ScenarioFilterRespectsAnnotations) {
  Optimizer Opt = makeOptimizer(ModelKind::GCN);
  Graph G = makeErdosRenyi(200, 1000, 2);
  Selection SelGe = Opt.select(G, 128, 32);
  Selection SelLt = Opt.select(G, 32, 128);
  EXPECT_TRUE(Opt.promoted()[SelGe.PlanIndex].ViableGe);
  EXPECT_TRUE(Opt.promoted()[SelLt.PlanIndex].ViableLt);
}

// Fig. 7's dispatch: when one promoted candidate is viable in the input's
// embedding-size scenario, the size test alone picks it and no cost model
// runs; the cost models compare only among several viable candidates.
TEST(Optimizer, SingleViableCandidateSkipsCostModels) {
  Optimizer Full = makeOptimizer(ModelKind::GCN);
  const std::vector<CompositionPlan> &Promoted = Full.promoted();
  auto GeOnly = std::find_if(Promoted.begin(), Promoted.end(),
                             [](const CompositionPlan &P) {
                               return P.ViableGe && !P.ViableLt;
                             });
  auto LtOnly = std::find_if(Promoted.begin(), Promoted.end(),
                             [](const CompositionPlan &P) {
                               return P.ViableLt && !P.ViableGe;
                             });
  ASSERT_NE(GeOnly, Promoted.end());
  ASSERT_NE(LtOnly, Promoted.end());
  Optimizer Two(Full.model(), Full.options(), &analyticFor("h100"),
                OfflinePlans{{*LtOnly, *GeOnly}, {2, 0, 2}});
  Graph G = makeErdosRenyi(200, 1000, 2);

  Selection SelGe = Two.select(G, 128, 32);
  EXPECT_EQ(SelGe.PlanIndex, 1u);
  EXPECT_FALSE(SelGe.UsedCostModels);
  Selection SelLt = Two.select(G, 32, 128);
  EXPECT_EQ(SelLt.PlanIndex, 0u);
  EXPECT_FALSE(SelLt.UsedCostModels);

  // GCN's full promoted set has two candidates per scenario.
  SelGe = Full.select(G, 128, 32);
  EXPECT_TRUE(SelGe.UsedCostModels);
  EXPECT_TRUE(Promoted[SelGe.PlanIndex].ViableGe);
  SelLt = Full.select(G, 32, 128);
  EXPECT_TRUE(SelLt.UsedCostModels);
  EXPECT_TRUE(Promoted[SelLt.PlanIndex].ViableLt);
}

TEST(Optimizer, SelectionChangesWithGraphDensity) {
  // The headline input-sensitivity: on some embedding setting, dense and
  // sparse graphs get different GCN compositions on at least one platform.
  bool AnyDifference = false;
  for (const char *Hw : {"cpu", "a100", "h100"}) {
    Optimizer Opt = makeOptimizer(ModelKind::GCN, Hw);
    Graph Dense = makeMycielskian(10);
    Graph Sparse = makeRoadLattice(30, 30, 0.0, 1);
    for (auto [KIn, KOut] : {std::pair<int,int>{32, 32}, {32, 128}, {128, 32}}) {
      Selection A = Opt.select(Dense, KIn, KOut);
      Selection B = Opt.select(Sparse, KIn, KOut);
      if (A.PlanIndex != B.PlanIndex)
        AnyDifference = true;
    }
  }
  EXPECT_TRUE(AnyDifference);
}

TEST(Optimizer, ExecuteRunsChosenPlan) {
  Optimizer Opt = makeOptimizer(ModelKind::GIN, "cpu");
  Graph G = makeErdosRenyi(120, 600, 4);
  LayerParams Params = makeLayerParams(Opt.model(), G, 16, 8, 2);
  Selection Sel = Opt.select(G, 16, 8);
  ExecResult R = Opt.execute(Sel, Params, /*Training=*/false);
  EXPECT_EQ(R.Output.rows(), 120);
  EXPECT_EQ(R.Output.cols(), 8);
  EXPECT_EQ(R.BackwardSeconds, 0.0);
  ExecResult T = Opt.execute(Sel, Params, /*Training=*/true);
  EXPECT_GT(T.BackwardSeconds, 0.0);
}

// A warm execute checks nothing: the buffer schedule and row partition are
// checked when a call plans its arena, and again when the adjacency its
// layout was built from has been edited in place.
TEST(Optimizer, ScheduleChecksRunWhenAnArenaIsPlannedOrALayoutRebuilt) {
  Optimizer Opt = makeOptimizer(ModelKind::GCN, "cpu");
  Graph G = makeErdosRenyi(200, 1000, 2);
  LayerParams Params = makeLayerParams(Opt.model(), G, 16, 8);
  Selection Sel = Opt.select(G, 16, 8);

  Trace::get().start();
  ExecResult R;
  for (int I = 0; I < 3; ++I)
    Opt.execute(Sel, Params, /*Training=*/false, R);
  Params.AdjSelf.clearValues(); // an edit in place: a new version()
  Opt.execute(Sel, Params, /*Training=*/false, R);
  Trace::get().stop();

  std::string Err;
  std::optional<JsonValue> Doc = parseJson(Trace::get().toJson(), &Err);
  Trace::get().clear();
  ASSERT_TRUE(Doc) << Err;
  size_t Checks = 0, Runs = 0;
  for (const JsonValue &E : Doc->find("traceEvents")->array()) {
    if (E.stringOr("ph", "") != "X")
      continue;
    Checks += E.stringOr("name", "") == "verify-schedule";
    Runs += E.stringOr("name", "") == "forward";
  }
  EXPECT_EQ(Checks, 2u);
  EXPECT_EQ(Runs, 4u);
}

TEST(Optimizer, OverheadFieldsPopulated) {
  Optimizer Opt = makeOptimizer(ModelKind::GCN, "h100");
  Graph G = makeErdosRenyi(500, 4000, 5);
  Selection Sel = Opt.select(G, 64, 64);
  EXPECT_GT(Sel.FeaturizeSeconds, 0.0);
  EXPECT_LT(Sel.FeaturizeSeconds, 0.1);
  EXPECT_GE(Sel.SelectSeconds, 0.0);
}

TEST(Optimizer, GatSelectionMatchesCostCrossover) {
  // For GAT with increasing sizes, recompute wins once E(KOut - KIn)
  // exceeds N*KIn*KOut; analytic selection must track that crossover.
  Optimizer Opt = makeOptimizer(ModelKind::GAT, "h100");
  Graph Dense = makeMycielskian(10);  // High average degree.
  Graph Sparse = makeRoadLattice(30, 30, 0.0, 2);
  // Large increasing sizes: the extra GEMM is cheap relative to the
  // aggregation-width savings only on high-degree graphs.
  Selection DenseSel = Opt.select(Dense, 256, 1024);
  Selection SparseSel = Opt.select(Sparse, 256, 1024);
  bool DenseRecompute = planRecomputesTheta(Opt.promoted()[DenseSel.PlanIndex]);
  bool SparseRecompute =
      planRecomputesTheta(Opt.promoted()[SparseSel.PlanIndex]);
  EXPECT_TRUE(DenseRecompute);
  EXPECT_FALSE(SparseRecompute);
}

TEST(Optimizer, DecisionStableAcrossNeighborhoodSamples) {
  // Paper §VI-E: one GRANII call serves all samples of a sampling size.
  Optimizer Opt = makeOptimizer(ModelKind::GCN, "h100");
  Graph G = makeRmat(2000, 40000, 0.55, 0.2, 0.15, 31);
  std::vector<size_t> Choices;
  for (uint64_t Seed = 0; Seed < 6; ++Seed) {
    SampledGraph S = sampleNeighborhood(G, 400, 10, 2, Seed);
    Choices.push_back(Opt.select(S.Sampled, 32, 256).PlanIndex);
  }
  for (size_t C : Choices)
    EXPECT_EQ(C, Choices.front());
}

TEST(Optimizer, IterationsInfluenceSetupAmortization) {
  // With one iteration, precompute's setup cost cannot amortize; with many
  // it can. The chosen plans' predicted costs must reflect Iterations.
  GnnModel M = makeModel(ModelKind::GCN);
  OptimizerOptions Few;
  Few.Hw = HardwareModel::byName("h100");
  Few.Iterations = 1;
  OptimizerOptions Many = Few;
  Many.Iterations = 1000;
  Optimizer OptFew(M, Few, &analyticFor("h100"));
  Optimizer OptMany(M, Many, &analyticFor("h100"));
  Graph G = makeErdosRenyi(400, 3200, 7);
  double CostFew = OptFew.select(G, 64, 64).PredictedSeconds;
  double CostMany = OptMany.select(G, 64, 64).PredictedSeconds;
  EXPECT_GT(CostMany, CostFew);
}

TEST(Optimizer, AblationEnumOptionsFlowThrough) {
  GnnModel M = makeModel(ModelKind::GCN);
  OptimizerOptions Opts;
  Opts.Hw = HardwareModel::byName("cpu");
  Opts.Enum.EnableTernaryRule = false;
  Optimizer Opt(M, Opts, &analyticFor("cpu"));
  for (const CompositionPlan &P : Opt.promoted())
    for (const PlanStep &S : P.Steps)
      EXPECT_NE(S.Op, StepOp::SddmmScaleBoth);
}
