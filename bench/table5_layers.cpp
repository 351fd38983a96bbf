//===- table5_layers.cpp - Paper Table V: multi-layer GNNs ------------------===//
//
// Reproduces Table V: GRANII's speedup over the WiseGraph defaults for
// GNNs with a varying number of layers; GRANII selects a composition per
// layer with its online stage (paper §VI-F).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "support/Stats.h"
#include "support/Str.h"

#include <cstdio>

using namespace granii;
using namespace granii::bench;

namespace {

/// Total time of an L-layer stack; every layer maps Hidden -> Hidden except
/// the first (Features -> Hidden).
double stackSeconds(BenchContext &Ctx, ModelKind Kind, const Graph &G,
                    int Layers, bool UseGranii) {
  GnnModel Model = makeModel(Kind);
  Executor Exec(Ctx.platform("h100"));
  const int Iters = Ctx.iterations();
  const int64_t FeatureDim = 96, Hidden = 64;
  double Total = 0.0;
  for (int L = 0; L < Layers; ++L) {
    int64_t KIn = L == 0 ? FeatureDim : Hidden;
    LayerParams Params = makeLayerParams(Model, G, KIn, Hidden, 5 + L);
    CompositionPlan Plan =
        baselinePlan(BaselineSystem::WiseGraph, Model, KIn, Hidden);
    if (UseGranii) {
      Optimizer &Opt = Ctx.optimizer(Kind, "h100");
      Selection Sel = Opt.select(G, KIn, Hidden);
      Plan = Opt.promoted()[Sel.PlanIndex];
      Total += Sel.FeaturizeSeconds + Sel.SelectSeconds;
    }
    Total += warmRun(Exec, Plan, Params).totalSeconds(Iters, false);
  }
  return Total;
}

} // namespace

int main() {
  BenchContext &Ctx = BenchContext::get();
  std::printf("Table V: GRANII speedup over WiseGraph defaults with "
              "multiple GNN layers (H100, %d iterations)\n\n",
              Ctx.iterations());

  std::vector<std::string> Header = {"Model", "1 layer", "2 layers",
                                     "3 layers", "4 layers"};
  std::vector<std::vector<std::string>> Table;

  for (ModelKind Kind : {ModelKind::GCN, ModelKind::GIN, ModelKind::TAGCN}) {
    std::vector<std::string> Line = {modelName(Kind)};
    for (int Layers : {1, 2, 3, 4}) {
      std::vector<double> Speedups;
      for (const Graph &G : Ctx.evalGraphs())
        Speedups.push_back(stackSeconds(Ctx, Kind, G, Layers, false) /
                           stackSeconds(Ctx, Kind, G, Layers, true));
      Line.push_back(formatSpeedup(geomeanOf(Speedups)));
    }
    Table.push_back(std::move(Line));
  }

  std::printf("%s\n", renderTable(Header, Table).c_str());
  std::printf("Speedups stay consistent as layers are added: sparsity does "
              "not change across layers for these models, so per-layer "
              "decisions compose (paper §VI-F).\n");
  return 0;
}
