//===- ablation_windows.cpp - Ablation: fused ternary SDDMM rule ------------===//
//
// DESIGN.md ablation: disabling the ternary [diag, sparse, diag] candidate
// rule removes the fused two-sided normalization SDDMM, forcing two-pass
// scaling in the precompute compositions. Measures the end-to-end effect
// on GCN/SGC selections.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "support/Stats.h"
#include "support/Str.h"

#include <cstdio>

using namespace granii;
using namespace granii::bench;

int main() {
  BenchContext &Ctx = BenchContext::get();
  const int Iters = Ctx.iterations();
  const CostModel &Cost = Ctx.costFor("h100");
  HardwareModel Platform = Ctx.platform("h100");
  Executor Exec(Platform);

  std::vector<std::string> Header = {"Model", "Graph", "fused(ms)",
                                     "no-ternary(ms)", "ratio"};
  std::vector<std::vector<std::string>> Table;
  std::vector<double> Ratios;

  for (ModelKind Kind : {ModelKind::GCN, ModelKind::SGC}) {
    GnnModel Model = makeModel(Kind);
    OptimizerOptions WithTernary;
    WithTernary.Hw = Platform;
    OptimizerOptions NoTernary = WithTernary;
    NoTernary.Enum.EnableTernaryRule = false;
    Optimizer OptFused(Model, WithTernary, &Cost);
    Optimizer OptPlain(Model, NoTernary, &Cost);

    for (size_t GI = 0; GI < Ctx.evalGraphs().size(); ++GI) {
      const Graph &G = Ctx.evalGraphs()[GI];
      LayerParams Params = makeLayerParams(Model, G, 32, 128, 5);
      auto TimeOf = [&](Optimizer &Opt) {
        Selection Sel = Opt.select(G, 32, 128);
        return warmRun(Exec, Opt.promoted()[Sel.PlanIndex], Params)
            .totalSeconds(Iters, false);
      };
      double Fused = TimeOf(OptFused);
      double Plain = TimeOf(OptPlain);
      Ratios.push_back(Plain / Fused);
      Table.push_back({modelName(Kind), Ctx.evalCodes()[GI],
                       formatDouble(Fused * 1e3, 3),
                       formatDouble(Plain * 1e3, 3),
                       formatDouble(Plain / Fused, 3)});
    }
  }

  std::printf("Ablation: fused ternary [diag, sparse, diag] candidate rule "
              "(H100, (32,128), %d iterations)\n\n%s\n",
              Iters, renderTable(Header, Table).c_str());
  std::printf("geomean no-ternary/fused time ratio: %.3f (>= 1: the fused "
              "SDDMM only helps; its absence costs an extra O(E) pass in "
              "the normalization setup, amortized across iterations)\n",
              geomeanOf(Ratios));
  return 0;
}
