//===- fig01_motivation.cpp - Paper Fig. 1: static vs config vs all ---------===//
//
// Reproduces Figure 1: speedup of increasingly input-aware GCN primitive
// ordering strategies over a single fixed ordering, across graphs,
// embedding sizes, and hardware:
//   static : one fixed composition everywhere (DGL-style aggregate-first
//            dynamic normalization),
//   config : composition chosen from the model configuration only
//            (embedding sizes; ref. [17]),
//   all    : GRANII (configuration + input graph + hardware).
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
  GnnModel Gcn = makeModel(ModelKind::GCN);
  const int Iters = Ctx.iterations();

  std::vector<std::string> Header = {"HW", "Graph", "(Kin,Kout)",
                                     "config", "all"};
  std::vector<std::vector<std::string>> Table;
  std::vector<double> ConfigAll, AllAll;

  for (const char *Hw : {"h100", "a100", "cpu"}) {
    Executor Exec(Ctx.platform(Hw));
    Optimizer &Opt = Ctx.optimizer(ModelKind::GCN, Hw);
    for (size_t GI = 0; GI < Ctx.evalGraphs().size(); ++GI) {
      const Graph &G = Ctx.evalGraphs()[GI];
      for (auto [KIn, KOut] : embeddingCombos(ModelKind::GCN)) {
        LayerParams Params = makeLayerParams(Gcn, G, KIn, KOut, 5);
        auto TimeOf = [&](const CompositionPlan &Plan) {
          return warmRun(Exec, Plan, Params).totalSeconds(Iters, false);
        };

        // static: DGL's fixed ordering at a fixed reference configuration.
        double Static =
            TimeOf(baselinePlan(BaselineSystem::DGL, Gcn, 32, 128));
        // config: the configuration-aware reordering of [17].
        double Config =
            TimeOf(baselinePlan(BaselineSystem::DGL, Gcn, KIn, KOut));
        // all: GRANII's graph- and hardware-aware selection.
        Selection Sel = Opt.select(G, KIn, KOut);
        double All = TimeOf(Opt.promoted()[Sel.PlanIndex]) +
                     Sel.FeaturizeSeconds + Sel.SelectSeconds;

        double ConfigSpeedup = Static / Config;
        double AllSpeedup = Static / All;
        ConfigAll.push_back(ConfigSpeedup);
        AllAll.push_back(AllSpeedup);
        Table.push_back({Hw, Ctx.evalCodes()[GI],
                         "(" + std::to_string(KIn) + "," +
                             std::to_string(KOut) + ")",
                         formatSpeedup(ConfigSpeedup),
                         formatSpeedup(AllSpeedup)});
      }
    }
  }

  std::printf("Figure 1: GCN speedups over a single static primitive "
              "ordering (%d iterations)\n\n",
              Iters);
  std::printf("%s\n", renderTable(Header, Table).c_str());
  std::printf("geomean: config %s, all %s  (the gap between the columns is "
              "the input-inspection headroom GRANII captures)\n",
              formatSpeedup(geomeanOf(ConfigAll)).c_str(),
              formatSpeedup(geomeanOf(AllAll)).c_str());
  return 0;
}
