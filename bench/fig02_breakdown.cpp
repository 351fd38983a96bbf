//===- fig02_breakdown.cpp - Paper Fig. 2: sparse/dense runtime split -------===//
//
// Reproduces Figure 2: the percentage of GCN runtime spent in sparse vs
// dense matrix primitives, across graphs, (in, out) embedding sizes, and
// hardware — the evidence that no single factor predicts where time goes.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "support/Str.h"

#include <cstdio>

using namespace granii;
using namespace granii::bench;

int main() {
  BenchContext &Ctx = BenchContext::get();
  GnnModel Gcn = makeModel(ModelKind::GCN);

  std::vector<std::string> Header = {"HW", "Graph", "(Kin,Kout)", "sparse%",
                                     "dense%"};
  std::vector<std::vector<std::string>> Table;
  double MinSparse = 100.0, MaxSparse = 0.0;

  for (const char *Hw : {"cpu", "a100", "h100"}) {
    Executor Exec(Ctx.platform(Hw));
    for (size_t GI = 0; GI < Ctx.evalGraphs().size(); ++GI) {
      const Graph &G = Ctx.evalGraphs()[GI];
      for (auto [KIn, KOut] :
           {std::pair<int64_t, int64_t>{32, 128}, {128, 32}}) {
        LayerParams Params = makeLayerParams(Gcn, G, KIn, KOut, 5);
        CompositionPlan Plan =
            baselinePlan(BaselineSystem::DGL, Gcn, KIn, KOut);
        ExecResult R = warmRun(Exec, Plan, Params);

        double Sparse = 0.0, Dense = 0.0;
        for (size_t I = 0; I < Plan.Steps.size(); ++I) {
          if (isSparsePrimitive(primitiveKindOf(Plan.Steps[I].Op)))
            Sparse += R.StepProfiles[I].Seconds;
          else
            Dense += R.StepProfiles[I].Seconds;
        }
        double Total = Sparse + Dense;
        double SparsePct = Total > 0 ? 100.0 * Sparse / Total : 0.0;
        MinSparse = std::min(MinSparse, SparsePct);
        MaxSparse = std::max(MaxSparse, SparsePct);
        Table.push_back({Hw, Ctx.evalCodes()[GI],
                         "(" + std::to_string(KIn) + "," +
                             std::to_string(KOut) + ")",
                         formatDouble(SparsePct, 1),
                         formatDouble(100.0 - SparsePct, 1)});
      }
    }
  }

  std::printf("Figure 2: %% of GCN runtime in sparse vs dense primitives "
              "(DGL default composition)\n\n%s\n",
              renderTable(Header, Table).c_str());
  std::printf("sparse share ranges from %.1f%% to %.1f%% depending on graph, "
              "configuration and hardware\n",
              MinSparse, MaxSparse);
  std::printf("=> no single factor suffices; selection must inspect all of "
              "them (paper's motivation for learned cost models)\n");
  return 0;
}
