//===- extensions_models.cpp - Speedups on the extension models -------------===//
//
// Beyond the paper's five models, this reproduction ships GraphSAGE-mean
// (paper §VI-E supports SAGE via sampling) and a two-head additive GAT.
// This harness runs the Table III protocol on them: GRANII's geomean
// inference/training speedup over both framework defaults per platform.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "support/Str.h"

#include <cstdio>

using namespace granii;
using namespace granii::bench;

int main() {
  BenchContext &Ctx = BenchContext::get();
  std::vector<std::string> Header = {"Model", "System", "HW",
                                     "Inference", "Training"};
  std::vector<std::vector<std::string>> Table;

  for (ModelKind Kind : {ModelKind::SAGE, ModelKind::GATMultiHead}) {
    std::vector<std::pair<int64_t, int64_t>> Combos =
        Kind == ModelKind::GATMultiHead
            ? std::vector<std::pair<int64_t, int64_t>>{{32, 64}, {32, 128}}
            : embeddingCombos(Kind);
    for (BaselineSystem Sys : allSystems()) {
      for (const char *Hw : {"h100", "a100", "cpu"}) {
        std::vector<CellResult> Infer, Train;
        for (const Graph &G : Ctx.evalGraphs()) {
          for (auto [KIn, KOut] : Combos) {
            Infer.push_back(runCell(Ctx, Sys, Kind, Hw, G, KIn, KOut,
                                    /*Training=*/false));
            Train.push_back(runCell(Ctx, Sys, Kind, Hw, G, KIn, KOut,
                                    /*Training=*/true));
          }
        }
        Table.push_back({modelName(Kind), systemName(Sys), Hw,
                         formatSpeedup(geomeanSpeedup(Infer)),
                         formatSpeedup(geomeanSpeedup(Train))});
      }
    }
    std::fprintf(stderr, "[extensions] %s done\n", modelName(Kind).c_str());
  }

  std::printf("Extension models under the Table III protocol (%d "
              "iterations)\n\n%s\n",
              Ctx.iterations(), renderTable(Header, Table).c_str());
  std::printf("sage: the mean-normalization admits the same dynamic-vs-"
              "precompute choice as GCN; gat2h: each attention head makes "
              "its own reuse/recompute decision (4 compositions).\n");
  return 0;
}
