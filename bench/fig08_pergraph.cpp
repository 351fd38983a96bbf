//===- fig08_pergraph.cpp - Paper Fig. 8: per-graph speedup series ----------===//
//
// Reproduces the per-graph data behind Figure 8: GRANII's inference
// speedup over each baseline system for every (model, hardware, graph,
// embedding sizes) point, with runtime overheads included. A value of 1.00
// means GRANII selected the baseline's own composition.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "support/Str.h"

#include <cstdio>

using namespace granii;
using namespace granii::bench;

int main() {
  BenchContext &Ctx = BenchContext::get();
  const std::vector<std::string> &Codes = Ctx.evalCodes();

  for (auto [Sys, Hw] :
       {std::pair<BaselineSystem, const char *>{BaselineSystem::WiseGraph,
                                                "h100"},
        {BaselineSystem::WiseGraph, "a100"},
        {BaselineSystem::DGL, "h100"},
        {BaselineSystem::DGL, "a100"},
        {BaselineSystem::DGL, "cpu"}}) {
    std::printf("== %s on %s (inference, %d iterations) ==\n",
                systemName(Sys).c_str(), Hw, Ctx.iterations());
    for (ModelKind Kind : allModels()) {
      std::vector<std::string> Header = {"(Kin,Kout)"};
      for (const std::string &Code : Codes)
        Header.push_back(Code);
      std::vector<std::vector<std::string>> Table;
      for (auto [KIn, KOut] : embeddingCombos(Kind)) {
        std::vector<std::string> Line = {"(" + std::to_string(KIn) + "," +
                                         std::to_string(KOut) + ")"};
        for (const Graph &G : Ctx.evalGraphs()) {
          CellResult Cell = runCell(Ctx, Sys, Kind, Hw, G, KIn, KOut,
                                    /*Training=*/false);
          Line.push_back(formatDouble(Cell.Speedup, 2));
        }
        Table.push_back(std::move(Line));
      }
      std::printf("%s:\n%s\n", modelName(Kind).c_str(),
                  renderTable(Header, Table).c_str());
    }
  }
  std::printf("Expected shape (paper Fig. 8): large GCN/SGC/TAGCN wins on "
              "dense graphs (RD, MC, OP) against WiseGraph on A100; DGL "
              "wins concentrated on sparser graphs (CA, BL, AU); GAT wins "
              "from reuse/recompute flips.\n");
  return 0;
}
