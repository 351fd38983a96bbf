//===- table3_main.cpp - Paper Table III: main geomean speedups -------------===//
//
// Reproduces Table III: geomean speedups of GRANII over the WiseGraph and
// DGL default compositions, for 100 iterations, across {hardware x mode x
// model x graph x embedding sizes}. Also reports the online overheads
// paragraph of §VI-C1 (feature extraction + selection time).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "support/Str.h"

#include <cstdio>

using namespace granii;
using namespace granii::bench;

int main(int argc, char **argv) {
  BenchContext &Ctx = BenchContext::get();
  // --json=<file> additionally writes every GRANII cell as a machine-
  // readable granii-bench-v1 record (3 repetitions per cell). --smoke
  // restricts the sweep to the simulated-H100 rows, inference mode, and two
  // small graphs: a fast, machine-independent subset CI gates on.
  std::string JsonPath = consumeValueFlag(argc, argv, "json");
  bool Smoke = consumeBoolFlag(argc, argv, "smoke");
  const int JsonReps = 3;
  BenchReport Report;
  std::printf("Table III: geomean speedups of GRANII across graphs and "
              "configurations for %d iterations\n",
              Ctx.iterations());
  std::printf("(Mode I = inference, T = training; paper-order rows; CPU is "
              "measured, A100/H100 are simulated)\n\n");

  struct RowSpec {
    BaselineSystem Sys;
    const char *Hw;
  };
  // Paper rows: WiseGraph on H100/A100; DGL on H100/A100/CPU.
  std::vector<RowSpec> Rows = {{BaselineSystem::WiseGraph, "h100"},
                               {BaselineSystem::WiseGraph, "a100"},
                               {BaselineSystem::DGL, "h100"},
                               {BaselineSystem::DGL, "a100"},
                               {BaselineSystem::DGL, "cpu"}};
  std::vector<bool> Modes = {false, true};
  // Graph indices into the Table II suite (BL = 4096-node lattice, AU =
  // 3500-node coauthorship stand-in: the two smallest, fully synthetic).
  std::vector<size_t> GraphIndices;
  for (size_t I = 0; I < Ctx.evalGraphs().size(); ++I)
    GraphIndices.push_back(I);
  std::vector<ModelKind> Models = allModels();
  if (Smoke) {
    Rows = {{BaselineSystem::WiseGraph, "h100"}, {BaselineSystem::DGL,
                                                  "h100"}};
    Modes = {false};
    GraphIndices = {3, 4};
    Models = {ModelKind::GCN, ModelKind::GAT};
  }

  std::vector<std::string> Header = {"System", "HW",    "Mode", "Overall",
                                     "GCN",    "GIN",   "SGC",  "TAGCN",
                                     "GAT"};
  std::vector<std::vector<std::string>> Table;

  // Per-model accumulators across every setting, for the paper's final
  // "Overall I/T" row.
  std::map<std::string, std::vector<CellResult>> PerModeAll;
  std::map<std::string, std::map<std::string, std::vector<CellResult>>>
      PerModePerModel;

  double MaxFeaturizeGpu = 0.0, MaxFeaturizeCpu = 0.0, MaxSelect = 0.0;

  for (const RowSpec &Row : Rows) {
    for (bool Training : Modes) {
      std::string Mode = Training ? "T" : "I";
      std::vector<CellResult> RowCells;
      std::vector<std::string> Line = {systemName(Row.Sys), Row.Hw, Mode};
      std::map<ModelKind, std::vector<CellResult>> PerModel;

      for (ModelKind Kind : Models) {
        for (size_t GraphIdx : GraphIndices) {
          const Graph &G = Ctx.evalGraphs()[GraphIdx];
          const std::string &Code = Ctx.evalCodes()[GraphIdx];
          for (auto [KIn, KOut] : embeddingCombos(Kind)) {
            CellResult Cell =
                runCell(Ctx, Row.Sys, Kind, Row.Hw, G, KIn, KOut, Training);
            if (!JsonPath.empty()) {
              std::vector<double> Samples = {Cell.GraniiSeconds};
              for (int Rep = 1; Rep < JsonReps; ++Rep)
                Samples.push_back(runCell(Ctx, Row.Sys, Kind, Row.Hw, G, KIn,
                                          KOut, Training)
                                      .GraniiSeconds);
              Report.add(BenchReport::makeRecord(
                  "table3/" + systemName(Row.Sys) + "/" + Row.Hw + "/" +
                      Mode + "/" + modelName(Kind) + "/" + Code + "/" +
                      std::to_string(KIn) + "x" + std::to_string(KOut),
                  G.name(), KIn, KOut, Samples, Cell.GraniiBytes));
            }
            PerModel[Kind].push_back(Cell);
            RowCells.push_back(Cell);
            PerModeAll[Mode].push_back(Cell);
            PerModePerModel[Mode][modelName(Kind)].push_back(Cell);
            if (std::string(Row.Hw) == "cpu")
              MaxFeaturizeCpu =
                  std::max(MaxFeaturizeCpu, Cell.Sel.FeaturizeSeconds);
            else
              MaxFeaturizeGpu =
                  std::max(MaxFeaturizeGpu, Cell.Sel.FeaturizeSeconds);
            MaxSelect = std::max(MaxSelect, Cell.Sel.SelectSeconds);
          }
        }
      }
      Line.push_back(formatSpeedup(geomeanSpeedup(RowCells)));
      for (ModelKind Kind : allModels())
        Line.push_back(formatSpeedup(geomeanSpeedup(PerModel[Kind])));
      Table.push_back(std::move(Line));
      std::fprintf(stderr, "[table3] %s/%s mode %s done\n",
                   systemName(Row.Sys).c_str(), Row.Hw, Mode.c_str());
    }
  }

  for (const char *Mode : {"I", "T"}) {
    std::vector<std::string> Line = {"Overall", "-", Mode,
                                     formatSpeedup(geomeanSpeedup(
                                         PerModeAll[Mode]))};
    for (ModelKind Kind : allModels())
      Line.push_back(formatSpeedup(
          geomeanSpeedup(PerModePerModel[Mode][modelName(Kind)])));
    Table.push_back(std::move(Line));
  }

  std::printf("%s\n", renderTable(Header, Table).c_str());

  std::printf("Overheads (paper §VI-C1): feature extraction + selection are "
              "incurred once per input.\n");
  std::printf("  max featurization: %.3f ms (simulated GPU), %.1f ms "
              "(measured CPU)\n",
              MaxFeaturizeGpu * 1e3, MaxFeaturizeCpu * 1e3);
  std::printf("  max composition selection: %.3f ms\n", MaxSelect * 1e3);
  std::printf("\nPaper reference: overall geomean 1.56x (I) / 1.40x (T); "
              "largest wins for WiseGraph GCN/SGC/TAGCN on A100.\n");

  if (!JsonPath.empty()) {
    std::string WriteError;
    if (!Report.write(JsonPath, &WriteError)) {
      std::fprintf(stderr, "error: %s\n", WriteError.c_str());
      return 1;
    }
    std::fprintf(stderr, "[table3] wrote machine-readable report to %s\n",
                 JsonPath.c_str());
  }
  return 0;
}
