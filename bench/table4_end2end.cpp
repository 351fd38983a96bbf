//===- table4_end2end.cpp - Paper Table IV: end-to-end results --------------===//
//
// Reproduces Table IV: forward-pass execution times of end-to-end GCN and
// GAT models on the H100 platform, on the Reddit and ogbn-products
// stand-ins, with one hidden layer of varying width. An end-to-end model is
// input layer (features -> hidden) followed by an output layer (hidden ->
// classes), each selected independently by GRANII.
//
// --graph=rmat:<nodes>:<edges>[:<seed>] replaces the paper workloads with
// one synthetic R-MAT instance. --smoke shrinks the sweep (GCN only,
// hidden 32) for the CI benchmark job.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "graph/Generators.h"
#include "graph/GraphSpec.h"

#include "support/Str.h"

#include <cstdio>

using namespace granii;
using namespace granii::bench;

namespace {

/// Executes one two-layer forward pass, returning milliseconds per
/// iteration (setup amortized over the iteration horizon).
double twoLayerMillis(BenchContext &Ctx, ModelKind Kind, const Graph &G,
                      int64_t FeatureDim, int64_t HiddenDim, int64_t Classes,
                      bool UseGranii, BaselineSystem Sys) {
  GnnModel Model = makeModel(Kind);
  Executor Exec(Ctx.platform("h100"));
  const int Iters = Ctx.iterations();
  double Total = 0.0;
  int64_t Dims[2][2] = {{FeatureDim, HiddenDim}, {HiddenDim, Classes}};
  for (auto [KIn, KOut] : Dims) {
    LayerParams Params = makeLayerParams(Model, G, KIn, KOut, 5);
    CompositionPlan Plan = baselinePlan(Sys, Model, KIn, KOut);
    if (UseGranii) {
      Optimizer &Opt = Ctx.optimizer(Kind, "h100");
      Selection Sel = Opt.select(G, KIn, KOut);
      Plan = Opt.promoted()[Sel.PlanIndex];
      Total += Sel.FeaturizeSeconds + Sel.SelectSeconds;
    }
    Total += warmRun(Exec, Plan, Params).totalSeconds(Iters, false);
  }
  return Total / Iters * 1e3;
}

} // namespace

int main(int argc, char **argv) {
  BenchContext &Ctx = BenchContext::get();
  // --json=<file> writes the GRANII side of every (graph, model, hidden,
  // system) configuration as a granii-bench-v1 record (3 repetitions,
  // per-iteration seconds).
  std::string JsonPath = consumeValueFlag(argc, argv, "json");
  bool Smoke = consumeBoolFlag(argc, argv, "smoke");
  std::string GraphSpec = consumeValueFlag(argc, argv, "graph");
  const int JsonReps = 3;
  BenchReport Report;
  std::printf("Table IV: end-to-end per-iteration forward time (ms) on H100 "
              "(two layers: features -> hidden -> classes)\n\n");

  std::vector<std::string> Header = {"Graph",   "GNN",   "Hidden",
                                     "Wise",    "Wise+GRANII", "speedup",
                                     "DGL",     "DGL+GRANII",  "speedup"};
  std::vector<std::vector<std::string>> Table;

  struct Workload {
    std::string GraphName;
    int64_t FeatureDim;
    int64_t Classes;
  };
  // Feature/class counts follow the paper's Table IV datasets.
  std::vector<Workload> Workloads = {{"reddit", 602, 41},
                                     {"ogbn-products", 100, 47}};
  if (!GraphSpec.empty())
    // One custom synthetic instance; modest dims so a big graph measures
    // aggregation, not GEMM width.
    Workloads = {{GraphSpec, 32, 16}};
  std::vector<ModelKind> Models = {ModelKind::GCN, ModelKind::GAT};
  std::vector<int64_t> Hiddens = {32, 128, 512};
  if (Smoke) {
    Models = {ModelKind::GCN};
    Hiddens = {32};
  }

  for (const Workload &W : Workloads) {
    Graph G = [&] {
      if (startsWith(W.GraphName, "rmat:") ||
          startsWith(W.GraphName, "synth:")) {
        std::string Spec = startsWith(W.GraphName, "rmat:")
                               ? "synth:" + W.GraphName
                               : W.GraphName;
        std::string Err;
        std::optional<Graph> Loaded = loadGraphSpec(Spec, &Err);
        if (!Loaded) {
          std::fprintf(stderr, "%s", Err.c_str());
          std::exit(2);
        }
        return *Loaded;
      }
      return makeEvaluationGraph(W.GraphName);
    }();
    std::printf("graph %s: %lld nodes, %lld edges\n", G.name().c_str(),
                static_cast<long long>(G.numNodes()),
                static_cast<long long>(G.numEdges()));
    for (ModelKind Kind : Models) {
      int64_t FeatureDim = Kind == ModelKind::GAT ? 100 : W.FeatureDim;
      if (!GraphSpec.empty())
        FeatureDim = W.FeatureDim;
      for (int64_t Hidden : Hiddens) {
        std::vector<std::string> Line = {G.name(), modelName(Kind),
                                         std::to_string(Hidden)};
        for (BaselineSystem Sys : allSystems()) {
          double Base = twoLayerMillis(Ctx, Kind, G, FeatureDim, Hidden,
                                       W.Classes, false, Sys);
          double Granii = twoLayerMillis(Ctx, Kind, G, FeatureDim, Hidden,
                                         W.Classes, true, Sys);
          if (!JsonPath.empty()) {
            std::vector<double> Samples = {Granii / 1e3};
            for (int Rep = 1; Rep < JsonReps; ++Rep)
              Samples.push_back(twoLayerMillis(Ctx, Kind, G, FeatureDim,
                                               Hidden, W.Classes, true, Sys) /
                                1e3);
            Report.add(BenchReport::makeRecord(
                "table4/" + G.name() + "/" + modelName(Kind) + "/h" +
                    std::to_string(Hidden) + "/" + systemName(Sys),
                G.name(), FeatureDim, W.Classes, Samples, /*Bytes=*/0.0));
          }
          Line.push_back(formatDouble(Base, 3));
          Line.push_back(formatDouble(Granii, 3));
          Line.push_back(formatSpeedup(Base / Granii));
        }
        Table.push_back(std::move(Line));
      }
    }
  }

  std::printf("%s\n", renderTable(Header, Table).c_str());
  std::printf("Paper reference: speedups up to 5.14x (Wise GCN/32 on "
              "Reddit) and 2.54x (DGL GAT/1024 on ogbn-products); several "
              "1.00x rows where the default is already optimal.\n");

  if (!JsonPath.empty()) {
    std::string WriteError;
    if (!Report.write(JsonPath, &WriteError)) {
      std::fprintf(stderr, "error: %s\n", WriteError.c_str());
      return 1;
    }
    std::fprintf(stderr, "[table4] wrote machine-readable report to %s\n",
                 JsonPath.c_str());
  }
  return 0;
}
