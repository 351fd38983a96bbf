//===- fig09_sampling.cpp - Paper Fig. 9: sampling sensitivity --------------===//
//
// Reproduces Figure 9: both discovered compositions of GCN and GAT are run
// on 10 random neighborhood samples per sampling size of the mycielskian
// stand-in (H100); the spread within a sampling size is small, and GRANII's
// decision is stable across samples, so one selection serves all samples.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "graph/Generators.h"

#include "graph/Sampling.h"
#include "support/Stats.h"
#include "support/Str.h"

#include <cstdio>

using namespace granii;
using namespace granii::bench;

int main() {
  BenchContext &Ctx = BenchContext::get();
  Graph Mc = makeEvaluationGraph("mycielskian");
  Executor Exec(Ctx.platform("h100"));
  const int Iters = Ctx.iterations();

  for (auto [Kind, KIn, KOut] :
       {std::tuple<ModelKind, int64_t, int64_t>{ModelKind::GCN, 32, 64},
        {ModelKind::GAT, 64, 128}}) {
    GnnModel Model = makeModel(Kind);
    Optimizer &Opt = Ctx.optimizer(Kind, "h100");
    std::printf("== %s with embedding sizes (%lld, %lld) on MC / H100 ==\n",
                modelName(Kind).c_str(), static_cast<long long>(KIn),
                static_cast<long long>(KOut));

    for (int64_t SampleSize : {1000, 100, 10}) {
      // Per-composition runtimes over 10 random samples.
      std::map<std::string, std::vector<double>> Runtimes;
      std::vector<size_t> Decisions;
      for (uint64_t Seed = 0; Seed < 10; ++Seed) {
        SampledGraph S = sampleNeighborhood(Mc, SampleSize, 10, 2, Seed);
        LayerParams Params = makeLayerParams(Model, S.Sampled, KIn, KOut, 5);
        for (size_t PI = 0; PI < Opt.promoted().size(); ++PI) {
          const CompositionPlan &Plan = Opt.promoted()[PI];
          bool Viable = KIn >= KOut ? Plan.ViableGe : Plan.ViableLt;
          if (!Viable)
            continue;
          double Seconds =
              warmRun(Exec, Plan, Params).totalSeconds(Iters, false);
          Runtimes["candidate#" + std::to_string(PI)].push_back(Seconds *
                                                                1e3);
        }
        Decisions.push_back(Opt.select(S.Sampled, KIn, KOut).PlanIndex);
      }

      std::printf("  sample size %5lld:\n",
                  static_cast<long long>(SampleSize));
      for (const auto &[Name, Times] : Runtimes)
        std::printf("    %-12s median %8.3f ms  (min %8.3f, max %8.3f over "
                    "10 samples)\n",
                    Name.c_str(), medianOf(Times), quantileOf(Times, 0.0),
                    quantileOf(Times, 1.0));
      bool Stable = true;
      for (size_t D : Decisions)
        Stable &= D == Decisions.front();
      std::printf("    GRANII decision: candidate#%zu on all samples: %s\n",
                  Decisions.front(), Stable ? "stable" : "UNSTABLE");
    }
  }
  std::printf("\n=> a single GRANII call can be assumed across sampled "
              "subgraphs (paper §VI-E)\n");
  return 0;
}
