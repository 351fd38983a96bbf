//===- ablation_costmodel.cpp - Ablation: learned vs simpler cost models ----===//
//
// DESIGN.md ablation: replace the learned GBT cost models with (a) the
// analytic roofline estimate and (b) a pure FLOP count, and measure how
// much of the per-setting Optimal each selector achieves (inference, all
// platforms x graphs x embedding combos, GCN + GAT + SGC).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "support/Stats.h"
#include "support/Str.h"

#include <algorithm>
#include <cstdio>

using namespace granii;
using namespace granii::bench;

namespace {

/// Cost model that only counts floating-point operations (graph-oblivious
/// apart from the edge count).
class FlopsCostModel : public CostModel {
public:
  double primitiveSeconds(const PrimitiveDesc &Desc,
                          const GraphStats &) const override {
    return Desc.flops() + 1.0;
  }
  std::string name() const override { return "flops"; }
};

} // namespace

int main() {
  BenchContext &Ctx = BenchContext::get();
  const int Iters = Ctx.iterations();
  FlopsCostModel Flops;

  std::vector<std::string> Header = {"Model", "Learned", "Analytic",
                                     "FlopsOnly"};
  std::vector<std::vector<std::string>> Table;

  for (ModelKind Kind : {ModelKind::GCN, ModelKind::SGC, ModelKind::GAT}) {
    GnnModel Model = makeModel(Kind);
    // Fraction-of-optimal accumulators (optimal time / chosen time).
    std::vector<double> LearnedFrac, AnalyticFrac, FlopsFrac;

    for (const char *Hw : {"h100", "a100", "cpu"}) {
      HardwareModel Platform = Ctx.platform(Hw);
      Executor Exec(Platform);
      Optimizer &Opt = Ctx.optimizer(Kind, Hw);
      AnalyticCostModel Analytic(Platform);
      const CostModel &Learned = Ctx.costFor(Hw);

      for (const Graph &G : Ctx.evalGraphs()) {
        Graph WithSelf = G.withSelfLoops();
        DimBinding B;
        B.N = WithSelf.numNodes();
        B.E = WithSelf.numEdges();
        for (auto [KIn, KOut] : embeddingCombos(Kind)) {
          B.KIn = KIn;
          B.KOut = KOut;
          LayerParams Params = makeLayerParams(Model, G, KIn, KOut, 5);

          std::vector<double> Actual;
          for (const CompositionPlan &Plan : Opt.promoted())
            Actual.push_back(
                warmRun(Exec, Plan, Params).totalSeconds(Iters, false));
          double Best = *std::min_element(Actual.begin(), Actual.end());

          auto ChoiceOf = [&](const CostModel &CM) {
            size_t BestIdx = 0;
            double BestCost = 0.0;
            for (size_t P = 0; P < Opt.promoted().size(); ++P) {
              double C = CM.planSeconds(Opt.promoted()[P], B,
                                        WithSelf.stats(), Iters);
              if (P == 0 || C < BestCost) {
                BestIdx = P;
                BestCost = C;
              }
            }
            return BestIdx;
          };
          LearnedFrac.push_back(Best / Actual[ChoiceOf(Learned)]);
          AnalyticFrac.push_back(Best / Actual[ChoiceOf(Analytic)]);
          FlopsFrac.push_back(Best / Actual[ChoiceOf(Flops)]);
        }
      }
    }
    Table.push_back({modelName(Kind),
                     formatDouble(100.0 * geomeanOf(LearnedFrac), 1) + "%",
                     formatDouble(100.0 * geomeanOf(AnalyticFrac), 1) + "%",
                     formatDouble(100.0 * geomeanOf(FlopsFrac), 1) + "%"});
  }

  std::printf("Ablation: %% of per-setting Optimal achieved by each cost "
              "model family (geomean; higher is better)\n\n%s\n",
              renderTable(Header, Table).c_str());
  std::printf("Learned models capture hardware- and irregularity-dependent "
              "effects a FLOP count cannot (paper §IV-E's argument for "
              "non-linear data-driven models).\n");
  return 0;
}
