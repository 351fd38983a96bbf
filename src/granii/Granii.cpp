//===- Granii.cpp - GRANII public API -----------------------------------------===//

#include "granii/Granii.h"

#include "support/Error.h"
#include "support/ThreadPool.h"
#include "verify/VerifyBuffers.h"
#include "verify/VerifyPlan.h"
#include "support/Rng.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <cassert>
#include <cmath>

using namespace granii;

LayerInputs LayerParams::inputs() const {
  LayerInputs In;
  In.Adjacency = &AdjSelf;
  In.Features = &Features;
  for (const auto &[Name, W] : Weights)
    In.Weights.emplace(Name, &W);
  for (const auto &[Name, Vec] : AttnVecs)
    In.AttnVecs.emplace(Name, &Vec);
  return In;
}

LayerParams granii::makeLayerParams(const GnnModel &Model, const Graph &G,
                                    int64_t KIn, int64_t KOut, uint64_t Seed) {
  TraceSpan Span("params", "granii");
  Rng Generator(Seed);
  LayerParams Params;
  // Graph's constructor checks and statistics, on the only copy of the
  // self-loop adjacency.
  Params.AdjSelf = addSelfLoops(G.adjacency());
  Params.AdjSelf.verify();
  Params.Stats = computeGraphStats(Params.AdjSelf);

  Params.Features = DenseMatrix(G.numNodes(), KIn);
  Params.Features.fillRandom(Generator, -0.5f, 0.5f);

  // Xavier-ish scale keeps activations bounded through deep chains.
  // Weight tensors are bound by leaf name ("W", "W0".."Wk", "Wself", ...),
  // so derive the names from the model's IR rather than assuming a scheme.
  float Scale = 1.0f / std::sqrt(static_cast<float>(KIn));
  for (const LeafNode *Leaf : collectLeaves(Model.Root)) {
    if (Leaf->role() != LeafRole::Weight)
      continue;
    DenseMatrix W(KIn, KOut);
    W.fillRandom(Generator, -Scale, Scale);
    Params.Weights.emplace(Leaf->name(), std::move(W));
  }
  assert(!Params.Weights.empty() && "model has no weight leaves");
  for (const LeafNode *Leaf : collectLeaves(Model.Root)) {
    if (Leaf->role() != LeafRole::AttnSrcVec &&
        Leaf->role() != LeafRole::AttnDstVec)
      continue;
    std::vector<float> Vec(static_cast<size_t>(KOut));
    for (float &V : Vec)
      V = Generator.nextFloat(-Scale, Scale);
    Params.AttnVecs.emplace(Leaf->name(), std::move(Vec));
  }
  return Params;
}

OfflinePlans granii::runOfflineStage(const IRNodeRef &Root,
                                    const EnumOptions &Opts) {
  // The enumerator checks the IR after each rewrite pass. Every enumerated
  // plan is checked before pruning, so a bad plan is caught even where
  // pruning would have discarded it; pruning then only annotates
  // scenarios, which the promoted-set checks cover.
  std::vector<CompositionPlan> All = enumerateCompositions(Root, Opts);
  DiagEngine Diags;
  for (const CompositionPlan &Plan : All)
    verifyPlanDiags(Plan, Diags, "plan");
  if (Diags.hasErrors())
    GRANII_FATAL("enumerated plan verification failed:\n" + Diags.render());
  OfflinePlans Out;
  Out.Promoted = pruneCompositions(std::move(All), &Out.Stats);
  assert(!Out.Promoted.empty() && "pruning removed every candidate");
  for (const CompositionPlan &Plan : Out.Promoted)
    verifyScenarioAnnotations(Plan, Diags, "prune");
  verifySurvivorSet(Out.Promoted, Diags, "prune");
  if (Diags.hasErrors())
    GRANII_FATAL("promoted plan verification failed:\n" + Diags.render());
  return Out;
}

Optimizer::Optimizer(GnnModel ModelIn, OptimizerOptions OptsIn,
                     const CostModel *CostIn)
    : Optimizer(ModelIn, OptsIn, CostIn,
                runOfflineStage(ModelIn.Root, OptsIn.Enum)) {}

Optimizer::Optimizer(GnnModel ModelIn, OptimizerOptions OptsIn,
                     const CostModel *CostIn, OfflinePlans Compiled)
    : Model(std::move(ModelIn)), Opts(std::move(OptsIn)), Cost(CostIn),
      Promoted(std::move(Compiled.Promoted)), Stats(Compiled.Stats),
      Exec(Opts.Hw) {
  assert(Cost && "optimizer requires a cost model");
  assert(!Promoted.empty() && "compiled plan set is empty");
}

Selection Optimizer::selectWithStats(const DimBinding &Binding,
                                     const GraphStats &GraphStats) const {
  Selection Sel;

  // Embedding-size conditions first (paper §IV-D): keep only candidates
  // annotated viable for this size scenario.
  bool ScenarioGe = Binding.KIn >= Binding.KOut;
  std::vector<size_t> Candidates;
  for (size_t I = 0; I < Promoted.size(); ++I)
    if (ScenarioGe ? Promoted[I].ViableGe : Promoted[I].ViableLt)
      Candidates.push_back(I);
  if (Candidates.empty())
    for (size_t I = 0; I < Promoted.size(); ++I)
      Candidates.push_back(I);

  if (Candidates.size() == 1) {
    Sel.PlanIndex = Candidates.front();
    Sel.PredictedSeconds = Cost->planSeconds(Promoted[Sel.PlanIndex], Binding,
                                             GraphStats, Opts.Iterations);
    Sel.UsedCostModels = false;
    return Sel;
  }

  // Cost-model comparison among the rest.
  TraceSpan Span("cost-model", "optimizer");
  Span.setArg("candidates", static_cast<double>(Candidates.size()));
  Timer SelectTimer;
  double BestCost = 0.0;
  size_t BestIndex = Candidates.front();
  bool First = true;
  for (size_t Index : Candidates) {
    double PlanCost = Cost->planSeconds(Promoted[Index], Binding, GraphStats,
                                        Opts.Iterations);
    if (First || PlanCost < BestCost) {
      BestCost = PlanCost;
      BestIndex = Index;
      First = false;
    }
  }
  Sel.PlanIndex = BestIndex;
  Sel.PredictedSeconds = BestCost;
  Sel.UsedCostModels = true;
  Span.setArg("selected", static_cast<double>(BestIndex));
  Span.setArg("predicted_seconds", BestCost);
  // On measured platforms the selection overhead is the wall-clock spent in
  // the cost models. On simulated platforms host milliseconds are not
  // commensurate with simulated kernel microseconds (this reproduction runs
  // at reduced graph scale), so selection is charged analytically at one
  // microsecond per candidate evaluation, preserving the paper's property
  // that the one-time overhead is a handful of GNN iterations.
  Sel.SelectSeconds = Opts.Hw.isSimulated()
                          ? 1e-6 * static_cast<double>(Candidates.size())
                          : SelectTimer.seconds();
  return Sel;
}

Selection Optimizer::select(const Graph &G, int64_t KIn, int64_t KOut) const {
  // Featurization overhead: one pass over the graph to gather statistics.
  TraceSpan FeaturizeSpan("featurize", "optimizer");
  Timer FeaturizeTimer;
  Graph WithSelf = G.withSelfLoops();
  GraphStats Stats = WithSelf.stats();
  double MeasuredFeaturize = FeaturizeTimer.seconds();
  FeaturizeSpan.setArg("nodes", static_cast<double>(WithSelf.numNodes()));
  FeaturizeSpan.setArg("edges", static_cast<double>(WithSelf.numEdges()));
  FeaturizeSpan.end();

  DimBinding Binding;
  Binding.N = WithSelf.numNodes();
  Binding.E = WithSelf.numEdges();
  Binding.KIn = KIn;
  Binding.KOut = KOut;

  Selection Sel = selectWithStats(Binding, Stats);
  if (Opts.Hw.isSimulated()) {
    // On a GPU the featurizer is a couple of O(E) passes.
    PrimitiveDesc Desc{PrimitiveKind::EdgeElementwise, Binding.N, 0, 0,
                       Binding.E};
    Sel.FeaturizeSeconds = 2.0 * Opts.Hw.estimateSeconds(Desc, &Stats);
  } else {
    Sel.FeaturizeSeconds = MeasuredFeaturize;
  }
  return Sel;
}

ExecResult Optimizer::execute(const Selection &Sel, const LayerParams &Params,
                              bool Training) const {
  ExecResult Result;
  execute(Sel, Params, Training, Result);
  return Result;
}

namespace {

/// Whether \p View maps exactly \p Owned's names to Owned's elements.
template <class T>
bool bindsAll(const std::map<std::string, const T *> &View,
              const std::map<std::string, T> &Owned) {
  if (View.size() != Owned.size())
    return false;
  auto It = View.begin();
  for (const auto &[Name, Value] : Owned) {
    if (It->first != Name || It->second != &Value)
      return false;
    ++It;
  }
  return true;
}

} // namespace

const LayerInputs &Optimizer::inputsFor(const LayerParams &Params) const {
  // Rebuilding the binding allocates its map nodes; a warm call on the same
  // parameters finds the binding it would build already in place.
  if (BoundInputs.Adjacency != &Params.AdjSelf ||
      BoundInputs.Features != &Params.Features ||
      !bindsAll(BoundInputs.Weights, Params.Weights) ||
      !bindsAll(BoundInputs.AttnVecs, Params.AttnVecs))
    BoundInputs = Params.inputs();
  return BoundInputs;
}

size_t Optimizer::execute(const Selection &Sel, const LayerParams &Params,
                          bool Training, ExecResult &Result) const {
  const CompositionPlan &Plan = Promoted[Sel.PlanIndex];
  const LayerInputs &Inputs = inputsFor(Params);
  // One persistent workspace per (plan, mode): repeated executions of the
  // same selection reuse the planned arena instead of reallocating every
  // intermediate (a training plan also places gradients and partials, so
  // the two modes have different arenas).
  PlanWorkspace &Ws = Workspaces[{Sel.PlanIndex, Training}];
  Ws.resetAllocationCount();
  DimBinding Binding = Inputs.binding(&Plan);
  const bool NewLayout = !Ws.layoutState().builtFrom(Params.AdjSelf);
  if (Ws.configure(Plan, Binding, Training) || NewLayout) {
    // Check the buffer schedule the workspace will execute against
    // recomputed live intervals, and the CSR row partition the parallel
    // kernels will use against exclusive-coverage rules.
    TraceSpan Span("verify-schedule", "optimizer");
    DiagEngine Diags;
    verifyBufferPlan(Plan, Binding, *Ws.bufferPlan(), Diags);
    const AlignedVector<int64_t> &RowOffsets = Params.AdjSelf.rowOffsets();
    const int64_t Chunks = ThreadPool::get().maxChunks();
    verifyRowPartition(RowOffsets, csrRowPartitionBounds(RowOffsets, Chunks),
                       Diags);
    if (Diags.hasErrors())
      GRANII_FATAL("execution schedule verification failed:\n" +
                   Diags.render());
  }
  if (Training)
    Exec.runTraining(Plan, Inputs, Params.Stats, Ws, Result);
  else
    Exec.run(Plan, Inputs, Params.Stats, Ws, Result);
  return Ws.allocationCount();
}
