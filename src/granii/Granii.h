//===- Granii.h - GRANII public API ------------------------------*- C++ -*-===//
///
/// \file
/// The umbrella API of the GRANII system (paper §IV, Figs. 4-5).
///
/// Offline, once per model:
/// \code
///   GnnModel Model = makeModel(ModelKind::GCN);
///   Optimizer Opt(Model, Options, &CostModel);   // enumerate + prune
/// \endcode
///
/// Online, once per (graph, embedding sizes):
/// \code
///   Selection Sel = Opt.select(G, KIn, KOut);    // featurize + cost models
///   ExecResult R  = Opt.execute(Sel, Params, /*Training=*/false);
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_GRANII_GRANII_H
#define GRANII_GRANII_GRANII_H

#include "assoc/Enumerate.h"
#include "assoc/Prune.h"
#include "cost/CostModel.h"
#include "models/Models.h"
#include "runtime/Executor.h"

namespace granii {

/// Configuration of an Optimizer instance.
struct OptimizerOptions {
  /// Target platform (drives both execution timing and overhead
  /// accounting).
  HardwareModel Hw = HardwareModel::byName("cpu");
  /// Amortization horizon: how many iterations one selection will serve
  /// (paper evaluates 100).
  int Iterations = 100;
  /// Offline enumeration knobs (ablations flip these).
  EnumOptions Enum;
};

/// Result of the online selection stage.
struct Selection {
  size_t PlanIndex = 0;
  /// Always Csr. Kept because the end-to-end benchmark passes it to
  /// Executor::run; it goes with the next change to the benchmark.
  SparseFormat Format = SparseFormat::Csr;
  double PredictedSeconds = 0.0;
  /// False when the embedding-size conditions alone decided: one promoted
  /// candidate is viable in the input's scenario, so no cost model ran.
  bool UsedCostModels = false;
  /// Online overheads the paper reports (§VI-C1 "Overheads").
  double FeaturizeSeconds = 0.0;
  double SelectSeconds = 0.0;
};

/// The offline stage's product: the promoted candidates, annotated with the
/// embedding-size scenarios they can win in, and the pruning numbers.
struct OfflinePlans {
  std::vector<CompositionPlan> Promoted;
  PruneStats Stats;
};

/// GRANII's offline stage over the model IR \p Root, with every check run
/// once (docs/VERIFICATION.md): the IR after each rewrite pass, each
/// enumerated composition's legality, then pruning, then the promoted set's
/// scenario annotations and survivor-set invariant. Pruning only annotates
/// scenarios, so legality is not checked twice. Violations abort with the
/// rendered diagnostics. The Optimizer, the serving engine and
/// `granii-cli compile` all compile through this one function.
OfflinePlans runOfflineStage(const IRNodeRef &Root, const EnumOptions &Opts);

/// Owning bundle of one layer's runtime tensors.
struct LayerParams {
  CsrMatrix AdjSelf; ///< self-loop-augmented adjacency
  GraphStats Stats;  ///< statistics of AdjSelf
  DenseMatrix Features;
  std::map<std::string, DenseMatrix> Weights;
  std::map<std::string, std::vector<float>> AttnVecs;

  /// Non-owning view for the executor.
  LayerInputs inputs() const;
};

/// Builds randomly initialized parameters for \p Model on \p G.
LayerParams makeLayerParams(const GnnModel &Model, const Graph &G,
                            int64_t KIn, int64_t KOut, uint64_t Seed = 1);

/// GRANII: offline compilation at construction, online selection per input.
class Optimizer {
public:
  /// Runs the offline stage (runOfflineStage) on \p Model and keeps the
  /// promoted candidates. \p Cost must outlive the optimizer (pass the
  /// platform's trained LearnedCostModel, or an AnalyticCostModel for the
  /// ablation).
  Optimizer(GnnModel Model, OptimizerOptions Opts, const CostModel *Cost);

  /// Builds an optimizer over \p Compiled, what runOfflineStage already
  /// returned for \p Model: the serving engine's plan cache holds such
  /// sets, so a new session pays neither enumeration nor a second
  /// verification, and pruneStats() reports the compile's counts.
  Optimizer(GnnModel Model, OptimizerOptions Opts, const CostModel *Cost,
            OfflinePlans Compiled);

  const GnnModel &model() const { return Model; }
  const OptimizerOptions &options() const { return Opts; }
  const std::vector<CompositionPlan> &promoted() const { return Promoted; }
  const PruneStats &pruneStats() const { return Stats; }

  /// Online stage: pick the cheapest promoted candidate for this input.
  Selection select(const Graph &G, int64_t KIn, int64_t KOut) const;

  /// Same, from a prebuilt binding + stats (used when the adjacency has
  /// already been augmented with self loops).
  Selection selectWithStats(const DimBinding &Binding,
                            const GraphStats &GraphStats) const;

  /// Executes the selected plan once (forward, or forward+backward)
  /// against a workspace cached per (plan, mode): the first
  /// execution of a selection plans and allocates its buffer arena,
  /// subsequent ones reuse it. When a call plans an arena, or its
  /// adjacency is not the one the workspace's layout was built from (a new
  /// matrix, or an in-place edit), the workspace's buffer schedule and the
  /// adjacency's CSR row partition are checked first, in a
  /// "verify-schedule" trace span; a warm call checks nothing. Because of
  /// the cache, execute() is not safe to call concurrently from multiple
  /// threads on one Optimizer.
  ExecResult execute(const Selection &Sel, const LayerParams &Params,
                     bool Training) const;

  /// Same, writing into \p Result: a result reused across calls keeps its
  /// output buffer and gradients, so a warm call on the same parameters
  /// allocates nothing at all (no heap allocation, not only no workspace
  /// growth). \returns the workspace allocations this call performed (0
  /// when warm).
  size_t execute(const Selection &Sel, const LayerParams &Params,
                 bool Training, ExecResult &Result) const;

private:
  /// The executor's view of \p Params: the cached binding while it still
  /// names exactly Params' tensors, else a fresh Params.inputs().
  const LayerInputs &inputsFor(const LayerParams &Params) const;

  GnnModel Model;
  OptimizerOptions Opts;
  const CostModel *Cost;
  std::vector<CompositionPlan> Promoted;
  PruneStats Stats;
  Executor Exec;
  /// Per-(plan index, training mode) execution workspaces, created lazily
  /// by execute(). Mutable: caching buffers does not change observable
  /// optimizer state (outputs are bitwise identical either way).
  mutable std::map<std::pair<size_t, bool>, PlanWorkspace> Workspaces;
  /// The binding of the last execute()'s parameters (see inputsFor).
  mutable LayerInputs BoundInputs;
};

} // namespace granii

#endif // GRANII_GRANII_GRANII_H
