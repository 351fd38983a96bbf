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
  /// Static verification level (docs/VERIFICATION.md). Off: nothing. Fast
  /// (default; overridable via GRANII_VERIFY): the IR verifier runs after
  /// parsing and every rewrite pass, and the promoted plan set is checked
  /// (plan legality, scenario annotations, survivor-set invariant). Full:
  /// additionally every enumerated candidate is verified pre-prune and
  /// execute() cross-checks each buffer schedule and CSR row partition.
  /// Violations abort with the rendered diagnostics.
  VerifyLevel Verify = defaultVerifyLevel();
};

/// Result of the online selection stage.
struct Selection {
  size_t PlanIndex = 0;
  /// Always Csr. Kept because the end-to-end benchmark passes it to
  /// Executor::run; it goes with the next change to the benchmark.
  SparseFormat Format = SparseFormat::Csr;
  double PredictedSeconds = 0.0;
  /// False when the embedding-size conditions alone decided (cheaper path
  /// in the generated dispatch code).
  bool UsedCostModels = false;
  /// Online overheads the paper reports (§VI-C1 "Overheads").
  double FeaturizeSeconds = 0.0;
  double SelectSeconds = 0.0;
};

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
  /// Runs the offline stage: enumerate all compositions of \p Model, prune
  /// input-obliviously, keep the promoted candidates. \p Cost must outlive
  /// the optimizer (pass the platform's trained LearnedCostModel, or an
  /// AnalyticCostModel for the ablation).
  Optimizer(GnnModel Model, OptimizerOptions Opts, const CostModel *Cost);

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
  /// subsequent ones reuse it. Because of that cache, execute() is not safe
  /// to call concurrently from multiple threads on one Optimizer.
  ExecResult execute(const Selection &Sel, const LayerParams &Params,
                     bool Training) const;

  /// Same, writing into \p Result: a result reused across calls keeps its
  /// output buffer, so a warm inference call allocates nothing for it.
  /// \returns the workspace allocations this call performed (0 when warm).
  size_t execute(const Selection &Sel, const LayerParams &Params,
                 bool Training, ExecResult &Result) const;

  /// Constructs an optimizer directly from an already-compiled candidate
  /// set, bypassing enumeration and pruning. This is the compile-once /
  /// run-many entry point the serving layer's plan cache builds on: the
  /// promoted set cached for a model becomes a ready Optimizer for each
  /// new session without paying the offline stage again. The set still
  /// goes through verifyPromoted() — cached artifacts get the same
  /// scrutiny as fresh ones.
  static Optimizer fromCompiled(GnnModel Model, OptimizerOptions Opts,
                                const CostModel *Cost,
                                std::vector<CompositionPlan> Compiled) {
    return Optimizer(std::move(Model), std::move(Opts), Cost,
                     std::move(Compiled));
  }

private:
  /// Used by fromCompiled to bypass enumeration.
  Optimizer(GnnModel Model, OptimizerOptions Opts, const CostModel *Cost,
            std::vector<CompositionPlan> Precompiled);

  /// Runs the plan-set checks on Promoted (plan legality, scenario
  /// annotations, survivor-set invariant) when Opts.Verify >= Fast; aborts
  /// with the rendered diagnostics on violation.
  void verifyPromoted() const;

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
};

} // namespace granii

#endif // GRANII_GRANII_GRANII_H
