//===- Executor.h - Composition plan execution ------------------*- C++ -*-===//
///
/// \file
/// Interprets CompositionPlans over concrete tensors through the kernel
/// library, charging time per primitive according to the target platform:
/// wall-clock on measured platforms (CPU), analytic latency on simulated
/// ones (A100/H100). Training mode appends a reverse-mode backward pass
/// derived per step op (the paper's GRANII optimizes only the forward pass;
/// the backward pass always runs the step-local VJPs, which is why training
/// speedups trail inference speedups).
///
/// Execution is destination-passing throughout: every step writes its
/// result through the kernels' `...Into` forms, and the plan's final step
/// writes straight into the caller's ExecResult::Output. Every run executes
/// against a PlanWorkspace, whose BufferPlan-assigned slots and backward
/// gradient buffers persist across calls so a steady-state run performs
/// zero heap allocations for plan values; the by-value run()/runTraining()
/// simply use a fresh workspace per call. Each step executes exactly once
/// per call.
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_RUNTIME_EXECUTOR_H
#define GRANII_RUNTIME_EXECUTOR_H

#include "assoc/Composition.h"
#include "graph/Graph.h"
#include "graph/Reorder.h"
#include "hw/HardwareModel.h"
#include "runtime/BufferPlan.h"
#include "support/FunctionRef.h"
#include "tensor/CscMatrix.h"
#include "tensor/CsrMatrix.h"
#include "tensor/DenseMatrix.h"
#include "tensor/SparseFormat.h"

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace granii {

/// Tensors bound to a plan's input roles. Weight matrices are looked up by
/// leaf name ("W", or "W0".."Wk" for TAGCN).
struct LayerInputs {
  const CsrMatrix *Adjacency = nullptr; ///< self-loop-augmented adjacency
  const DenseMatrix *Features = nullptr;
  std::map<std::string, const DenseMatrix *> Weights;
  /// Attention vectors keyed by leaf name ("asrc", "as0", ...); multi-head
  /// GAT binds one source/destination pair per head.
  std::map<std::string, const std::vector<float> *> AttnVecs;

  /// Embedding sizes + graph sizes as a binding for cost evaluation.
  ///
  /// K_out is derived from \p Plan when given: the weight (or attention
  /// vector) leaf whose symbolic shape carries DimKind::KOut determines the
  /// output width. Without a plan the first weight's column count is used —
  /// correct only for single-weight layers, since std::map iterates in name
  /// order, which need not put the output-producing weight first (TAGCN-
  /// style multi-weight layers would mis-bind, skewing the K_in >= K_out
  /// scenario dispatch).
  DimBinding binding(const CompositionPlan *Plan) const;
  DimBinding binding() const { return binding(nullptr); }
};

namespace detail {

/// Runtime binding of one plan value: an input alias, a workspace slot, or
/// (for the plan output) the caller's result. The pointer matching Kind is
/// set; the interpreter writes through its workspace, never through these.
struct RtValue {
  PlanValueKind Kind = PlanValueKind::Dense;
  const DenseMatrix *Dense = nullptr;
  const CsrMatrix *Sparse = nullptr;
  const std::vector<float> *Vec = nullptr; ///< diagonal or node vector

  const DenseMatrix &dense() const { return *Dense; }
  const CsrMatrix &sparse() const { return *Sparse; }
  const std::vector<float> &vec() const { return *Vec; }
};

/// Backward-pass gradient accumulator of one plan value. The buffers
/// persist in the workspace across training runs; Present marks the ones
/// the current run has zeroed and written.
struct RtGrad {
  DenseMatrix Dense;       ///< for Dense values
  std::vector<float> Vec;  ///< for Diag / NodeVec values
  std::vector<float> Edge; ///< for Sparse values (per-edge grads)
  bool Present = false;
};

/// Cached layout state of a workspace: what a run derives from the caller's
/// adjacency. Its key is that adjacency's address and content version
/// (CsrMatrix::version()); a run with another key starts it afresh, so no
/// derived structure outlives its graph or an in-place edit of it.
struct LayoutState {
  const CsrMatrix *SourceAdj = nullptr; ///< the caller's adjacency
  uint64_t SourceVersion = 0;           ///< its version() when built

  /// CSC transpose of the adjacency that the backward pass walks instead of
  /// re-materializing S^T every step. Built by the first transposed SpMM of
  /// a training run; every sparse value a plan produces carries the
  /// adjacency's pattern, so one build serves them all.
  std::optional<CscMatrix> Csc;
};

} // namespace detail

/// Profiling record for one executed step, filled when the executor's step
/// profiling is enabled. Throughputs derive as Bytes/Seconds and
/// Flops/Seconds; Seconds is measured wall-clock on measured platforms and
/// the analytic estimate on simulated ones.
struct StepProfile {
  int64_t Step = -1; ///< the plan step (for backward: the one differentiated)
  std::string Value; ///< result debug name (or "v<id>")
  std::string Op;    ///< stepOpName of the executed op
  std::string Shape; ///< result shape, e.g. "2048x64", "2048", "nnz=9854"
  bool Setup = false;
  double Seconds = 0.0;
  double Flops = 0.0; ///< modelled FLOPs of the step's primitive
  double Bytes = 0.0; ///< modelled bytes moved by the step's primitive
};

/// Outcome of executing a plan once.
struct ExecResult {
  /// Written in place by the plan's final step. A result reused across
  /// runs keeps this buffer, so a warm run allocates nothing for it.
  DenseMatrix Output;
  /// Seconds charged to steps marked Setup (hoisted; paid once).
  double SetupSeconds = 0.0;
  /// Seconds charged to per-iteration steps (one forward pass).
  double ForwardSeconds = 0.0;
  /// Seconds charged to the backward pass (0 in inference mode).
  double BackwardSeconds = 0.0;
  /// Per-forward-step seconds, parallel to the plan's Steps (setup steps
  /// included); used by the runtime-breakdown experiment (Fig. 2).
  std::vector<double> StepSeconds;
  /// Per-step profiles, parallel to Steps; empty unless the executor's
  /// step profiling is enabled (see Executor::setStepProfiling).
  std::vector<StepProfile> StepProfiles;

  /// Gradients produced by runTraining (empty after run()): one entry per
  /// weight leaf, keyed by its name ("W", "W0", ...), plus the feature
  /// gradient needed by upstream layers. The backward pass writes these in
  /// place: a training run keeps the entries of the parameters its plan
  /// produces and reuses their buffers, erasing any others, so a result
  /// reused across training runs allocates none of them again. An
  /// inference run clears both maps.
  std::map<std::string, DenseMatrix> WeightGrads;
  DenseMatrix FeatureGrad;
  std::map<std::string, std::vector<float>> AttnGrads;
  /// One profile per backward primitive, in execution order (the reverse
  /// of the plan's steps); Op is "bwd:" plus the differentiated step's op,
  /// and Value and Shape name the value whose gradient it adds into ("csc"
  /// for the layout's transpose). Filled like StepProfiles, under step
  /// profiling.
  std::vector<StepProfile> BackwardProfiles;

  /// Total for \p Iterations iterations with setup amortized.
  double totalSeconds(int Iterations, bool Training) const {
    double PerIter = ForwardSeconds + (Training ? BackwardSeconds : 0.0);
    return SetupSeconds + PerIter * Iterations;
  }
};

/// Persistent execution state for one (plan, binding) pair: the BufferPlan,
/// its arena storage, the cached primitive descriptors, interpreter scratch
/// and the layout state. This is the executor's only storage for plan
/// values. configure() is idempotent — re-configuring with the same plan,
/// binding, and mode keeps all storage — so callers simply configure before
/// every run and pay nothing in the steady state. The allocation counter
/// increments whenever any workspace-managed buffer has to grow, which is
/// how tests and the CLI assert the zero-allocation property. The caller's
/// ExecResult is not workspace-managed: its growth is never counted.
class PlanWorkspace {
public:
  PlanWorkspace() = default;
  PlanWorkspace(const PlanWorkspace &) = delete;
  PlanWorkspace &operator=(const PlanWorkspace &) = delete;
  PlanWorkspace(PlanWorkspace &&) = default;
  PlanWorkspace &operator=(PlanWorkspace &&) = default;

  /// Prepares storage for \p Plan under \p Binding. A matching prior
  /// configuration is kept as-is; otherwise the BufferPlan is recomputed
  /// and every slot is presized to its planned capacity (growth events are
  /// not counted — they are the warm-up cost). The output's pinned slot
  /// stays in the plan but is never allocated: the final step writes the
  /// caller's ExecResult::Output instead.
  void configure(const CompositionPlan &Plan, const DimBinding &Binding,
                 bool Training);

  /// The buffer plan of the last configure() (null before any).
  const BufferPlan *bufferPlan() const {
    return Buffers ? &*Buffers : nullptr;
  }

  /// Workspace-managed buffer growth events since the last reset. Zero
  /// across a run means that run performed no heap allocations for plan
  /// values.
  size_t allocationCount() const { return Allocations; }
  void resetAllocationCount() { Allocations = 0; }

  /// \name Executor internals
  /// Slot accessors used by the interpreter; they reshape the backing
  /// store to the requested size and count any capacity growth. Valid only
  /// after configure().
  /// @{
  DenseMatrix &denseFor(int Id, int64_t Rows, int64_t Cols);
  std::vector<float> &vecFor(int Id, size_t Size);
  /// Persistent sparse value: adopts \p PatternSource's pattern (copied
  /// into place, reusing capacity) and exposes a value array of nnz floats.
  CsrMatrix &sparseFor(int Id, const CsrMatrix &PatternSource);
  /// The configured plan's primitive descriptors, parallel to its steps.
  const std::vector<PrimitiveDesc> &descs() const { return Descs; }
  /// One runtime binding per plan value, rebound by every forward pass.
  std::vector<detail::RtValue> &scratch() { return Scratch; }
  /// Backward-pass storage, kept across training runs like the slots: one
  /// gradient accumulator per plan value, plus one dense and one per-edge
  /// buffer for the partial gradients that are added into them. Parameter
  /// and feature gradients accumulate in the caller's ExecResult instead.
  std::vector<detail::RtGrad> &grads() { return Grads; }
  /// Per value: whether the backward pass reaches it (it depends on a
  /// weight, attention vector or the features). Computed by a training
  /// configure().
  const std::vector<bool> &gradPath() const { return GradPath; }
  DenseMatrix &gradScratch() { return GradScratch; }
  std::vector<float> &edgeGradScratch() { return EdgeGradScratch; }
  /// The workspace's cached layout state (empty until the first executor
  /// run; rebuilt whenever a run's adjacency differs from it).
  detail::LayoutState &layoutState() { return Layout; }
  /// Records a growth of a workspace-managed buffer that lives outside the
  /// slot arrays (the backward pass's gradient accumulators).
  void countAllocation() { ++Allocations; }
  /// @}

private:
  const CompositionPlan *Plan = nullptr;
  DimBinding Binding{};
  bool Training = false;
  std::optional<BufferPlan> Buffers;
  std::vector<DenseMatrix> DenseSlots;
  std::vector<std::vector<float>> VecSlots;
  std::vector<CsrMatrix> SparseValues; ///< indexed by value id
  std::vector<PrimitiveDesc> Descs;
  std::vector<detail::RtValue> Scratch;
  std::vector<detail::RtGrad> Grads; ///< indexed by value id
  std::vector<bool> GradPath;         ///< indexed by value id
  DenseMatrix GradScratch;
  std::vector<float> EdgeGradScratch;
  detail::LayoutState Layout;
  size_t Allocations = 0;
};

/// Executes plans on one target platform.
class Executor {
public:
  /// \p NumThreads > 0 reconfigures the shared kernel thread pool before
  /// any kernel runs; 0 keeps the current configuration (GRANII_NUM_THREADS
  /// or the hardware concurrency). Measured timings and the CPU hardware
  /// model's NumCores both follow the pool size.
  explicit Executor(HardwareModel Hw, int NumThreads = 0);

  const HardwareModel &hardware() const { return Hw; }

  /// Enables per-step profiling: subsequent runs fill
  /// ExecResult::StepProfiles. Off by default; the profile records allocate
  /// label strings, so leave it off when asserting zero allocations.
  void setStepProfiling(bool Enabled) { StepProfiling = Enabled; }
  bool stepProfiling() const { return StepProfiling; }

  /// Runs the forward pass of \p Plan once on a fresh workspace.
  ExecResult run(const CompositionPlan &Plan, const LayerInputs &Inputs,
                 const GraphStats &Stats) const;

  /// Runs forward + backward once on a fresh workspace. Gradients are
  /// computed with respect to every weight input (and features), seeded
  /// with dL/dOut = 1.
  ExecResult runTraining(const CompositionPlan &Plan,
                         const LayerInputs &Inputs,
                         const GraphStats &Stats) const;

  /// Workspace forward: executes against \p Ws (configured on entry) and
  /// writes into \p Result, both reused across calls. The final step writes
  /// Result.Output directly — the output's planned slot is never allocated —
  /// so Result.Output must not alias a bound input. The first call plans
  /// the arena and takes the page faults; every later call into the same
  /// Result allocates nothing for plan values or the output and leaves
  /// Output.data() where it was. Nothing here warms up: each step runs
  /// once, and a measured timing of a first call includes its cold costs.
  ///
  /// The layout state (the backward CSC) is derived from the caller's
  /// adjacency once and cached in \p Ws under its address and content
  /// version; a run on another adjacency, or after an in-place edit of it,
  /// rebuilds it.
  ///
  /// The plan runs in the caller's vertex order. A caller who wants a
  /// locality-improving order relabels the graph once beforehand
  /// (reorderGraph) and permutes its features to match. The ReorderPolicy
  /// and SparseFormat parameters are ignored (None and Csr are the only
  /// layout); they stay because the end-to-end benchmark passes them
  /// positionally.
  void run(const CompositionPlan &Plan, const LayerInputs &Inputs,
           const GraphStats &Stats, PlanWorkspace &Ws, ExecResult &Result,
           ReorderPolicy = ReorderPolicy::None,
           SparseFormat = SparseFormat::Csr) const;

  /// Workspace forward + backward. The forward activations live in \p Ws
  /// (fully pinned in training mode), and so do the gradient accumulators;
  /// weight, attention and feature gradients accumulate in place into
  /// \p Result, so a warm call into the same Result allocates nothing and
  /// keeps its FeatureGrad buffer.
  void runTraining(const CompositionPlan &Plan, const LayerInputs &Inputs,
                   const GraphStats &Stats, PlanWorkspace &Ws,
                   ExecResult &Result,
                   ReorderPolicy = ReorderPolicy::None,
                   SparseFormat = SparseFormat::Csr) const;

  /// Measures/estimates one primitive invocation: executes \p Body exactly
  /// once and returns the seconds to charge for it on this platform — the
  /// wall time of that execution on measured platforms, the analytic
  /// estimate on simulated ones. There is no warm-up: a caller that wants
  /// warm steady-state timings runs the plan once untimed first (the bench
  /// harnesses' warmRun). The body reference is non-owning and invoked
  /// synchronously, never stored.
  double timeKernel(const PrimitiveDesc &Desc, const GraphStats &Stats,
                    FunctionRef<void()> Body) const;

private:
  /// The body of every run() and runTraining(): the layout key check, one
  /// forward pass, plus the backward pass when \p Training.
  void runArena(const CompositionPlan &Plan, const LayerInputs &Inputs,
                const GraphStats &Stats, PlanWorkspace &Ws, ExecResult &Result,
                bool Training) const;

  HardwareModel Hw;
  bool StepProfiling = false;
};

} // namespace granii

#endif // GRANII_RUNTIME_EXECUTOR_H
