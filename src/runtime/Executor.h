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
/// writes straight into the caller's ExecResult::Output. Callers choose
/// between the legacy per-call storage (run()/runTraining() returning an
/// ExecResult — each call allocates its intermediates) and the arena path,
/// where a PlanWorkspace holds BufferPlan-assigned slots that persist across
/// calls so steady-state inference performs zero heap allocations. Both
/// paths run the same kernels in the same order, so their outputs are
/// bitwise identical. Each step executes exactly once per call.
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_RUNTIME_EXECUTOR_H
#define GRANII_RUNTIME_EXECUTOR_H

#include "assoc/Composition.h"
#include "graph/Graph.h"
#include "graph/Reorder.h"
#include "hw/HardwareModel.h"
#include "runtime/BufferPlan.h"
#include "shard/Shard.h"
#include "shard/ShardExec.h"
#include "support/FunctionRef.h"
#include "tensor/CscMatrix.h"
#include "tensor/CsrMatrix.h"
#include "tensor/DenseMatrix.h"
#include "tensor/EllMatrix.h"
#include "tensor/HybMatrix.h"
#include "tensor/SellMatrix.h"
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

/// Sharded-execution request for an arena run (docs/SHARDING.md). Shards
/// <= 1 executes whole-graph; > 1 partitions the bound adjacency and runs
/// every matching sparse aggregation through the shard pipeline —
/// bitwise identical to the whole-graph run. A non-empty StoreDir keeps
/// the shard blocks in an mmap-backed file under that directory (built on
/// first use, reused by content), so block structure pages in on demand
/// instead of occupying anonymous memory.
struct ShardSpec {
  int Shards = 0;
  std::string StoreDir;

  bool active() const { return Shards > 1; }
};

namespace detail {

/// Runtime storage for one plan value. Inputs alias caller tensors
/// (DenseRef/SparseRef/VecRef); produced values either own their payload
/// (legacy path: Dense/Sparse/Vec members) or point into a PlanWorkspace
/// slot (arena path: DensePtr/SparsePtr/VecPtr). On both paths the plan
/// output's DensePtr points at the caller's result.
struct RtValue {
  PlanValueKind Kind = PlanValueKind::Dense;
  DenseMatrix Dense;
  CsrMatrix Sparse;
  std::vector<float> Vec; // diagonal or node vector
  DenseMatrix *DensePtr = nullptr;
  CsrMatrix *SparsePtr = nullptr;
  std::vector<float> *VecPtr = nullptr;
  const DenseMatrix *DenseRef = nullptr;
  const CsrMatrix *SparseRef = nullptr;
  const std::vector<float> *VecRef = nullptr;

  const DenseMatrix &dense() const {
    return DensePtr ? *DensePtr : DenseRef ? *DenseRef : Dense;
  }
  const CsrMatrix &sparse() const {
    return SparsePtr ? *SparsePtr : SparseRef ? *SparseRef : Sparse;
  }
  const std::vector<float> &vec() const {
    return VecPtr ? *VecPtr : VecRef ? *VecRef : Vec;
  }

  /// Drops aliases and slot pointers; owned storage is kept (its capacity
  /// is what makes repeated legacy runs cheap and workspace scratch inert).
  void resetBindings() {
    DensePtr = nullptr;
    SparsePtr = nullptr;
    VecPtr = nullptr;
    DenseRef = nullptr;
    SparseRef = nullptr;
    VecRef = nullptr;
  }
};

/// Cached vertex-reordering state of a workspace: one (policy, graph) pair's
/// permutation, the relabeled adjacency PAP^T with its statistics, and the
/// two persistent staging buffers of the per-run row gathers. Building it is
/// setup (charged once, like degree normalizations); the steady state only
/// re-gathers features and scatters the output, reusing every buffer here.
struct ReorderState {
  ReorderPolicy Policy = ReorderPolicy::None;
  const CsrMatrix *SourceAdj = nullptr; ///< graph the cache was built for
  int64_t SourceNnz = 0;                ///< guards against pointer reuse
  Permutation Perm;
  CsrMatrix PermAdj;        ///< PAP^T
  GraphStats PermStats;     ///< its statistics (locality features differ)
  DenseMatrix PermFeatures; ///< features gathered into permuted row order
  DenseMatrix PermOutput;   ///< output in permuted row order, pre-scatter
};

/// Cached sparse-format state of a workspace: the structure conversion for
/// the forward format plus the lazily built CSC transpose the backward pass
/// walks instead of re-materializing S^T every step. Structures hold column
/// layout only; edge values stay in the operands' CSR-ordered arrays, so
/// one conversion per (format, graph) covers weighted and unweighted steps.
struct FormatState {
  SparseFormat Format = SparseFormat::Csr;
  const CsrMatrix *SourceAdj = nullptr; ///< graph the cache was built for
  int64_t SourceNnz = 0;                ///< guards against pointer reuse
  EllMatrix Ell;
  SellMatrix Sell;
  HybMatrix Hyb;
  /// Backward transpose cache, keyed separately: the transposed operand is
  /// a derived sparse value (attention weights share the adjacency
  /// pattern), not necessarily the adjacency itself.
  CscMatrix Csc;
  const CsrMatrix *CscSource = nullptr;
  int64_t CscSourceNnz = 0;
};

/// Cached sharding state of a workspace: the partition and shard blocks of
/// one (shard count, graph) pair plus the persistent halo staging buffers.
/// Building (or mapping) the blocks is setup, charged once like the reorder
/// and format conversions; steady-state sharded runs only gather halos into
/// the staging high-water buffers and allocate nothing.
struct ShardState {
  int Shards = 0;                       ///< 0 = no cached partition
  const CsrMatrix *SourceAdj = nullptr; ///< graph the cache was built for
  int64_t SourceNnz = 0;                ///< guards against pointer reuse
  std::string StoreDir;                 ///< "" = heap-resident blocks
  shard::GraphPartition Part;
  shard::ShardSet Set;
  shard::ShardStaging Staging;
};

} // namespace detail

/// Profiling record for one executed step, filled when the executor's step
/// profiling is enabled. Throughputs derive as Bytes/Seconds and
/// Flops/Seconds; Seconds is measured wall-clock on measured platforms and
/// the analytic estimate on simulated ones.
struct StepProfile {
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
  /// Written in place by the plan's final step (through the workspace's
  /// staging buffer under a reorder policy). A result reused across arena
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
  /// gradient needed by upstream layers.
  std::map<std::string, DenseMatrix> WeightGrads;
  DenseMatrix FeatureGrad;
  std::map<std::string, std::vector<float>> AttnGrads;

  /// Total for \p Iterations iterations with setup amortized.
  double totalSeconds(int Iterations, bool Training) const {
    double PerIter = ForwardSeconds + (Training ? BackwardSeconds : 0.0);
    return SetupSeconds + PerIter * Iterations;
  }
};

/// Persistent execution state for one (plan, binding) pair: the BufferPlan,
/// its arena storage, the cached primitive descriptors, and interpreter
/// scratch. configure() is idempotent — re-configuring with the same plan,
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
  /// store to the requested size and count any capacity growth.
  /// @{
  DenseMatrix &denseFor(int Id, int64_t Rows, int64_t Cols);
  std::vector<float> &vecFor(int Id, size_t Size);
  /// Persistent sparse value: adopts \p PatternSource's pattern (copied
  /// into place, reusing capacity) and exposes a value array of nnz floats.
  CsrMatrix &sparseFor(int Id, const CsrMatrix &PatternSource);
  const std::vector<PrimitiveDesc> &descs() const { return Descs; }
  std::vector<detail::RtValue> &scratch() { return Scratch; }
  /// The workspace's cached reordering state (empty until an executor run
  /// with a non-None policy populates it).
  detail::ReorderState &reorderState() { return Reorder; }
  /// The workspace's cached sparse-format state (structure conversions +
  /// the backward CSC transpose; empty until an executor run needs them).
  detail::FormatState &formatState() { return Format; }
  /// The workspace's cached sharding state (partition + blocks + halo
  /// staging; empty until an executor run with an active ShardSpec).
  detail::ShardState &shardState() { return Shard; }
  /// Records a growth of a workspace-managed buffer that lives outside the
  /// slot arrays (the reorder staging buffers).
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
  detail::ReorderState Reorder;
  detail::FormatState Format;
  detail::ShardState Shard;
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

  /// Runs the forward pass of \p Plan once with per-call storage.
  ExecResult run(const CompositionPlan &Plan, const LayerInputs &Inputs,
                 const GraphStats &Stats) const;

  /// Runs forward + backward once with per-call storage. Gradients are
  /// computed with respect to every weight input (and features), seeded
  /// with dL/dOut = 1.
  ExecResult runTraining(const CompositionPlan &Plan,
                         const LayerInputs &Inputs,
                         const GraphStats &Stats) const;

  /// Arena-path forward: executes against \p Ws (configured on entry) and
  /// writes into \p Result, both reused across calls. The final step writes
  /// Result.Output directly — the output's planned slot is never allocated —
  /// so Result.Output must not alias a bound input. The first call plans
  /// the arena and takes the page faults; every later call into the same
  /// Result allocates nothing for plan values or the output and leaves
  /// Output.data() where it was. Nothing here warms up: each step runs
  /// once, and a measured timing of a first call includes its cold costs.
  ///
  /// A non-None \p Policy runs the plan on a reordered copy of the graph:
  /// the workspace caches the permutation and relabeled adjacency per
  /// (policy, graph) — rebuilt state is charged as setup — and each run
  /// gathers the features into permuted order, executes (the final step
  /// writing a workspace staging buffer), and scatters the output back to
  /// the caller's vertex order into Result.Output (both charged per
  /// iteration).
  /// The result equals the unreordered run's up to float summation order
  /// (each row's neighbors accumulate in a different sequence), which is
  /// why the differential tests compare it with a tolerance rather than
  /// bitwise. Steady-state runs still allocate nothing.
  ///
  /// A non-CSR \p Format runs every sparse aggregation over the workspace's
  /// cached structure conversion of the bound adjacency (built on first use
  /// and charged as setup). Per-format traversal preserves CSR neighbor
  /// order and routes through the same dispatched inner loops, so outputs
  /// stay bitwise identical to the CSR run at any thread count within one
  /// ISA level. Auto must be resolved by the caller (the optimizer's
  /// selection); Csc is backward-only — both abort here.
  ///
  /// An active \p Sharding partitions the bound adjacency into
  /// Sharding.Shards parts (cached per (count, graph); building or mapping
  /// the blocks is charged as setup) and runs every sparse aggregation that
  /// matches the bound adjacency's pattern through the sharded gather →
  /// compute pipeline. The shard blocks preserve each row's original CSR
  /// entry order, so sharded outputs are bitwise identical to the
  /// whole-graph run at any shard and thread count within one ISA level.
  /// Sharding requires the CSR forward format (it aborts with any other).
  void run(const CompositionPlan &Plan, const LayerInputs &Inputs,
           const GraphStats &Stats, PlanWorkspace &Ws, ExecResult &Result,
           ReorderPolicy Policy = ReorderPolicy::None,
           SparseFormat Format = SparseFormat::Csr,
           const ShardSpec &Sharding = ShardSpec()) const;

  /// Arena-path forward + backward. The forward activations live in \p Ws
  /// (fully pinned in training mode); gradient accumulators and exported
  /// gradients still allocate per call. Under a non-None \p Policy the
  /// feature gradient is scattered back alongside the output; weight and
  /// attention gradients are row-order invariant and need no correction.
  void runTraining(const CompositionPlan &Plan, const LayerInputs &Inputs,
                   const GraphStats &Stats, PlanWorkspace &Ws,
                   ExecResult &Result,
                   ReorderPolicy Policy = ReorderPolicy::None,
                   SparseFormat Format = SparseFormat::Csr,
                   const ShardSpec &Sharding = ShardSpec()) const;

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
  /// The arena path behind run() and runTraining(): layout setup, one
  /// forward pass (plus the backward pass when \p Training), and the
  /// inverse permutation of a reordered output.
  void runArena(const CompositionPlan &Plan, const LayerInputs &Inputs,
                const GraphStats &Stats, PlanWorkspace &Ws, ExecResult &Result,
                ReorderPolicy Policy, SparseFormat Format,
                const ShardSpec &Sharding, bool Training) const;

  /// Rebuilds \p RS for (Policy, Adj) if it is stale; returns the setup
  /// seconds to charge (0 when the cache was already valid).
  double reorderSetup(detail::ReorderState &RS, const CsrMatrix &Adj,
                      const GraphStats &Stats, ReorderPolicy Policy) const;

  /// Rebuilds \p FS's forward structure for (Format, Adj) if it is stale;
  /// returns the setup seconds to charge (0 when already valid).
  double formatSetup(detail::FormatState &FS, const CsrMatrix &Adj,
                     const GraphStats &Stats, SparseFormat Format) const;

  /// Rebuilds (or maps from \p Spec's store) \p SS's partition and blocks
  /// for (Spec.Shards, Adj) if they are stale; returns the setup seconds to
  /// charge (0 when already valid).
  double shardSetup(detail::ShardState &SS, const CsrMatrix &Adj,
                    const GraphStats &Stats, const ShardSpec &Spec) const;

  /// Gathers the caller's features into permuted order and returns inputs
  /// rebound to the cached reordered graph; \p PermSeconds receives the
  /// per-iteration gather cost.
  LayerInputs permuteInputs(detail::ReorderState &RS,
                            const LayerInputs &Inputs, PlanWorkspace &Ws,
                            double &PermSeconds) const;

  /// Scatters \p Src (rows in permuted order) back to the caller's vertex
  /// order into \p Dst and returns the seconds charged.
  double unpermuteRows(const detail::ReorderState &RS, const DenseMatrix &Src,
                       DenseMatrix &Dst) const;

  HardwareModel Hw;
  bool StepProfiling = false;
};

} // namespace granii

#endif // GRANII_RUNTIME_EXECUTOR_H
