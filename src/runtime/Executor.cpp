//===- Executor.cpp - Composition plan execution -----------------------------===//

#include "runtime/Executor.h"

#include "kernels/Kernels.h"
#include "support/Error.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <fstream>

using namespace granii;

DimBinding LayerInputs::binding(const CompositionPlan *Plan) const {
  GRANII_CHECK(Adjacency && Features && !Weights.empty(),
               "layer inputs incomplete");
  DimBinding B;
  B.N = Adjacency->rows();
  B.E = Adjacency->nnz();
  B.KIn = Features->cols();
  // K_out must come from the tensor bound to a leaf whose symbolic shape
  // carries KOut. Scanning Weights.begin() instead would pick the
  // alphabetically-first weight, whose width is unrelated to the output in
  // multi-weight plans (e.g. chained projections), and a wrong K_out flips
  // the K_in >= K_out scenario dispatch in the optimizer.
  if (Plan) {
    for (const PlanValue &Def : Plan->Values) {
      if (!Def.InputRole)
        continue;
      if (*Def.InputRole == LeafRole::Weight) {
        auto It = Weights.find(Def.DebugName);
        if (It == Weights.end())
          continue;
        if (Def.Shape.Cols.Kind == DimKind::KOut) {
          B.KOut = It->second->cols();
          return B;
        }
        if (Def.Shape.Rows.Kind == DimKind::KOut)
          B.KOut = It->second->rows();
      } else if (*Def.InputRole == LeafRole::AttnSrcVec ||
                 *Def.InputRole == LeafRole::AttnDstVec) {
        // Attention vectors are K_out x 1; use them when no weight column
        // carries KOut (e.g. precomputed-projection plans).
        auto It = AttnVecs.find(Def.DebugName);
        if (It != AttnVecs.end() && Def.Shape.Rows.Kind == DimKind::KOut &&
            B.KOut == 0)
          B.KOut = static_cast<int64_t>(It->second->size());
      }
    }
    if (B.KOut > 0)
      return B;
  }
  B.KOut = Weights.begin()->second->cols();
  return B;
}

//===----------------------------------------------------------------------===//
// PlanWorkspace
//===----------------------------------------------------------------------===//

void PlanWorkspace::configure(const CompositionPlan &PlanIn,
                              const DimBinding &B, bool TrainingIn) {
  if (Buffers && Plan == &PlanIn && Training == TrainingIn &&
      Binding.N == B.N && Binding.KIn == B.KIn && Binding.KOut == B.KOut &&
      Binding.E == B.E)
    return;
  Plan = &PlanIn;
  Binding = B;
  Training = TrainingIn;
  Buffers.emplace(PlanIn, B, TrainingIn);
  Descs = PlanIn.primitiveDescs(B);
  // Presize every slot to its planned capacity so the first run's resizes
  // already fit; growth from here on is a planning bug the counter exposes.
  // The output's slot is pinned (never shared) and stays empty: the final
  // step writes the caller's ExecResult::Output instead.
  const std::vector<ArenaSlot> &Sl = Buffers->slots();
  const int OutputSlot =
      Buffers->values()[static_cast<size_t>(PlanIn.OutputValue)].Slot;
  DenseSlots.resize(Sl.size());
  VecSlots.resize(Sl.size());
  for (size_t S = 0; S < Sl.size(); ++S) {
    if (static_cast<int>(S) == OutputSlot)
      continue;
    size_t Cap = static_cast<size_t>(Sl[S].CapacityFloats);
    if (Sl[S].Class == BufferClass::DenseSlot)
      DenseSlots[S].reserveFloats(Cap);
    else
      VecSlots[S].reserve(Cap);
  }
  // Sparse patterns are copied from their runtime sources on first use;
  // value arrays can at least be reserved now.
  SparseValues.resize(PlanIn.Values.size());
  Scratch.resize(PlanIn.Values.size());
  Grads.resize(PlanIn.Values.size());
}

DenseMatrix &PlanWorkspace::denseFor(int Id, int64_t Rows, int64_t Cols) {
  assert(Buffers && "workspace not configured");
  const ValueBuffer &B = Buffers->values()[static_cast<size_t>(Id)];
  assert(B.Slot >= 0 && B.Class == BufferClass::DenseSlot &&
         "value has no dense slot");
  DenseMatrix &M = DenseSlots[static_cast<size_t>(B.Slot)];
  size_t Cap = M.capacityFloats();
  M.resize(Rows, Cols);
  if (M.capacityFloats() != Cap)
    ++Allocations;
  return M;
}

std::vector<float> &PlanWorkspace::vecFor(int Id, size_t Size) {
  assert(Buffers && "workspace not configured");
  const ValueBuffer &B = Buffers->values()[static_cast<size_t>(Id)];
  assert(B.Slot >= 0 && B.Class == BufferClass::VecSlot &&
         "value has no vector slot");
  std::vector<float> &V = VecSlots[static_cast<size_t>(B.Slot)];
  size_t Cap = V.capacity();
  V.resize(Size);
  if (V.capacity() != Cap)
    ++Allocations;
  return V;
}

CsrMatrix &PlanWorkspace::sparseFor(int Id, const CsrMatrix &PatternSource) {
  assert(Buffers && "workspace not configured");
  CsrMatrix &S = SparseValues[static_cast<size_t>(Id)];
  size_t OffCap = S.rowOffsets().capacity();
  size_t ColCap = S.colIndices().capacity();
  size_t ValCap = S.values().capacity();
  // The pattern is copy-assigned every run (cheap next to any kernel that
  // walks it, and correct even if the caller rebinds a different graph of
  // the same size); once capacities fit this allocates nothing.
  S.assignPattern(PatternSource.rows(), PatternSource.cols(),
                  PatternSource.rowOffsets(), PatternSource.colIndices());
  if (S.rowOffsets().capacity() != OffCap ||
      S.colIndices().capacity() != ColCap || S.values().capacity() != ValCap)
    ++Allocations;
  return S;
}

//===----------------------------------------------------------------------===//
// Executor
//===----------------------------------------------------------------------===//

Executor::Executor(HardwareModel Hw, int NumThreads) : Hw(std::move(Hw)) {
  if (NumThreads > 0)
    ThreadPool::get().setNumThreads(NumThreads);
}

double Executor::timeKernel(const PrimitiveDesc &Desc, const GraphStats &Stats,
                            FunctionRef<void()> Body) const {
  if (Hw.kind() == PlatformKind::Measured) {
    Timer T;
    Body();
    return T.seconds();
  }
  Body(); // Execute for correctness; charge analytic time.
  return Hw.estimateSeconds(Desc, &Stats);
}

namespace {

using detail::RtGrad;
using detail::RtValue;

/// Minimum multiply-adds per chunk of the parallel attention-gradient loops,
/// and the dA columns one chunk accumulates at a time (one cache line).
constexpr int64_t AttnGradGrainOps = int64_t{1} << 14;
constexpr int64_t AttnGradColBlock = 16;

/// Rows [RowBegin, RowEnd) of the attention GEMV's weight gradient:
/// dTheta[R] += Grad[R] * a, skipping rows whose gradient is zero.
void attnThetaGradRows(const std::vector<float> &Grad,
                       const std::vector<float> &AVec, DenseMatrix &DTheta,
                       int64_t RowBegin, int64_t RowEnd) {
  for (int64_t R = RowBegin; R < RowEnd; ++R) {
    float G = Grad[static_cast<size_t>(R)];
    if (G == 0.0f)
      continue;
    float *Row = DTheta.rowPtr(R);
    for (int64_t C = 0; C < DTheta.cols(); ++C)
      Row[C] += G * AVec[static_cast<size_t>(C)];
  }
}

/// Columns [C0, C0 + AttnGradColBlock) of the attention vector's gradient,
/// dA += Theta^T * Grad, over every row in ascending order: each element's
/// sum is the serial loop's chain. The block's partial sums live in a local
/// copy, so threads owning neighbouring blocks never share a written cache
/// line.
void attnVecGradBlock(const DenseMatrix &Theta, const std::vector<float> &Grad,
                      std::vector<float> &DA, int64_t C0) {
  const int64_t Width = std::min(AttnGradColBlock, Theta.cols() - C0);
  float Acc[AttnGradColBlock];
  std::copy_n(DA.begin() + C0, Width, Acc);
  for (int64_t R = 0; R < Theta.rows(); ++R) {
    float G = Grad[static_cast<size_t>(R)];
    const float *Row = Theta.rowPtr(R) + C0;
    for (int64_t C = 0; C < Width; ++C)
      Acc[C] += G * Row[C];
  }
  std::copy_n(Acc, Width, DA.begin() + C0);
}

/// Values that transitively depend on learned parameters or features, i.e.
/// the ones the backward pass must reach.
std::vector<bool> gradPath(const CompositionPlan &Plan) {
  std::vector<bool> Need(Plan.Values.size(), false);
  for (size_t V = 0; V < Plan.Values.size(); ++V) {
    const PlanValue &Val = Plan.Values[V];
    if (Val.InputRole && *Val.InputRole != LeafRole::Adjacency &&
        *Val.InputRole != LeafRole::DegreeNorm &&
        *Val.InputRole != LeafRole::DegreeInv)
      Need[V] = true;
  }
  for (const PlanStep &Step : Plan.Steps) {
    bool Any = false;
    for (int Id : Step.Operands)
      Any |= Need[static_cast<size_t>(Id)];
    Need[static_cast<size_t>(Step.Result)] = Any;
  }
  return Need;
}

/// Forward and backward interpreter behind every executor run. It executes
/// against the workspace's arena slots, cached scratch and layout state, so
/// a steady-state run allocates nothing for plan values.
class PlanInterpreter {
public:
  PlanInterpreter(const Executor &Exec, const CompositionPlan &Plan,
                  const LayerInputs &Inputs, const GraphStats &Stats,
                  PlanWorkspace &Ws)
      : Exec(Exec), Plan(Plan), Inputs(Inputs), Stats(Stats), Ws(Ws),
        LS(Ws.layoutState()) {}

  /// Runs every step once; the plan output lands in \p Output.
  void forward(ExecResult &Result, DenseMatrix &Output);
  void backward(ExecResult &Result);

private:
  void bindInput(size_t Id, const PlanValue &Def);
  void execStep(size_t StepIdx, ExecResult &Result);

  RtValue &val(int Id) { return Ws.scratch()[static_cast<size_t>(Id)]; }

  /// Destination accessors: the storage for value \p Id, reshaped to the
  /// requested size — forward()'s output matrix for the plan output, the
  /// workspace slot otherwise (operands of the current step are still live
  /// in the buffer plan, so a destination slot never aliases an operand's).
  DenseMatrix &dstDense(int Id, int64_t Rows, int64_t Cols) {
    RtValue &Out = val(Id);
    if (Id == Plan.OutputValue) {
      OutputDst->resize(Rows, Cols);
      Out.Dense = OutputDst;
      return *OutputDst;
    }
    DenseMatrix &M = Ws.denseFor(Id, Rows, Cols);
    Out.Dense = &M;
    return M;
  }
  std::vector<float> &dstVec(int Id, size_t Size) {
    std::vector<float> &V = Ws.vecFor(Id, Size);
    val(Id).Vec = &V;
    return V;
  }
  CsrMatrix &dstSparse(int Id, const CsrMatrix &Pattern) {
    CsrMatrix &S = Ws.sparseFor(Id, Pattern);
    val(Id).Sparse = &S;
    return S;
  }

  double charge(size_t StepIdx, FunctionRef<void()> Body) {
    return Exec.timeKernel(Ws.descs()[StepIdx], Stats, Body);
  }

  /// Charges an ad-hoc backward primitive.
  double chargeDesc(const PrimitiveDesc &Desc, FunctionRef<void()> Body) {
    return Exec.timeKernel(Desc, Stats, Body);
  }

  /// True when \p A has the bound adjacency's pattern, which every cached
  /// layout structure was built from. Size equality suffices: the only
  /// sparse values a plan produces copy an operand's pattern (dstSparse),
  /// so by induction they all carry the bound adjacency's.
  bool boundPattern(const CsrMatrix &A) const {
    const CsrMatrix &Adj = *Inputs.Adjacency;
    return A.rows() == Adj.rows() && A.cols() == Adj.cols() &&
           A.nnz() == Adj.nnz();
  }

  /// True when the layout is sharded and its blocks cover \p A. The blocks
  /// hold structure only; edge values gather through the operand's own
  /// CSR-ordered array.
  bool shardCovers(const CsrMatrix &A) const {
    return LS.Sharding.active() && boundPattern(A);
  }

  /// Runs one forward aggregation through the shard pipeline, counting any
  /// cold-start staging growth against the workspace's allocation counter;
  /// shardCovers(A) must hold.
  void shardSpmmInto(const CsrMatrix &A, const DenseMatrix &B,
                     const Semiring &S, DenseMatrix &Dst) const {
    for (size_t Grown = LS.Staging.ensureForward(LS.Set, B.cols()); Grown > 0;
         --Grown)
      Ws.countAllocation();
    shard::shardedSpmmInto(LS.Set, LS.Staging, A.values(), B, S, Dst);
  }

  const Executor &Exec;
  const CompositionPlan &Plan;
  const LayerInputs &Inputs;
  const GraphStats &Stats;
  PlanWorkspace &Ws;
  detail::LayoutState &LS;
  DenseMatrix *OutputDst = nullptr; ///< forward()'s output matrix
};

void PlanInterpreter::bindInput(size_t Id, const PlanValue &Def) {
  RtValue &V = Ws.scratch()[Id];
  V.Kind = Def.Kind;
  switch (*Def.InputRole) {
  case LeafRole::Adjacency:
    V.Sparse = Inputs.Adjacency;
    return;
  case LeafRole::Features:
    V.Dense = Inputs.Features;
    return;
  case LeafRole::Weight: {
    auto It = Inputs.Weights.find(Def.DebugName);
    if (It == Inputs.Weights.end())
      GRANII_FATAL("no weight bound for leaf '" + Def.DebugName + "'");
    V.Dense = It->second;
    return;
  }
  case LeafRole::AttnSrcVec:
  case LeafRole::AttnDstVec: {
    auto It = Inputs.AttnVecs.find(Def.DebugName);
    if (It == Inputs.AttnVecs.end())
      GRANII_FATAL("no attention vector bound for leaf '" + Def.DebugName +
                   "'");
    V.Vec = It->second;
    V.Kind = PlanValueKind::NodeVec;
    return;
  }
  case LeafRole::DegreeNorm:
  case LeafRole::DegreeInv:
    GRANII_FATAL("degree normalizations are derived, never direct inputs");
  }
}

void PlanInterpreter::execStep(size_t StepIdx, ExecResult &Result) {
  const PlanStep &Step = Plan.Steps[StepIdx];
  // One span per executed plan step, annotated with the StepProfile
  // counters below. Constructing the name allocates, so it is guarded: the
  // disabled-tracing path must stay allocation-free for the zero-steady-
  // state-allocation guarantee.
  TraceSpan Span;
  if (Trace::get().enabled())
    Span = TraceSpan(stepOpName(Step.Op), "executor");
  RtValue &Out = val(Step.Result);
  Out.Kind = Plan.Values[static_cast<size_t>(Step.Result)].Kind;
  auto Op = [&](int I) -> RtValue & { return val(Step.Operands[I]); };

  double Seconds = 0.0;
  // granii-noalloc-begin: the step dispatch is the steady-state hot path;
  // destination buffers come pre-planned from the workspace (dstDense /
  // dstSparse / dstVec), so nothing here may allocate.
  switch (Step.Op) {
  case StepOp::Gemm:
    Seconds = charge(StepIdx, [&] {
      const DenseMatrix &A = Op(0).dense();
      const DenseMatrix &B = Op(1).dense();
      kernels::gemmInto(A, B, dstDense(Step.Result, A.rows(), B.cols()));
    });
    break;
  case StepOp::SpmmWeighted:
    Seconds = charge(StepIdx, [&] {
      const CsrMatrix &A = Op(0).sparse();
      const DenseMatrix &B = Op(1).dense();
      DenseMatrix &Dst = dstDense(Step.Result, A.rows(), B.cols());
      // Sharded aggregation preserves CSR neighbor order and shares the
      // dispatched inner loops, so both branches are bitwise identical.
      if (shardCovers(A))
        shardSpmmInto(A, B, Semiring::plusTimes(), Dst);
      else
        kernels::spmmInto(A, B, Semiring::plusTimes(), Dst);
    });
    break;
  case StepOp::SpmmUnweighted:
    Seconds = charge(StepIdx, [&] {
      const CsrMatrix &A = Op(0).sparse();
      const DenseMatrix &B = Op(1).dense();
      DenseMatrix &Dst = dstDense(Step.Result, A.rows(), B.cols());
      if (shardCovers(A))
        shardSpmmInto(A, B, Semiring::plusCopy(), Dst);
      else
        kernels::spmmInto(A, B, Semiring::plusCopy(), Dst);
    });
    break;
  case StepOp::SddmmScaleRow:
    Seconds = charge(StepIdx, [&] {
      const CsrMatrix &A = Op(1).sparse();
      kernels::scaleSparseRowsInto(A, Op(0).vec(),
                                   dstSparse(Step.Result, A).mutableValues());
    });
    break;
  case StepOp::SddmmScaleCol:
    Seconds = charge(StepIdx, [&] {
      const CsrMatrix &A = Op(0).sparse();
      kernels::scaleSparseColsInto(A, Op(1).vec(),
                                   dstSparse(Step.Result, A).mutableValues());
    });
    break;
  case StepOp::SddmmScaleBoth:
    Seconds = charge(StepIdx, [&] {
      const CsrMatrix &A = Op(1).sparse();
      kernels::scaleSparseBothInto(A, Op(0).vec(), Op(2).vec(),
                                   dstSparse(Step.Result, A).mutableValues());
    });
    break;
  case StepOp::RowBcast:
    Seconds = charge(StepIdx, [&] {
      const DenseMatrix &H = Op(1).dense();
      kernels::rowBroadcastMulInto(Op(0).vec(), H,
                                   dstDense(Step.Result, H.rows(), H.cols()));
    });
    break;
  case StepOp::ColBcast:
    Seconds = charge(StepIdx, [&] {
      const DenseMatrix &H = Op(0).dense();
      kernels::colBroadcastMulInto(H, Op(1).vec(),
                                   dstDense(Step.Result, H.rows(), H.cols()));
    });
    break;
  case StepOp::DiagDiag:
    Seconds = charge(StepIdx, [&] {
      const std::vector<float> &L = Op(0).vec();
      const std::vector<float> &R = Op(1).vec();
      std::vector<float> &O = dstVec(Step.Result, L.size());
      for (size_t I = 0; I < L.size(); ++I)
        O[I] = L[I] * R[I];
    });
    break;
  case StepOp::AddDense:
    Seconds = charge(StepIdx, [&] {
      const DenseMatrix &A = Op(0).dense();
      kernels::addMatricesInto(A, Op(1).dense(),
                               dstDense(Step.Result, A.rows(), A.cols()));
    });
    break;
  case StepOp::ScaleDense:
    Seconds = charge(StepIdx, [&] {
      const DenseMatrix &A = Op(0).dense();
      kernels::scaleMatrixInto(A, static_cast<float>(Step.Param),
                               dstDense(Step.Result, A.rows(), A.cols()));
    });
    break;
  case StepOp::Relu:
    Seconds = charge(StepIdx, [&] {
      const DenseMatrix &A = Op(0).dense();
      kernels::reluInto(A, dstDense(Step.Result, A.rows(), A.cols()));
    });
    break;
  case StepOp::DegreeOffsets:
    Seconds = charge(StepIdx, [&] {
      const CsrMatrix &A = Op(0).sparse();
      kernels::degreeFromOffsetsInto(
          A, dstVec(Step.Result, static_cast<size_t>(A.rows())));
    });
    break;
  case StepOp::DegreeBinning:
    Seconds = charge(StepIdx, [&] {
      const CsrMatrix &A = Op(0).sparse();
      kernels::degreeByBinningInto(
          A, dstVec(Step.Result, static_cast<size_t>(A.rows())));
    });
    break;
  case StepOp::InvSqrtVec:
    Seconds = charge(StepIdx, [&] {
      const std::vector<float> &D = Op(0).vec();
      kernels::invSqrtInto(D, dstVec(Step.Result, D.size()));
    });
    break;
  case StepOp::InvVec:
    Seconds = charge(StepIdx, [&] {
      const std::vector<float> &D = Op(0).vec();
      kernels::invDegreeInto(D, dstVec(Step.Result, D.size()));
    });
    break;
  case StepOp::AttnGemv:
    Seconds = charge(StepIdx, [&] {
      const DenseMatrix &A = Op(0).dense();
      kernels::gemvInto(A, Op(1).vec(),
                        dstVec(Step.Result, static_cast<size_t>(A.rows())));
    });
    break;
  case StepOp::EdgeLogits:
    Seconds = charge(StepIdx, [&] {
      const CsrMatrix &Mask = Op(0).sparse();
      kernels::sddmmAddScalarsInto(
          Mask, Op(1).vec(), Op(2).vec(),
          dstSparse(Step.Result, Mask).mutableValues());
    });
    break;
  case StepOp::EdgeLeakyRelu:
    Seconds = charge(StepIdx, [&] {
      const CsrMatrix &In = Op(0).sparse();
      CsrMatrix &O = dstSparse(Step.Result, In);
      if (In.isWeighted())
        kernels::leakyReluEdgesInto(In.values(),
                                    static_cast<float>(Step.Param),
                                    O.mutableValues());
      else
        O.clearValues(); // unweighted in, unweighted out (all-ones edges)
    });
    break;
  case StepOp::EdgeSoftmax:
    Seconds = charge(StepIdx, [&] {
      const CsrMatrix &In = Op(0).sparse();
      kernels::edgeSoftmaxInto(In, In.values(),
                               dstSparse(Step.Result, In).mutableValues());
    });
    break;
  }
  // granii-noalloc-end

  Result.StepSeconds[StepIdx] = Seconds;
  if (Step.Setup)
    Result.SetupSeconds += Seconds;
  else
    Result.ForwardSeconds += Seconds;

  if (!Result.StepProfiles.empty() || Span.active()) {
    StepProfile Local;
    StepProfile &P =
        Result.StepProfiles.empty() ? Local : Result.StepProfiles[StepIdx];
    const PlanValue &Def = Plan.Values[static_cast<size_t>(Step.Result)];
    P.Value = Def.DebugName.empty() ? "v" + std::to_string(Step.Result)
                                    : Def.DebugName;
    P.Op = stepOpName(Step.Op);
    const RtValue &OutV = val(Step.Result);
    switch (OutV.Kind) {
    case PlanValueKind::Dense:
      P.Shape = std::to_string(OutV.dense().rows()) + "x" +
                std::to_string(OutV.dense().cols());
      break;
    case PlanValueKind::Sparse:
      P.Shape = "nnz=" + std::to_string(OutV.sparse().nnz());
      break;
    case PlanValueKind::Diag:
    case PlanValueKind::NodeVec:
      P.Shape = std::to_string(OutV.vec().size());
      break;
    }
    P.Setup = Step.Setup;
    P.Seconds = Seconds;
    P.Flops = Ws.descs()[StepIdx].flops();
    P.Bytes = Ws.descs()[StepIdx].bytes();
    if (Span.active()) {
      Span.setArg("value", P.Value);
      Span.setArg("shape", P.Shape);
      Span.setArg("charged_seconds", P.Seconds);
      Span.setArg("flops", P.Flops);
      Span.setArg("bytes", P.Bytes);
      if (P.Setup)
        Span.setArg("setup", 1.0);
    }
  }
}

void PlanInterpreter::forward(ExecResult &Result, DenseMatrix &Output) {
  TraceSpan Span("forward", "executor");
  OutputDst = &Output;
  Result.SetupSeconds = 0.0;
  Result.ForwardSeconds = 0.0;
  Result.BackwardSeconds = 0.0;
  Result.StepSeconds.assign(Plan.Steps.size(), 0.0);
  if (Exec.stepProfiling())
    Result.StepProfiles.resize(Plan.Steps.size());
  else
    Result.StepProfiles.clear();
  Result.WeightGrads.clear();
  Result.AttnGrads.clear();

  for (size_t V = 0; V < Plan.Values.size(); ++V) {
    Ws.scratch()[V] = RtValue();
    if (Plan.Values[V].InputRole)
      bindInput(V, Plan.Values[V]);
  }
  for (size_t S = 0; S < Plan.Steps.size(); ++S)
    execStep(S, Result);
  const RtValue &Out = val(Plan.OutputValue);
  assert(Out.Kind == PlanValueKind::Dense && "layer output must be dense");
  assert(Out.Dense == &Output && "layer output must be a step result");
  (void)Out;
}

void PlanInterpreter::backward(ExecResult &Result) {
  TraceSpan Span("backward", "executor");
  std::vector<bool> Need = gradPath(Plan);
  std::vector<RtGrad> &Grads = Ws.grads();
  for (RtGrad &G : Grads)
    G.Present = false;
  std::vector<RtValue> &Values = Ws.scratch();

  // Every gradient buffer is reused across runs, so a steady-state run
  // allocates none of them. A workspace buffer counts its growth like a
  // slot; parameter and feature gradients accumulate straight into the
  // caller's result, which owns them as it owns Output.
  auto Reshape = [&](DenseMatrix &M, int64_t Rows, int64_t Cols,
                     bool Owned) -> DenseMatrix & {
    size_t Cap = M.capacityFloats();
    M.resize(Rows, Cols);
    if (Owned && M.capacityFloats() != Cap)
      Ws.countAllocation();
    return M;
  };
  auto Resize = [&](std::vector<float> &V, size_t Size,
                    bool Owned) -> std::vector<float> & {
    size_t Cap = V.capacity();
    V.resize(Size);
    if (Owned && V.capacity() != Cap)
      Ws.countAllocation();
    return V;
  };
  auto DenseAcc = [&](int Id) -> DenseMatrix & {
    const PlanValue &Val = Plan.Values[static_cast<size_t>(Id)];
    if (Val.InputRole == LeafRole::Weight)
      return Result.WeightGrads[Val.DebugName];
    if (Val.InputRole == LeafRole::Features)
      return Result.FeatureGrad;
    return Grads[static_cast<size_t>(Id)].Dense;
  };
  auto VecAcc = [&](int Id) -> std::vector<float> & {
    const PlanValue &Val = Plan.Values[static_cast<size_t>(Id)];
    if (Val.InputRole == LeafRole::AttnSrcVec ||
        Val.InputRole == LeafRole::AttnDstVec)
      return Result.AttnGrads[Val.DebugName];
    return Grads[static_cast<size_t>(Id)].Vec;
  };

  auto EnsureDense = [&](int Id) -> DenseMatrix & {
    RtGrad &G = Grads[static_cast<size_t>(Id)];
    DenseMatrix &Acc = DenseAcc(Id);
    if (!G.Present) {
      const DenseMatrix &V = Values[static_cast<size_t>(Id)].dense();
      Reshape(Acc, V.rows(), V.cols(), &Acc == &G.Dense).fill(0.0f);
      G.Present = true;
    }
    return Acc;
  };
  auto EnsureVec = [&](int Id) -> std::vector<float> & {
    RtGrad &G = Grads[static_cast<size_t>(Id)];
    std::vector<float> &Acc = VecAcc(Id);
    if (!G.Present) {
      const size_t Size = Values[static_cast<size_t>(Id)].vec().size();
      Resize(Acc, Size, &Acc == &G.Vec);
      std::fill(Acc.begin(), Acc.end(), 0.0f);
      G.Present = true;
    }
    return Acc;
  };
  auto EnsureEdge = [&](int Id) -> std::vector<float> & {
    RtGrad &G = Grads[static_cast<size_t>(Id)];
    if (!G.Present) {
      const int64_t Nnz = Values[static_cast<size_t>(Id)].sparse().nnz();
      Resize(G.Edge, static_cast<size_t>(Nnz), /*Owned=*/true);
      std::fill(G.Edge.begin(), G.Edge.end(), 0.0f);
      G.Present = true;
    }
    return G.Edge;
  };
  // A partial gradient lives in one workspace buffer until it is added into
  // its accumulator; no two partials are live at once.
  auto Partial = [&](int64_t Rows, int64_t Cols) -> DenseMatrix & {
    return Reshape(Ws.gradScratch(), Rows, Cols, /*Owned=*/true);
  };
  auto EdgePartial = [&](size_t Size) -> std::vector<float> & {
    return Resize(Ws.edgeGradScratch(), Size, /*Owned=*/true);
  };

  // Seed dL/dOut = 1.
  {
    DenseMatrix &Seed = EnsureDense(Plan.OutputValue);
    Seed.fill(1.0f);
  }

  double Backward = 0.0;
  for (size_t SI = Plan.Steps.size(); SI-- > 0;) {
    const PlanStep &Step = Plan.Steps[SI];
    RtGrad &OutG = Grads[static_cast<size_t>(Step.Result)];
    if (!OutG.Present)
      continue;
    auto OpId = [&](int I) { return Step.Operands[I]; };
    auto NeedOp = [&](int I) {
      return Need[static_cast<size_t>(Step.Operands[I])];
    };
    auto OpVal = [&](int I) -> const RtValue & {
      return Values[static_cast<size_t>(Step.Operands[I])];
    };

    switch (Step.Op) {
    case StepOp::Gemm: {
      const DenseMatrix &A = OpVal(0).dense();
      const DenseMatrix &B = OpVal(1).dense();
      if (NeedOp(0)) {
        PrimitiveDesc D{PrimitiveKind::Gemm, A.rows(), A.cols(), B.cols(), 0};
        Backward += chargeDesc(D, [&] {
          DenseMatrix &DA = Partial(OutG.Dense.rows(), B.rows());
          kernels::gemmTransposedRhsInto(OutG.Dense, B, DA);
          kernels::axpyInto(1.0f, DA, EnsureDense(OpId(0)));
        });
      }
      if (NeedOp(1)) {
        PrimitiveDesc D{PrimitiveKind::Gemm, A.cols(), B.cols(), A.rows(), 0};
        Backward += chargeDesc(D, [&] {
          DenseMatrix &DB = Partial(A.cols(), OutG.Dense.cols());
          kernels::gemmTransposedLhsInto(A, OutG.Dense, DB);
          kernels::axpyInto(1.0f, DB, EnsureDense(OpId(1)));
        });
      }
      break;
    }
    case StepOp::SpmmWeighted:
    case StepOp::SpmmUnweighted: {
      const CsrMatrix &S = OpVal(0).sparse();
      const DenseMatrix &X = OpVal(1).dense();
      GRANII_CHECK(boundPattern(S),
                   "backward SpMM operand lacks the bound adjacency's pattern");
      if (NeedOp(1) && shardCovers(S)) {
        // Sharded dX = S^T dY over the blocks' CSC slices: each slice
        // keeps its owned columns' entries in ascending global-row order
        // — the whole-graph CSC's entry order — so this is bitwise equal
        // to the spmmCscTransposedInto branch below without ever
        // materializing the global transpose.
        PrimitiveDesc D{Step.Op == StepOp::SpmmWeighted
                            ? PrimitiveKind::SpMMWeighted
                            : PrimitiveKind::SpMMUnweighted,
                        S.cols(), X.cols(), 0, S.nnz()};
        Backward += chargeDesc(D, [&] {
          LS.Staging.ensureBackward(LS.Set, OutG.Dense.cols());
          DenseMatrix &DX = Partial(S.cols(), OutG.Dense.cols());
          shard::shardedSpmmCscTransposedInto(
              LS.Set, LS.Staging, S.values(), OutG.Dense,
              Step.Op == StepOp::SpmmWeighted ? Semiring::plusTimes()
                                              : Semiring::plusCopy(),
              DX);
          kernels::axpyInto(1.0f, DX, EnsureDense(OpId(1)));
        });
      } else if (NeedOp(1)) {
        // dX += S^T dY, walked through the layout's CSC view of the bound
        // adjacency instead of re-materializing a transposed CSR every
        // step. The CSC holds the structure only (values gather from S
        // through its CSR index map), so one build per layout serves every
        // run and every operand; that build is charged to backward as the
        // edge-map the per-step transpose used to be.
        if (!LS.Csc) {
          PrimitiveDesc TD{PrimitiveKind::EdgeElementwise, S.rows(), 0, 0,
                           S.nnz()};
          Backward += chargeDesc(
              TD, [&] { LS.Csc = CscMatrix::fromCsr(*Inputs.Adjacency); });
        }
        PrimitiveDesc D{Step.Op == StepOp::SpmmWeighted
                            ? PrimitiveKind::SpMMWeighted
                            : PrimitiveKind::SpMMUnweighted,
                        S.cols(), X.cols(), 0, S.nnz()};
        Backward += chargeDesc(D, [&] {
          DenseMatrix &DX = Partial(S.cols(), OutG.Dense.cols());
          kernels::spmmCscTransposedInto(*LS.Csc, S.values(), OutG.Dense,
                                         Step.Op == StepOp::SpmmWeighted
                                             ? Semiring::plusTimes()
                                             : Semiring::plusCopy(),
                                         DX);
          kernels::axpyInto(1.0f, DX, EnsureDense(OpId(1)));
        });
      }
      if (NeedOp(0)) {
        // dS_ij += dY_i . X_j (SDDMM at the sparse pattern).
        PrimitiveDesc D{PrimitiveKind::SddmmDot, S.rows(), 0, X.cols(),
                        S.nnz()};
        Backward += chargeDesc(D, [&] {
          std::vector<float> &DS = EdgePartial(static_cast<size_t>(S.nnz()));
          kernels::sddmmInto(S, OutG.Dense, X, Semiring::plusTimes(), DS);
          std::vector<float> &Acc = EnsureEdge(OpId(0));
          for (size_t I = 0; I < DS.size(); ++I)
            Acc[I] += DS[I];
        });
      }
      break;
    }
    case StepOp::SddmmScaleRow:
    case StepOp::SddmmScaleCol:
    case StepOp::SddmmScaleBoth:
      // Scale operands are graph-only (normalization); no parameters can
      // sit behind them in the evaluated models.
      break;
    case StepOp::RowBcast: {
      if (NeedOp(1)) {
        const std::vector<float> &Dv = OpVal(0).vec();
        PrimitiveDesc D{PrimitiveKind::RowBroadcast, OutG.Dense.rows(),
                        OutG.Dense.cols(), 0, 0};
        Backward += chargeDesc(D, [&] {
          DenseMatrix &DH = Partial(OutG.Dense.rows(), OutG.Dense.cols());
          kernels::rowBroadcastMulInto(Dv, OutG.Dense, DH);
          kernels::axpyInto(1.0f, DH, EnsureDense(OpId(1)));
        });
      }
      break;
    }
    case StepOp::ColBcast: {
      if (NeedOp(0)) {
        const std::vector<float> &Dv = OpVal(1).vec();
        PrimitiveDesc D{PrimitiveKind::ColBroadcast, OutG.Dense.rows(),
                        OutG.Dense.cols(), 0, 0};
        Backward += chargeDesc(D, [&] {
          DenseMatrix &DH = Partial(OutG.Dense.rows(), OutG.Dense.cols());
          kernels::colBroadcastMulInto(OutG.Dense, Dv, DH);
          kernels::axpyInto(1.0f, DH, EnsureDense(OpId(0)));
        });
      }
      break;
    }
    case StepOp::DiagDiag:
    case StepOp::DegreeOffsets:
    case StepOp::DegreeBinning:
    case StepOp::InvSqrtVec:
    case StepOp::InvVec:
      break; // Graph-only.
    case StepOp::AddDense: {
      PrimitiveDesc D{PrimitiveKind::AddDense, OutG.Dense.rows(),
                      OutG.Dense.cols(), 0, 0};
      for (int I = 0; I < 2; ++I)
        if (NeedOp(I))
          Backward += chargeDesc(D, [&] {
            kernels::axpyInto(1.0f, OutG.Dense, EnsureDense(OpId(I)));
          });
      break;
    }
    case StepOp::ScaleDense: {
      if (NeedOp(0)) {
        PrimitiveDesc D{PrimitiveKind::DenseMap, OutG.Dense.rows(),
                        OutG.Dense.cols(), 0, 0};
        Backward += chargeDesc(D, [&] {
          kernels::axpyInto(static_cast<float>(Step.Param), OutG.Dense,
                            EnsureDense(OpId(0)));
        });
      }
      break;
    }
    case StepOp::Relu: {
      if (NeedOp(0)) {
        PrimitiveDesc D{PrimitiveKind::DenseMap, OutG.Dense.rows(),
                        OutG.Dense.cols(), 0, 0};
        Backward += chargeDesc(D, [&] {
          DenseMatrix &DI = Partial(OutG.Dense.rows(), OutG.Dense.cols());
          kernels::reluBackwardInto(OpVal(0).dense(), OutG.Dense, DI);
          kernels::axpyInto(1.0f, DI, EnsureDense(OpId(0)));
        });
      }
      break;
    }
    case StepOp::AttnGemv: {
      const DenseMatrix &Theta = OpVal(0).dense();
      const std::vector<float> &AVec = OpVal(1).vec();
      const int64_t Rows = Theta.rows(), Cols = Theta.cols();
      if (NeedOp(0)) {
        PrimitiveDesc D{PrimitiveKind::Gemm, Rows, Cols, 1, 0};
        Backward += chargeDesc(D, [&] {
          DenseMatrix &DTheta = EnsureDense(OpId(0));
          parallelFor(0, Rows, AttnGradGrainOps / std::max<int64_t>(Cols, 1),
                      [&](int64_t RowBegin, int64_t RowEnd) {
                        attnThetaGradRows(OutG.Vec, AVec, DTheta, RowBegin,
                                          RowEnd);
                      });
        });
      }
      if (NeedOp(1)) {
        PrimitiveDesc D{PrimitiveKind::Gemv, Rows, 0, Cols, 0};
        Backward += chargeDesc(D, [&] {
          std::vector<float> &DA = EnsureVec(OpId(1));
          const int64_t BlockOps =
              std::max<int64_t>(Rows, 1) * AttnGradColBlock;
          parallelFor(0, (Cols + AttnGradColBlock - 1) / AttnGradColBlock,
                      AttnGradGrainOps / BlockOps,
                      [&](int64_t BlockBegin, int64_t BlockEnd) {
                        for (int64_t B = BlockBegin; B < BlockEnd; ++B)
                          attnVecGradBlock(Theta, OutG.Vec, DA,
                                           B * AttnGradColBlock);
                      });
        });
      }
      break;
    }
    case StepOp::EdgeLogits: {
      const CsrMatrix &Mask = OpVal(0).sparse();
      const auto &Offsets = Mask.rowOffsets();
      const auto &Cols = Mask.colIndices();
      PrimitiveDesc D{PrimitiveKind::EdgeElementwise, Mask.rows(), 0, 0,
                      Mask.nnz()};
      if (NeedOp(1)) {
        Backward += chargeDesc(D, [&] {
          std::vector<float> &DSrc = EnsureVec(OpId(1));
          for (int64_t R = 0; R < Mask.rows(); ++R)
            for (int64_t K = Offsets[static_cast<size_t>(R)];
                 K < Offsets[static_cast<size_t>(R) + 1]; ++K)
              DSrc[static_cast<size_t>(R)] += OutG.Edge[static_cast<size_t>(K)];
        });
      }
      if (NeedOp(2)) {
        Backward += chargeDesc(D, [&] {
          std::vector<float> &DDst = EnsureVec(OpId(2));
          for (int64_t K = 0; K < Mask.nnz(); ++K)
            DDst[static_cast<size_t>(Cols[static_cast<size_t>(K)])] +=
                OutG.Edge[static_cast<size_t>(K)];
        });
      }
      break;
    }
    case StepOp::EdgeLeakyRelu: {
      if (NeedOp(0)) {
        const CsrMatrix &In = OpVal(0).sparse();
        PrimitiveDesc D{PrimitiveKind::EdgeElementwise, In.rows(), 0, 0,
                        In.nnz()};
        Backward += chargeDesc(D, [&] {
          std::vector<float> &DIn = EnsureEdge(OpId(0));
          const AlignedVector<float> &Pre = In.values();
          float Slope = static_cast<float>(Step.Param);
          for (size_t I = 0; I < Pre.size(); ++I)
            DIn[I] += OutG.Edge[I] * (Pre[I] > 0.0f ? 1.0f : Slope);
        });
      }
      break;
    }
    case StepOp::EdgeSoftmax: {
      if (NeedOp(0)) {
        const CsrMatrix &Alpha = Values[static_cast<size_t>(Step.Result)]
                                     .sparse();
        PrimitiveDesc D{PrimitiveKind::EdgeSoftmax, Alpha.rows(), 0, 0,
                        Alpha.nnz()};
        Backward += chargeDesc(D, [&] {
          std::vector<float> &DIn = EnsureEdge(OpId(0));
          const auto &Offsets = Alpha.rowOffsets();
          const auto &AVals = Alpha.values();
          for (int64_t R = 0; R < Alpha.rows(); ++R) {
            int64_t Begin = Offsets[static_cast<size_t>(R)];
            int64_t End = Offsets[static_cast<size_t>(R) + 1];
            float Dot = 0.0f;
            for (int64_t K = Begin; K < End; ++K)
              Dot += AVals[static_cast<size_t>(K)] *
                     OutG.Edge[static_cast<size_t>(K)];
            for (int64_t K = Begin; K < End; ++K)
              DIn[static_cast<size_t>(K)] +=
                  AVals[static_cast<size_t>(K)] *
                  (OutG.Edge[static_cast<size_t>(K)] - Dot);
          }
        });
      }
      break;
    }
    }
  }
  Result.BackwardSeconds = Backward;
}

} // namespace

ExecResult Executor::run(const CompositionPlan &Plan, const LayerInputs &Inputs,
                         const GraphStats &Stats) const {
  PlanWorkspace Ws;
  ExecResult Result;
  run(Plan, Inputs, Stats, Ws, Result);
  return Result;
}

ExecResult Executor::runTraining(const CompositionPlan &Plan,
                                 const LayerInputs &Inputs,
                                 const GraphStats &Stats) const {
  PlanWorkspace Ws;
  ExecResult Result;
  runTraining(Plan, Inputs, Stats, Ws, Result);
  return Result;
}

namespace {

/// Content hash of a CSR structure, naming the on-disk shard store so a
/// store built for one graph is never adopted for another. O(E), paid only
/// on the store path where the block build itself is O(E log E).
uint64_t csrStructureHash(const CsrMatrix &Adj) {
  uint64_t H = 1469598103934665603ull;
  auto Mix = [&H](uint64_t V) {
    H ^= V;
    H *= 1099511628211ull;
  };
  Mix(static_cast<uint64_t>(Adj.rows()));
  Mix(static_cast<uint64_t>(Adj.nnz()));
  for (int64_t Off : Adj.rowOffsets())
    Mix(static_cast<uint64_t>(Off));
  for (int32_t Col : Adj.colIndices())
    Mix(static_cast<uint64_t>(static_cast<uint32_t>(Col)));
  return H;
}

} // namespace

double Executor::layoutSetup(detail::LayoutState &LS, const CsrMatrix &Adj,
                             const GraphStats &Stats, ReorderPolicy Policy,
                             const ShardSpec &Sharding) const {
  if (LS.SourceAdj == &Adj && LS.SourceVersion == Adj.version() &&
      LS.Policy == Policy && LS.Sharding == Sharding)
    return 0.0;
  LS = detail::LayoutState();
  LS.Policy = Policy;
  LS.Sharding = Sharding;
  LS.SourceAdj = &Adj;
  LS.SourceVersion = Adj.version();

  // Per-layout preprocessing, hoisted like degree normalizations. Each part
  // is an O(E)-dominated pass over the structure, so each is charged as an
  // edge-traversal primitive. Relabeling preserves rows and nnz, so one
  // descriptor serves the bound adjacency too.
  PrimitiveDesc Desc{PrimitiveKind::EdgeElementwise, Adj.rows(), 0, 0,
                     Adj.nnz()};
  double Seconds = 0.0;
  const CsrMatrix *Bound = &Adj;
  const GraphStats *BoundStats = &Stats;
  if (Policy != ReorderPolicy::None) {
    TraceSpan Span("reorder-setup", "executor");
    Seconds += timeKernel(Desc, Stats, [&] {
      LS.Perm = makeReorderPermutation(Policy, Adj);
      LS.PermAdj = permuteSymmetric(Adj, LS.Perm);
      LS.PermStats = computeGraphStats(LS.PermAdj);
    });
    Bound = &LS.PermAdj;
    BoundStats = &LS.PermStats;
  }
  if (Sharding.active()) {
    TraceSpan Span("shard-setup", "executor");
    Seconds += timeKernel(Desc, *BoundStats, [&] {
      LS.Part = shard::partitionGraph(*Bound, Sharding.Shards);
      if (Sharding.StoreDir.empty()) {
        LS.Set = shard::ShardSet::build(*Bound, LS.Part);
        return;
      }
      // mmap-backed store: build once per (graph structure, shard count),
      // then adopt the read-only mapping so block structure pages in on
      // demand. Keyed by content hash — a stale or foreign file never
      // matches, and a damaged one aborts in load()'s validation.
      char Name[64];
      std::snprintf(Name, sizeof(Name), "/granii-g%016llx-s%d.grshard",
                    static_cast<unsigned long long>(csrStructureHash(*Bound)),
                    Sharding.Shards);
      const std::string Path = Sharding.StoreDir + Name;
      std::ifstream Probe(Path, std::ios::binary);
      const bool Exists = Probe.good();
      Probe.close();
      if (!Exists) {
        std::string Err;
        GRANII_CHECK(shard::ShardSet::build(*Bound, LS.Part).save(Path, &Err),
                     "cannot write shard store: " + Err);
      }
      LS.Set = shard::ShardSet::load(Path);
    });
  }
  return Seconds;
}

LayerInputs Executor::permuteInputs(detail::LayoutState &LS,
                                    const LayerInputs &Inputs,
                                    PlanWorkspace &Ws,
                                    double &PermSeconds) const {
  const DenseMatrix &H = *Inputs.Features;
  size_t Cap = LS.PermFeatures.capacityFloats();
  LS.PermFeatures.resize(H.rows(), H.cols());
  if (LS.PermFeatures.capacityFloats() != Cap)
    Ws.countAllocation();
  // The gather runs every iteration (features may change between calls
  // even when the graph does not), so it is charged per iteration as a
  // dense row map — its real cost on measured platforms.
  TraceSpan Span("permute-features", "executor");
  PrimitiveDesc Desc{PrimitiveKind::DenseMap, H.rows(), H.cols(), 0, 0};
  PermSeconds += timeKernel(Desc, LS.PermStats, [&] {
    permuteRowsInto(H, LS.Perm, LS.PermFeatures);
  });

  LayerInputs Permuted = Inputs;
  Permuted.Adjacency = &LS.PermAdj;
  Permuted.Features = &LS.PermFeatures;
  return Permuted;
}

double Executor::unpermuteRows(const detail::LayoutState &LS,
                               const DenseMatrix &Src, DenseMatrix &Dst) const {
  Dst.resize(Src.rows(), Src.cols());
  TraceSpan Span("unpermute-output", "executor");
  PrimitiveDesc Desc{PrimitiveKind::DenseMap, Src.rows(), Src.cols(), 0, 0};
  return timeKernel(Desc, LS.PermStats,
                    [&] { inversePermuteRowsInto(Src, LS.Perm, Dst); });
}

void Executor::run(const CompositionPlan &Plan, const LayerInputs &Inputs,
                   const GraphStats &Stats, PlanWorkspace &Ws,
                   ExecResult &Result, ReorderPolicy Policy, SparseFormat,
                   const ShardSpec &Sharding) const {
  runArena(Plan, Inputs, Stats, Ws, Result, Policy, Sharding,
           /*Training=*/false);
}

void Executor::runTraining(const CompositionPlan &Plan,
                           const LayerInputs &Inputs, const GraphStats &Stats,
                           PlanWorkspace &Ws, ExecResult &Result,
                           ReorderPolicy Policy, SparseFormat,
                           const ShardSpec &Sharding) const {
  runArena(Plan, Inputs, Stats, Ws, Result, Policy, Sharding,
           /*Training=*/true);
}

void Executor::runArena(const CompositionPlan &Plan, const LayerInputs &Inputs,
                        const GraphStats &Stats, PlanWorkspace &Ws,
                        ExecResult &Result, ReorderPolicy Policy,
                        const ShardSpec &Sharding, bool Training) const {
  GRANII_CHECK(Inputs.Features != &Result.Output,
               "arena execution: the result's output aliases the features");
  GRANII_CHECK(!Training || Inputs.Features != &Result.FeatureGrad,
               "arena execution: the result's feature gradient aliases the "
               "features");
  detail::LayoutState &LS = Ws.layoutState();
  const double SetupSeconds =
      layoutSetup(LS, *Inputs.Adjacency, Stats, Policy, Sharding);
  const bool Reordered = Policy != ReorderPolicy::None;
  const LayerInputs *Bound = &Inputs;
  const GraphStats *BoundStats = &Stats;
  double PermSeconds = 0.0;
  LayerInputs Permuted;
  if (Reordered) {
    Permuted = permuteInputs(LS, Inputs, Ws, PermSeconds);
    Bound = &Permuted;
    BoundStats = &LS.PermStats;
  }
  Ws.configure(Plan, Bound->binding(&Plan), Training);
  PlanInterpreter Interp(*this, Plan, *Bound, *BoundStats, Ws);
  // A reordered run leaves its output in permuted row order in the
  // workspace's staging buffer (growth counted like any workspace buffer);
  // the inverse scatter then writes the caller's Result.Output.
  const size_t StagingCap = LS.PermOutput.capacityFloats();
  Interp.forward(Result, Reordered ? LS.PermOutput : Result.Output);
  if (Training)
    Interp.backward(Result);
  if (Reordered) {
    if (LS.PermOutput.capacityFloats() != StagingCap)
      Ws.countAllocation();
    PermSeconds += unpermuteRows(LS, LS.PermOutput, Result.Output);
    // Weight and attention gradients reduce over nodes and are row-order
    // independent; only the feature gradient is per-node and must return
    // to the caller's vertex order, through a staging copy made per call.
    if (Training && Result.FeatureGrad.rows() > 0) {
      DenseMatrix Staging(Result.FeatureGrad.rows(),
                          Result.FeatureGrad.cols());
      inversePermuteRowsInto(Result.FeatureGrad, LS.Perm, Staging);
      std::swap(Result.FeatureGrad, Staging);
    }
  }
  Result.SetupSeconds += SetupSeconds;
  Result.ForwardSeconds += PermSeconds;
}
