//===- Executor.cpp - Composition plan execution -----------------------------===//

#include "runtime/Executor.h"

#include "kernels/Kernels.h"
#include "support/Error.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>

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

namespace {

/// Values that transitively depend on learned parameters or features, i.e.
/// the ones the backward pass must reach.
std::vector<bool> computeGradPath(const CompositionPlan &Plan) {
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

} // namespace

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
  GradPath = TrainingIn ? computeGradPath(PlanIn) : std::vector<bool>();
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

/// Minimum multiply-adds per chunk of the parallel attention-gradient loops;
/// the dA columns the threads split in whole blocks (one cache line), and
/// the most columns one pass over the rows accumulates.
constexpr int64_t AttnGradGrainOps = int64_t{1} << 14;
constexpr int64_t AttnGradColBlock = 16;
constexpr int64_t AttnGradMaxPassCols = 8 * AttnGradColBlock;
/// Rows ahead of the column pass whose lines are prefetched.
constexpr int64_t AttnGradPrefetchRows = 16;

/// Rows [RowBegin, RowEnd) of the attention GEMV's weight gradient:
/// dTheta[R] += Grad[R] * a, skipping rows whose gradient is zero. A
/// \p First contribution writes 0 + Grad[R] * a (zeros where skipped).
void attnThetaGradRows(const std::vector<float> &Grad,
                       const std::vector<float> &AVec, DenseMatrix &DTheta,
                       int64_t RowBegin, int64_t RowEnd, bool First) {
  const int64_t Cols = DTheta.cols();
  for (int64_t R = RowBegin; R < RowEnd; ++R) {
    float G = Grad[static_cast<size_t>(R)];
    float *Row = DTheta.rowPtr(R);
    if (G == 0.0f) {
      if (First)
        std::fill_n(Row, Cols, 0.0f);
      continue;
    }
    for (int64_t C = 0; C < Cols; ++C)
      Row[C] = (First ? 0.0f : Row[C]) + G * AVec[static_cast<size_t>(C)];
  }
}

/// Columns [C0, C1) of the attention vector's gradient, dA += Theta^T *
/// Grad, over every row in ascending order: each element's sum is the
/// serial loop's chain. The partial sums live in a local copy, so threads
/// owning neighbouring column ranges never share a written cache line, and
/// one pass over the rows serves the whole range (up to
/// AttnGradMaxPassCols columns), reading adjacent lines of each row
/// together. A \p First contribution starts its sums at zero.
void attnVecGradCols(const DenseMatrix &Theta, const std::vector<float> &Grad,
                     std::span<float> DA, int64_t C0, int64_t C1,
                     bool First) {
  for (; C0 < C1; C0 += AttnGradMaxPassCols) {
    const int64_t Width = std::min(AttnGradMaxPassCols, C1 - C0);
    float Acc[AttnGradMaxPassCols];
    if (First)
      std::fill_n(Acc, Width, 0.0f);
    else
      std::copy_n(DA.begin() + C0, Width, Acc);
    const float *Base = Theta.data() + C0;
    const int64_t Ld = Theta.cols(), Rows = Theta.rows();
    for (int64_t R = 0; R < Rows; ++R) {
      // The pass strides across rows, which the hardware prefetchers do
      // not follow; fetch the lines a few rows ahead.
      if (R + AttnGradPrefetchRows < Rows)
        for (int64_t C = 0; C < Width; C += AttnGradColBlock)
          __builtin_prefetch(Base + (R + AttnGradPrefetchRows) * Ld + C);
      float G = Grad[static_cast<size_t>(R)];
      const float *Row = Base + R * Ld;
      for (int64_t C = 0; C < Width; ++C)
        Acc[C] += G * Row[C];
    }
    std::copy_n(Acc, Width, DA.begin() + C0);
  }
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

  /// Runs every step once; the plan output lands in Result.Output.
  void forward(ExecResult &Result);
  /// Runs the backward pass; every parameter and feature gradient lands in
  /// \p Result.
  void backward(ExecResult &Result);

private:
  void bindInput(size_t Id, const PlanValue &Def);
  void execStep(size_t StepIdx, ExecResult &Result);

  RtValue &val(int Id) { return Ws.scratch()[static_cast<size_t>(Id)]; }

  /// Destination accessors: the storage for value \p Id, reshaped to the
  /// requested size — the result's output matrix for the plan output, the
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

  /// Charges one backward primitive of forward step \p Step that adds into
  /// the gradient of value \p Target (-1: the layout's CSC). It is traced
  /// as "bwd:<op>" with the counters of a forward step and, under step
  /// profiling, recorded in Result.BackwardProfiles; both build strings,
  /// so neither runs unless enabled.
  double chargeBackward(const PlanStep &Step, int Target,
                        const PrimitiveDesc &Desc, ExecResult &Result,
                        FunctionRef<void()> Body) {
    TraceSpan Span;
    if (Trace::get().enabled())
      Span = TraceSpan("bwd:" + stepOpName(Step.Op), "executor");
    const double Seconds = Exec.timeKernel(Desc, Stats, Body);
    if (Span.active() || Exec.stepProfiling()) {
      StepProfile P;
      P.Step = &Step - Plan.Steps.data();
      P.Value = Target < 0 ? "csc" : Plan.valueName(Target);
      P.Op = "bwd:" + stepOpName(Step.Op);
      P.Shape = Target < 0 ? "nnz=" + std::to_string(Inputs.Adjacency->nnz())
                           : valueShape(Target);
      P.Seconds = Seconds;
      P.Flops = Desc.flops();
      P.Bytes = Desc.bytes();
      if (Span.active()) {
        Span.setArg("step", static_cast<double>(P.Step));
        Span.setArg("grad_of", P.Value);
        Span.setArg("shape", P.Shape);
        Span.setArg("charged_seconds", P.Seconds);
        Span.setArg("flops", P.Flops);
        Span.setArg("bytes", P.Bytes);
      }
      if (Exec.stepProfiling())
        Result.BackwardProfiles.push_back(std::move(P));
    }
    return Seconds;
  }

  /// The bound adjacency's CSC, which the backward pass walks for S^T
  /// products and per-destination sums. One build per layout serves every
  /// run; it is charged to the backward step that first needs it, as the
  /// edge map the per-step transpose used to be.
  const CscMatrix &boundCsc(const PlanStep &Step, ExecResult &Result,
                            double &Backward) {
    if (!LS.Csc) {
      const CsrMatrix &Adj = *Inputs.Adjacency;
      PrimitiveDesc D{PrimitiveKind::EdgeElementwise, Adj.rows(), 0, 0,
                      Adj.nnz()};
      Backward += chargeBackward(Step, -1, D, Result,
                                 [&] { LS.Csc = CscMatrix::fromCsr(Adj); });
    }
    return *LS.Csc;
  }

  /// Display shape of plan value \p Id as bound in this run.
  std::string valueShape(int Id) {
    const RtValue &V = val(Id);
    switch (V.Kind) {
    case PlanValueKind::Dense:
      return std::to_string(V.dense().rows()) + "x" +
             std::to_string(V.dense().cols());
    case PlanValueKind::Sparse:
      return "nnz=" + std::to_string(V.sparse().nnz());
    case PlanValueKind::Diag:
    case PlanValueKind::NodeVec:
      return std::to_string(V.vec().size());
    }
    return "";
  }

  /// True when \p A has the bound adjacency's pattern, which the cached
  /// backward CSC was built from. Size equality suffices: the only sparse
  /// values a plan produces copy an operand's pattern (dstSparse), so by
  /// induction they all carry the bound adjacency's.
  bool boundPattern(const CsrMatrix &A) const {
    const CsrMatrix &Adj = *Inputs.Adjacency;
    return A.rows() == Adj.rows() && A.cols() == Adj.cols() &&
           A.nnz() == Adj.nnz();
  }

  const Executor &Exec;
  const CompositionPlan &Plan;
  const LayerInputs &Inputs;
  const GraphStats &Stats;
  PlanWorkspace &Ws;
  detail::LayoutState &LS;
  DenseMatrix *OutputDst = nullptr; ///< the result's output matrix
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
      kernels::spmmInto(A, B, Semiring::plusTimes(),
                        dstDense(Step.Result, A.rows(), B.cols()));
    });
    break;
  case StepOp::SpmmUnweighted:
    Seconds = charge(StepIdx, [&] {
      const CsrMatrix &A = Op(0).sparse();
      const DenseMatrix &B = Op(1).dense();
      kernels::spmmInto(A, B, Semiring::plusCopy(),
                        dstDense(Step.Result, A.rows(), B.cols()));
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
    P.Step = static_cast<int64_t>(StepIdx);
    P.Value = Plan.valueName(Step.Result);
    P.Op = stepOpName(Step.Op);
    P.Shape = valueShape(Step.Result);
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

void PlanInterpreter::forward(ExecResult &Result) {
  TraceSpan Span("forward", "executor");
  OutputDst = &Result.Output;
  Result.SetupSeconds = 0.0;
  Result.ForwardSeconds = 0.0;
  Result.BackwardSeconds = 0.0;
  Result.StepSeconds.assign(Plan.Steps.size(), 0.0);
  if (Exec.stepProfiling())
    Result.StepProfiles.resize(Plan.Steps.size());
  else
    Result.StepProfiles.clear();

  for (size_t V = 0; V < Plan.Values.size(); ++V) {
    Ws.scratch()[V] = RtValue();
    if (Plan.Values[V].InputRole)
      bindInput(V, Plan.Values[V]);
  }
  for (size_t S = 0; S < Plan.Steps.size(); ++S)
    execStep(S, Result);
  const RtValue &Out = val(Plan.OutputValue);
  assert(Out.Kind == PlanValueKind::Dense && "layer output must be dense");
  assert(Out.Dense == OutputDst && "layer output must be a step result");
  (void)Out;
}

void PlanInterpreter::backward(ExecResult &Result) {
  TraceSpan Span("backward", "executor");
  const std::vector<bool> &Need = Ws.gradPath();
  std::vector<RtGrad> &Grads = Ws.grads();
  for (RtGrad &G : Grads)
    G.Present = false;
  std::vector<RtValue> &Values = Ws.scratch();
  if (Exec.stepProfiling())
    Result.BackwardProfiles.clear();

  // Every gradient buffer is reused across runs, so a steady-state run
  // allocates none of them. A workspace buffer counts its growth like a
  // slot; parameter gradients accumulate straight into the caller's result,
  // which owns them as it owns Output, the feature gradient included.
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

  // The accumulators of value Id, shaped on the run's first contribution.
  // \p First reports that contribution: the kernels then write instead of
  // adding, which is what adding into zeros gives, so nothing is zeroed.
  auto DenseGrad = [&](int Id, bool &First) -> DenseMatrix & {
    RtGrad &G = Grads[static_cast<size_t>(Id)];
    DenseMatrix &Acc = DenseAcc(Id);
    First = !G.Present;
    if (First) {
      const DenseMatrix &V = Values[static_cast<size_t>(Id)].dense();
      Reshape(Acc, V.rows(), V.cols(), &Acc == &G.Dense);
      G.Present = true;
    }
    return Acc;
  };
  auto VecGrad = [&](int Id, bool &First) -> std::span<float> {
    RtGrad &G = Grads[static_cast<size_t>(Id)];
    std::vector<float> &Acc = VecAcc(Id);
    First = !G.Present;
    if (First) {
      const size_t Size = Values[static_cast<size_t>(Id)].vec().size();
      Resize(Acc, Size, &Acc == &G.Vec);
      G.Present = true;
    }
    return Acc;
  };
  auto EdgeGrad = [&](int Id, bool &First) -> std::span<float> {
    RtGrad &G = Grads[static_cast<size_t>(Id)];
    First = !G.Present;
    if (First) {
      const int64_t Nnz = Values[static_cast<size_t>(Id)].sparse().nnz();
      Resize(G.Edge, static_cast<size_t>(Nnz), /*Owned=*/true);
      G.Present = true;
    }
    return G.Edge;
  };
  // Adds Alpha * X into value Id's dense gradient, which has X's shape.
  auto AddDense = [&](int Id, float Alpha, const DenseMatrix &X) {
    bool First;
    DenseMatrix &Acc = DenseGrad(Id, First);
    kernels::accumulateInto(Alpha, {X.data(), static_cast<size_t>(X.size())},
                            {Acc.data(), static_cast<size_t>(Acc.size())},
                            First);
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
    bool First;
    DenseMatrix &Seed = DenseGrad(Plan.OutputValue, First);
    kernels::fill(1.0f, {Seed.data(), static_cast<size_t>(Seed.size())});
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
    // Charges one primitive that adds into the gradient of value Target.
    auto Charge = [&](int Target, const PrimitiveDesc &D,
                      FunctionRef<void()> Body) {
      Backward += chargeBackward(Step, Target, D, Result, Body);
    };

    switch (Step.Op) {
    case StepOp::Gemm: {
      const DenseMatrix &A = OpVal(0).dense();
      const DenseMatrix &B = OpVal(1).dense();
      if (NeedOp(0)) {
        PrimitiveDesc D{PrimitiveKind::Gemm, A.rows(), A.cols(), B.cols(), 0};
        Charge(OpId(0), D, [&] {
          DenseMatrix &DA = Partial(OutG.Dense.rows(), B.rows());
          kernels::gemmTransposedRhsInto(OutG.Dense, B, DA);
          AddDense(OpId(0), 1.0f, DA);
        });
      }
      if (NeedOp(1)) {
        PrimitiveDesc D{PrimitiveKind::Gemm, A.cols(), B.cols(), A.rows(), 0};
        Charge(OpId(1), D, [&] {
          DenseMatrix &DB = Partial(A.cols(), OutG.Dense.cols());
          kernels::gemmTransposedLhsInto(A, OutG.Dense, DB);
          AddDense(OpId(1), 1.0f, DB);
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
      if (NeedOp(1)) {
        // dX += S^T dY, walked through the layout's CSC view of the bound
        // adjacency instead of re-materializing a transposed CSR every
        // step. The CSC holds the structure only (values gather from S
        // through its CSR index map), so one build per layout serves every
        // run and every operand.
        const CscMatrix &Csc = boundCsc(Step, Result, Backward);
        PrimitiveDesc D{Step.Op == StepOp::SpmmWeighted
                            ? PrimitiveKind::SpMMWeighted
                            : PrimitiveKind::SpMMUnweighted,
                        S.cols(), X.cols(), 0, S.nnz()};
        Charge(OpId(1), D, [&] {
          DenseMatrix &DX = Partial(S.cols(), OutG.Dense.cols());
          kernels::spmmCscTransposedInto(Csc, S.values(), OutG.Dense,
                                         Step.Op == StepOp::SpmmWeighted
                                             ? Semiring::plusTimes()
                                             : Semiring::plusCopy(),
                                         DX);
          AddDense(OpId(1), 1.0f, DX);
        });
      }
      if (NeedOp(0)) {
        // dS_ij += dY_i . X_j (SDDMM at the sparse pattern).
        PrimitiveDesc D{PrimitiveKind::SddmmDot, S.rows(), 0, X.cols(),
                        S.nnz()};
        Charge(OpId(0), D, [&] {
          std::vector<float> &DS = EdgePartial(static_cast<size_t>(S.nnz()));
          kernels::sddmmInto(S, OutG.Dense, X, Semiring::plusTimes(), DS);
          bool First;
          std::span<float> Acc = EdgeGrad(OpId(0), First);
          kernels::accumulateInto(1.0f, DS, Acc, First);
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
        Charge(OpId(1), D, [&] {
          DenseMatrix &DH = Partial(OutG.Dense.rows(), OutG.Dense.cols());
          kernels::rowBroadcastMulInto(Dv, OutG.Dense, DH);
          AddDense(OpId(1), 1.0f, DH);
        });
      }
      break;
    }
    case StepOp::ColBcast: {
      if (NeedOp(0)) {
        const std::vector<float> &Dv = OpVal(1).vec();
        PrimitiveDesc D{PrimitiveKind::ColBroadcast, OutG.Dense.rows(),
                        OutG.Dense.cols(), 0, 0};
        Charge(OpId(0), D, [&] {
          DenseMatrix &DH = Partial(OutG.Dense.rows(), OutG.Dense.cols());
          kernels::colBroadcastMulInto(OutG.Dense, Dv, DH);
          AddDense(OpId(0), 1.0f, DH);
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
          Charge(OpId(I), D, [&] { AddDense(OpId(I), 1.0f, OutG.Dense); });
      break;
    }
    case StepOp::ScaleDense: {
      if (NeedOp(0)) {
        PrimitiveDesc D{PrimitiveKind::DenseMap, OutG.Dense.rows(),
                        OutG.Dense.cols(), 0, 0};
        Charge(OpId(0), D, [&] {
          AddDense(OpId(0), static_cast<float>(Step.Param), OutG.Dense);
        });
      }
      break;
    }
    case StepOp::Relu: {
      if (NeedOp(0)) {
        PrimitiveDesc D{PrimitiveKind::DenseMap, OutG.Dense.rows(),
                        OutG.Dense.cols(), 0, 0};
        Charge(OpId(0), D, [&] {
          bool First;
          DenseMatrix &Acc = DenseGrad(OpId(0), First);
          kernels::reluBackwardAccumulateInto(OpVal(0).dense(), OutG.Dense,
                                              Acc, First);
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
        Charge(OpId(0), D, [&] {
          bool First;
          DenseMatrix &DTheta = DenseGrad(OpId(0), First);
          parallelFor(0, Rows, AttnGradGrainOps / std::max<int64_t>(Cols, 1),
                      [&](int64_t RowBegin, int64_t RowEnd) {
                        attnThetaGradRows(OutG.Vec, AVec, DTheta, RowBegin,
                                          RowEnd, First);
                      });
        });
      }
      if (NeedOp(1)) {
        PrimitiveDesc D{PrimitiveKind::Gemv, Rows, 0, Cols, 0};
        Charge(OpId(1), D, [&] {
          bool First;
          std::span<float> DA = VecGrad(OpId(1), First);
          // One chunk of column blocks per thread: each row pass then reads
          // a thread's adjacent lines of the row together.
          const int64_t Blocks =
              (Cols + AttnGradColBlock - 1) / AttnGradColBlock;
          const int64_t BlockOps =
              std::max<int64_t>(Rows, 1) * AttnGradColBlock;
          const int64_t Grain = std::max(
              AttnGradGrainOps / BlockOps,
              Blocks / std::max(ThreadPool::get().numThreads(), 1));
          parallelFor(0, Blocks, Grain,
                      [&](int64_t BlockBegin, int64_t BlockEnd) {
                        attnVecGradCols(
                            Theta, OutG.Vec, DA, BlockBegin * AttnGradColBlock,
                            std::min(BlockEnd * AttnGradColBlock, Cols),
                            First);
                      });
        });
      }
      break;
    }
    case StepOp::EdgeLogits: {
      const CsrMatrix &Mask = OpVal(0).sparse();
      PrimitiveDesc D{PrimitiveKind::EdgeElementwise, Mask.rows(), 0, 0,
                      Mask.nnz()};
      if (NeedOp(1)) {
        Charge(OpId(1), D, [&] {
          bool First;
          std::span<float> DSrc = VecGrad(OpId(1), First);
          kernels::edgeRowSumInto(Mask, OutG.Edge, DSrc, First);
        });
      }
      if (NeedOp(2)) {
        // Each destination's sum walks its column of the bound adjacency's
        // CSC, whose entries come in ascending edge order.
        GRANII_CHECK(boundPattern(Mask),
                     "backward edge-logits mask lacks the bound adjacency's "
                     "pattern");
        const CscMatrix &Csc = boundCsc(Step, Result, Backward);
        Charge(OpId(2), D, [&] {
          bool First;
          std::span<float> DDst = VecGrad(OpId(2), First);
          kernels::edgeColSumInto(Csc, OutG.Edge, DDst, First);
        });
      }
      break;
    }
    case StepOp::EdgeLeakyRelu: {
      if (NeedOp(0)) {
        const CsrMatrix &In = OpVal(0).sparse();
        PrimitiveDesc D{PrimitiveKind::EdgeElementwise, In.rows(), 0, 0,
                        In.nnz()};
        Charge(OpId(0), D, [&] {
          bool First;
          std::span<float> DIn = EdgeGrad(OpId(0), First);
          kernels::leakyReluEdgesBackwardInto(In.values(), OutG.Edge,
                                              static_cast<float>(Step.Param),
                                              DIn, First);
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
        Charge(OpId(0), D, [&] {
          bool First;
          std::span<float> DIn = EdgeGrad(OpId(0), First);
          kernels::edgeSoftmaxBackwardInto(Alpha, Alpha.values(), OutG.Edge,
                                           DIn, First);
        });
      }
      break;
    }
    }
  }
  Result.BackwardSeconds = Backward;

  // Parameter gradients persist in a reused result: entries this run did
  // not produce (another plan's parameters) go.
  auto Produced = [&](const std::string &Name, bool Attn) {
    for (size_t V = 0; V < Plan.Values.size(); ++V) {
      const PlanValue &Val = Plan.Values[V];
      const bool IsAttn = Val.InputRole == LeafRole::AttnSrcVec ||
                          Val.InputRole == LeafRole::AttnDstVec;
      const bool IsWeight = Val.InputRole == LeafRole::Weight;
      if ((Attn ? IsAttn : IsWeight) && Val.DebugName == Name &&
          Grads[V].Present)
        return true;
    }
    return false;
  };
  std::erase_if(Result.WeightGrads,
                [&](const auto &E) { return !Produced(E.first, false); });
  std::erase_if(Result.AttnGrads,
                [&](const auto &E) { return !Produced(E.first, true); });
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

void Executor::run(const CompositionPlan &Plan, const LayerInputs &Inputs,
                   const GraphStats &Stats, PlanWorkspace &Ws,
                   ExecResult &Result, ReorderPolicy, SparseFormat) const {
  runArena(Plan, Inputs, Stats, Ws, Result, /*Training=*/false);
}

void Executor::runTraining(const CompositionPlan &Plan,
                           const LayerInputs &Inputs, const GraphStats &Stats,
                           PlanWorkspace &Ws, ExecResult &Result, ReorderPolicy,
                           SparseFormat) const {
  runArena(Plan, Inputs, Stats, Ws, Result, /*Training=*/true);
}

void Executor::runArena(const CompositionPlan &Plan, const LayerInputs &Inputs,
                        const GraphStats &Stats, PlanWorkspace &Ws,
                        ExecResult &Result, bool Training) const {
  GRANII_CHECK(Inputs.Features != &Result.Output,
               "arena execution: the result's output aliases the features");
  GRANII_CHECK(!Training || Inputs.Features != &Result.FeatureGrad,
               "arena execution: the result's feature gradient aliases the "
               "features");
  detail::LayoutState &LS = Ws.layoutState();
  const CsrMatrix &Adj = *Inputs.Adjacency;
  if (LS.SourceAdj != &Adj || LS.SourceVersion != Adj.version()) {
    LS = detail::LayoutState();
    LS.SourceAdj = &Adj;
    LS.SourceVersion = Adj.version();
  }
  Ws.configure(Plan, Inputs.binding(&Plan), Training);
  PlanInterpreter Interp(*this, Plan, Inputs, Stats, Ws);
  Interp.forward(Result);
  if (Training) {
    Interp.backward(Result);
  } else {
    // An inference run reports no gradients.
    Result.WeightGrads.clear();
    Result.AttnGrads.clear();
    Result.BackwardProfiles.clear();
  }
}
