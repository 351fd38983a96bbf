//===- Executor.cpp - Composition plan execution -----------------------------===//

#include "runtime/Executor.h"

#include "kernels/Kernels.h"
#include "support/Error.h"
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

ValueLabel granii::valueLabel(const CompositionPlan &Plan,
                              const DimBinding &Binding, int Id) {
  const std::string Nnz = "nnz=" + std::to_string(Binding.E);
  if (Id < 0)
    return {"csc", Nnz};
  const PlanValue &Def = Plan.Values[static_cast<size_t>(Id)];
  const std::string Rows = std::to_string(Binding.eval(Def.Shape.Rows));
  // An attention vector leaf is bound as a node vector of its row count.
  const bool Vector = Def.Kind == PlanValueKind::Diag ||
                      Def.Kind == PlanValueKind::NodeVec ||
                      Def.InputRole == LeafRole::AttnSrcVec ||
                      Def.InputRole == LeafRole::AttnDstVec;
  if (Def.Kind == PlanValueKind::Sparse)
    return {Plan.valueName(Id), Nnz};
  if (Vector)
    return {Plan.valueName(Id), Rows};
  return {Plan.valueName(Id),
          Rows + "x" + std::to_string(Binding.eval(Def.Shape.Cols))};
}

//===----------------------------------------------------------------------===//
// PlanWorkspace
//===----------------------------------------------------------------------===//

bool PlanWorkspace::configure(const CompositionPlan &PlanIn,
                              const DimBinding &B, bool TrainingIn) {
  if (Buffers && Plan == &PlanIn && Training == TrainingIn &&
      Binding.N == B.N && Binding.KIn == B.KIn && Binding.KOut == B.KOut &&
      Binding.E == B.E)
    return false;
  Plan = &PlanIn;
  Binding = B;
  Training = TrainingIn;
  Buffers.emplace(PlanIn, B, TrainingIn);
  Descs = PlanIn.primitiveDescs(B);
  // Presize every slot to its planned capacity so the first run's resizes
  // already fit; growth from here on is a planning bug the counter exposes,
  // and a span into a grown slot would dangle. The output's slot is pinned
  // (never shared) and stays empty: the final step writes the caller's
  // ExecResult::Output instead.
  const std::vector<ArenaSlot> &Sl = Buffers->slots();
  const int OutputSlot =
      Buffers->values()[static_cast<size_t>(PlanIn.OutputValue)].Slot;
  Slots.resize(Sl.size());
  for (size_t S = 0; S < Sl.size(); ++S)
    if (static_cast<int>(S) != OutputSlot)
      Slots[S].reserveFloats(static_cast<size_t>(Sl[S].CapacityFloats));
  Scratch.resize(PlanIn.Values.size());
  return true;
}

DenseMatrix &PlanWorkspace::denseFor(const ValueBuffer &B, int64_t Rows,
                                     int64_t Cols) {
  assert(B.Slot >= 0 && "buffer has no slot");
  DenseMatrix &M = Slots[static_cast<size_t>(B.Slot)];
  size_t Cap = M.capacityFloats();
  M.resize(Rows, Cols);
  if (M.capacityFloats() != Cap)
    ++Allocations;
  return M;
}

std::span<float> PlanWorkspace::floatsFor(const ValueBuffer &B) {
  DenseMatrix &M = denseFor(B, 1, B.Floats);
  return {M.data(), static_cast<size_t>(B.Floats)};
}

//===----------------------------------------------------------------------===//
// Executor
//===----------------------------------------------------------------------===//

Executor::Executor(HardwareModel Hw) : Hw(std::move(Hw)) {}

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

using detail::RtValue;

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
  /// Runs step \p StepIdx's kernel, storing value \p Target with \p Epi
  /// applied (a GEMM/SpMM producer's fused chain; empty otherwise), and
  /// \returns its charge.
  double runKernel(size_t StepIdx, int Target,
                   const kernels::RowEpilogue &Epi);

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
    DenseMatrix &M = Ws.denseFor(buffers().values()[static_cast<size_t>(Id)],
                                 Rows, Cols);
    Out.Dense = &M;
    return M;
  }
  /// A node vector's or edge array's slot, bound as value \p Id.
  std::span<float> dstFloats(int Id) {
    std::span<float> F =
        Ws.floatsFor(buffers().values()[static_cast<size_t>(Id)]);
    RtValue &Out = val(Id);
    (Out.Kind == PlanValueKind::Sparse ? Out.Edges : Out.Vec) = F;
    return F;
  }

  /// The pattern of every sparse value: the bound adjacency's.
  const CsrMatrix &adjacency() const { return *Inputs.Adjacency; }

  /// The workspace's buffer plan: where every value and gradient lives.
  const BufferPlan &buffers() const { return *Ws.bufferPlan(); }

  /// Rows and columns of dense value \p Id: a bound input's, or the planned
  /// shape of a produced value. The backward pass asks the plan, since a
  /// dead value's slot may hold another buffer by then.
  std::pair<int64_t, int64_t> shapeOf(int Id) {
    if (Plan.Values[static_cast<size_t>(Id)].InputRole) {
      const DenseMatrix &M = val(Id).dense();
      return {M.rows(), M.cols()};
    }
    const ValueBuffer &B = buffers().values()[static_cast<size_t>(Id)];
    return {B.Rows, B.Cols};
  }

  double charge(size_t StepIdx, FunctionRef<void()> Body) {
    return Exec.timeKernel(Ws.descs()[StepIdx], Stats, Body);
  }

  /// The fused chain of step \p StepIdx under the workspace's buffer plan:
  /// its steps go into \p Epi, in plan order, with the scale vectors bound
  /// in this run. \returns the value the step stores (its own result when
  /// no chain follows it, as for every step but a GEMM or SpMM).
  int epilogueOf(size_t StepIdx, kernels::RowEpilogue &Epi) {
    const std::vector<int> &Into = buffers().fusedInto();
    int Target = Plan.Steps[StepIdx].Result;
    for (size_t S = StepIdx + 1; S < Plan.Steps.size(); ++S) {
      if (Into[S] != static_cast<int>(StepIdx))
        continue;
      const PlanStep &Step = Plan.Steps[S];
      const bool Scale = Step.Op == StepOp::RowBcast;
      const bool Pushed =
          Epi.push(Scale ? kernels::RowEpilogue::OpKind::Scale
                         : kernels::RowEpilogue::OpKind::Relu,
                   Scale ? val(Step.Operands[0]).vec()
                         : std::span<const float>());
      assert(Pushed && "fused chain longer than an epilogue");
      (void)Pushed;
      Target = Step.Result;
    }
    return Target;
  }

  /// Charges one backward primitive \p Op (a static name: "bwd:<op>", or
  /// SeedOpName) of forward step \p Step (-1 for the seed) that writes the
  /// gradient of value \p Target (-1: the layout's CSC), records it in
  /// Result.BackwardProfiles and traces it under its name with the counters
  /// of a forward step.
  double chargeBackward(const char *Op, int64_t Step, int Target,
                        const PrimitiveDesc &Desc, ExecResult &Result,
                        FunctionRef<void()> Body) {
    TraceSpan Span(Op, "executor");
    StepProfile P;
    P.Step = Step;
    P.Value = Target;
    P.Op = Op;
    P.Seconds = Exec.timeKernel(Desc, Stats, Body);
    P.Flops = Desc.flops();
    P.Bytes = Desc.bytes();
    Result.BackwardProfiles.push_back(P);
    if (Span.active()) {
      if (Step >= 0)
        Span.setArg("step", static_cast<double>(Step));
      setSpanArgs(Span, "grad_of", P);
    }
    return P.Seconds;
  }
  double chargeBackward(const PlanStep &Step, int Target,
                        const PrimitiveDesc &Desc, ExecResult &Result,
                        FunctionRef<void()> Body) {
    return chargeBackward(backwardOpName(Step.Op), &Step - Plan.Steps.data(),
                          Target, Desc, Result, Body);
  }

  /// Annotates \p Span with record \p P: its value (under \p ValueKey),
  /// shape and counters. Builds strings, so only for an active span.
  void setSpanArgs(TraceSpan &Span, const char *ValueKey,
                   const StepProfile &P) {
    const ValueLabel Label = valueLabel(Plan, Ws.binding(), P.Value);
    Span.setArg(ValueKey, Label.Name);
    Span.setArg("shape", Label.Shape);
    Span.setArg("charged_seconds", P.Seconds);
    Span.setArg("flops", P.Flops);
    Span.setArg("bytes", P.Bytes);
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
    V.Edges = Inputs.Adjacency->values();
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
    V.Vec = *It->second;
    V.Kind = PlanValueKind::NodeVec;
    return;
  }
  case LeafRole::DegreeNorm:
  case LeafRole::DegreeInv:
    GRANII_FATAL("degree normalizations are derived, never direct inputs");
  }
}

double PlanInterpreter::runKernel(size_t StepIdx, int Target,
                                  const kernels::RowEpilogue &Epi) {
  const PlanStep &Step = Plan.Steps[StepIdx];
  auto Op = [&](int I) -> RtValue & { return val(Step.Operands[I]); };

  double Seconds = 0.0;
  // granii-noalloc-begin: the step dispatch is the steady-state hot path;
  // destination buffers come pre-planned from the workspace (dstDense /
  // dstFloats), so nothing here may allocate.
  switch (Step.Op) {
  case StepOp::Gemm:
    Seconds = charge(StepIdx, [&] {
      const DenseMatrix &A = Op(0).dense();
      const DenseMatrix &B = Op(1).dense();
      kernels::gemmInto(A, B, dstDense(Target, A.rows(), B.cols()), &Epi);
    });
    break;
  case StepOp::SpmmWeighted:
    Seconds = charge(StepIdx, [&] {
      const CsrMatrix &A = adjacency();
      const DenseMatrix &B = Op(1).dense();
      kernels::spmmInto(A, Op(0).edges(), B,
                        dstDense(Target, A.rows(), B.cols()), &Epi);
    });
    break;
  case StepOp::SpmmUnweighted:
    Seconds = charge(StepIdx, [&] {
      const CsrMatrix &A = adjacency();
      const DenseMatrix &B = Op(1).dense();
      kernels::spmmInto(A, {}, B, dstDense(Target, A.rows(), B.cols()), &Epi);
    });
    break;
  case StepOp::SddmmScaleRow:
    Seconds = charge(StepIdx, [&] {
      kernels::scaleSparseRowsInto(adjacency(), Op(1).edges(), Op(0).vec(),
                                   dstFloats(Step.Result));
    });
    break;
  case StepOp::SddmmScaleCol:
    Seconds = charge(StepIdx, [&] {
      kernels::scaleSparseColsInto(adjacency(), Op(0).edges(), Op(1).vec(),
                                   dstFloats(Step.Result));
    });
    break;
  case StepOp::SddmmScaleBoth:
    Seconds = charge(StepIdx, [&] {
      kernels::scaleSparseBothInto(adjacency(), Op(1).edges(), Op(0).vec(),
                                   Op(2).vec(), dstFloats(Step.Result));
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
      std::span<const float> L = Op(0).vec();
      std::span<const float> R = Op(1).vec();
      std::span<float> O = dstFloats(Step.Result);
      for (size_t I = 0; I < O.size(); ++I)
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
      kernels::degreeFromOffsetsInto(adjacency(), dstFloats(Step.Result));
    });
    break;
  case StepOp::DegreeBinning:
    Seconds = charge(StepIdx, [&] {
      kernels::degreeByBinningInto(adjacency(), dstFloats(Step.Result));
    });
    break;
  case StepOp::InvSqrtVec:
    Seconds = charge(StepIdx, [&] {
      kernels::invSqrtInto(Op(0).vec(), dstFloats(Step.Result));
    });
    break;
  case StepOp::InvVec:
    Seconds = charge(StepIdx, [&] {
      kernels::invDegreeInto(Op(0).vec(), dstFloats(Step.Result));
    });
    break;
  case StepOp::AttnGemv:
    Seconds = charge(StepIdx, [&] {
      kernels::gemvInto(Op(0).dense(), Op(1).vec(), dstFloats(Step.Result));
    });
    break;
  case StepOp::EdgeLogits:
    Seconds = charge(StepIdx, [&] {
      kernels::sddmmAddScalarsInto(adjacency(), Op(1).vec(), Op(2).vec(),
                                   dstFloats(Step.Result));
    });
    break;
  case StepOp::EdgeLeakyRelu:
    Seconds = charge(StepIdx, [&] {
      std::span<const float> In = Op(0).edges();
      if (!In.empty())
        kernels::leakyReluEdgesInto(In, static_cast<float>(Step.Param),
                                    dstFloats(Step.Result));
      else
        val(Step.Result).Edges = {}; // unweighted in, unweighted out
    });
    break;
  case StepOp::EdgeSoftmax:
    Seconds = charge(StepIdx, [&] {
      kernels::edgeSoftmaxInto(adjacency(), Op(0).edges(),
                               dstFloats(Step.Result));
    });
    break;
  }
  // granii-noalloc-end

  return Seconds;
}

void PlanInterpreter::execStep(size_t StepIdx, ExecResult &Result) {
  const PlanStep &Step = Plan.Steps[StepIdx];
  // One span per executed plan step, annotated with the step's record.
  TraceSpan Span(stepOpName(Step.Op), "executor");
  val(Step.Result).Kind = Plan.Values[static_cast<size_t>(Step.Result)].Kind;

  // granii-noalloc-begin: the fused chain lives on the stack.
  // A step a fused chain absorbed runs no kernel: its producer applied it.
  // It is still charged, with an empty body: about nothing where time is
  // measured (the work sits in the producer's time), the step's analytic
  // estimate on a simulated platform. A GEMM/SpMM producer applies its
  // chain to its accumulators before its one store and writes the chain's
  // last value.
  const int FusedInto = buffers().fusedInto()[StepIdx];
  kernels::RowEpilogue Epi;
  const int Target = FusedInto < 0 ? epilogueOf(StepIdx, Epi) : Step.Result;
  const double Seconds = FusedInto >= 0 ? charge(StepIdx, [] {})
                                        : runKernel(StepIdx, Target, Epi);
  // granii-noalloc-end

  StepProfile &P = Result.StepProfiles[StepIdx];
  P.Step = static_cast<int64_t>(StepIdx);
  P.Value = Step.Result;
  P.Op = stepOpName(Step.Op);
  P.Setup = Step.Setup;
  P.Seconds = Seconds;
  P.Flops = Ws.descs()[StepIdx].flops();
  P.Bytes = Ws.descs()[StepIdx].bytes();
  P.FusedInto = FusedInto;
  if (Step.Setup)
    Result.SetupSeconds += Seconds;
  else
    Result.ForwardSeconds += Seconds;

  if (!Span.active())
    return;
  setSpanArgs(Span, "value", P);
  if (P.Setup)
    Span.setArg("setup", 1.0);
  if (FusedInto >= 0)
    Span.setArg("fused_into", static_cast<double>(FusedInto));
  if (Epi.Count > 0) {
    std::string Chain;
    for (size_t S = StepIdx + 1; S < Plan.Steps.size(); ++S)
      if (buffers().fusedInto()[S] == static_cast<int>(StepIdx))
        Chain += std::string(Chain.empty() ? "" : ",") +
                 stepOpName(Plan.Steps[S].Op);
    Span.setArg("epilogue", Chain);
  }
}

void PlanInterpreter::forward(ExecResult &Result) {
  TraceSpan Span("forward", "executor");
  OutputDst = &Result.Output;
  Result.SetupSeconds = 0.0;
  Result.ForwardSeconds = 0.0;
  Result.BackwardSeconds = 0.0;
  Result.StepProfiles.resize(Plan.Steps.size());

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
  const BufferPlan &BP = buffers();
  const std::vector<bool> &Need = BP.gradPath();
  std::vector<RtValue> &Values = Ws.scratch();
  Result.BackwardProfiles.clear();

  // Every gradient has a slot of the buffer plan, which keeps it apart from
  // every buffer live beside it (but the source an element-wise step writes
  // it over in place), so a steady-state run allocates none of them. The
  // kernels add each contribution straight into its gradient. Parameter
  // gradients accumulate into the caller's result, which owns them as it
  // owns Output, the feature gradient included.
  auto Caller = [&](int Id) {
    return BP.grads()[static_cast<size_t>(Id)].Class ==
           BufferClass::InputAlias;
  };
  // The slot of produced value Id's gradient, shaped as the value. A slot
  // reshaped within its capacity neither allocates nor loses its contents.
  auto DenseSlot = [&](int Id) -> DenseMatrix & {
    const ValueBuffer &G = BP.grads()[static_cast<size_t>(Id)];
    return Ws.denseFor(G, G.Rows, G.Cols);
  };
  // The same for a node vector's or edge array's gradient.
  auto FloatsSlot = [&](int Id) {
    return Ws.floatsFor(BP.grads()[static_cast<size_t>(Id)]);
  };

  // Marks value Id's gradient written in this run and \returns whether this
  // is its first contribution: the kernels then write 0 + x instead of
  // adding, which is what adding into zeros gives, so nothing is zeroed (a
  // slot may still hold the bytes of the buffer it held before).
  auto Contribute = [&](int Id) {
    bool &Present = Values[static_cast<size_t>(Id)].GradPresent;
    const bool First = !Present;
    Present = true;
    return First;
  };
  // The gradient of value Id for one more contribution, \p First as above;
  // a caller-held gradient is shaped on the first.
  auto DenseGrad = [&](int Id, bool &First) -> DenseMatrix & {
    First = Contribute(Id);
    if (!Caller(Id))
      return DenseSlot(Id);
    const PlanValue &Val = Plan.Values[static_cast<size_t>(Id)];
    DenseMatrix &Acc = Val.InputRole == LeafRole::Weight
                           ? Result.WeightGrads[Val.DebugName]
                           : Result.FeatureGrad;
    if (First) {
      const auto [Rows, Cols] = shapeOf(Id);
      Acc.resize(Rows, Cols);
    }
    return Acc;
  };
  // The same for a node vector or edge array; the caller holds an
  // attention vector's.
  auto FloatsGrad = [&](int Id, bool &First) -> std::span<float> {
    First = Contribute(Id);
    if (!Caller(Id))
      return FloatsSlot(Id);
    std::vector<float> &Acc =
        Result.AttnGrads[Plan.Values[static_cast<size_t>(Id)].DebugName];
    if (First)
      Acc.resize(Values[static_cast<size_t>(Id)].vec().size());
    return Acc;
  };
  // Adds Alpha * X into value Id's dense gradient, which has X's shape.
  auto AddDense = [&](int Id, float Alpha, const DenseMatrix &X) {
    bool First;
    DenseMatrix &Acc = DenseGrad(Id, First);
    kernels::accumulateInto(Alpha, {X.data(), static_cast<size_t>(X.size())},
                            {Acc.data(), static_cast<size_t>(Acc.size())},
                            First);
  };
  // The store of a kernel that adds its contribution into a gradient.
  auto StoreFor = [](bool First) {
    return First ? kernels::Store::First : kernels::Store::Add;
  };

  // Seed dL/dOut = 1, the first backward record.
  double Backward = 0.0;
  {
    const auto [Rows, Cols] = shapeOf(Plan.OutputValue);
    PrimitiveDesc D{PrimitiveKind::DenseMap, Rows, Cols, 0, 0};
    Backward += chargeBackward(SeedOpName, -1, Plan.OutputValue, D, Result,
                               [&] {
                                 bool First;
                                 DenseMatrix &Seed =
                                     DenseGrad(Plan.OutputValue, First);
                                 kernels::fill(
                                     1.0f, {Seed.data(),
                                            static_cast<size_t>(Seed.size())});
                               });
  }

  for (size_t SI = Plan.Steps.size(); SI-- > 0;) {
    const PlanStep &Step = Plan.Steps[SI];
    if (!Values[static_cast<size_t>(Step.Result)].GradPresent)
      continue;
    // The gradient of the step's result, as its contributions left it.
    auto OutDense = [&]() -> const DenseMatrix & {
      return DenseSlot(Step.Result);
    };
    auto OutFloats = [&]() -> std::span<const float> {
      return FloatsSlot(Step.Result);
    };
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
      const DenseMatrix &DY = OutDense();
      const auto [ARows, ACols] = shapeOf(OpId(0));
      const int64_t BCols = shapeOf(OpId(1)).second;
      if (NeedOp(0)) {
        PrimitiveDesc D{PrimitiveKind::Gemm, ARows, ACols, BCols, 0};
        Charge(OpId(0), D, [&] {
          bool First;
          DenseMatrix &DA = DenseGrad(OpId(0), First);
          kernels::gemmTransposedRhsInto(DY, OpVal(1).dense(), DA,
                                         StoreFor(First));
        });
      }
      if (NeedOp(1)) {
        PrimitiveDesc D{PrimitiveKind::Gemm, ACols, BCols, ARows, 0};
        Charge(OpId(1), D, [&] {
          bool First;
          DenseMatrix &DB = DenseGrad(OpId(1), First);
          kernels::gemmTransposedLhsInto(OpVal(0).dense(), DY, DB,
                                         StoreFor(First));
        });
      }
      break;
    }
    case StepOp::SpmmWeighted:
    case StepOp::SpmmUnweighted: {
      const CsrMatrix &S = adjacency();
      const DenseMatrix &DY = OutDense();
      const int64_t XCols = shapeOf(OpId(1)).second;
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
                        S.cols(), XCols, 0, S.nnz()};
        Charge(OpId(1), D, [&] {
          bool First;
          DenseMatrix &DX = DenseGrad(OpId(1), First);
          std::span<const float> Vals;
          if (Step.Op == StepOp::SpmmWeighted)
            Vals = OpVal(0).edges();
          kernels::spmmCscTransposedInto(Csc, Vals, DY, DX, StoreFor(First));
        });
      }
      if (NeedOp(0)) {
        // dS_ij += dY_i . X_j (SDDMM at the sparse pattern).
        PrimitiveDesc D{PrimitiveKind::SddmmDot, S.rows(), 0, XCols,
                        S.nnz()};
        Charge(OpId(0), D, [&] {
          bool First;
          std::span<float> DS = FloatsGrad(OpId(0), First);
          kernels::sddmmInto(S, DY, OpVal(1).dense(), DS, StoreFor(First));
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
        const DenseMatrix &DY = OutDense();
        PrimitiveDesc D{PrimitiveKind::RowBroadcast, DY.rows(), DY.cols(), 0,
                        0};
        Charge(OpId(1), D, [&] {
          bool First;
          DenseMatrix &DH = DenseGrad(OpId(1), First);
          kernels::rowBroadcastMulInto(OpVal(0).vec(), DY, DH,
                                       StoreFor(First));
        });
      }
      break;
    }
    case StepOp::ColBcast: {
      if (NeedOp(0)) {
        const DenseMatrix &DY = OutDense();
        PrimitiveDesc D{PrimitiveKind::ColBroadcast, DY.rows(), DY.cols(), 0,
                        0};
        Charge(OpId(0), D, [&] {
          bool First;
          DenseMatrix &DH = DenseGrad(OpId(0), First);
          kernels::colBroadcastMulInto(DY, OpVal(1).vec(), DH,
                                       StoreFor(First));
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
      const DenseMatrix &DY = OutDense();
      PrimitiveDesc D{PrimitiveKind::AddDense, DY.rows(), DY.cols(), 0, 0};
      for (int I = 0; I < 2; ++I)
        if (NeedOp(I))
          Charge(OpId(I), D, [&] { AddDense(OpId(I), 1.0f, DY); });
      break;
    }
    case StepOp::ScaleDense: {
      if (NeedOp(0)) {
        const DenseMatrix &DY = OutDense();
        PrimitiveDesc D{PrimitiveKind::DenseMap, DY.rows(), DY.cols(), 0, 0};
        Charge(OpId(0), D, [&] {
          AddDense(OpId(0), static_cast<float>(Step.Param), DY);
        });
      }
      break;
    }
    case StepOp::Relu: {
      // The mask of the output, which the step or its fused producer
      // stored: the input may have stayed in registers.
      if (NeedOp(0)) {
        const DenseMatrix &DY = OutDense();
        PrimitiveDesc D{PrimitiveKind::DenseMap, DY.rows(), DY.cols(), 0, 0};
        Charge(OpId(0), D, [&] {
          bool First;
          DenseMatrix &Acc = DenseGrad(OpId(0), First);
          kernels::reluBackwardAccumulateInto(
              Values[static_cast<size_t>(Step.Result)].dense(), DY, Acc,
              First);
        });
      }
      break;
    }
    case StepOp::AttnGemv: {
      std::span<const float> DY = OutFloats();
      const auto [Rows, Cols] = shapeOf(OpId(0));
      if (NeedOp(0)) {
        PrimitiveDesc D{PrimitiveKind::Gemm, Rows, Cols, 1, 0};
        Charge(OpId(0), D, [&] {
          bool First;
          DenseMatrix &DTheta = DenseGrad(OpId(0), First);
          kernels::attnThetaGradInto(DY, OpVal(1).vec(), DTheta, First);
        });
      }
      if (NeedOp(1)) {
        PrimitiveDesc D{PrimitiveKind::Gemv, Rows, 0, Cols, 0};
        Charge(OpId(1), D, [&] {
          bool First;
          std::span<float> DA = FloatsGrad(OpId(1), First);
          kernels::attnVecGradInto(OpVal(0).dense(), DY, DA, First);
        });
      }
      break;
    }
    case StepOp::EdgeLogits: {
      const CsrMatrix &Mask = adjacency();
      std::span<const float> DY = OutFloats();
      PrimitiveDesc D{PrimitiveKind::EdgeElementwise, Mask.rows(), 0, 0,
                      Mask.nnz()};
      if (NeedOp(1)) {
        Charge(OpId(1), D, [&] {
          bool First;
          std::span<float> DSrc = FloatsGrad(OpId(1), First);
          kernels::edgeRowSumInto(Mask, DY, DSrc, First);
        });
      }
      if (NeedOp(2)) {
        // Each destination's sum walks its column of the bound adjacency's
        // CSC, whose entries come in ascending edge order.
        const CscMatrix &Csc = boundCsc(Step, Result, Backward);
        Charge(OpId(2), D, [&] {
          bool First;
          std::span<float> DDst = FloatsGrad(OpId(2), First);
          kernels::edgeColSumInto(Csc, DY, DDst, First);
        });
      }
      break;
    }
    case StepOp::EdgeLeakyRelu: {
      if (NeedOp(0)) {
        const CsrMatrix &In = adjacency();
        std::span<const float> DY = OutFloats();
        PrimitiveDesc D{PrimitiveKind::EdgeElementwise, In.rows(), 0, 0,
                        In.nnz()};
        Charge(OpId(0), D, [&] {
          bool First;
          std::span<float> DIn = FloatsGrad(OpId(0), First);
          kernels::leakyReluEdgesBackwardInto(OpVal(0).edges(), DY,
                                              static_cast<float>(Step.Param),
                                              DIn, First);
        });
      }
      break;
    }
    case StepOp::EdgeSoftmax: {
      if (NeedOp(0)) {
        const CsrMatrix &A = adjacency();
        std::span<const float> DY = OutFloats();
        std::span<const float> Alpha =
            Values[static_cast<size_t>(Step.Result)].edges();
        PrimitiveDesc D{PrimitiveKind::EdgeSoftmax, A.rows(), 0, 0, A.nnz()};
        Charge(OpId(0), D, [&] {
          bool First;
          std::span<float> DIn = FloatsGrad(OpId(0), First);
          kernels::edgeSoftmaxBackwardInto(A, Alpha, DY, DIn, First);
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
          Values[V].GradPresent)
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
  if (!LS.builtFrom(Adj)) {
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
