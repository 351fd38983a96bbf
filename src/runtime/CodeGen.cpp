//===- CodeGen.cpp - Conditional dispatch code generation --------------------===//

#include "runtime/CodeGen.h"

#include "support/Error.h"

#include <cassert>
#include <functional>

using namespace granii;

namespace {

/// C++ expression for one step's kernel call.
std::string callExprOf(const CompositionPlan &Plan, const PlanStep &Step) {
  auto Arg = [&](int I) { return Plan.valueName(Step.Operands[I]); };

  switch (Step.Op) {
  case StepOp::Gemm:
    return "kernels::gemm(" + Arg(0) + ", " + Arg(1) + ")";
  case StepOp::SpmmWeighted:
    return "kernels::spmm(" + Arg(0) + ", " + Arg(0) + ".values(), " +
           Arg(1) + ")";
  case StepOp::SpmmUnweighted:
    return "kernels::spmm(" + Arg(0) + ", {}, " + Arg(1) + ")";
  case StepOp::SddmmScaleRow:
    return "kernels::scaleSparseRows(" + Arg(1) + ", " + Arg(0) + ")";
  case StepOp::SddmmScaleCol:
    return "kernels::scaleSparseCols(" + Arg(0) + ", " + Arg(1) + ")";
  case StepOp::SddmmScaleBoth:
    return "kernels::scaleSparseBoth(" + Arg(1) + ", " + Arg(0) + ", " +
           Arg(2) + ")";
  case StepOp::RowBcast:
    return "kernels::rowBroadcastMul(" + Arg(0) + ", " + Arg(1) + ")";
  case StepOp::ColBcast:
    return "kernels::colBroadcastMul(" + Arg(0) + ", " + Arg(1) + ")";
  case StepOp::DiagDiag:
    return "diagMul(" + Arg(0) + ", " + Arg(1) + ")";
  case StepOp::AddDense:
    return "kernels::addMatrices(" + Arg(0) + ", " + Arg(1) + ")";
  case StepOp::ScaleDense:
    return "kernels::scaleMatrix(" + Arg(0) + ", " +
           std::to_string(Step.Param) + "f)";
  case StepOp::Relu:
    return "kernels::relu(" + Arg(0) + ")";
  case StepOp::DegreeOffsets:
    return "kernels::degreeFromOffsets(" + Arg(0) + ")";
  case StepOp::DegreeBinning:
    return "kernels::degreeByBinning(" + Arg(0) + ")";
  case StepOp::InvSqrtVec:
    return "kernels::invSqrt(" + Arg(0) + ")";
  case StepOp::InvVec:
    return "kernels::invDegree(" + Arg(0) + ")";
  case StepOp::AttnGemv:
    return "kernels::gemv(" + Arg(0) + ", " + Arg(1) + ")";
  case StepOp::EdgeLogits:
    return "withValues(" + Arg(0) + ", kernels::sddmmAddScalars(" + Arg(0) +
           ", " + Arg(1) + ", " + Arg(2) + "))";
  case StepOp::EdgeLeakyRelu:
    return "withValues(" + Arg(0) + ", kernels::leakyReluEdges(" + Arg(0) +
           ".values(), " + std::to_string(Step.Param) + "f))";
  case StepOp::EdgeSoftmax:
    return "withValues(" + Arg(0) + ", kernels::edgeSoftmax(" + Arg(0) +
           ", " + Arg(0) + ".values()))";
  }
  graniiUnreachable("unknown step op");
}

/// Declared C++ type of a plan value.
const char *typeOf(const PlanValue &Val) {
  switch (Val.Kind) {
  case PlanValueKind::Dense:
    return "DenseMatrix";
  case PlanValueKind::Sparse:
    return "CsrMatrix";
  case PlanValueKind::Diag:
  case PlanValueKind::NodeVec:
    return "std::vector<float>";
  }
  return "auto";
}

/// Destination-passing expression for one step: the `...Into` form the
/// arena-backed interpreter actually runs, writing into \p Ref(Step.Result).
/// Sparse results keep their pattern in the persistent workspace matrix, so
/// only the value array is written.
std::string intoCallExprOf(const PlanStep &Step,
                           const std::function<std::string(int)> &Ref) {
  auto Arg = [&](int I) { return Ref(Step.Operands[I]); };
  std::string Dst = Ref(Step.Result);
  std::string Vals = Dst + ".mutableValues()";

  switch (Step.Op) {
  case StepOp::Gemm:
    return "kernels::gemmInto(" + Arg(0) + ", " + Arg(1) + ", " + Dst + ")";
  case StepOp::SpmmWeighted:
    return "kernels::spmmInto(" + Arg(0) + ", " + Arg(0) + ".values(), " +
           Arg(1) + ", " + Dst + ")";
  case StepOp::SpmmUnweighted:
    return "kernels::spmmInto(" + Arg(0) + ", {}, " + Arg(1) + ", " + Dst +
           ")";
  case StepOp::SddmmScaleRow:
    return "kernels::scaleSparseRowsInto(" + Arg(1) + ", " + Arg(0) + ", " +
           Vals + ")";
  case StepOp::SddmmScaleCol:
    return "kernels::scaleSparseColsInto(" + Arg(0) + ", " + Arg(1) + ", " +
           Vals + ")";
  case StepOp::SddmmScaleBoth:
    return "kernels::scaleSparseBothInto(" + Arg(1) + ", " + Arg(0) + ", " +
           Arg(2) + ", " + Vals + ")";
  case StepOp::RowBcast:
    return "kernels::rowBroadcastMulInto(" + Arg(0) + ", " + Arg(1) + ", " +
           Dst + ")";
  case StepOp::ColBcast:
    return "kernels::colBroadcastMulInto(" + Arg(0) + ", " + Arg(1) + ", " +
           Dst + ")";
  case StepOp::DiagDiag:
    return "diagMulInto(" + Arg(0) + ", " + Arg(1) + ", " + Dst + ")";
  case StepOp::AddDense:
    return "kernels::addMatricesInto(" + Arg(0) + ", " + Arg(1) + ", " +
           Dst + ")";
  case StepOp::ScaleDense:
    return "kernels::scaleMatrixInto(" + Arg(0) + ", " +
           std::to_string(Step.Param) + "f, " + Dst + ")";
  case StepOp::Relu:
    return "kernels::reluInto(" + Arg(0) + ", " + Dst + ")";
  case StepOp::DegreeOffsets:
    return "kernels::degreeFromOffsetsInto(" + Arg(0) + ", " + Dst + ")";
  case StepOp::DegreeBinning:
    return "kernels::degreeByBinningInto(" + Arg(0) + ", " + Dst + ")";
  case StepOp::InvSqrtVec:
    return "kernels::invSqrtInto(" + Arg(0) + ", " + Dst + ")";
  case StepOp::InvVec:
    return "kernels::invDegreeInto(" + Arg(0) + ", " + Dst + ")";
  case StepOp::AttnGemv:
    return "kernels::gemvInto(" + Arg(0) + ", " + Arg(1) + ", " + Dst + ")";
  case StepOp::EdgeLogits:
    return "kernels::sddmmAddScalarsInto(" + Arg(0) + ", " + Arg(1) + ", " +
           Arg(2) + ", " + Vals + ")";
  case StepOp::EdgeLeakyRelu:
    return "kernels::leakyReluEdgesInto(" + Arg(0) + ".values(), " +
           std::to_string(Step.Param) + "f, " + Vals + ")";
  case StepOp::EdgeSoftmax:
    return "kernels::edgeSoftmaxInto(" + Arg(0) + ", " + Arg(0) +
           ".values(), " + Vals + ")";
  }
  graniiUnreachable("unknown step op");
}

/// Workspace struct declaration for \p Buffers: one member per arena slot,
/// one persistent CsrMatrix per produced sparse value, and the planned byte
/// totals as a header comment.
std::string emitWorkspaceDecl(const BufferPlan &Buffers,
                              const std::string &FunctionName) {
  std::string Out;
  Out += "// Planned buffers for " + FunctionName + ": peak " +
         std::to_string(Buffers.peakBytes()) + " B live, arena footprint " +
         std::to_string(Buffers.arenaBytes()) +
         " B (fresh-allocation baseline " +
         std::to_string(Buffers.naiveBytes()) + " B).\n";
  Out += "struct " + FunctionName + "_Workspace {\n";
  for (size_t S = 0; S < Buffers.slots().size(); ++S) {
    const ArenaSlot &Slot = Buffers.slots()[S];
    const char *Type = Slot.Class == BufferClass::DenseSlot
                           ? "DenseMatrix"
                           : "std::vector<float>";
    Out += std::string("  ") + Type + " s" + std::to_string(S) + "; // " +
           std::to_string(Slot.CapacityFloats) + " floats, " +
           (Slot.Pinned ? "pinned" : "shared") + "\n";
  }
  for (size_t V = 0; V < Buffers.values().size(); ++V) {
    const ValueBuffer &VB = Buffers.values()[V];
    if (VB.Class != BufferClass::SparseVals)
      continue;
    Out += "  CsrMatrix sp" + std::to_string(V) +
           "; // persistent pattern + " + std::to_string(VB.Floats) +
           " edge values\n";
  }
  Out += "};\n\n";
  return Out;
}

/// Placement comment for the step defining \p ResultId: which workspace
/// member it writes, and whose storage it reuses. \p SlotLastWriter tracks
/// the previous occupant of each slot across the emission walk.
std::string placementComment(const CompositionPlan &Plan,
                             const BufferPlan &Buffers, int ResultId,
                             std::vector<int> &SlotLastWriter) {
  const ValueBuffer &VB =
      Buffers.values()[static_cast<size_t>(ResultId)];
  std::string Name = "v" + std::to_string(ResultId);
  const std::string &Dbg =
      Plan.Values[static_cast<size_t>(ResultId)].DebugName;
  if (!Dbg.empty())
    Name += " \"" + Dbg + "\"";

  std::string Out = "  // " + Name + " -> ";
  if (VB.Class == BufferClass::SparseVals) {
    Out += "W.sp" + std::to_string(ResultId) + " (values rewritten in place)";
  } else {
    int S = VB.Slot;
    Out += "W.s" + std::to_string(S);
    if (VB.Pinned)
      Out += ", pinned";
    int Prev = SlotLastWriter[static_cast<size_t>(S)];
    if (Prev >= 0)
      Out += ", reuses v" + std::to_string(Prev) + "'s storage (dead after "
             "step " + std::to_string(Buffers.values()[static_cast<size_t>(
                           Prev)].LastUse) + ")";
    SlotLastWriter[static_cast<size_t>(S)] = ResultId;
  }
  return Out + "\n";
}

/// Destination-passing body of generatePlanCode: the emitted code executes
/// against a preplanned workspace exactly like the runtime's arena path.
std::string generateBufferedPlanCode(const CompositionPlan &Plan,
                                     const std::string &FunctionName,
                                     const BufferPlan &Buffers) {
  std::function<std::string(int)> Ref = [&](int Id) -> std::string {
    const PlanValue &Val = Plan.Values[static_cast<size_t>(Id)];
    if (Val.InputRole)
      return Val.DebugName;
    const ValueBuffer &VB = Buffers.values()[static_cast<size_t>(Id)];
    if (VB.Class == BufferClass::SparseVals)
      return "W.sp" + std::to_string(Id);
    return "W.s" + std::to_string(VB.Slot);
  };

  std::vector<int> SlotLastWriter(Buffers.slots().size(), -1);
  std::string Setup, Iter;
  bool AnySetup = false;
  for (const PlanStep &Step : Plan.Steps) {
    std::string Line =
        placementComment(Plan, Buffers, Step.Result, SlotLastWriter) + "  " +
        intoCallExprOf(Step, Ref) + ";\n";
    if (Step.Setup) {
      Setup += Line;
      AnySetup = true;
    } else {
      Iter += Line;
    }
  }

  std::string Out = emitWorkspaceDecl(Buffers, FunctionName);
  if (AnySetup) {
    Out += "// Graph-only computation, hoisted out of the iteration loop;\n";
    Out += "// its results stay pinned in the workspace.\n";
    Out += "void " + FunctionName + "_setup(const Inputs &In, " +
           FunctionName + "_Workspace &W) {\n";
    Out += Setup;
    Out += "}\n\n";
  }
  Out += "DenseMatrix &" + FunctionName + "(const Inputs &In, " +
         FunctionName + "_Workspace &W) {\n";
  Out += Iter;
  Out += "  return " + Ref(Plan.OutputValue) + ";\n}\n";
  return Out;
}

} // namespace

std::string granii::generatePlanCode(const CompositionPlan &Plan,
                                     const std::string &FunctionName,
                                     const BufferPlan *Buffers) {
  if (Buffers)
    return generateBufferedPlanCode(Plan, FunctionName, *Buffers);

  std::string Setup, Iter;
  bool AnySetup = false;
  for (const PlanStep &Step : Plan.Steps) {
    const PlanValue &Result = Plan.Values[static_cast<size_t>(Step.Result)];
    std::string Line = std::string("  ") + typeOf(Result) + " v" +
                       std::to_string(Step.Result) + " = " +
                       callExprOf(Plan, Step) + ";\n";
    if (Step.Setup) {
      Setup += Line;
      AnySetup = true;
    } else {
      Iter += Line;
    }
  }

  std::string Out;
  if (AnySetup) {
    Out += "// Graph-only computation, hoisted out of the iteration loop.\n";
    Out += "SetupState " + FunctionName + "_setup(const Inputs &In) {\n";
    Out += Setup;
    Out += "  return captureSetup();\n}\n\n";
  }
  Out += "DenseMatrix " + FunctionName + "(const Inputs &In";
  if (AnySetup)
    Out += ", const SetupState &S";
  Out += ") {\n";
  Out += Iter;
  Out += "  return v" + std::to_string(Plan.OutputValue) + ";\n}\n";
  return Out;
}

std::string
granii::generateDispatchCode(const std::string &ModelName,
                             const std::vector<CompositionPlan> &Promoted,
                             const DimBinding *Binding) {
  assert(!Promoted.empty() && "nothing to dispatch over");

  // Partition candidates per embedding-size scenario.
  std::vector<size_t> GeOnly, LtOnly, Both;
  for (size_t I = 0; I < Promoted.size(); ++I) {
    if (Promoted[I].ViableGe && Promoted[I].ViableLt)
      Both.push_back(I);
    else if (Promoted[I].ViableGe)
      GeOnly.push_back(I);
    else
      LtOnly.push_back(I);
  }

  auto FnName = [&](size_t I) {
    return ModelName + "_candidate" + std::to_string(I);
  };
  // In destination-passing mode every candidate call threads its persistent
  // workspace through, mirroring the runtime Optimizer's per-plan cache.
  auto CallArgs = [&](size_t I) {
    return Binding ? "(In, W" + std::to_string(I) + ")" : "(In)";
  };

  auto EmitBranch = [&](const std::vector<size_t> &Candidates,
                        const std::string &Indent) {
    std::string Out;
    if (Candidates.size() == 1) {
      // Pure embedding-size condition: no cost models needed (Fig. 7's
      // cheap path).
      Out += Indent + "return " + FnName(Candidates[0]) +
             CallArgs(Candidates[0]) + ";\n";
      return Out;
    }
    Out += Indent + "// Cost-model comparison over the remaining "
                    "candidates.\n";
    Out += Indent + "GraphFeatures F = featurize(In.Graph);\n";
    for (size_t I : Candidates)
      Out += Indent + "double c" + std::to_string(I) + " = " + "planCost_" +
             FnName(I) + "(F, In.KIn, In.KOut, Iterations);\n";
    std::string Min = "std::min({";
    for (size_t J = 0; J < Candidates.size(); ++J) {
      if (J)
        Min += ", ";
      Min += "c" + std::to_string(Candidates[J]);
    }
    Min += "})";
    for (size_t I : Candidates)
      Out += Indent + "if (c" + std::to_string(I) + " == " + Min +
             ") return " + FnName(I) + CallArgs(I) + ";\n";
    return Out;
  };

  std::string Out;
  Out += "// Generated by GRANII for model '" + ModelName + "' (paper "
         "Fig. 7):\n";
  Out += "// " + std::to_string(Promoted.size()) +
         " promoted candidates; size-only conditions where possible.\n";
  if (Binding)
    Out += "// Destination-passing form; buffer arenas planned at the "
           "reference binding\n// N=" +
           std::to_string(Binding->N) + ", E=" + std::to_string(Binding->E) +
           ", KIn=" + std::to_string(Binding->KIn) +
           ", KOut=" + std::to_string(Binding->KOut) +
           " (slot sharing is binding-independent).\n";
  Out += "\n";

  // Candidate bodies come first in destination-passing mode so the
  // dispatcher's static workspaces see complete struct types.
  std::string Candidates;
  for (size_t I = 0; I < Promoted.size(); ++I) {
    if (Binding) {
      BufferPlan Buffers(Promoted[I], *Binding, /*Training=*/false);
      Candidates += generatePlanCode(Promoted[I], FnName(I), &Buffers) + "\n";
    } else {
      Candidates += generatePlanCode(Promoted[I], FnName(I)) + "\n";
    }
  }
  if (Binding)
    Out += Candidates;

  Out += "DenseMatrix " + ModelName + "_forward(const Inputs &In) {\n";
  if (Binding) {
    Out += "  // One persistent workspace per candidate: warm-up allocates, "
           "every\n  // later call runs allocation-free.\n";
    for (size_t I = 0; I < Promoted.size(); ++I)
      Out += "  static " + FnName(I) + "_Workspace W" + std::to_string(I) +
             ";\n";
  }

  std::vector<size_t> GeBranch = GeOnly, LtBranch = LtOnly;
  GeBranch.insert(GeBranch.end(), Both.begin(), Both.end());
  LtBranch.insert(LtBranch.end(), Both.begin(), Both.end());

  Out += "  if (In.KIn >= In.KOut) {\n";
  Out += EmitBranch(GeBranch, "    ");
  Out += "  } else {\n";
  Out += EmitBranch(LtBranch, "    ");
  Out += "  }\n";
  Out += "  __builtin_unreachable();\n";
  Out += "}\n";

  if (!Binding)
    Out += "\n" + Candidates;
  return Out;
}
