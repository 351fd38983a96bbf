//===- CodeGen.cpp - Conditional dispatch code generation --------------------===//

#include "runtime/CodeGen.h"

#include "assoc/Prune.h"
#include "support/Error.h"

#include <algorithm>
#include <cassert>
#include <functional>

using namespace granii;

namespace {

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
    Out += "Ws.sp" + std::to_string(ResultId) + " (values rewritten in place)";
  } else {
    int S = VB.Slot;
    Out += "Ws.s" + std::to_string(S);
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

} // namespace

std::string granii::generatePlanCode(const CompositionPlan &Plan,
                                     const std::string &FunctionName,
                                     const BufferPlan &Buffers) {
  std::function<std::string(int)> Ref = [&](int Id) -> std::string {
    const PlanValue &Val = Plan.Values[static_cast<size_t>(Id)];
    if (Val.InputRole)
      return Val.DebugName;
    const ValueBuffer &VB = Buffers.values()[static_cast<size_t>(Id)];
    if (VB.Class == BufferClass::SparseVals)
      return "Ws.sp" + std::to_string(Id);
    return "Ws.s" + std::to_string(VB.Slot);
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
           FunctionName + "_Workspace &Ws) {\n";
    Out += Setup;
    Out += "}\n\n";
  }
  Out += "DenseMatrix &" + FunctionName + "(const Inputs &In, " +
         FunctionName + "_Workspace &Ws) {\n";
  Out += Iter;
  Out += "  return " + Ref(Plan.OutputValue) + ";\n}\n";
  return Out;
}

std::string
granii::generateDispatchCode(const std::string &ModelName,
                             const std::vector<CompositionPlan> &Promoted) {
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
  // Every candidate call threads its persistent workspace through,
  // mirroring the runtime Optimizer's per-plan cache, and runs the
  // candidate's setup steps first: the interpreter executes them on every
  // call (and charges them once), so their slots are written before the
  // iteration steps read them.
  auto EmitCall = [&](size_t I, const std::string &Indent) {
    std::string Args = "(In, Ws" + std::to_string(I) + ");\n";
    std::string Out;
    if (std::any_of(Promoted[I].Steps.begin(), Promoted[I].Steps.end(),
                    [](const PlanStep &Step) { return Step.Setup; }))
      Out += Indent + FnName(I) + "_setup" + Args;
    return Out + Indent + "return " + FnName(I) + Args;
  };

  auto EmitBranch = [&](const std::vector<size_t> &Candidates,
                        const std::string &Indent) {
    if (Candidates.size() == 1) {
      // Pure embedding-size condition: no cost models needed (Fig. 7's
      // cheap path).
      return EmitCall(Candidates[0], Indent);
    }
    std::string Out;
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
      Out += Indent + "if (c" + std::to_string(I) + " == " + Min + ") {\n" +
             EmitCall(I, Indent + "  ") + Indent + "}\n";
    return Out;
  };

  std::string Out;
  Out += "// Generated by GRANII for model '" + ModelName + "' (paper "
         "Fig. 7):\n";
  Out += "// " + std::to_string(Promoted.size()) +
         " promoted candidates; size-only conditions where possible.\n";
  Out += "// Buffer arenas are planned at the offline stage's scenario "
         "bindings\n// (slot sharing is binding-independent for a fixed "
         "scenario).\n\n";

  // Candidate bodies come first so the dispatcher's static workspaces see
  // complete struct types.
  for (size_t I = 0; I < Promoted.size(); ++I) {
    const DimBinding Binding =
        Promoted[I].ViableGe ? pruneScenarioGe() : pruneScenarioLt();
    Out += generatePlanCode(Promoted[I], FnName(I),
                            BufferPlan(Promoted[I], Binding,
                                       /*Training=*/false)) +
           "\n";
  }

  Out += "DenseMatrix " + ModelName + "_forward(const Inputs &In) {\n";
  Out += "  // One persistent workspace per candidate: warm-up allocates, "
         "every\n  // later call runs allocation-free.\n";
  for (size_t I = 0; I < Promoted.size(); ++I)
    Out += "  static " + FnName(I) + "_Workspace Ws" + std::to_string(I) +
           ";\n";

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
  return Out;
}
