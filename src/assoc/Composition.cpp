//===- Composition.cpp - Primitive composition plans ------------------------===//

#include "assoc/Composition.h"

#include "support/Error.h"

#include <algorithm>
#include <cassert>

using namespace granii;

std::string granii::stepOpName(StepOp Op) {
  switch (Op) {
  case StepOp::Gemm:
    return "gemm";
  case StepOp::SpmmWeighted:
    return "spmm_w";
  case StepOp::SpmmUnweighted:
    return "spmm_u";
  case StepOp::SddmmScaleRow:
    return "scale_row";
  case StepOp::SddmmScaleCol:
    return "scale_col";
  case StepOp::SddmmScaleBoth:
    return "scale_both";
  case StepOp::RowBcast:
    return "row_bcast";
  case StepOp::ColBcast:
    return "col_bcast";
  case StepOp::DiagDiag:
    return "diag_diag";
  case StepOp::AddDense:
    return "add";
  case StepOp::ScaleDense:
    return "scale";
  case StepOp::Relu:
    return "relu";
  case StepOp::DegreeOffsets:
    return "degree_off";
  case StepOp::DegreeBinning:
    return "degree_bin";
  case StepOp::InvSqrtVec:
    return "inv_sqrt";
  case StepOp::InvVec:
    return "inv_deg";
  case StepOp::AttnGemv:
    return "attn_gemv";
  case StepOp::EdgeLogits:
    return "edge_logits";
  case StepOp::EdgeLeakyRelu:
    return "edge_lrelu";
  case StepOp::EdgeSoftmax:
    return "edge_softmax";
  }
  graniiUnreachable("unknown step op");
}

PrimitiveKind granii::primitiveKindOf(StepOp Op) {
  switch (Op) {
  case StepOp::Gemm:
    return PrimitiveKind::Gemm;
  case StepOp::SpmmWeighted:
    return PrimitiveKind::SpMMWeighted;
  case StepOp::SpmmUnweighted:
    return PrimitiveKind::SpMMUnweighted;
  case StepOp::SddmmScaleRow:
  case StepOp::SddmmScaleCol:
  case StepOp::SddmmScaleBoth:
    return PrimitiveKind::SddmmScale;
  case StepOp::RowBcast:
    return PrimitiveKind::RowBroadcast;
  case StepOp::ColBcast:
    return PrimitiveKind::ColBroadcast;
  case StepOp::DiagDiag:
    return PrimitiveKind::DiagMul;
  case StepOp::AddDense:
    return PrimitiveKind::AddDense;
  case StepOp::ScaleDense:
  case StepOp::Relu:
    return PrimitiveKind::DenseMap;
  case StepOp::DegreeOffsets:
    return PrimitiveKind::DegreeOffsets;
  case StepOp::DegreeBinning:
    return PrimitiveKind::DegreeBinning;
  case StepOp::InvSqrtVec:
  case StepOp::InvVec:
    return PrimitiveKind::VectorMap;
  case StepOp::AttnGemv:
    return PrimitiveKind::Gemv;
  case StepOp::EdgeLogits:
    return PrimitiveKind::SddmmDot;
  case StepOp::EdgeLeakyRelu:
    return PrimitiveKind::EdgeElementwise;
  case StepOp::EdgeSoftmax:
    return PrimitiveKind::EdgeSoftmax;
  }
  graniiUnreachable("unknown step op");
}

std::string CompositionPlan::canonicalKey() const {
  // Expression string per value, memoized; CSE-shared values contribute the
  // same substring so structurally equal plans (regardless of the order in
  // which independent steps were emitted) collide.
  std::vector<std::string> Expr(Values.size());
  for (size_t V = 0; V < Values.size(); ++V)
    if (Values[V].InputRole)
      Expr[V] = Values[V].DebugName;
  for (const PlanStep &Step : Steps) {
    std::string E = stepOpName(Step.Op);
    if (Step.Op == StepOp::ScaleDense || Step.Op == StepOp::EdgeLeakyRelu)
      E += "[" + std::to_string(Step.Param) + "]";
    E += "(";
    for (size_t I = 0; I < Step.Operands.size(); ++I) {
      if (I != 0)
        E += ",";
      E += Expr[static_cast<size_t>(Step.Operands[I])];
    }
    E += ")";
    Expr[static_cast<size_t>(Step.Result)] = std::move(E);
  }
  assert(OutputValue >= 0 && "plan has no output");
  return Expr[static_cast<size_t>(OutputValue)];
}

std::string CompositionPlan::valueName(int Id) const {
  const PlanValue &Val = Values[static_cast<size_t>(Id)];
  return Val.InputRole ? Val.DebugName : "v" + std::to_string(Id);
}

std::string CompositionPlan::toString() const {
  std::string Out = Name + ":\n";
  for (const PlanStep &Step : Steps) {
    Out += "  " + valueName(Step.Result) + " = " + stepOpName(Step.Op) + "(";
    for (size_t I = 0; I < Step.Operands.size(); ++I) {
      if (I != 0)
        Out += ", ";
      Out += valueName(Step.Operands[I]);
    }
    Out += ")";
    if (Step.Setup)
      Out += "  [setup]";
    Out += "\n";
  }
  Out += "  output: " + valueName(OutputValue) + "\n";
  return Out;
}

std::vector<PrimitiveDesc>
CompositionPlan::primitiveDescs(const DimBinding &Binding) const {
  std::vector<PrimitiveDesc> Descs;
  Descs.reserve(Steps.size());
  auto Rows = [&](int Id) {
    return Binding.eval(Values[static_cast<size_t>(Id)].Shape.Rows);
  };
  auto Cols = [&](int Id) {
    return Binding.eval(Values[static_cast<size_t>(Id)].Shape.Cols);
  };
  for (const PlanStep &Step : Steps) {
    PrimitiveDesc D;
    D.Kind = primitiveKindOf(Step.Op);
    switch (Step.Op) {
    case StepOp::Gemm:
      D.Rows = Rows(Step.Operands[0]);
      D.Inner = Cols(Step.Operands[0]);
      D.Cols = Cols(Step.Operands[1]);
      break;
    case StepOp::SpmmWeighted:
    case StepOp::SpmmUnweighted:
      D.Rows = Rows(Step.Operands[0]);
      D.Cols = Cols(Step.Operands[1]);
      D.Nnz = Binding.E;
      break;
    case StepOp::SddmmScaleRow:
    case StepOp::SddmmScaleCol:
      D.Rows = Rows(Step.Operands[0]);
      D.Nnz = Binding.E;
      D.Inner = 1;
      break;
    case StepOp::SddmmScaleBoth:
      // One pass over the edge values, like the one-sided scalings; these
      // kernels are memory bound, so Inner stays 1 and the fused form's
      // multiset is a strict subset of the two-pass {row, col} pair, which
      // lets the offline subset rule prune the unfused variants.
      D.Rows = Rows(Step.Operands[0]);
      D.Nnz = Binding.E;
      D.Inner = 1;
      break;
    case StepOp::RowBcast:
      D.Rows = Rows(Step.Operands[1]);
      D.Cols = Cols(Step.Operands[1]);
      break;
    case StepOp::ColBcast:
      D.Rows = Rows(Step.Operands[0]);
      D.Cols = Cols(Step.Operands[0]);
      break;
    case StepOp::DiagDiag:
    case StepOp::InvSqrtVec:
    case StepOp::InvVec:
      D.Rows = Rows(Step.Operands[0]);
      break;
    case StepOp::AddDense:
    case StepOp::ScaleDense:
    case StepOp::Relu:
      D.Rows = Rows(Step.Operands[0]);
      D.Cols = Cols(Step.Operands[0]);
      break;
    case StepOp::DegreeOffsets:
    case StepOp::DegreeBinning:
      D.Rows = Rows(Step.Operands[0]);
      D.Nnz = Binding.E;
      break;
    case StepOp::AttnGemv:
      D.Rows = Rows(Step.Operands[0]);
      D.Inner = Cols(Step.Operands[0]);
      D.Cols = 1;
      break;
    case StepOp::EdgeLogits:
      D.Rows = Rows(Step.Operands[0]);
      D.Nnz = Binding.E;
      D.Inner = 1;
      break;
    case StepOp::EdgeLeakyRelu:
    case StepOp::EdgeSoftmax:
      D.Rows = Rows(Step.Operands[0]);
      D.Nnz = Binding.E;
      break;
    }
    Descs.push_back(D);
  }
  return Descs;
}

double CompositionPlan::flopCost(const DimBinding &Binding,
                                 int Iterations) const {
  std::vector<PrimitiveDesc> Descs = primitiveDescs(Binding);
  double Total = 0.0;
  for (size_t I = 0; I < Steps.size(); ++I) {
    double Mult = Steps[I].Setup ? 1.0 : static_cast<double>(Iterations);
    Total += Mult * Descs[I].flops();
  }
  return Total;
}

std::vector<std::string>
CompositionPlan::primitiveMultiset(const DimBinding &Binding) const {
  std::vector<std::string> Items;
  std::vector<PrimitiveDesc> Descs = primitiveDescs(Binding);
  for (const PrimitiveDesc &D : Descs)
    Items.push_back(D.toString());
  std::sort(Items.begin(), Items.end());
  return Items;
}

void CompositionPlan::verify() const {
  std::vector<bool> Defined(Values.size(), false);
  for (size_t V = 0; V < Values.size(); ++V)
    if (Values[V].InputRole)
      Defined[V] = true;
  for (const PlanStep &Step : Steps) {
    for (int Id : Step.Operands) {
      if (Id < 0 || static_cast<size_t>(Id) >= Values.size())
        GRANII_FATAL("plan operand id out of range");
      if (!Defined[static_cast<size_t>(Id)])
        GRANII_FATAL("plan operand used before definition");
    }
    if (Step.Result < 0 || static_cast<size_t>(Step.Result) >= Values.size())
      GRANII_FATAL("plan result id out of range");
    if (Defined[static_cast<size_t>(Step.Result)])
      GRANII_FATAL("plan value defined twice");
    Defined[static_cast<size_t>(Step.Result)] = true;
  }
  if (OutputValue < 0 || static_cast<size_t>(OutputValue) >= Values.size() ||
      !Defined[static_cast<size_t>(OutputValue)])
    GRANII_FATAL("plan output undefined");
}
