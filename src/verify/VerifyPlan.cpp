//===- VerifyPlan.cpp - Composition-plan verification -----------------------===//

#include "verify/VerifyPlan.h"

#include "assoc/Prune.h"

using namespace granii;

namespace {

const char *kindName(PlanValueKind Kind) {
  switch (Kind) {
  case PlanValueKind::Dense:
    return "dense";
  case PlanValueKind::Sparse:
    return "sparse";
  case PlanValueKind::Diag:
    return "diag";
  case PlanValueKind::NodeVec:
    return "nodevec";
  }
  return "?";
}

/// Expected operand/result typing of one step op. Multiplicative ops
/// additionally chain shapes; Preserve ops copy the operand's kind and
/// shape.
struct OpSignature {
  std::vector<PlanValueKind> Operands;
  PlanValueKind Result = PlanValueKind::Dense;
  /// Result carries per-edge weights (meaningful when Result == Sparse).
  bool ResultWeighted = false;
  /// Operand shapes chain like a multiplication and the result shape is
  /// {first.Rows, last.Cols}.
  bool Chains = false;
  /// Result kind, weightedness and shape equal the single operand's.
  bool Preserves = false;
};

OpSignature signatureOf(StepOp Op) {
  using K = PlanValueKind;
  switch (Op) {
  case StepOp::Gemm:
    return {{K::Dense, K::Dense}, K::Dense, false, /*Chains=*/true, false};
  case StepOp::SpmmWeighted:
  case StepOp::SpmmUnweighted:
    return {{K::Sparse, K::Dense}, K::Dense, false, /*Chains=*/true, false};
  case StepOp::SddmmScaleRow:
    return {{K::Diag, K::Sparse}, K::Sparse, true, /*Chains=*/true, false};
  case StepOp::SddmmScaleCol:
    return {{K::Sparse, K::Diag}, K::Sparse, true, /*Chains=*/true, false};
  case StepOp::SddmmScaleBoth:
    return {{K::Diag, K::Sparse, K::Diag}, K::Sparse, true, /*Chains=*/true,
            false};
  case StepOp::RowBcast:
    return {{K::Diag, K::Dense}, K::Dense, false, /*Chains=*/true, false};
  case StepOp::ColBcast:
    return {{K::Dense, K::Diag}, K::Dense, false, /*Chains=*/true, false};
  case StepOp::DiagDiag:
    return {{K::Diag, K::Diag}, K::Diag, false, /*Chains=*/true, false};
  case StepOp::AddDense:
    return {{K::Dense, K::Dense}, K::Dense, false, false, false};
  case StepOp::ScaleDense:
  case StepOp::Relu:
    return {{K::Dense}, K::Dense, false, false, /*Preserves=*/true};
  case StepOp::DegreeOffsets:
  case StepOp::DegreeBinning:
    return {{K::Sparse}, K::Diag, false, false, false};
  case StepOp::InvSqrtVec:
  case StepOp::InvVec:
    return {{K::Diag}, K::Diag, false, false, /*Preserves=*/true};
  case StepOp::AttnGemv:
    return {{K::Dense, K::Dense}, K::NodeVec, false, /*Chains=*/true, false};
  case StepOp::EdgeLogits:
    return {{K::Sparse, K::NodeVec, K::NodeVec}, K::Sparse, true, false,
            false};
  case StepOp::EdgeLeakyRelu:
  case StepOp::EdgeSoftmax:
    return {{K::Sparse}, K::Sparse, true, false, /*Preserves=*/true};
  }
  return {};
}

class PlanVerifier {
public:
  PlanVerifier(const CompositionPlan &Plan, DiagEngine &Diags,
               const std::string &Stage)
      : Plan(Plan), Diags(Diags), Stage(Stage) {}

  bool run() {
    size_t Before = Diags.errorCount();
    if (!checkSsa())
      return false; // typing checks would read out-of-range ids
    for (size_t S = 0; S < Plan.Steps.size(); ++S)
      checkStep(S);
    return Diags.errorCount() == Before;
  }

private:
  std::string stepPath(size_t S) const {
    return Plan.Name + "/step" + std::to_string(S) + "(" +
           stepOpName(Plan.Steps[S].Op) + ")";
  }

  Diag &error(const std::string &Node, std::string Message,
              std::string Hint = "") {
    return Diags.error(Stage, Node, std::move(Message), std::move(Hint));
  }

  bool validId(int Id) const {
    return Id >= 0 && static_cast<size_t>(Id) < Plan.Values.size();
  }

  /// Diagnostic version of CompositionPlan::verify(): ids in range,
  /// defined before use, single assignment, output defined.
  bool checkSsa() {
    size_t Before = Diags.errorCount();
    std::vector<bool> Defined(Plan.Values.size(), false);
    for (size_t V = 0; V < Plan.Values.size(); ++V)
      if (Plan.Values[V].InputRole)
        Defined[V] = true;
    for (size_t S = 0; S < Plan.Steps.size(); ++S) {
      const PlanStep &Step = Plan.Steps[S];
      for (int Id : Step.Operands) {
        if (!validId(Id)) {
          error(stepPath(S),
                "operand id " + std::to_string(Id) + " out of range");
          continue;
        }
        if (!Defined[static_cast<size_t>(Id)])
          error(stepPath(S), "operand v" + std::to_string(Id) +
                                 " used before definition");
      }
      if (!validId(Step.Result)) {
        error(stepPath(S),
              "result id " + std::to_string(Step.Result) + " out of range");
        continue;
      }
      if (Defined[static_cast<size_t>(Step.Result)])
        error(stepPath(S), "value v" + std::to_string(Step.Result) +
                               " defined twice (or shadows an input)");
      Defined[static_cast<size_t>(Step.Result)] = true;
    }
    if (!validId(Plan.OutputValue) ||
        !Defined[static_cast<size_t>(Plan.OutputValue)])
      error(Plan.Name, "plan output v" + std::to_string(Plan.OutputValue) +
                           " is undefined");
    return Diags.errorCount() == Before;
  }

  void checkStep(size_t S) {
    const PlanStep &Step = Plan.Steps[S];
    const OpSignature Sig = signatureOf(Step.Op);
    const std::string Path = stepPath(S);

    if (Step.Operands.size() != Sig.Operands.size()) {
      error(Path, std::string(stepOpName(Step.Op)) + " takes " +
                      std::to_string(Sig.Operands.size()) +
                      " operand(s), got " +
                      std::to_string(Step.Operands.size()));
      return;
    }

    auto Val = [&](int Id) -> const PlanValue & {
      return Plan.Values[static_cast<size_t>(Id)];
    };
    const PlanValue &Res = Val(Step.Result);

    for (size_t I = 0; I < Step.Operands.size(); ++I) {
      const PlanValue &Op = Val(Step.Operands[I]);
      if (Op.Kind != Sig.Operands[I])
        error(Path, "operand " + std::to_string(I) + " must be " +
                        kindName(Sig.Operands[I]) + ", got " +
                        kindName(Op.Kind));
    }
    // The weighted/unweighted SpMM variants must agree with the operand:
    // dispatching the wrong kernel reads absent edge values (or ignores
    // present ones).
    if (Step.Op == StepOp::SpmmWeighted || Step.Op == StepOp::SpmmUnweighted) {
      const PlanValue &Sp = Val(Step.Operands[0]);
      bool WantWeighted = Step.Op == StepOp::SpmmWeighted;
      if (Sp.Kind == PlanValueKind::Sparse &&
          Sp.SparseWeighted != WantWeighted)
        error(Path, std::string("spmm variant mismatch: operand is ") +
                        (Sp.SparseWeighted ? "weighted" : "unweighted"),
              "use spmm_w for weighted and spmm_u for unweighted matrices");
    }

    if (Sig.Preserves) {
      const PlanValue &Op = Val(Step.Operands[0]);
      if (Res.Kind != Op.Kind)
        error(Path, std::string("result kind ") + kindName(Res.Kind) +
                        " differs from operand " + kindName(Op.Kind));
      if (!(Res.Shape == Op.Shape))
        error(Path, "result shape " + Res.Shape.toString() +
                        " differs from operand " + Op.Shape.toString());
      if (Res.Kind == PlanValueKind::Sparse &&
          Res.SparseWeighted != Op.SparseWeighted)
        error(Path, "result weightedness differs from operand");
      return;
    }

    if (Res.Kind != Sig.Result)
      error(Path, std::string("result must be ") + kindName(Sig.Result) +
                      ", got " + kindName(Res.Kind));
    if (Sig.Result == PlanValueKind::Sparse &&
        Res.Kind == PlanValueKind::Sparse &&
        Res.SparseWeighted != Sig.ResultWeighted)
      error(Path, std::string("result must be ") +
                      (Sig.ResultWeighted ? "weighted" : "unweighted"));

    if (Sig.Chains) {
      for (size_t I = 0; I + 1 < Step.Operands.size(); ++I) {
        const PlanValue &L = Val(Step.Operands[I]);
        const PlanValue &R = Val(Step.Operands[I + 1]);
        if (!(L.Shape.Cols == R.Shape.Rows))
          error(Path, "operand shapes do not chain: operand " +
                          std::to_string(I) + " " + L.Shape.toString() +
                          " x operand " + std::to_string(I + 1) + " " +
                          R.Shape.toString());
      }
      SymShape Inferred = {Val(Step.Operands.front()).Shape.Rows,
                           Val(Step.Operands.back()).Shape.Cols};
      if (!(Res.Shape == Inferred))
        error(Path, "result shape " + Res.Shape.toString() +
                        " disagrees with re-inferred " + Inferred.toString());
    } else if (Step.Op == StepOp::AddDense) {
      for (size_t I = 0; I < Step.Operands.size(); ++I)
        if (!(Val(Step.Operands[I]).Shape == Res.Shape))
          error(Path, "add operand " + std::to_string(I) + " shape " +
                          Val(Step.Operands[I]).Shape.toString() +
                          " differs from result " + Res.Shape.toString());
    } else if (Step.Op == StepOp::DegreeOffsets ||
               Step.Op == StepOp::DegreeBinning) {
      if (!(Res.Shape.Rows == Val(Step.Operands[0]).Shape.Rows))
        error(Path, "degree vector length " + Res.Shape.toString() +
                        " does not match the matrix rows " +
                        Val(Step.Operands[0]).Shape.toString());
    } else if (Step.Op == StepOp::EdgeLogits) {
      const PlanValue &Mask = Val(Step.Operands[0]);
      if (!(Res.Shape == Mask.Shape))
        error(Path, "result shape " + Res.Shape.toString() +
                        " disagrees with the mask's " +
                        Mask.Shape.toString());
      for (size_t I = 1; I <= 2; ++I)
        if (!(Val(Step.Operands[I]).Shape.Rows == Mask.Shape.Rows))
          error(Path, "score vector " + std::to_string(I) + " length " +
                          Val(Step.Operands[I]).Shape.toString() +
                          " does not match the mask rows " +
                          Mask.Shape.toString());
    }

    // Hoisting consistency: a setup step runs once, outside the iteration
    // loop, so its result -- and hence all its operands -- may depend on
    // the graph only.
    bool AllGraphOnly = true;
    for (int Id : Step.Operands)
      AllGraphOnly &= Val(Id).GraphOnly;
    if (Step.Setup && !AllGraphOnly)
      error(Path, "setup step depends on a non-graph-only operand",
            "only graph-derived values may be hoisted out of the loop");
    if (Res.GraphOnly && !AllGraphOnly)
      error(Path, "graph-only result produced from non-graph-only operands");
  }

  const CompositionPlan &Plan;
  DiagEngine &Diags;
  const std::string &Stage;
};

} // namespace

bool granii::verifyPlanDiags(const CompositionPlan &Plan, DiagEngine &Diags,
                             const std::string &Stage) {
  return PlanVerifier(Plan, Diags, Stage).run();
}

bool granii::verifyScenarioAnnotations(const CompositionPlan &Plan,
                                       DiagEngine &Diags,
                                       const std::string &Stage) {
  if (Plan.ViableGe || Plan.ViableLt)
    return true;
  Diags.error(Stage, Plan.Name,
              "promoted plan is viable in no embedding-size scenario",
              "plans dominated in both scenarios must be pruned");
  return false;
}

bool granii::verifySurvivorSet(const std::vector<CompositionPlan> &Survivors,
                               DiagEngine &Diags, const std::string &Stage) {
  size_t Before = Diags.errorCount();
  struct Scenario {
    const char *Name;
    DimBinding Binding;
    bool CompositionPlan::*Viable;
  };
  const Scenario Scenarios[] = {
      {"K_in >= K_out", pruneScenarioGe(), &CompositionPlan::ViableGe},
      {"K_in < K_out", pruneScenarioLt(), &CompositionPlan::ViableLt},
  };
  for (const Scenario &Sc : Scenarios) {
    // Each survivor's multiset, built once per scenario as pruning does.
    std::vector<SizedMultiset> Sets;
    Sets.reserve(Survivors.size());
    for (const CompositionPlan &Plan : Survivors)
      Sets.push_back(sizedMultiset(Plan, Sc.Binding));
    // Viability means undominated against the *complete* candidate set, so
    // in particular no other survivor may dominate -- and no two survivors
    // both viable in one scenario may be exact cost-duplicates there (the
    // pruning tie-break keeps only one).
    for (size_t I = 0; I < Survivors.size(); ++I) {
      if (!(Survivors[I].*(Sc.Viable)))
        continue;
      for (size_t J = 0; J < Survivors.size(); ++J) {
        if (J == I)
          continue;
        if (dominates(Sets[J], Sets[I]))
          Diags.error(Stage, Survivors[I].Name,
                      "dominated by " + Survivors[J].Name +
                          " in scenario " + Sc.Name +
                          " yet annotated viable there");
        else if (J < I && Sets[I] == Sets[J])
          Diags.error(Stage, Survivors[I].Name,
                      "cost-duplicate of " + Survivors[J].Name +
                          " in scenario " + Sc.Name,
                      "the pruning tie-break keeps only the first duplicate");
      }
    }
  }
  return Diags.errorCount() == Before;
}
