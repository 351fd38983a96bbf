//===- fig03_compositions.cpp - Paper Fig. 3: compositions + complexities ---===//
//
// Reproduces Figure 3: the two primitive compositions GRANII discovers for
// GCN (dynamic normalization vs precomputation) and GAT (reuse vs
// recomputation), with each primitive's asymptotic complexity.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "assoc/Enumerate.h"
#include "assoc/Prune.h"

#include <cstdio>

using namespace granii;
using namespace granii::bench;

namespace {

/// Symbolic per-operation complexity string, in the paper's N/E/K terms.
std::string complexityOf(const CompositionPlan &Plan, size_t StepIdx) {
  const PlanStep &Step = Plan.Steps[StepIdx];
  auto Cols = [&](int Id) {
    return Plan.Values[static_cast<size_t>(Id)].Shape.Cols.toString();
  };
  auto Rows = [&](int Id) {
    return Plan.Values[static_cast<size_t>(Id)].Shape.Rows.toString();
  };
  switch (Step.Op) {
  case StepOp::Gemm:
    return "O(" + Rows(Step.Operands[0]) + "*" + Cols(Step.Operands[0]) +
           "*" + Cols(Step.Operands[1]) + ")";
  case StepOp::SpmmWeighted:
    return "O(2E*" + Cols(Step.Operands[1]) + ")";
  case StepOp::SpmmUnweighted:
    return "O(E*" + Cols(Step.Operands[1]) + ")";
  case StepOp::SddmmScaleRow:
  case StepOp::SddmmScaleCol:
  case StepOp::SddmmScaleBoth:
    return "O(E)";
  case StepOp::RowBcast:
    return "O(N*" + Cols(Step.Operands[1]) + ")";
  case StepOp::ColBcast:
    return "O(N*" + Cols(Step.Operands[0]) + ")";
  case StepOp::AddDense:
  case StepOp::ScaleDense:
  case StepOp::Relu:
    return "O(N*" + Cols(Step.Operands[0]) + ")";
  case StepOp::DiagDiag:
  case StepOp::InvSqrtVec:
  case StepOp::InvVec:
  case StepOp::DegreeOffsets:
    return "O(N)";
  case StepOp::DegreeBinning:
    return "O(E) + atomics";
  case StepOp::AttnGemv:
    return "O(N*" + Cols(Step.Operands[0]) + ")";
  case StepOp::EdgeLogits:
  case StepOp::EdgeLeakyRelu:
  case StepOp::EdgeSoftmax:
    return "O(E)";
  }
  return "O(?)";
}

void printPlan(const char *Title, const CompositionPlan &Plan) {
  std::printf("  %s\n", Title);
  for (size_t I = 0; I < Plan.Steps.size(); ++I) {
    const PlanStep &Step = Plan.Steps[I];
    std::printf("    %-12s %-16s%s\n", stepOpName(Step.Op),
                complexityOf(Plan, I).c_str(),
                Step.Setup ? "  [hoisted: graph-only]" : "");
  }
}

} // namespace

int main() {
  std::printf("Figure 3: primitive compositions and per-operation "
              "complexities (K1 = Kin, K2 = Kout)\n\n");

  GnnModel Gcn = makeModel(ModelKind::GCN);
  auto GcnPlans = pruneCompositions(enumerateCompositions(Gcn.Root));
  std::printf("GCN (paper Eq. 2 vs Eq. 3):\n");
  for (const CompositionPlan &Plan : GcnPlans) {
    if (!Plan.ViableLt)
      continue; // Show the aggregate-first ordering of each composition.
    printPlan(planUsesPrecompute(Plan)
                  ? "precomputation-based (favors sparser graphs)"
                  : "dynamic-normalization (favors denser graphs)",
              Plan);
  }

  GnnModel Gat = makeModel(ModelKind::GAT);
  auto GatPlans = pruneCompositions(enumerateCompositions(Gat.Root));
  std::printf("\nGAT (paper Eqs. 4-6):\n");
  for (const CompositionPlan &Plan : GatPlans)
    printPlan(planRecomputesTheta(Plan)
                  ? "recomputation-based (extra GEMM, narrower aggregation)"
                  : "reuse-based (shares the updated embeddings)",
              Plan);

  std::printf("\nGCN candidates promoted: %zu of %zu enumerated; GAT: %zu of "
              "%zu\n",
              GcnPlans.size(),
              enumerateCompositions(Gcn.Root).size(), GatPlans.size(),
              enumerateCompositions(Gat.Root).size());
  return 0;
}
