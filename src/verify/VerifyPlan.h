//===- VerifyPlan.h - Composition-plan verification -------------*- C++ -*-===//
///
/// \file
/// The association-tree / plan stage of the GRANII verifier. A
/// CompositionPlan is one materialized association tree; these checks
/// re-derive, from the step list alone, everything the enumerator
/// guarantees by construction:
///
///  * SSA form: operand ids in range, defined before use, single
///    assignment, output defined (diagnostic version of
///    CompositionPlan::verify()).
///  * primitive legality: every step's operand kinds match its StepOp
///    (e.g. an SpMM takes [sparse, dense], never [dense, sparse]), the
///    weighted/unweighted SpMM variants agree with the operand's
///    weightedness, and result kinds/shapes equal what the primitive
///    produces.
///  * operand-shape chaining: multiplicative steps chain symbolically
///    (cols of operand i == rows of operand i+1) and the result shape is
///    {first.Rows, last.Cols}.
///  * setup consistency: a hoisted (Setup) step may depend only on
///    graph-only values, and a value marked graph-only may not be produced
///    from non-graph-only operands.
///  * scenario annotations: a promoted plan must be viable in at least one
///    embedding-size scenario, and re-running the domination rules over
///    the survivor set must not find a survivor that beats another
///    survivor in a scenario the latter claims to be viable in (the
///    superset-pruning invariant).
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_VERIFIER_VERIFYPLAN_H
#define GRANII_VERIFIER_VERIFYPLAN_H

#include "assoc/Composition.h"
#include "support/Diag.h"

namespace granii {

/// Verifies one plan's internal consistency (SSA, primitive legality,
/// shape chaining, setup consistency), appending diagnostics to \p Diags.
/// \returns true when no errors were added.
bool verifyPlanDiags(const CompositionPlan &Plan, DiagEngine &Diags,
                     const std::string &Stage = "plan");

/// Checks a promoted plan's scenario annotations: at least one of
/// ViableGe / ViableLt must hold, otherwise pruning should have removed
/// the plan.
bool verifyScenarioAnnotations(const CompositionPlan &Plan, DiagEngine &Diags,
                               const std::string &Stage = "prune");

/// Re-derives the pruning invariant over the promoted set \p Survivors:
/// in each scenario, a survivor claiming viability there must not be
/// dominated by (or be a cost-duplicate of) any other survivor under that
/// scenario's binding. \returns true when the invariant holds.
bool verifySurvivorSet(const std::vector<CompositionPlan> &Survivors,
                       DiagEngine &Diags, const std::string &Stage = "prune");

} // namespace granii

#endif // GRANII_VERIFIER_VERIFYPLAN_H
