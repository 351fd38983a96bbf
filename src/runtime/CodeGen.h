//===- CodeGen.h - Conditional dispatch code generation ---------*- C++ -*-===//
///
/// \file
/// GRANII's final offline stage (paper §IV-D, Fig. 7): emit the promoted
/// candidates as conditionally executed code. Candidates viable in only
/// one embedding-size scenario dispatch on a pure `K_in >= K_out` test;
/// the rest compare learned cost-model sums at runtime. The emitted text
/// is compilable C++-styled pseudocode against this library's kernel API
/// in the one form the runtime's interpreter executes: destination-passing
/// `...Into` calls writing into a preplanned buffer arena. It documents
/// exactly what the interpreter runs, and is what a standalone deployment
/// would paste into its build.
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_RUNTIME_CODEGEN_H
#define GRANII_RUNTIME_CODEGEN_H

#include "assoc/Composition.h"
#include "runtime/BufferPlan.h"

#include <string>
#include <vector>

namespace granii {

/// Emits the kernel-call sequence of one plan as a function body against a
/// preplanned workspace, exactly like the runtime's arena path: a
/// `<name>_Workspace` declaration sized from \p Buffers, `...Into` kernel
/// calls writing into its slots (`Ws.s<slot>`, `Ws.sp<value>` for sparse
/// values), and a reuse comment wherever a slot serves its second (or
/// later) value. Graph-only setup steps are separated into a
/// `<name>_setup` function that writes the pinned slots the iteration steps
/// read; it must run before `<name>`.
std::string generatePlanCode(const CompositionPlan &Plan,
                             const std::string &FunctionName,
                             const BufferPlan &Buffers);

/// Emits the full conditional dispatcher over \p Promoted (paper Fig. 7):
/// embedding-size conditions first, cost-model comparisons for the rest,
/// then a call of the chosen candidate's `_setup` (when it has setup steps)
/// and of the candidate, each against its own persistent workspace. Each
/// candidate's arena is planned at the offline stage's scenario binding:
/// pruneScenarioGe() when the candidate is viable for K_in >= K_out, else
/// pruneScenarioLt(). Sizes in the emitted comments are for that binding;
/// the structure (slot sharing and call sequence) is binding-independent
/// for a fixed scenario.
std::string generateDispatchCode(const std::string &ModelName,
                                 const std::vector<CompositionPlan> &Promoted);

} // namespace granii

#endif // GRANII_RUNTIME_CODEGEN_H
