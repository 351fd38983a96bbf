//===- Enumerate.h - Association-tree enumeration (Algorithm 1) -*- C++ -*-===//
///
/// \file
/// Exhaustive enumeration of primitive compositions for a matrix IR
/// (paper §IV-C, Algorithm 1). The IR is first rewritten (broadcast
/// elimination, distribution variants); then every multiplication chain is
/// reduced window-by-window using the candidate rules below, depth-first,
/// producing the forest of association trees as CompositionPlans. Common
/// sub-expressions are shared by construction (value numbering), which is
/// how the GAT reuse composition appears without a special case.
///
/// Candidate rules (window -> primitive):
///   [diag, sparse, diag] -> fused two-sided SDDMM scaling
///   [diag, sparse]       -> row scaling          [sparse, diag] -> column
///   [sparse, dense]      -> g-SpMM (weighted or unweighted)
///   [dense, dense]       -> GEMM
///   [diag, dense]        -> row broadcast        [dense, diag] -> column
///   [diag, diag]         -> diagonal product
/// Two adjacent non-diagonal sparse operands have no rule (no SpGEMM in the
/// paper's primitive set), which makes such partial associations dead ends.
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_ASSOC_ENUMERATE_H
#define GRANII_ASSOC_ENUMERATE_H

#include "assoc/Composition.h"
#include "ir/MatrixIR.h"

namespace granii {

/// Knobs for enumeration; the non-default settings are ablation modes.
struct EnumOptions {
  /// Lower degree computation to the per-edge binning kernel instead of the
  /// CSR-offset kernel (models frameworks that bin; GRANII itself uses
  /// offsets).
  bool UseBinningDegree = false;
  /// Allow the fused ternary [diag, sparse, diag] rule.
  bool EnableTernaryRule = true;
  /// Hoist graph-only steps out of the iteration loop into setup steps the
  /// executor charges once (GRANII's behaviour; baseline frameworks run
  /// straight-line code).
  bool HoistGraphOnlySteps = true;
  /// Hard cap on emitted plans (safety bound; never reached by the paper's
  /// models).
  size_t MaxPlans = 4096;
};

/// Enumerates all valid primitive compositions of \p Root. The structured
/// IR verifier checks every rewrite pass's output first and aborts, naming
/// the pass, on a violation. Plans are deduplicated structurally and named
/// "plan#<index>".
std::vector<CompositionPlan> enumerateCompositions(const IRNodeRef &Root,
                                                   const EnumOptions &Opts = {});

} // namespace granii

#endif // GRANII_ASSOC_ENUMERATE_H
