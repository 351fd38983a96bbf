//===- Rewrite.h - Matrix IR rewrite passes ---------------------*- C++ -*-===//
///
/// \file
/// IR rewrites run before association-tree enumeration (paper §IV-B):
///
///  * broadcast elimination: row/column broadcasts are re-association
///    barriers; representing them as multiplications by a diagonal matrix
///    (paper Fig. 6(c), Appendix C) exposes the full chain to enumeration.
///  * distribution over addition: (X + Y) * W <-> X*W + Y*W generates the
///    update-first variants of GIN/TAGCN-style models; all distribution
///    combinations are enumerated and the candidate sets unioned.
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_IR_REWRITE_H
#define GRANII_IR_REWRITE_H

#include "ir/MatrixIR.h"
#include "support/Diag.h"

namespace granii {

/// Rewrites every row/column broadcast into a diagonal-matrix
/// multiplication, recursively. The matMul factory keeps the resulting
/// chains flat.
IRNodeRef rewriteBroadcastsToDiag(const IRNodeRef &Root);

/// Enumerates all IR variants reachable by distributing trailing/leading
/// multiplications over additions, in every combination (including none).
/// The input IR itself is always the first element. Results are
/// deduplicated by canonical key. \p MaxVariants bounds the closure.
std::vector<IRNodeRef> enumerateDistributions(const IRNodeRef &Root,
                                              size_t MaxVariants = 64);

/// Runs the full pre-enumeration rewrite pipeline — the "broadcast-to-diag"
/// pass, then the "distribute" pass — and returns the IR variants to
/// enumerate. The structured IR verifier runs on the output of every pass;
/// a diagnostic names the pass that produced the bad IR (stage
/// "rewrite:<pass>") and the offending node. When \p Diags is null,
/// verification failures abort (internal pipeline); when non-null,
/// diagnostics accumulate there and the failing variant is dropped so
/// `granii-cli verify` can report every violation.
std::vector<IRNodeRef> runRewritePipeline(const IRNodeRef &Root,
                                          size_t MaxVariants,
                                          DiagEngine *Diags = nullptr);

} // namespace granii

#endif // GRANII_IR_REWRITE_H
