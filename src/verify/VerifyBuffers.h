//===- VerifyBuffers.h - Buffer-schedule verification -----------*- C++ -*-===//
///
/// \file
/// The runtime-schedule stage of the GRANII verifier. A BufferPlan's slot
/// assignment is the executor's aliasing contract: two values sharing an
/// arena slot must never be live at once, or one inference step silently
/// overwrites another's operand. These checks recompute every value's live
/// interval from the plan's step list and cross-check the recorded
/// lifetimes, classes, sizes and slot assignment against it -- including
/// the training mode, where the backward pass re-reads all forward
/// activations and therefore every value must be pinned. For an inference
/// schedule they recompute every fused chain on their own (a GEMM/SpMM and
/// the row_bcast/relu steps it absorbs) and require each chain's values to
/// be written at the producer's step, its intermediates to have no storage,
/// and no other value to be fused.
///
/// verifyRowPartition() checks the ThreadPool's nnz-balanced CSR row
/// partition for exclusive contiguous coverage (bounds start at row 0, end
/// at the row count, and never decrease), which is what the parallel
/// kernels' race-freedom rests on.
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_VERIFIER_VERIFYBUFFERS_H
#define GRANII_VERIFIER_VERIFYBUFFERS_H

#include "runtime/BufferPlan.h"
#include "support/Diag.h"

#include <span>

namespace granii {

/// Verifies a (possibly hand-built) slot assignment \p Vals / \p Slots for
/// \p Plan under \p Binding: recorded live intervals must equal recomputed
/// ones, classes and payload sizes must match the value kinds, every slot
/// reference must be in range with a matching class and sufficient
/// capacity, values sharing a slot must have disjoint lifetimes (pinned
/// values extend to the end of the program), and with \p Training set
/// every produced value must be pinned. \returns true when clean.
bool verifyBufferAssignment(const CompositionPlan &Plan,
                            const DimBinding &Binding, bool Training,
                            const std::vector<ValueBuffer> &Vals,
                            const std::vector<ArenaSlot> &Slots,
                            DiagEngine &Diags,
                            const std::string &Stage = "buffers");

/// Convenience overload over a computed BufferPlan; additionally checks
/// the byte-accounting invariants peak <= naive and arena <= naive.
bool verifyBufferPlan(const CompositionPlan &Plan, const DimBinding &Binding,
                      const BufferPlan &Buffers, DiagEngine &Diags,
                      const std::string &Stage = "buffers");

/// Verifies that \p Bounds (as produced by csrRowPartitionBounds) covers
/// each row of the CSR matrix described by \p RowOffsets exactly once:
/// front == 0, back == rows, non-decreasing. \returns true when clean.
bool verifyRowPartition(std::span<const int64_t> RowOffsets,
                        const std::vector<int64_t> &Bounds, DiagEngine &Diags,
                        const std::string &Stage = "partition");

} // namespace granii

#endif // GRANII_VERIFIER_VERIFYBUFFERS_H
