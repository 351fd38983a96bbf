//===- VerifyBuffers.h - Buffer-schedule verification -----------*- C++ -*-===//
///
/// \file
/// The runtime-schedule stage of the GRANII verifier. A BufferPlan's slot
/// assignment is the executor's aliasing contract: two buffers sharing an
/// arena slot must never be live at once, or one step silently overwrites
/// another's operand. These checks recompute every buffer's live interval
/// from the plan's step list and cross-check the recorded lifetimes,
/// classes, sizes and slot assignment against it. For a training schedule
/// they recompute the backward pass on their own: which forward values
/// each backward step reads (so they stay live until then), which
/// gradients it adds into, and which first contributions an element-wise
/// step may write in place of the gradient it reads. In both modes they
/// recompute every fused chain on their own (a GEMM/SpMM and the
/// row_bcast/relu steps it absorbs, in training only past values no
/// backward step reads) and require each chain's values to be written at
/// the producer's step, its intermediates to have no storage, and no other
/// value to be fused.
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

/// Verifies a (possibly hand-built) schedule for \p Plan under \p Binding:
/// the forward values \p Vals and, with \p Training set, the gradients
/// \p Grads (empty in inference), packed into \p Slots. Recorded live
/// intervals must equal recomputed ones (in training a forward value lives
/// until the last backward step that reads it, and a gradient from its
/// first contribution to its producer's backward step, both recomputed here
/// from the executor's backward rules), classes and payload sizes must
/// match the value kinds, every slot reference must be in range with a
/// matching class and sufficient capacity, and buffers sharing a slot must
/// have disjoint lifetimes (pinned buffers extend to the end of the
/// schedule) but for one alias: a relu, edge leaky relu or edge softmax
/// backward step's first contribution to its operand's gradient may take
/// the slot of its result's gradient, which dies at that step. \returns
/// true when clean.
bool verifyBufferAssignment(const CompositionPlan &Plan,
                            const DimBinding &Binding, bool Training,
                            const std::vector<ValueBuffer> &Vals,
                            const std::vector<ValueBuffer> &Grads,
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
