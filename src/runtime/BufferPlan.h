//===- BufferPlan.h - Static buffer lifetime planning -----------*- C++ -*-===//
///
/// \file
/// Plan-level buffer lifetime analysis. Given a CompositionPlan and a
/// concrete DimBinding, a BufferPlan computes every produced value's live
/// interval over the step sequence and greedily packs the values into a
/// small set of reusable arena slots, so the executor can serve repeated
/// inferences from preallocated storage (zero steady-state heap
/// allocations). It also reports planned memory numbers: the peak bytes
/// live at the worst step, the naive fresh-allocation baseline (every value
/// resident simultaneously), and the arena's actual footprint.
///
/// In inference it also schedules fused chains: a row_bcast or relu step
/// folds into the GEMM or SpMM that produces its operand when that operand
/// has no other reader and is not the plan output, and every scale vector
/// the chain reads is an input or is defined before the producer. The
/// producer applies the chain to its accumulators (kernels::RowEpilogue)
/// and stores the chain's last value; the values before it get no storage.
/// Training does not fuse: the backward pass re-reads every activation.
///
/// The analysis is purely structural — no tensors are touched — so it runs
/// once per (plan, binding) pair and its result is cached by PlanWorkspace.
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_RUNTIME_BUFFERPLAN_H
#define GRANII_RUNTIME_BUFFERPLAN_H

#include "assoc/Composition.h"
#include "ir/Dims.h"

#include <cstddef>
#include <string>
#include <vector>

namespace granii {

/// Storage category of one plan value.
enum class BufferClass {
  InputAlias, ///< bound caller tensor; the executor aliases, never stores
  DenseSlot,  ///< DenseMatrix payload in a dense arena slot
  VecSlot,    ///< length-N float vector in a vector arena slot
  SparseVals  ///< per-edge value array over the bound adjacency's pattern
};

/// Lifetime and placement of one plan value.
struct ValueBuffer {
  BufferClass Class = BufferClass::InputAlias;
  /// Concrete payload size under the binding (0 for InputAlias). Dense
  /// values store Rows x Cols floats; vectors and edge arrays store Floats.
  int64_t Rows = 0;
  int64_t Cols = 0;
  int64_t Floats = 0;
  /// Step index writing the value (-1 for inputs): its defining step, or
  /// for every value of a fused chain the producer's step.
  int DefStep = -1;
  /// Last step index reading the value. The plan output gets a sentinel one
  /// past the last step (it is read after execution). Never-read values die
  /// at their defining step.
  int LastUse = -1;
  /// Pinned values get a dedicated slot and stay resident from DefStep to
  /// the end of the program: the output (read after the loop), setup-step
  /// results (graph-only; conceptually hoisted), sparse values (each keeps
  /// its own value array in the workspace), and — in training mode — every
  /// value, because the backward pass re-reads saved activations.
  bool Pinned = false;
  /// Index into slots() for DenseSlot/VecSlot values; -1 otherwise.
  int Slot = -1;
  /// Held only in a fused producer's accumulators: the GEMM/SpMM result or
  /// an intermediate of the chain it applies. No slot, not pinned, and live
  /// at its producer's step alone (LastUse == DefStep).
  bool Elided = false;
};

/// One reusable arena slot.
struct ArenaSlot {
  BufferClass Class = BufferClass::DenseSlot;
  /// Capacity in floats: the maximum payload of any value assigned to it.
  int64_t CapacityFloats = 0;
  /// True when the slot is dedicated to a single pinned value.
  bool Pinned = false;
};

/// Buffer lifetimes and slot assignment for one (plan, binding) pair.
class BufferPlan {
public:
  /// Analyzes \p Plan under \p Binding. With \p Training set, every value
  /// is pinned (the backward pass reads all forward activations), so no
  /// slot sharing happens and peak equals naive.
  BufferPlan(const CompositionPlan &Plan, const DimBinding &Binding,
             bool Training);

  bool training() const { return TrainingMode; }

  /// Per-value lifetimes/placements, parallel to Plan.Values.
  const std::vector<ValueBuffer> &values() const { return Vals; }

  /// Per step: the producer step whose epilogue applies it (a fused
  /// chain's row_bcast or relu), or -1 when the step runs its own kernel.
  /// A producer's chain is the steps naming it, in plan order.
  const std::vector<int> &fusedInto() const { return FusedInto; }

  /// The arena slots values are packed into.
  const std::vector<ArenaSlot> &slots() const { return Slots; }

  /// Planned peak: the largest total payload bytes live at any step
  /// (pinned values count from their definition to the end). Always
  /// <= naiveBytes().
  size_t peakBytes() const { return Peak; }

  /// Fresh-allocation baseline: every produced value resident at once —
  /// what the executor allocated per call before buffer planning.
  size_t naiveBytes() const { return Naive; }

  /// Arena footprint: the sum of all slot capacities. Can exceed
  /// peakBytes() when size classes fragment, but never naiveBytes().
  size_t arenaBytes() const { return Arena; }

  /// Human-readable listing: one line per value (lifetime, size, slot),
  /// then the slot table and the three byte totals.
  std::string toString(const CompositionPlan &Plan) const;

private:
  bool TrainingMode = false;
  std::vector<ValueBuffer> Vals;
  std::vector<int> FusedInto;
  std::vector<ArenaSlot> Slots;
  size_t Peak = 0;
  size_t Naive = 0;
  size_t Arena = 0;
};

} // namespace granii

#endif // GRANII_RUNTIME_BUFFERPLAN_H
