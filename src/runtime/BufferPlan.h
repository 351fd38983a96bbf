//===- BufferPlan.h - Static buffer lifetime planning -----------*- C++ -*-===//
///
/// \file
/// Plan-level buffer lifetime analysis. Given a CompositionPlan and a
/// concrete DimBinding, a BufferPlan computes every buffer's live interval
/// over the run's schedule and greedily packs the buffers into a small set
/// of reusable arena slots, so the executor can serve repeated runs from
/// preallocated storage (zero steady-state heap allocations). It also
/// reports planned memory numbers: the peak bytes live at the worst
/// position, the naive fresh-allocation baseline (every buffer resident
/// simultaneously), and the arena's actual footprint.
///
/// An inference schedule is the plan's steps, and its buffers are the
/// values they produce. A training schedule is the forward steps, the seed
/// of dL/dOut, then the backward step of every forward step in reverse
/// order (backwardPosition()); its buffers are the forward values and the
/// gradients of the values the backward pass reaches. One plan covers both
/// passes: a forward value stays live until the last backward step that
/// reads it and no longer, a gradient lives from its first contribution to
/// its producer's backward step, and every buffer shares slots with any
/// other whose interval is disjoint from its own. A backward step adds its
/// contributions straight into the gradients (kernels::Store), so it has no
/// buffer of its own. One exception to disjointness: a relu, edge leaky
/// relu or edge softmax backward step that makes its operand's first
/// contribution writes that gradient into the slot of its result's
/// gradient, which dies at that step, since its kernel reads each element
/// of the one before writing the same element of the other.
///
/// Both modes schedule fused chains by one rule: a row_bcast or relu step
/// folds into the GEMM or SpMM that produces its operand when that operand
/// has no other reader and is not the plan output, every scale vector the
/// chain reads is an input or is defined before the producer, and, in
/// training, no backward step reads the operand (a GEMM's backward reads
/// its other operand, a row_bcast's its scale vector and a relu's its
/// output, so none reads a chain's intermediates). The producer applies
/// the chain to its accumulators (kernels::RowEpilogue) and stores the
/// chain's last value; the values before it get no storage. Their
/// gradients are planned buffers like any other.
///
/// The analysis is purely structural — no tensors are touched — so it runs
/// once per (plan, binding, mode) and its result is cached by PlanWorkspace.
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

/// What one planned buffer holds. Every stored kind lives in an arena slot,
/// and any slot holds any kind.
enum class BufferClass {
  InputAlias, ///< bound caller tensor (or, for a gradient, the caller's
              ///< result); the executor aliases, never stores
  DenseSlot,  ///< row-major Rows x Cols matrix
  VecSlot,    ///< length-N float vector (a diagonal or node vector)
  SparseVals  ///< per-edge value array over the bound adjacency's pattern
};

/// Lifetime and placement of one planned buffer: a plan value, or in
/// training a value's gradient.
/// Intervals are positions in the run's schedule: forward step S runs at
/// position S; in training the seed runs at position Steps.size() and the
/// backward step of forward step S at BufferPlan::backwardPosition().
struct ValueBuffer {
  BufferClass Class = BufferClass::InputAlias;
  /// Concrete payload size under the binding (0 for InputAlias). Dense
  /// values and gradients store Rows x Cols floats; vectors and edge arrays
  /// store Floats.
  int64_t Rows = 0;
  int64_t Cols = 0;
  int64_t Floats = 0;
  /// Position writing the buffer: a value's defining step (for every value
  /// of a fused chain the producer's step), a gradient's first
  /// contribution (the seed for the output's). -1 for an input, and for a
  /// gradient the run never writes.
  int DefStep = -1;
  /// Last position reading the buffer. The plan output gets a sentinel one
  /// past the last position (it is read after execution), and so does a
  /// gradient held by the caller's result. A never-read value dies at its
  /// defining step.
  int LastUse = -1;
  /// Pinned buffers get a dedicated slot and stay resident from DefStep to
  /// the end of the schedule: the output (read after the run) and
  /// setup-step results (graph-only; conceptually hoisted).
  bool Pinned = false;
  /// Index into slots() for every stored buffer; -1 for an input alias, a
  /// value held in registers and a buffer the run never writes.
  int Slot = -1;
  /// Held only in a fused producer's accumulators: the GEMM/SpMM result or
  /// an intermediate of the chain it applies. No slot, not pinned, and live
  /// at its producer's step alone (LastUse == DefStep).
  bool Elided = false;
  /// Training: a gradient its first contribution writes in place, into the
  /// slot of the gradient that contribution reads (an element-wise backward
  /// step's result gradient, which dies there). At DefStep the two share
  /// their bytes.
  bool InPlace = false;
};

/// One reusable arena slot: plain float storage that a dense value, a node
/// vector, an edge array or a gradient of any of them may occupy in turn.
struct ArenaSlot {
  /// Capacity in floats: the maximum payload of any buffer assigned to it.
  int64_t CapacityFloats = 0;
  /// True when the slot is dedicated to a single pinned buffer.
  bool Pinned = false;
};

/// Buffer lifetimes and slot assignment for one (plan, binding, mode).
class BufferPlan {
public:
  /// Analyzes \p Plan under \p Binding; with \p Training set, over the
  /// forward and the backward pass together.
  BufferPlan(const CompositionPlan &Plan, const DimBinding &Binding,
             bool Training);

  bool training() const { return TrainingMode; }

  /// Positions of the schedule: the steps, and in training the seed and
  /// one backward step per forward step. Pinned buffers stay live to here.
  int positions() const { return Positions; }

  /// Position of the backward step of forward step \p Step in a training
  /// schedule of \p NumSteps steps (the seed runs at NumSteps).
  static int backwardPosition(int NumSteps, int Step) {
    return 2 * NumSteps - Step;
  }

  /// Per-value lifetimes/placements, parallel to Plan.Values.
  const std::vector<ValueBuffer> &values() const { return Vals; }

  /// Training: per value, its gradient's buffer, parallel to Plan.Values
  /// (DefStep -1 where the backward pass never writes it; InputAlias for a
  /// weight, attention vector or the features, whose gradient the caller's
  /// result holds). Empty in inference.
  const std::vector<ValueBuffer> &grads() const { return Grads; }

  /// Training: per value, whether the backward pass reaches it (it depends
  /// on a weight, attention vector or the features). Empty in inference.
  const std::vector<bool> &gradPath() const { return GradPath; }

  /// Per step: the producer step whose epilogue applies it (a fused
  /// chain's row_bcast or relu), or -1 when the step runs its own kernel.
  /// A producer's chain is the steps naming it, in plan order.
  const std::vector<int> &fusedInto() const { return FusedInto; }

  /// The arena slots buffers are packed into.
  const std::vector<ArenaSlot> &slots() const { return Slots; }

  /// Planned peak: the largest total payload bytes live at any position
  /// (pinned buffers count from their definition to the end, and a gradient
  /// written in place shares its source's bytes). Always <= naiveBytes().
  size_t peakBytes() const { return Peak; }

  /// Fresh-allocation baseline: every planned buffer resident at once. In
  /// inference, every produced value (what the executor allocated per call
  /// before buffer planning); in training also every gradient, each in its
  /// own allocation.
  size_t naiveBytes() const { return Naive; }

  /// Arena footprint: the sum of all slot capacities. Can exceed
  /// peakBytes() when the in-order placement fragments, but never
  /// naiveBytes().
  size_t arenaBytes() const { return Arena; }

  /// Human-readable listing: one line per value (lifetime, size, slot), in
  /// training one per gradient, then the fused steps, the slot table and
  /// the three byte totals.
  std::string toString(const CompositionPlan &Plan) const;

private:
  bool TrainingMode = false;
  int Positions = 0;
  std::vector<ValueBuffer> Vals;
  std::vector<ValueBuffer> Grads;
  std::vector<bool> GradPath;
  std::vector<int> FusedInto;
  std::vector<ArenaSlot> Slots;
  size_t Peak = 0;
  size_t Naive = 0;
  size_t Arena = 0;
};

} // namespace granii

#endif // GRANII_RUNTIME_BUFFERPLAN_H
