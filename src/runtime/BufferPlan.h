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
/// order (backwardPosition()); its buffers are the forward values, the
/// gradients of the values the backward pass reaches, and each backward
/// step's partial gradients. One plan covers both passes: a forward value
/// stays live until the last backward step that reads it and no longer, a
/// gradient lives from its first contribution to its producer's backward
/// step, and every buffer shares slots with any other whose interval is
/// disjoint from its own.
///
/// In inference it also schedules fused chains: a row_bcast or relu step
/// folds into the GEMM or SpMM that produces its operand when that operand
/// has no other reader and is not the plan output, and every scale vector
/// the chain reads is an input or is defined before the producer. The
/// producer applies the chain to its accumulators (kernels::RowEpilogue)
/// and stores the chain's last value; the values before it get no storage.
/// Training does not fuse: the backward pass reads activations a chain
/// would keep in registers.
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

/// Storage category of one planned buffer.
enum class BufferClass {
  InputAlias, ///< bound caller tensor (or, for a gradient, the caller's
              ///< result); the executor aliases, never stores
  DenseSlot,  ///< DenseMatrix payload in a dense arena slot
  VecSlot,    ///< length-N float vector in a vector arena slot
  SparseVals  ///< per-edge value array over the bound adjacency's pattern
};

/// Lifetime and placement of one planned buffer: a plan value, or in
/// training a value's gradient or a backward step's partial gradient.
/// Intervals are positions in the run's schedule: forward step S runs at
/// position S; in training the seed runs at position Steps.size() and the
/// backward step of forward step S at BufferPlan::backwardPosition().
struct ValueBuffer {
  BufferClass Class = BufferClass::InputAlias;
  /// Concrete payload size under the binding (0 for InputAlias). Dense
  /// values and gradients store Rows x Cols floats; vectors and edge arrays
  /// store Floats. A dense partial holds the largest partial its step
  /// computes (Floats; Rows and Cols stay 0).
  int64_t Rows = 0;
  int64_t Cols = 0;
  int64_t Floats = 0;
  /// Position writing the buffer: a value's defining step (for every value
  /// of a fused chain the producer's step), a gradient's first
  /// contribution (the seed for the output's), a partial's backward step.
  /// -1 for an input, and for a gradient or partial the run never writes.
  int DefStep = -1;
  /// Last position reading the buffer. The plan output gets a sentinel one
  /// past the last position (it is read after execution), and so does a
  /// gradient held by the caller's result. A never-read value dies at its
  /// defining step.
  int LastUse = -1;
  /// Pinned buffers get a dedicated slot and stay resident from DefStep to
  /// the end of the schedule: the output (read after the run) and
  /// setup-step results (graph-only; conceptually hoisted). In inference a
  /// sparse value is pinned too: each keeps its own value array in the
  /// workspace.
  bool Pinned = false;
  /// Index into slots() for DenseSlot/VecSlot buffers, and for SparseVals
  /// buffers of a training schedule; -1 otherwise.
  int Slot = -1;
  /// Held only in a fused producer's accumulators: the GEMM/SpMM result or
  /// an intermediate of the chain it applies. No slot, not pinned, and live
  /// at its producer's step alone (LastUse == DefStep).
  bool Elided = false;
};

/// The partial-gradient buffers of one backward step: what it computes
/// before adding into an accumulator. A GEMM's two partials share one.
struct StepPartials {
  ValueBuffer Dense; ///< DenseSlot partial
  ValueBuffer Edges; ///< SparseVals partial (an SpMM's edge gradient)
};

/// One reusable arena slot.
struct ArenaSlot {
  BufferClass Class = BufferClass::DenseSlot;
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

  /// Training: per step, its backward step's partial buffers, parallel to
  /// Plan.Steps. Empty in inference.
  const std::vector<StepPartials> &partials() const { return Partials; }

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
  /// (pinned buffers count from their definition to the end). Always
  /// <= naiveBytes().
  size_t peakBytes() const { return Peak; }

  /// Fresh-allocation baseline: every planned buffer resident at once. In
  /// inference, every produced value (what the executor allocated per call
  /// before buffer planning); in training also every gradient and every
  /// step's partial, each in its own allocation.
  size_t naiveBytes() const { return Naive; }

  /// Arena footprint: the sum of all slot capacities (and of inference's
  /// sparse value arrays). Can exceed peakBytes() when size classes
  /// fragment, but never naiveBytes().
  size_t arenaBytes() const { return Arena; }

  /// Human-readable listing: one line per value (lifetime, size, slot), in
  /// training one per gradient and partial, then the slot table and the
  /// three byte totals.
  std::string toString(const CompositionPlan &Plan) const;

private:
  bool TrainingMode = false;
  int Positions = 0;
  std::vector<ValueBuffer> Vals;
  std::vector<ValueBuffer> Grads;
  std::vector<StepPartials> Partials;
  std::vector<bool> GradPath;
  std::vector<int> FusedInto;
  std::vector<ArenaSlot> Slots;
  size_t Peak = 0;
  size_t Naive = 0;
  size_t Arena = 0;
};

} // namespace granii

#endif // GRANII_RUNTIME_BUFFERPLAN_H
