//===- VerifyBuffers.cpp - Buffer-schedule verification ---------------------===//

#include "verify/VerifyBuffers.h"

#include "kernels/Dispatch.h"

#include <algorithm>

using namespace granii;

namespace {

const char *className(BufferClass Class) {
  switch (Class) {
  case BufferClass::InputAlias:
    return "input";
  case BufferClass::DenseSlot:
    return "dense";
  case BufferClass::VecSlot:
    return "vec";
  case BufferClass::SparseVals:
    return "sparse";
  }
  return "?";
}

} // namespace

bool granii::verifyBufferAssignment(const CompositionPlan &Plan,
                                    const DimBinding &Binding, bool Training,
                                    const std::vector<ValueBuffer> &Vals,
                                    const std::vector<ArenaSlot> &Slots,
                                    DiagEngine &Diags,
                                    const std::string &Stage) {
  size_t Before = Diags.errorCount();
  auto Error = [&](const std::string &Node, std::string Message,
                   std::string Hint = "") {
    Diags.error(Stage, Plan.Name + "/" + Node, std::move(Message),
                std::move(Hint));
  };

  if (Vals.size() != Plan.Values.size()) {
    Error("values", "buffer table has " + std::to_string(Vals.size()) +
                        " entries for " + std::to_string(Plan.Values.size()) +
                        " plan values");
    return false;
  }

  const int NumSteps = static_cast<int>(Plan.Steps.size());

  // Recompute live intervals from the step list; the recorded ones are the
  // executor's aliasing contract and must agree exactly.
  std::vector<int> Def(Vals.size(), -1), Use(Vals.size(), -1);
  std::vector<int> Reads(Vals.size(), 0);
  for (int S = 0; S < NumSteps; ++S) {
    const PlanStep &Step = Plan.Steps[S];
    Def[static_cast<size_t>(Step.Result)] = S;
    for (int Id : Step.Operands) {
      Use[static_cast<size_t>(Id)] =
          std::max(Use[static_cast<size_t>(Id)], S);
      ++Reads[static_cast<size_t>(Id)];
    }
  }

  // Recompute the fused chains of an inference schedule, step by step in
  // plan order: a non-setup GEMM/SpMM result heads a chain (Root is its
  // step); a non-setup relu, or a row_bcast whose scale vector is defined
  // before that root, extends the chain of its dense operand when the
  // operand is read by nothing else, is not the output and the chain has
  // room. The operand then lives in the root's registers and the step's
  // result is written at the root's step.
  std::vector<int> Root(Vals.size(), -1), Depth(Vals.size(), 0);
  std::vector<bool> InRegisters(Vals.size(), false);
  for (int S = 0; S < NumSteps && !Training; ++S) {
    const PlanStep &Step = Plan.Steps[S];
    const auto R = static_cast<size_t>(Step.Result);
    if (Step.Setup)
      continue;
    if (Step.Op == StepOp::Gemm || Step.Op == StepOp::SpmmWeighted ||
        Step.Op == StepOp::SpmmUnweighted) {
      Root[R] = S;
      continue;
    }
    if (Step.Op != StepOp::Relu && Step.Op != StepOp::RowBcast)
      continue;
    const auto X = static_cast<size_t>(Step.Operands.back());
    if (Root[X] < 0 || Reads[X] != 1 ||
        static_cast<int>(X) == Plan.OutputValue ||
        Depth[X] == kernels::MaxEpilogueOps)
      continue;
    if (Step.Op == StepOp::RowBcast &&
        Def[static_cast<size_t>(Step.Operands[0])] >= Root[X])
      continue;
    Root[R] = Root[X];
    Depth[R] = Depth[X] + 1;
    InRegisters[X] = true;
  }
  for (size_t V = 0; V < Vals.size(); ++V) {
    if (Root[V] >= 0)
      Def[V] = Root[V];
    if (InRegisters[V])
      Use[V] = Def[V];
  }
  for (size_t V = 0; V < Vals.size(); ++V)
    if (Def[V] >= 0 && Use[V] < Def[V])
      Use[V] = Def[V];
  if (Plan.OutputValue >= 0)
    Use[static_cast<size_t>(Plan.OutputValue)] = NumSteps;

  for (size_t V = 0; V < Vals.size(); ++V) {
    const ValueBuffer &B = Vals[V];
    const PlanValue &Val = Plan.Values[V];
    std::string Node = "v" + std::to_string(V);

    if (Val.InputRole) {
      if (B.Class != BufferClass::InputAlias)
        Error(Node, "input value stored in a " +
                        std::string(className(B.Class)) + " buffer",
              "bound caller tensors are aliased, never copied");
      continue;
    }
    if (B.Class == BufferClass::InputAlias) {
      Error(Node, "produced value marked as an input alias");
      continue;
    }

    // Class and payload size per value kind under the binding.
    BufferClass WantClass = BufferClass::DenseSlot;
    int64_t WantFloats = 0;
    switch (Val.Kind) {
    case PlanValueKind::Dense:
      WantClass = BufferClass::DenseSlot;
      WantFloats = Binding.eval(Val.Shape.Rows) * Binding.eval(Val.Shape.Cols);
      break;
    case PlanValueKind::Diag:
    case PlanValueKind::NodeVec:
      WantClass = BufferClass::VecSlot;
      WantFloats = Binding.eval(Val.Shape.Rows);
      break;
    case PlanValueKind::Sparse:
      WantClass = BufferClass::SparseVals;
      WantFloats = Binding.E;
      break;
    }
    if (B.Class != WantClass)
      Error(Node, std::string("buffer class ") + className(B.Class) +
                      " does not match the value kind (expected " +
                      className(WantClass) + ")");
    if (B.Floats != WantFloats)
      Error(Node, "payload " + std::to_string(B.Floats) +
                      " floats, expected " + std::to_string(WantFloats) +
                      " under this binding");

    if (B.DefStep != Def[V])
      Error(Node, "definition recorded at step " + std::to_string(B.DefStep) +
                      ", recomputed " + std::to_string(Def[V]));
    if (B.LastUse != Use[V]) {
      bool Stale = B.LastUse < Use[V];
      Error(Node,
            "last use recorded at step " + std::to_string(B.LastUse) +
                ", but the value is " +
                (Stale ? "read until step " : "dead after step ") +
                std::to_string(Use[V]),
            Stale ? "a slot freed early gets overwritten while still live"
                  : "");
    }

    if (Training && Def[V] >= 0 && !B.Pinned)
      Error(Node, "unpinned value in training mode",
            "the backward pass re-reads every forward activation");

    if (B.Elided != InRegisters[V]) {
      Error(Node,
            B.Elided ? "kept in registers, but no fused chain passes "
                       "through it"
                     : "stored, but the fused chain of step " +
                           std::to_string(Def[V]) + " holds it in registers",
            B.Elided ? "an elided value another step reads is never written"
                     : "");
      continue;
    }
    if (B.Elided) {
      if (B.Slot >= 0 || B.Pinned)
        Error(Node, "value held in registers has an arena slot",
              "a fused chain's intermediates get no storage");
      continue;
    }

    // Slot reference validity.
    if (B.Class == BufferClass::SparseVals) {
      if (B.Slot >= 0)
        Error(Node, "sparse value assigned an arena slot",
              "per-edge arrays get dedicated storage");
      continue;
    }
    if (Def[V] < 0)
      continue; // never produced; nothing to place
    if (B.Slot < 0 || static_cast<size_t>(B.Slot) >= Slots.size()) {
      Error(Node, "slot " + std::to_string(B.Slot) + " out of range");
      continue;
    }
    const ArenaSlot &Slot = Slots[static_cast<size_t>(B.Slot)];
    if (Slot.Class != B.Class)
      Error(Node, std::string("assigned to a ") + className(Slot.Class) +
                      " slot, value needs " + className(B.Class));
    if (Slot.CapacityFloats < B.Floats)
      Error(Node, "slot " + std::to_string(B.Slot) + " capacity " +
                      std::to_string(Slot.CapacityFloats) +
                      " floats is smaller than the payload " +
                      std::to_string(B.Floats));
    if (B.Pinned && !Slot.Pinned)
      Error(Node, "pinned value placed in a shared slot");
  }

  // Slot exclusivity: values sharing a slot must have disjoint lifetimes.
  // A pinned value stays resident from its definition to the end; a step's
  // operands are live through the step itself, so a successor may claim
  // the slot no earlier than the step *after* the previous value's last
  // use.
  for (size_t SlotId = 0; SlotId < Slots.size(); ++SlotId) {
    struct Interval {
      int Def, End;
      size_t Value;
    };
    std::vector<Interval> Assigned;
    for (size_t V = 0; V < Vals.size(); ++V) {
      const ValueBuffer &B = Vals[V];
      if (B.Slot != static_cast<int>(SlotId) || Def[V] < 0)
        continue;
      Assigned.push_back({Def[V], B.Pinned ? NumSteps : Use[V], V});
    }
    if (Slots[SlotId].Pinned && Assigned.size() > 1)
      Diags.error(Stage, Plan.Name + "/slot" + std::to_string(SlotId),
                  "pinned slot shared by " +
                      std::to_string(Assigned.size()) + " values");
    std::sort(Assigned.begin(), Assigned.end(),
              [](const Interval &A, const Interval &B) {
                return A.Def < B.Def;
              });
    for (size_t I = 0; I + 1 < Assigned.size(); ++I)
      if (Assigned[I + 1].Def <= Assigned[I].End)
        Diags.error(
            Stage, Plan.Name + "/slot" + std::to_string(SlotId),
            "overlapping lifetimes: v" + std::to_string(Assigned[I].Value) +
                " live through step " + std::to_string(Assigned[I].End) +
                ", v" + std::to_string(Assigned[I + 1].Value) +
                " defined at step " + std::to_string(Assigned[I + 1].Def),
            "the later write would clobber the earlier value while live");
  }

  return Diags.errorCount() == Before;
}

bool granii::verifyBufferPlan(const CompositionPlan &Plan,
                              const DimBinding &Binding,
                              const BufferPlan &Buffers, DiagEngine &Diags,
                              const std::string &Stage) {
  size_t Before = Diags.errorCount();
  verifyBufferAssignment(Plan, Binding, Buffers.training(), Buffers.values(),
                         Buffers.slots(), Diags, Stage);
  if (Buffers.peakBytes() > Buffers.naiveBytes())
    Diags.error(Stage, Plan.Name,
                "planned peak " + std::to_string(Buffers.peakBytes()) +
                    " B exceeds the naive baseline " +
                    std::to_string(Buffers.naiveBytes()) + " B");
  if (Buffers.arenaBytes() > Buffers.naiveBytes())
    Diags.error(Stage, Plan.Name,
                "arena footprint " + std::to_string(Buffers.arenaBytes()) +
                    " B exceeds the naive baseline " +
                    std::to_string(Buffers.naiveBytes()) + " B");
  return Diags.errorCount() == Before;
}

bool granii::verifyRowPartition(std::span<const int64_t> RowOffsets,
                                const std::vector<int64_t> &Bounds,
                                DiagEngine &Diags, const std::string &Stage) {
  size_t Before = Diags.errorCount();
  int64_t NumRows =
      std::max<int64_t>(static_cast<int64_t>(RowOffsets.size()) - 1, 0);
  if (Bounds.size() < 2) {
    Diags.error(Stage, "bounds",
                "partition needs at least one chunk (two bounds), got " +
                    std::to_string(Bounds.size()));
    return false;
  }
  if (Bounds.front() != 0)
    Diags.error(Stage, "bounds",
                "partition starts at row " + std::to_string(Bounds.front()) +
                    ", leaving rows before it uncovered");
  if (Bounds.back() != NumRows)
    Diags.error(Stage, "bounds",
                "partition ends at row " + std::to_string(Bounds.back()) +
                    ", expected " + std::to_string(NumRows));
  for (size_t I = 0; I + 1 < Bounds.size(); ++I)
    if (Bounds[I] > Bounds[I + 1])
      Diags.error(Stage, "bounds[" + std::to_string(I + 1) + "]",
                  "bound decreases from " + std::to_string(Bounds[I]) +
                      " to " + std::to_string(Bounds[I + 1]),
                  "overlapping chunks race on the shared output rows");
  return Diags.errorCount() == Before;
}
