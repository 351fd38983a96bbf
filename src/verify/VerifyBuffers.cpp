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

/// One contribution of a backward step, as the executor's backward pass
/// makes it: the operand whose gradient it adds into, the operand it reads
/// to do so (NoRead, or OwnResult for the step's own output), and whether
/// its kernel may write that gradient over its result's gradient (it reads
/// each element of the one before writing the same element of the other).
constexpr int NoRead = -1;
constexpr int OwnResult = -2;
struct GradRule {
  int Into;
  int Reads;
  bool InPlace;
};

std::vector<GradRule> gradRules(StepOp Op) {
  switch (Op) {
  case StepOp::Gemm:
    return {{0, 1, false}, {1, 0, false}};
  case StepOp::SpmmWeighted:
    return {{1, 0, false}, {0, 1, false}};
  case StepOp::SpmmUnweighted:
    return {{1, NoRead, false}, {0, 1, false}};
  case StepOp::RowBcast:
    return {{1, 0, false}};
  case StepOp::ColBcast:
    return {{0, 1, false}};
  case StepOp::AddDense:
    return {{0, NoRead, false}, {1, NoRead, false}};
  case StepOp::ScaleDense:
    return {{0, NoRead, false}};
  case StepOp::Relu: // its output's mask is its input's
  case StepOp::EdgeSoftmax:
    return {{0, OwnResult, true}};
  case StepOp::EdgeLeakyRelu:
    return {{0, 0, true}};
  case StepOp::AttnGemv:
    return {{0, 1, false}, {1, 0, false}};
  case StepOp::EdgeLogits:
    return {{1, NoRead, false}, {2, NoRead, false}};
  default:
    return {}; // graph-only steps pass no gradient on
  }
}

} // namespace

bool granii::verifyBufferAssignment(const CompositionPlan &Plan,
                                    const DimBinding &Binding, bool Training,
                                    const std::vector<ValueBuffer> &Vals,
                                    const std::vector<ValueBuffer> &Grads,
                                    const std::vector<ArenaSlot> &Slots,
                                    DiagEngine &Diags,
                                    const std::string &Stage) {
  size_t Before = Diags.errorCount();
  auto Error = [&](const std::string &Node, std::string Message,
                   std::string Hint = "") {
    Diags.error(Stage, Plan.Name + "/" + Node, std::move(Message),
                std::move(Hint));
  };

  const int NumSteps = static_cast<int>(Plan.Steps.size());
  if (Vals.size() != Plan.Values.size()) {
    Error("values", "buffer table has " + std::to_string(Vals.size()) +
                        " entries for " + std::to_string(Plan.Values.size()) +
                        " plan values");
    return false;
  }
  const size_t WantGrads = Training ? Vals.size() : 0;
  if (Grads.size() != WantGrads) {
    Error("grads", "schedule has " + std::to_string(Grads.size()) +
                       " gradient entries, expected " +
                       std::to_string(WantGrads));
    return false;
  }
  // Positions: the steps, then in training the seed of dL/dOut and the
  // backward step of each forward step S at 2 * NumSteps - S.
  const int Positions = Training ? 2 * NumSteps + 1 : NumSteps;

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

  // Recompute the backward pass of a training schedule. A value's gradient
  // flows when the value depends on a parameter or the features. Walking
  // the steps in reverse from the seed, a step whose result has a gradient
  // reads it at its backward position, reads the forward values its rules
  // name (BackwardUse: the last such position per value) and writes the
  // gradients it adds into first; an in-place rule's first contribution may
  // take the slot of the step's result gradient (InPlaceOf: that result).
  // A parameter's or the features' gradient is the caller's.
  std::vector<bool> Flows(Vals.size(), false);
  for (size_t V = 0; V < Vals.size(); ++V) {
    const std::optional<LeafRole> &Role = Plan.Values[V].InputRole;
    Flows[V] = Role == LeafRole::Features || Role == LeafRole::Weight ||
               Role == LeafRole::AttnSrcVec || Role == LeafRole::AttnDstVec;
  }
  std::vector<int> GradDef(Vals.size(), -1), GradUse(Vals.size(), -1);
  std::vector<int> BackwardUse(Vals.size(), -1), InPlaceOf(Vals.size(), -1);
  if (Training) {
    for (const PlanStep &Step : Plan.Steps)
      for (int Id : Step.Operands)
        if (Flows[static_cast<size_t>(Id)])
          Flows[static_cast<size_t>(Step.Result)] = true;
    GradDef[static_cast<size_t>(Plan.OutputValue)] = NumSteps;
    for (int S = NumSteps - 1; S >= 0; --S) {
      const PlanStep &Step = Plan.Steps[static_cast<size_t>(S)];
      const auto R = static_cast<size_t>(Step.Result);
      if (GradDef[R] < 0)
        continue;
      const int Pos = 2 * NumSteps - S;
      GradUse[R] = Pos;
      for (const GradRule &Rule : gradRules(Step.Op)) {
        const int Into = Step.Operands[static_cast<size_t>(Rule.Into)];
        if (!Flows[static_cast<size_t>(Into)])
          continue;
        const int Read = Rule.Reads == OwnResult ? Step.Result
                         : Rule.Reads == NoRead
                             ? -1
                             : Step.Operands[static_cast<size_t>(Rule.Reads)];
        if (Read >= 0)
          BackwardUse[static_cast<size_t>(Read)] =
              std::max(BackwardUse[static_cast<size_t>(Read)], Pos);
        if (GradDef[static_cast<size_t>(Into)] >= 0)
          continue;
        GradDef[static_cast<size_t>(Into)] = Pos;
        if (Rule.InPlace && !Plan.Values[static_cast<size_t>(Into)].InputRole)
          InPlaceOf[static_cast<size_t>(Into)] = Step.Result;
      }
    }
    for (size_t V = 0; V < Vals.size(); ++V)
      if (Plan.Values[V].InputRole && GradDef[V] >= 0)
        GradUse[V] = Positions; // the caller reads it after the run
  }

  // Recompute the fused chains, step by step in plan order: a non-setup
  // GEMM/SpMM result heads a chain (Root is its step); a non-setup relu, or
  // a row_bcast whose scale vector is defined before that root, extends the
  // chain of its dense operand when the operand is read by nothing else, no
  // backward step reads it, it is not the output and the chain has room.
  // The operand then lives in the root's registers and the step's result is
  // written at the root's step.
  std::vector<int> Root(Vals.size(), -1), Depth(Vals.size(), 0);
  std::vector<bool> InRegisters(Vals.size(), false);
  for (int S = 0; S < NumSteps; ++S) {
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
    if (Root[X] < 0 || Reads[X] != 1 || BackwardUse[X] >= 0 ||
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
    Use[V] = std::max(Use[V], BackwardUse[V]);
  }

  for (size_t V = 0; V < Vals.size(); ++V)
    if (Def[V] >= 0 && Use[V] < Def[V])
      Use[V] = Def[V];
  if (Plan.OutputValue >= 0)
    Use[static_cast<size_t>(Plan.OutputValue)] = Positions;

  // A stored buffer's slot reference: in range and large enough. Any slot
  // holds any kind of buffer.
  auto CheckSlot = [&](const std::string &Node, const ValueBuffer &B) {
    if (B.Slot < 0 || static_cast<size_t>(B.Slot) >= Slots.size()) {
      Error(Node, "slot " + std::to_string(B.Slot) + " out of range");
      return;
    }
    const ArenaSlot &Slot = Slots[static_cast<size_t>(B.Slot)];
    if (Slot.CapacityFloats < B.Floats)
      Error(Node, "slot " + std::to_string(B.Slot) + " capacity " +
                      std::to_string(Slot.CapacityFloats) +
                      " floats is smaller than the payload " +
                      std::to_string(B.Floats));
    if (B.Pinned && !Slot.Pinned)
      Error(Node, "pinned buffer placed in a shared slot");
  };
  // A recorded interval against the recomputed one.
  auto CheckInterval = [&](const std::string &Node, const ValueBuffer &B,
                           int WantDef, int WantUse) {
    if (B.DefStep != WantDef)
      Error(Node, "definition recorded at step " + std::to_string(B.DefStep) +
                      ", recomputed " + std::to_string(WantDef));
    if (WantDef < 0 || B.LastUse == WantUse)
      return;
    bool Stale = B.LastUse < WantUse;
    Error(Node,
          "last use recorded at step " + std::to_string(B.LastUse) +
              ", but it is " + (Stale ? "read until step " : "dead after step ") +
              std::to_string(WantUse),
          Stale ? "a slot freed early gets overwritten while still live"
                : "");
  };
  // Class and payload size of a value (or its gradient) per kind.
  auto WantClass = [&](size_t V) {
    switch (Plan.Values[V].Kind) {
    case PlanValueKind::Dense:
      return BufferClass::DenseSlot;
    case PlanValueKind::Diag:
    case PlanValueKind::NodeVec:
      return BufferClass::VecSlot;
    case PlanValueKind::Sparse:
      return BufferClass::SparseVals;
    }
    return BufferClass::DenseSlot;
  };
  auto WantFloats = [&](size_t V) {
    const PlanValue &Val = Plan.Values[V];
    switch (Val.Kind) {
    case PlanValueKind::Dense:
      return Binding.eval(Val.Shape.Rows) * Binding.eval(Val.Shape.Cols);
    case PlanValueKind::Diag:
    case PlanValueKind::NodeVec:
      return Binding.eval(Val.Shape.Rows);
    case PlanValueKind::Sparse:
      return Binding.E;
    }
    return int64_t{0};
  };
  auto CheckPayload = [&](const std::string &Node, const ValueBuffer &B,
                          BufferClass Class, int64_t Floats) {
    if (B.Class != Class)
      Error(Node, std::string("buffer class ") + className(B.Class) +
                      " does not match the value kind (expected " +
                      className(Class) + ")");
    if (B.Floats != Floats)
      Error(Node, "payload " + std::to_string(B.Floats) +
                      " floats, expected " + std::to_string(Floats) +
                      " under this binding");
  };

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
    CheckPayload(Node, B, WantClass(V), WantFloats(V));
    CheckInterval(Node, B, Def[V], Use[V]);

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

    if (Def[V] < 0)
      continue; // never produced; nothing to place
    CheckSlot(Node, B);
  }

  // Gradients of a training schedule. One recorded in place must be an
  // in-place rule's first contribution, in its source's slot.
  for (size_t V = 0; V < Grads.size(); ++V) {
    const ValueBuffer &G = Grads[V];
    const std::string Node = "grad(v" + std::to_string(V) + ")";
    CheckInterval(Node, G, GradDef[V], GradUse[V]);
    if (GradDef[V] < 0)
      continue;
    if (Plan.Values[V].InputRole) {
      if (G.Class != BufferClass::InputAlias || G.Slot >= 0)
        Error(Node, "parameter or feature gradient stored in the workspace",
              "the caller's result holds it");
      continue;
    }
    CheckPayload(Node, G, WantClass(V), WantFloats(V));
    CheckSlot(Node, G);
    if (G.InPlace &&
        (InPlaceOf[V] < 0 ||
         G.Slot != Grads[static_cast<size_t>(InPlaceOf[V])].Slot))
      Error(Node, "recorded in place, but it is not the first contribution "
                  "of a relu, edge leaky relu or edge softmax backward step "
                  "written in its result gradient's slot");
  }

  // Slot exclusivity: buffers sharing a slot must have disjoint lifetimes,
  // taken from the recomputed intervals. A pinned buffer stays resident
  // from its definition to the end; a position's operands are live through
  // it, so a successor may claim the slot no earlier than the position
  // *after* the previous buffer's last use. The one exception is an
  // in-place rule's first contribution (InPlaceOf), which may claim its
  // source gradient's slot at the step that reads that gradient last.
  struct Interval {
    int Def, End;
    int Grad; ///< the value whose gradient this is, -1 for a value
    std::string Node;
  };
  std::vector<std::vector<Interval>> Assigned(Slots.size());
  auto Claim = [&](const ValueBuffer &B, int From, int To, int Grad,
                   std::string Node) {
    if (B.Slot >= 0 && static_cast<size_t>(B.Slot) < Slots.size() &&
        From >= 0)
      Assigned[static_cast<size_t>(B.Slot)].push_back(
          {From, B.Pinned ? Positions : To, Grad, std::move(Node)});
  };
  for (size_t V = 0; V < Vals.size(); ++V)
    Claim(Vals[V], Def[V], Use[V], -1, "v" + std::to_string(V));
  for (size_t V = 0; V < Grads.size(); ++V)
    Claim(Grads[V], GradDef[V], GradUse[V], static_cast<int>(V),
          "the gradient of v" + std::to_string(V));
  for (size_t SlotId = 0; SlotId < Slots.size(); ++SlotId) {
    std::vector<Interval> &In = Assigned[SlotId];
    if (Slots[SlotId].Pinned && In.size() > 1)
      Diags.error(Stage, Plan.Name + "/slot" + std::to_string(SlotId),
                  "pinned slot shared by " + std::to_string(In.size()) +
                      " buffers");
    std::stable_sort(In.begin(), In.end(),
                     [](const Interval &A, const Interval &B) {
                       return A.Def < B.Def;
                     });
    for (size_t I = 0; I + 1 < In.size(); ++I) {
      const Interval &Prev = In[I], &Next = In[I + 1];
      const bool InPlace = Next.Def == Prev.End && Next.Grad >= 0 &&
                           Prev.Grad >= 0 &&
                           InPlaceOf[static_cast<size_t>(Next.Grad)] ==
                               Prev.Grad;
      if (Next.Def <= Prev.End && !InPlace)
        Diags.error(Stage, Plan.Name + "/slot" + std::to_string(SlotId),
                    "overlapping lifetimes: " + Prev.Node +
                        " live through step " + std::to_string(Prev.End) +
                        ", " + Next.Node + " defined at step " +
                        std::to_string(Next.Def),
                    "the later write would clobber the earlier value while "
                    "live");
    }
  }

  return Diags.errorCount() == Before;
}

bool granii::verifyBufferPlan(const CompositionPlan &Plan,
                              const DimBinding &Binding,
                              const BufferPlan &Buffers, DiagEngine &Diags,
                              const std::string &Stage) {
  size_t Before = Diags.errorCount();
  verifyBufferAssignment(Plan, Binding, Buffers.training(), Buffers.values(),
                         Buffers.grads(), Buffers.slots(), Diags, Stage);
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
