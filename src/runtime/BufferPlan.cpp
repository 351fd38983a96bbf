//===- BufferPlan.cpp - Static buffer lifetime planning ---------------------===//

#include "runtime/BufferPlan.h"

#include "kernels/Dispatch.h"
#include "support/Error.h"

#include <algorithm>
#include <sstream>

using namespace granii;

namespace {

/// Ops whose output rows a fused chain can finish in registers.
bool takesEpilogue(StepOp Op) {
  return Op == StepOp::Gemm || Op == StepOp::SpmmWeighted ||
         Op == StepOp::SpmmUnweighted;
}

} // namespace

BufferPlan::BufferPlan(const CompositionPlan &Plan, const DimBinding &Binding,
                       bool Training)
    : TrainingMode(Training), Vals(Plan.Values.size()),
      FusedInto(Plan.Steps.size(), -1) {
  const int NumSteps = static_cast<int>(Plan.Steps.size());

  // Classify every value and size its payload under the binding.
  for (size_t V = 0; V < Plan.Values.size(); ++V) {
    const PlanValue &Def = Plan.Values[V];
    ValueBuffer &B = Vals[V];
    if (Def.InputRole) {
      B.Class = BufferClass::InputAlias;
      continue;
    }
    switch (Def.Kind) {
    case PlanValueKind::Dense:
      B.Class = BufferClass::DenseSlot;
      B.Rows = Binding.eval(Def.Shape.Rows);
      B.Cols = Binding.eval(Def.Shape.Cols);
      B.Floats = B.Rows * B.Cols;
      break;
    case PlanValueKind::Diag:
    case PlanValueKind::NodeVec:
      B.Class = BufferClass::VecSlot;
      B.Rows = Binding.eval(Def.Shape.Rows);
      B.Cols = 1;
      B.Floats = B.Rows;
      break;
    case PlanValueKind::Sparse:
      // A value array over the bound adjacency's pattern, which every
      // sparse value shares: nothing of the pattern is stored per value.
      B.Class = BufferClass::SparseVals;
      B.Rows = Binding.eval(Def.Shape.Rows);
      B.Cols = Binding.eval(Def.Shape.Cols);
      B.Floats = Binding.E;
      break;
    }
  }

  // Live intervals: definition step and last reading step.
  std::vector<int> Reads(Vals.size(), 0), Reader(Vals.size(), -1);
  for (int S = 0; S < NumSteps; ++S) {
    const PlanStep &Step = Plan.Steps[S];
    Vals[static_cast<size_t>(Step.Result)].DefStep = S;
    for (int Id : Step.Operands) {
      ValueBuffer &B = Vals[static_cast<size_t>(Id)];
      B.LastUse = std::max(B.LastUse, S);
      ++Reads[static_cast<size_t>(Id)];
      Reader[static_cast<size_t>(Id)] = S;
    }
  }

  // Fused chains, inference only. From each GEMM/SpMM result, the chain
  // takes the value's one reader while that reader is a row_bcast or relu
  // (a row_bcast only when its scale vector exists before the producer
  // runs) and the value is not the output. Every value of the chain is
  // written at the producer's step; all but the last stay in registers.
  std::vector<int> Stores(static_cast<size_t>(NumSteps), -1);
  for (int S = 0; S < NumSteps; ++S)
    Stores[static_cast<size_t>(S)] = Plan.Steps[S].Result;
  for (int P = 0; P < NumSteps && !Training; ++P) {
    const PlanStep &Producer = Plan.Steps[P];
    if (Producer.Setup || !takesEpilogue(Producer.Op))
      continue;
    int Cur = Producer.Result;
    for (int Len = 0; Len < kernels::MaxEpilogueOps; ++Len) {
      const auto C = static_cast<size_t>(Cur);
      if (Cur == Plan.OutputValue || Reads[C] != 1)
        break;
      const int S = Reader[C];
      const PlanStep &Next = Plan.Steps[static_cast<size_t>(S)];
      const bool Fits =
          !Next.Setup &&
          (Next.Op == StepOp::Relu ||
           (Next.Op == StepOp::RowBcast && Next.Operands[1] == Cur &&
            Vals[static_cast<size_t>(Next.Operands[0])].DefStep < P));
      if (!Fits)
        break;
      Vals[C].Elided = true;
      Vals[C].LastUse = P;
      Stores[static_cast<size_t>(S)] = -1;
      FusedInto[static_cast<size_t>(S)] = P;
      Cur = Next.Result;
      Vals[static_cast<size_t>(Cur)].DefStep = P;
    }
    Stores[static_cast<size_t>(P)] = Cur;
  }
  for (ValueBuffer &B : Vals)
    if (B.DefStep >= 0 && B.LastUse < B.DefStep)
      B.LastUse = B.DefStep; // produced but never read: dies immediately
  if (Plan.OutputValue >= 0)
    Vals[static_cast<size_t>(Plan.OutputValue)].LastUse = NumSteps;

  // Pinning: values whose storage may not be shared.
  for (size_t V = 0; V < Plan.Values.size(); ++V) {
    ValueBuffer &B = Vals[V];
    if (B.Class == BufferClass::InputAlias || B.DefStep < 0 || B.Elided)
      continue;
    if (Training || B.Class == BufferClass::SparseVals ||
        Plan.Steps[static_cast<size_t>(B.DefStep)].Setup ||
        static_cast<int>(V) == Plan.OutputValue)
      B.Pinned = true;
  }

  // Greedy slot assignment in step order. At each step, slots whose value
  // died strictly before it are returned to the free list, then the value
  // the step stores (its result, a fused chain's last value, or none for a
  // step a chain absorbed) picks the best-fitting free slot of its class
  // (smallest capacity that holds it; else the largest free slot, grown).
  // A step's operands are live through the step itself (LastUse >= S), so a
  // destination slot can never alias an operand's slot.
  std::vector<int> FreeSlots;
  for (int S = 0; S < NumSteps; ++S) {
    for (const ValueBuffer &B : Vals)
      if (B.Slot >= 0 && !B.Pinned && B.LastUse == S - 1)
        FreeSlots.push_back(B.Slot);

    const int Stored = Stores[static_cast<size_t>(S)];
    if (Stored < 0)
      continue; // absorbed: its chain's producer stored the value
    ValueBuffer &Out = Vals[static_cast<size_t>(Stored)];
    if (Out.Class == BufferClass::SparseVals)
      continue; // dedicated per-value storage, no slot
    if (Out.Pinned) {
      Out.Slot = static_cast<int>(Slots.size());
      Slots.push_back({Out.Class, Out.Floats, /*Pinned=*/true});
      continue;
    }
    int Best = -1, Largest = -1;
    for (size_t F = 0; F < FreeSlots.size(); ++F) {
      const ArenaSlot &Slot = Slots[static_cast<size_t>(FreeSlots[F])];
      if (Slot.Class != Out.Class)
        continue;
      if (Slot.CapacityFloats >= Out.Floats &&
          (Best < 0 || Slot.CapacityFloats <
                           Slots[static_cast<size_t>(FreeSlots[static_cast<size_t>(Best)])]
                               .CapacityFloats))
        Best = static_cast<int>(F);
      if (Largest < 0 ||
          Slot.CapacityFloats >
              Slots[static_cast<size_t>(FreeSlots[static_cast<size_t>(Largest)])]
                  .CapacityFloats)
        Largest = static_cast<int>(F);
    }
    int Pick = Best >= 0 ? Best : Largest;
    if (Pick >= 0) {
      Out.Slot = FreeSlots[static_cast<size_t>(Pick)];
      ArenaSlot &Slot = Slots[static_cast<size_t>(Out.Slot)];
      Slot.CapacityFloats = std::max(Slot.CapacityFloats, Out.Floats);
      FreeSlots.erase(FreeSlots.begin() + Pick);
    } else {
      Out.Slot = static_cast<int>(Slots.size());
      Slots.push_back({Out.Class, Out.Floats, /*Pinned=*/false});
    }
  }

  // Byte accounting. Naive: every produced payload resident at once. Peak:
  // the worst step's live set, where pinned values stay resident from their
  // definition to the end. Arena: what the workspace actually allocates.
  for (const ValueBuffer &B : Vals)
    if (B.Class != BufferClass::InputAlias && B.DefStep >= 0)
      Naive += static_cast<size_t>(B.Floats) * sizeof(float);
  for (int S = 0; S < NumSteps; ++S) {
    size_t Live = 0;
    for (const ValueBuffer &B : Vals) {
      if (B.Class == BufferClass::InputAlias || B.DefStep < 0 ||
          B.DefStep > S || B.Elided)
        continue;
      if (B.Pinned || B.LastUse >= S)
        Live += static_cast<size_t>(B.Floats) * sizeof(float);
    }
    Peak = std::max(Peak, Live);
  }
  for (const ArenaSlot &Slot : Slots)
    Arena += static_cast<size_t>(Slot.CapacityFloats) * sizeof(float);
  for (const ValueBuffer &B : Vals)
    if (B.Class == BufferClass::SparseVals && B.DefStep >= 0)
      Arena += static_cast<size_t>(B.Floats) * sizeof(float);
}

std::string BufferPlan::toString(const CompositionPlan &Plan) const {
  auto ClassName = [](BufferClass C) {
    switch (C) {
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
  };
  std::ostringstream OS;
  OS << "buffers for " << Plan.Name << (TrainingMode ? " (training)" : "")
     << ":\n";
  for (size_t V = 0; V < Vals.size(); ++V) {
    const ValueBuffer &B = Vals[V];
    std::string Name = Plan.Values[V].DebugName.empty()
                           ? "v" + std::to_string(V)
                           : Plan.Values[V].DebugName;
    OS << "  %" << V << " " << Name << ": " << ClassName(B.Class);
    if (B.Class == BufferClass::InputAlias) {
      OS << " (aliased)\n";
      continue;
    }
    if (B.Elided) {
      OS << " " << B.Floats << " floats, in step " << B.DefStep
         << "'s registers (fused)\n";
      continue;
    }
    OS << " " << B.Floats << " floats, live [" << B.DefStep << ", "
       << B.LastUse << "]";
    if (B.Pinned)
      OS << ", pinned";
    if (B.Slot >= 0)
      OS << ", slot " << B.Slot;
    OS << "\n";
  }
  for (size_t S = 0; S < FusedInto.size(); ++S)
    if (FusedInto[S] >= 0)
      OS << "  step " << S << " (" << stepOpName(Plan.Steps[S].Op)
         << ") fused into step " << FusedInto[S] << "\n";
  for (size_t S = 0; S < Slots.size(); ++S)
    OS << "  slot " << S << ": " << ClassName(Slots[S].Class) << " "
       << Slots[S].CapacityFloats << " floats"
       << (Slots[S].Pinned ? " (pinned)" : "") << "\n";
  OS << "  peak " << Peak << " B, naive " << Naive << " B, arena " << Arena
     << " B\n";
  return OS.str();
}
