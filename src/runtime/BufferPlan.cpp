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

/// Values that transitively depend on learned parameters or features, i.e.
/// the ones the backward pass must reach.
std::vector<bool> computeGradPath(const CompositionPlan &Plan) {
  std::vector<bool> Need(Plan.Values.size(), false);
  for (size_t V = 0; V < Plan.Values.size(); ++V) {
    const PlanValue &Val = Plan.Values[V];
    if (Val.InputRole && *Val.InputRole != LeafRole::Adjacency &&
        *Val.InputRole != LeafRole::DegreeNorm &&
        *Val.InputRole != LeafRole::DegreeInv)
      Need[V] = true;
  }
  for (const PlanStep &Step : Plan.Steps) {
    bool Any = false;
    for (int Id : Step.Operands)
      Any |= Need[static_cast<size_t>(Id)];
    Need[static_cast<size_t>(Step.Result)] = Any;
  }
  return Need;
}

/// What the backward step of \p Step touches once its result's gradient is
/// present, as PlanInterpreter::backward runs it: the forward values it
/// reads, the values whose gradients it adds into (in the order it adds),
/// and whether its one contribution may take its result gradient's slot.
struct BackwardUse {
  std::vector<int> Reads;
  std::vector<int> Adds;
  /// An element-wise step (relu, edge leaky relu, edge softmax) whose
  /// kernel reads each element of its result's gradient before it writes
  /// that element of its operand's.
  bool InPlace = false;
};

BackwardUse backwardUse(const PlanStep &Step, const std::vector<bool> &Need) {
  BackwardUse U;
  auto Op = [&](int I) { return Step.Operands[static_cast<size_t>(I)]; };
  // Adds into operand I's gradient when the backward pass reaches it,
  // reading value Read (-1: none).
  auto Add = [&](int I, int Read) {
    if (!Need[static_cast<size_t>(Op(I))])
      return;
    U.Adds.push_back(Op(I));
    if (Read >= 0)
      U.Reads.push_back(Read);
  };
  switch (Step.Op) {
  case StepOp::Gemm: // dA = dY B^T, dB = A^T dY
    Add(0, Op(1));
    Add(1, Op(0));
    break;
  case StepOp::SpmmWeighted:
  case StepOp::SpmmUnweighted: // dX = S^T dY, dS = SDDMM(dY, X)
    Add(1, Step.Op == StepOp::SpmmWeighted ? Op(0) : -1);
    Add(0, Op(1));
    break;
  case StepOp::RowBcast:
    Add(1, Op(0));
    break;
  case StepOp::ColBcast:
    Add(0, Op(1));
    break;
  case StepOp::AddDense:
    Add(0, -1);
    Add(1, -1);
    break;
  case StepOp::ScaleDense:
    Add(0, -1);
    break;
  case StepOp::Relu: // the mask of its output is the mask of its input
  case StepOp::EdgeSoftmax:
    Add(0, Step.Result);
    U.InPlace = true;
    break;
  case StepOp::EdgeLeakyRelu:
    Add(0, Op(0));
    U.InPlace = true;
    break;
  case StepOp::AttnGemv: // dTheta reads the vector, da reads Theta
    Add(0, Op(1));
    Add(1, Op(0));
    break;
  case StepOp::EdgeLogits:
    Add(1, -1);
    Add(2, -1);
    break;
  case StepOp::SddmmScaleRow:
  case StepOp::SddmmScaleCol:
  case StepOp::SddmmScaleBoth:
  case StepOp::DiagDiag:
  case StepOp::DegreeOffsets:
  case StepOp::DegreeBinning:
  case StepOp::InvSqrtVec:
  case StepOp::InvVec:
    break; // graph-only
  }
  return U;
}

} // namespace

BufferPlan::BufferPlan(const CompositionPlan &Plan, const DimBinding &Binding,
                       bool Training)
    : TrainingMode(Training), Vals(Plan.Values.size()),
      FusedInto(Plan.Steps.size(), -1) {
  const int NumSteps = static_cast<int>(Plan.Steps.size());
  Positions = Training ? 2 * NumSteps + 1 : NumSteps;

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

  // Training: which steps the backward pass runs, walking back from the
  // seed (a step runs once its result has a gradient), what each touches,
  // and which forward values some backward step reads.
  std::vector<BackwardUse> Uses(static_cast<size_t>(NumSteps));
  std::vector<bool> Runs(static_cast<size_t>(NumSteps), false);
  std::vector<bool> ReadBackward(Vals.size(), false);
  if (Training) {
    GradPath = computeGradPath(Plan);
    std::vector<bool> HasGrad(Vals.size(), false);
    HasGrad[static_cast<size_t>(Plan.OutputValue)] = true;
    for (int S = NumSteps; S-- > 0;) {
      const PlanStep &Step = Plan.Steps[static_cast<size_t>(S)];
      if (!HasGrad[static_cast<size_t>(Step.Result)])
        continue;
      Runs[static_cast<size_t>(S)] = true;
      Uses[static_cast<size_t>(S)] = backwardUse(Step, GradPath);
      for (int Id : Uses[static_cast<size_t>(S)].Reads)
        ReadBackward[static_cast<size_t>(Id)] = true;
      for (int Id : Uses[static_cast<size_t>(S)].Adds)
        HasGrad[static_cast<size_t>(Id)] = true;
    }
  }

  // Fused chains. From each GEMM/SpMM result, the chain takes the value's
  // one reader while that reader is a row_bcast or relu (a row_bcast only
  // when its scale vector exists before the producer runs), the value is
  // not the output and, in training, no backward step reads it. Every value
  // of the chain is written at the producer's step; all but the last stay
  // in registers.
  std::vector<int> Stores(static_cast<size_t>(NumSteps), -1);
  for (int S = 0; S < NumSteps; ++S)
    Stores[static_cast<size_t>(S)] = Plan.Steps[S].Result;
  for (int P = 0; P < NumSteps; ++P) {
    const PlanStep &Producer = Plan.Steps[P];
    if (Producer.Setup || !takesEpilogue(Producer.Op))
      continue;
    int Cur = Producer.Result;
    for (int Len = 0; Len < kernels::MaxEpilogueOps; ++Len) {
      const auto C = static_cast<size_t>(Cur);
      if (Cur == Plan.OutputValue || Reads[C] != 1 || ReadBackward[C])
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

  // Per position, the buffers it writes, in the order it writes them: a
  // forward step the value it stores (its result, a fused chain's last
  // value, or none for a step a chain absorbed); a backward step the
  // gradients it contributes first, each with the gradient whose slot it
  // takes when it is written in place.
  struct Write {
    ValueBuffer *B;
    const ValueBuffer *Source;
  };
  std::vector<std::vector<Write>> Writes(static_cast<size_t>(Positions));
  for (int S = 0; S < NumSteps; ++S)
    if (Stores[static_cast<size_t>(S)] >= 0)
      Writes[static_cast<size_t>(S)].push_back(
          {&Vals[static_cast<size_t>(Stores[static_cast<size_t>(S)])],
           nullptr});

  // The backward pass, training only. Walking the steps in reverse, a step
  // whose result's gradient is present reads that gradient and the forward
  // values its rule names, which stay live until then, and writes the
  // gradients it contributes first. A weight's, attention vector's or the
  // features' gradient is the caller's result.
  if (Training) {
    Grads.resize(Vals.size());
    for (size_t V = 0; V < Vals.size(); ++V) {
      Grads[V] = Vals[V];
      Grads[V].DefStep = Grads[V].LastUse = -1;
      Grads[V].Elided = false;
    }
    auto First = [&](ValueBuffer &B, int Pos, const ValueBuffer *Source) {
      B.DefStep = Pos;
      if (B.Class == BufferClass::InputAlias)
        return;
      B.InPlace = Source != nullptr;
      Writes[static_cast<size_t>(Pos)].push_back({&B, Source});
    };
    First(Grads[static_cast<size_t>(Plan.OutputValue)], NumSteps, nullptr);
    for (int S = NumSteps; S-- > 0;) {
      if (!Runs[static_cast<size_t>(S)])
        continue;
      const PlanStep &Step = Plan.Steps[static_cast<size_t>(S)];
      const BackwardUse &U = Uses[static_cast<size_t>(S)];
      const int Pos = backwardPosition(NumSteps, S);
      ValueBuffer &OutG = Grads[static_cast<size_t>(Step.Result)];
      OutG.LastUse = Pos;
      for (int Id : U.Reads) {
        ValueBuffer &B = Vals[static_cast<size_t>(Id)];
        B.LastUse = std::max(B.LastUse, Pos);
      }
      for (int Id : U.Adds)
        if (Grads[static_cast<size_t>(Id)].DefStep < 0)
          First(Grads[static_cast<size_t>(Id)], Pos,
                U.InPlace ? &OutG : nullptr);
    }
    // The caller reads its gradients after the run, as it reads the output.
    for (ValueBuffer &G : Grads)
      if (G.Class == BufferClass::InputAlias && G.DefStep >= 0)
        G.LastUse = Positions;
  }

  for (ValueBuffer &B : Vals)
    if (B.DefStep >= 0 && B.LastUse < B.DefStep)
      B.LastUse = B.DefStep; // produced but never read: dies immediately
  if (Plan.OutputValue >= 0)
    Vals[static_cast<size_t>(Plan.OutputValue)].LastUse = Positions;

  // Pinning: values whose storage may not be shared.
  for (size_t V = 0; V < Plan.Values.size(); ++V) {
    ValueBuffer &B = Vals[V];
    if (B.Class == BufferClass::InputAlias || B.DefStep < 0 || B.Elided)
      continue;
    if (Plan.Steps[static_cast<size_t>(B.DefStep)].Setup ||
        static_cast<int>(V) == Plan.OutputValue)
      B.Pinned = true;
  }

  // Greedy slot assignment in schedule order. At each position, slots whose
  // buffer died strictly before it are returned to the free list, then each
  // buffer the position writes takes its in-place source's slot, or picks
  // the best-fitting free slot, whatever kind of buffer held it before
  // (smallest capacity that holds it; else the largest free slot, grown).
  // A position's operands are live through it (LastUse >= the position), so
  // a destination slot can never alias an operand's but by the in-place
  // rule. A slot's owner is the last buffer placed in it: a source whose
  // slot went on in place frees nothing.
  std::vector<int> FreeSlots;
  std::vector<const ValueBuffer *> Owner;
  auto Release = [&](const ValueBuffer &B, int Pos) {
    if (B.Slot >= 0 && !B.Pinned && B.LastUse == Pos - 1 &&
        Owner[static_cast<size_t>(B.Slot)] == &B)
      FreeSlots.push_back(B.Slot);
  };
  for (int Pos = 0; Pos < Positions; ++Pos) {
    for (const ValueBuffer &B : Vals)
      Release(B, Pos);
    for (const ValueBuffer &B : Grads)
      Release(B, Pos);

    for (const Write &W : Writes[static_cast<size_t>(Pos)]) {
      ValueBuffer *Out = W.B;
      if (W.Source) {
        Out->Slot = W.Source->Slot;
        Owner[static_cast<size_t>(Out->Slot)] = Out;
        continue;
      }
      if (Out->Pinned) {
        Out->Slot = static_cast<int>(Slots.size());
        Slots.push_back({Out->Floats, /*Pinned=*/true});
        Owner.push_back(Out);
        continue;
      }
      int Best = -1, Largest = -1;
      auto Cap = [&](int F) {
        return Slots[static_cast<size_t>(FreeSlots[static_cast<size_t>(F)])]
            .CapacityFloats;
      };
      for (size_t F = 0; F < FreeSlots.size(); ++F) {
        const ArenaSlot &Slot = Slots[static_cast<size_t>(FreeSlots[F])];
        if (Slot.CapacityFloats >= Out->Floats &&
            (Best < 0 || Slot.CapacityFloats < Cap(Best)))
          Best = static_cast<int>(F);
        if (Largest < 0 || Slot.CapacityFloats > Cap(Largest))
          Largest = static_cast<int>(F);
      }
      int Pick = Best >= 0 ? Best : Largest;
      if (Pick >= 0) {
        Out->Slot = FreeSlots[static_cast<size_t>(Pick)];
        ArenaSlot &Slot = Slots[static_cast<size_t>(Out->Slot)];
        Slot.CapacityFloats = std::max(Slot.CapacityFloats, Out->Floats);
        FreeSlots.erase(FreeSlots.begin() + Pick);
        Owner[static_cast<size_t>(Out->Slot)] = Out;
      } else {
        Out->Slot = static_cast<int>(Slots.size());
        Slots.push_back({Out->Floats, /*Pinned=*/false});
        Owner.push_back(Out);
      }
    }
  }

  // Byte accounting. Naive: every planned payload resident at once. Peak:
  // the worst position's live set, where pinned buffers stay resident from
  // their definition to the end and a gradient written in place adds no
  // bytes at its definition. Arena: what the workspace actually allocates.
  // A gradient the caller's result holds is not planned.
  std::vector<const ValueBuffer *> All;
  for (const ValueBuffer &B : Vals)
    All.push_back(&B);
  for (const ValueBuffer &B : Grads)
    All.push_back(&B);
  auto Bytes = [](const ValueBuffer &B) {
    return static_cast<size_t>(B.Floats) * sizeof(float);
  };
  for (const ValueBuffer *B : All)
    if (B->Class != BufferClass::InputAlias && B->DefStep >= 0)
      Naive += Bytes(*B);
  for (int Pos = 0; Pos < Positions; ++Pos) {
    size_t Live = 0;
    for (const ValueBuffer *B : All) {
      if (B->Class == BufferClass::InputAlias || B->DefStep < 0 ||
          B->DefStep > Pos || B->Elided || (B->InPlace && B->DefStep == Pos))
        continue;
      if (B->Pinned || B->LastUse >= Pos)
        Live += Bytes(*B);
    }
    Peak = std::max(Peak, Live);
  }
  for (const ArenaSlot &Slot : Slots)
    Arena += static_cast<size_t>(Slot.CapacityFloats) * sizeof(float);
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
  // The size, lifetime and placement of a stored buffer.
  auto Placement = [&](const ValueBuffer &B) {
    OS << " " << B.Floats << " floats, live [" << B.DefStep << ", "
       << B.LastUse << "]";
    if (B.Pinned)
      OS << ", pinned";
    if (B.Slot >= 0)
      OS << ", slot " << B.Slot;
    if (B.InPlace)
      OS << " (in place)";
    OS << "\n";
  };
  auto Name = [&](size_t V) {
    return Plan.Values[V].DebugName.empty() ? "v" + std::to_string(V)
                                            : Plan.Values[V].DebugName;
  };
  OS << "buffers for " << Plan.Name << (TrainingMode ? " (training)" : "")
     << ":\n";
  for (size_t V = 0; V < Vals.size(); ++V) {
    const ValueBuffer &B = Vals[V];
    OS << "  %" << V << " " << Name(V) << ": " << ClassName(B.Class);
    if (B.Class == BufferClass::InputAlias) {
      OS << " (aliased)\n";
      continue;
    }
    if (B.Elided) {
      OS << " " << B.Floats << " floats, in step " << B.DefStep
         << "'s registers (fused)\n";
      continue;
    }
    Placement(B);
  }
  for (size_t V = 0; V < Grads.size(); ++V) {
    const ValueBuffer &G = Grads[V];
    if (G.DefStep < 0)
      continue;
    OS << "  grad %" << V << " " << Name(V) << ": ";
    if (G.Class == BufferClass::InputAlias) {
      OS << "the caller's result, from " << G.DefStep << "\n";
      continue;
    }
    OS << ClassName(G.Class);
    Placement(G);
  }
  for (size_t S = 0; S < FusedInto.size(); ++S)
    if (FusedInto[S] >= 0)
      OS << "  step " << S << " (" << stepOpName(Plan.Steps[S].Op)
         << ") fused into step " << FusedInto[S] << "\n";
  for (size_t S = 0; S < Slots.size(); ++S)
    OS << "  slot " << S << ": " << Slots[S].CapacityFloats << " floats"
       << (Slots[S].Pinned ? " (pinned)" : "") << "\n";
  OS << "  peak " << Peak << " B, naive " << Naive << " B, arena " << Arena
     << " B\n";
  return OS.str();
}
