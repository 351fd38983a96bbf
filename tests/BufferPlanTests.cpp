//===- BufferPlanTests.cpp - Buffer lifetime planning and arena execution ---===//
//
// Hand-computed lifetime/slot/byte fixtures for BufferPlan, plus the
// executor-level properties the planning exists for: a caller-held
// workspace's outputs bitwise identical to a by-value run (which executes
// on a fresh workspace of its own) at every thread count, and zero
// workspace allocations in the steady state.
//
//===----------------------------------------------------------------------===//

#include "assoc/Enumerate.h"
#include "assoc/Prune.h"
#include "graph/Generators.h"
#include "granii/Granii.h"
#include "models/Models.h"
#include "runtime/BufferPlan.h"
#include "runtime/Executor.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <string>
#include <vector>

using namespace granii;

namespace {

PlanValue denseInput(const char *Name, LeafRole Role, SymDim Rows,
                     SymDim Cols) {
  PlanValue V;
  V.Kind = PlanValueKind::Dense;
  V.Shape = {Rows, Cols};
  V.DebugName = Name;
  V.InputRole = Role;
  return V;
}

PlanValue sparseInput(const char *Name) {
  PlanValue V;
  V.Kind = PlanValueKind::Sparse;
  V.Shape = {SymDim::n(), SymDim::n()};
  V.DebugName = Name;
  V.InputRole = LeafRole::Adjacency;
  return V;
}

PlanValue denseTemp(const char *Name, SymDim Rows, SymDim Cols) {
  PlanValue V;
  V.Kind = PlanValueKind::Dense;
  V.Shape = {Rows, Cols};
  V.DebugName = Name;
  return V;
}

/// N=10, KIn=4, KOut=3, E=20: dense N x KOut temporaries hold 30 floats
/// (120 B), which makes the expected byte totals easy to hand-compute.
DimBinding testBinding() {
  DimBinding B;
  B.N = 10;
  B.KIn = 4;
  B.KOut = 3;
  B.E = 20;
  return B;
}

/// v3 = H * W; v4 = A @ v3; v5 = relu(v4)  (output v5).
CompositionPlan gcnLikePlan() {
  CompositionPlan P;
  P.Name = "gcn-like";
  P.Values = {sparseInput("A"),
              denseInput("H", LeafRole::Features, SymDim::n(), SymDim::kIn()),
              denseInput("W", LeafRole::Weight, SymDim::kIn(), SymDim::kOut()),
              denseTemp("t", SymDim::n(), SymDim::kOut()),
              denseTemp("agg", SymDim::n(), SymDim::kOut()),
              denseTemp("out", SymDim::n(), SymDim::kOut())};
  P.Steps = {{StepOp::Gemm, {1, 2}, 3},
             {StepOp::SpmmUnweighted, {0, 3}, 4},
             {StepOp::Relu, {4}, 5}};
  P.OutputValue = 5;
  P.verify();
  return P;
}

/// v3 = H * W; v4 = relu(v3); v5 = relu(v4); v6 = relu(v5)  (output v6).
/// Inference folds all three ReLUs into the GEMM.
CompositionPlan reluChainPlan() {
  CompositionPlan P;
  P.Name = "relu-chain";
  P.Values = {sparseInput("A"),
              denseInput("H", LeafRole::Features, SymDim::n(), SymDim::kIn()),
              denseInput("W", LeafRole::Weight, SymDim::kIn(), SymDim::kOut()),
              denseTemp("t0", SymDim::n(), SymDim::kOut()),
              denseTemp("t1", SymDim::n(), SymDim::kOut()),
              denseTemp("t2", SymDim::n(), SymDim::kOut()),
              denseTemp("out", SymDim::n(), SymDim::kOut())};
  P.Steps = {{StepOp::Gemm, {1, 2}, 3},
             {StepOp::Relu, {3}, 4},
             {StepOp::Relu, {4}, 5},
             {StepOp::Relu, {5}, 6}};
  P.OutputValue = 6;
  P.verify();
  return P;
}

/// v3 = H * W; v4 = A @ v3; v5 = A @ v4; v6 = A @ v5  (output v6). No step
/// is a row_bcast or relu, so nothing fuses, and the chain is long enough
/// for a freed slot to be reused mid-chain.
CompositionPlan spmmChainPlan() {
  CompositionPlan P;
  P.Name = "spmm-chain";
  P.Values = {sparseInput("A"),
              denseInput("H", LeafRole::Features, SymDim::n(), SymDim::kIn()),
              denseInput("W", LeafRole::Weight, SymDim::kIn(), SymDim::kOut()),
              denseTemp("t0", SymDim::n(), SymDim::kOut()),
              denseTemp("t1", SymDim::n(), SymDim::kOut()),
              denseTemp("t2", SymDim::n(), SymDim::kOut()),
              denseTemp("out", SymDim::n(), SymDim::kOut())};
  P.Steps = {{StepOp::Gemm, {1, 2}, 3},
             {StepOp::SpmmUnweighted, {0, 3}, 4},
             {StepOp::SpmmUnweighted, {0, 4}, 5},
             {StepOp::SpmmUnweighted, {0, 5}, 6}};
  P.OutputValue = 6;
  P.verify();
  return P;
}

PlanValue diagTemp(const char *Name) {
  PlanValue V;
  V.Kind = PlanValueKind::Diag;
  V.Shape = {SymDim::n(), SymDim::one()};
  V.DebugName = Name;
  V.GraphOnly = true;
  return V;
}

} // namespace

//===----------------------------------------------------------------------===//
// Lifetime analysis fixtures
//===----------------------------------------------------------------------===//

TEST(BufferPlan, LifetimesAndBytesOfGcnLikePlan) {
  CompositionPlan P = gcnLikePlan();
  BufferPlan BP(P, testBinding(), /*Training=*/false);

  for (int In : {0, 1, 2})
    EXPECT_EQ(BP.values()[In].Class, BufferClass::InputAlias);

  const ValueBuffer &T = BP.values()[3];
  EXPECT_EQ(T.DefStep, 0);
  EXPECT_EQ(T.LastUse, 1);
  EXPECT_EQ(T.Floats, 30);
  EXPECT_FALSE(T.Pinned);
  EXPECT_FALSE(T.Elided); // read by the SpMM, which is no epilogue step

  // The ReLU folds into the SpMM: agg lives in the SpMM's registers only
  // and the SpMM stores the output at its own step.
  const ValueBuffer &Agg = BP.values()[4];
  EXPECT_TRUE(Agg.Elided);
  EXPECT_EQ(Agg.DefStep, 1);
  EXPECT_EQ(Agg.LastUse, 1);
  EXPECT_EQ(Agg.Slot, -1);
  EXPECT_FALSE(Agg.Pinned);
  EXPECT_EQ(BP.fusedInto(), (std::vector<int>{-1, -1, 1}));

  // The output is read after execution: sentinel last use one past the
  // final step, and a pinned dedicated slot.
  const ValueBuffer &Out = BP.values()[5];
  EXPECT_EQ(Out.DefStep, 1);
  EXPECT_EQ(Out.LastUse, 3);
  EXPECT_TRUE(Out.Pinned);
  ASSERT_GE(Out.Slot, 0);
  EXPECT_TRUE(BP.slots()[static_cast<size_t>(Out.Slot)].Pinned);

  // Worst step (1) holds t and the output: 240 B. All three values
  // resident at once (the unfused per-call baseline) is 360 B. The arena
  // holds t's slot and the output's, 120 B each.
  EXPECT_EQ(BP.peakBytes(), 240u);
  EXPECT_EQ(BP.naiveBytes(), 360u);
  EXPECT_EQ(BP.arenaBytes(), 240u);
  EXPECT_EQ(BP.slots().size(), 2u);
  EXPECT_LE(BP.peakBytes(), BP.naiveBytes());
}

TEST(BufferPlan, FreedSlotIsReused) {
  CompositionPlan P = spmmChainPlan();
  BufferPlan BP(P, testBinding(), /*Training=*/false);
  EXPECT_EQ(BP.fusedInto(), (std::vector<int>(4, -1)));

  // t0 dies after step 1, so t2 (defined at step 2) takes its slot; only
  // the output needs a third (pinned) slot despite four produced values.
  EXPECT_EQ(BP.values()[5].Slot, BP.values()[3].Slot);
  EXPECT_NE(BP.values()[4].Slot, BP.values()[3].Slot);
  EXPECT_EQ(BP.slots().size(), 3u);

  EXPECT_EQ(BP.peakBytes(), 240u);  // two live 30-float values at worst
  EXPECT_EQ(BP.naiveBytes(), 480u); // four produced values
  EXPECT_EQ(BP.arenaBytes(), 360u); // three 120 B slots

  // The ReLU chain folds into its GEMM instead: t0, t1 and t2 stay in the
  // GEMM's registers, which stores the output at step 0. Only the output's
  // slot remains.
  CompositionPlan R = reluChainPlan();
  BufferPlan Fused(R, testBinding(), /*Training=*/false);
  EXPECT_EQ(Fused.fusedInto(), (std::vector<int>{-1, 0, 0, 0}));
  for (int V : {3, 4, 5}) {
    EXPECT_TRUE(Fused.values()[V].Elided) << "v" << V;
    EXPECT_EQ(Fused.values()[V].DefStep, 0) << "v" << V;
    EXPECT_EQ(Fused.values()[V].Slot, -1) << "v" << V;
  }
  EXPECT_EQ(Fused.values()[6].DefStep, 0);
  EXPECT_EQ(Fused.values()[6].LastUse, 4);
  EXPECT_EQ(Fused.slots().size(), 1u);
  EXPECT_EQ(Fused.peakBytes(), 120u);
  EXPECT_EQ(Fused.naiveBytes(), 480u);
  EXPECT_EQ(Fused.arenaBytes(), 120u);
}

TEST(BufferPlan, ChainStopsAtASecondReaderAndALateScale) {
  // v3 = degree(A), v4 = inv_sqrt(v3) [setup]; v5 = H * W;
  // v6 = row_bcast(v4, v5); v7 = relu(v6); v8 = v6 + v7  (output v8).
  // v6 has two readers, so the GEMM's chain ends with it.
  CompositionPlan P;
  P.Name = "second-reader";
  P.Values = {sparseInput("A"),
              denseInput("H", LeafRole::Features, SymDim::n(), SymDim::kIn()),
              denseInput("W", LeafRole::Weight, SymDim::kIn(), SymDim::kOut()),
              diagTemp("deg"),
              diagTemp("dnorm"),
              denseTemp("t", SymDim::n(), SymDim::kOut()),
              denseTemp("s", SymDim::n(), SymDim::kOut()),
              denseTemp("r", SymDim::n(), SymDim::kOut()),
              denseTemp("out", SymDim::n(), SymDim::kOut())};
  P.Steps = {{StepOp::DegreeOffsets, {0}, 3, 0.0, /*Setup=*/true},
             {StepOp::InvSqrtVec, {3}, 4, 0.0, /*Setup=*/true},
             {StepOp::Gemm, {1, 2}, 5},
             {StepOp::RowBcast, {4, 5}, 6},
             {StepOp::Relu, {6}, 7},
             {StepOp::AddDense, {6, 7}, 8}};
  P.OutputValue = 8;
  P.verify();
  BufferPlan BP(P, testBinding(), /*Training=*/false);
  EXPECT_EQ(BP.fusedInto(), (std::vector<int>{-1, -1, -1, 2, -1, -1}));
  EXPECT_TRUE(BP.values()[5].Elided);
  EXPECT_FALSE(BP.values()[6].Elided);
  EXPECT_EQ(BP.values()[6].DefStep, 2);
  EXPECT_EQ(BP.values()[6].LastUse, 5);
  EXPECT_EQ(BP.values()[7].DefStep, 4);

  // The same scaling with its vector computed after the GEMM (steps moved
  // out of setup) cannot run in the GEMM: nothing fuses.
  CompositionPlan Late;
  Late.Name = "late-scale";
  Late.Values = {sparseInput("A"),
                 denseInput("H", LeafRole::Features, SymDim::n(),
                            SymDim::kIn()),
                 denseInput("W", LeafRole::Weight, SymDim::kIn(),
                            SymDim::kOut()),
                 denseTemp("t", SymDim::n(), SymDim::kOut()),
                 diagTemp("deg"),
                 diagTemp("dnorm"),
                 denseTemp("out", SymDim::n(), SymDim::kOut())};
  Late.Steps = {{StepOp::Gemm, {1, 2}, 3},
                {StepOp::DegreeOffsets, {0}, 4},
                {StepOp::InvSqrtVec, {4}, 5},
                {StepOp::RowBcast, {5, 3}, 6}};
  Late.OutputValue = 6;
  Late.verify();
  BufferPlan LateBP(Late, testBinding(), /*Training=*/false);
  EXPECT_EQ(LateBP.fusedInto(), (std::vector<int>(4, -1)));
  EXPECT_FALSE(LateBP.values()[3].Elided);
  EXPECT_EQ(LateBP.values()[6].DefStep, 3);

  // Training fuses by the same rule: no backward step reads v5 (the GEMM's
  // reads its operands, the row_bcast's its scale vector).
  BufferPlan Train(P, testBinding(), /*Training=*/true);
  EXPECT_EQ(Train.fusedInto(), BP.fusedInto());
  EXPECT_TRUE(Train.values()[5].Elided);
  EXPECT_FALSE(Train.values()[6].Elided);
}

// GAT plan #0 in training, at N=10, E=20, K 4->3. Forward steps 0..7:
//   v3 = gemm(H, W); v5 = attn_gemv(v3, asrc); v7 = attn_gemv(v3, adst);
//   v8 = edge_logits(A, v5, v7); v9 = edge_lrelu(v8); v10 = edge_softmax(v9);
//   v11 = spmm_w(v10, v3); v12 = relu(v11)  (output)
// then the seed at position 8 and the backward step of step S at 16 - S.
TEST(BufferPlan, GatTrainingPlansBothPasses) {
  CompositionPlan P =
      pruneCompositions(enumerateCompositions(makeModel(ModelKind::GAT).Root))
          .front();
  ASSERT_EQ(P.Steps.size(), 8u);
  BufferPlan BP(P, testBinding(), /*Training=*/true);
  SCOPED_TRACE(BP.toString(P));
  EXPECT_TRUE(BP.training());
  EXPECT_EQ(BP.positions(), 17);
  EXPECT_EQ(BufferPlan::backwardPosition(8, 6), 10);

  // The ReLU folds into the SpMM as in inference: its backward step reads
  // its output v12, and no backward step reads v11, which stays in the
  // SpMM's registers. The SpMM stores the output at step 6.
  EXPECT_EQ(BP.fusedInto(), (std::vector<int>{-1, -1, -1, -1, -1, -1, -1, 6}));
  EXPECT_TRUE(BP.values()[11].Elided);
  EXPECT_EQ(BP.values()[11].Slot, -1);
  EXPECT_EQ(BP.values()[12].DefStep, 6);
  EXPECT_TRUE(BP.values()[12].Pinned);
  EXPECT_EQ(BP.values()[12].LastUse, 17);

  // Backward reads: the SpMM's SDDMM and both attention GEMVs' da read
  // theta (v3, last at step 1's backward, 15); the leaky ReLU reads its
  // input v8 (12); the softmax reads its own output v10 (11), which the
  // SpMM's dX reads too (10). The edge logits read nothing, so v5 and v7
  // die at their forward reader (3), and nothing reads v9 backward, so the
  // edge array dies at the softmax (5).
  const std::vector<std::array<int, 3>> Live = {
      {3, 0, 15}, {5, 1, 3}, {7, 2, 3}, {8, 3, 12}, {9, 4, 5}, {10, 5, 11}};
  for (const auto &[V, Def, Use] : Live) {
    const ValueBuffer &B = BP.values()[static_cast<size_t>(V)];
    EXPECT_EQ(B.DefStep, Def) << "v" << V;
    EXPECT_EQ(B.LastUse, Use) << "v" << V;
    EXPECT_FALSE(B.Pinned) << "v" << V;
    EXPECT_GE(B.Slot, 0) << "v" << V;
  }
  EXPECT_EQ(BP.values()[9].Class, BufferClass::SparseVals);

  // Gradient intervals: [first contribution, the producer's backward step].
  // The seed writes the output's at 8; the ReLU's backward step (9) writes
  // v11's in its slot; the SpMM's (10) writes theta's and the attention's
  // first, and theta's gets two more at 14 and 15 before the GEMM reads it
  // at 16. The softmax (11) and the leaky ReLU (12) write their operands'
  // gradients in place too. W's and H's are the caller's.
  struct GradLife {
    int V, Def, Use;
    bool InPlace;
  };
  const std::vector<GradLife> Grads = {
      {12, 8, 9, false},   {11, 9, 10, true},  {10, 10, 11, false},
      {9, 11, 12, true},   {8, 12, 13, true},  {7, 13, 14, false},
      {5, 13, 15, false},  {3, 10, 16, false}};
  for (const GradLife &L : Grads) {
    const ValueBuffer &G = BP.grads()[static_cast<size_t>(L.V)];
    EXPECT_EQ(G.DefStep, L.Def) << "grad of v" << L.V;
    EXPECT_EQ(G.LastUse, L.Use) << "grad of v" << L.V;
    EXPECT_EQ(G.InPlace, L.InPlace) << "grad of v" << L.V;
    EXPECT_EQ(G.Class, BP.values()[static_cast<size_t>(L.V)].Class) << L.V;
    EXPECT_GE(G.Slot, 0) << "grad of v" << L.V;
  }
  for (int Caller : {1, 2, 4, 6}) {
    EXPECT_EQ(BP.grads()[Caller].Class, BufferClass::InputAlias) << Caller;
    EXPECT_EQ(BP.grads()[Caller].Slot, -1) << Caller;
    EXPECT_EQ(BP.grads()[Caller].LastUse, 17) << Caller;
  }
  EXPECT_EQ(BP.grads()[0].DefStep, -1); // the adjacency gets none

  // Slot sharing across the passes and across kinds. Theta takes slot 0,
  // v5 and v7 slots 1 and 2 and v8 slot 3. At 4 the logit vectors are
  // dead: the edge array v9 takes v5's slot, grown from 10 to 20 floats,
  // and v10 (5) takes v7's. The seed (8) takes v9's slot, grown to 30,
  // and passes it in place to v11's gradient. At 10 v8 and v10 still hold
  // theirs, so theta's gradient and v10's each take a new slot (5, 6);
  // v10's passes in place to v9's and v8's. At 13 the logit vectors'
  // gradients take v10's and v8's slots, the best fits among the three
  // free ones.
  auto Slot = [&](const ValueBuffer &B) { return B.Slot; };
  EXPECT_EQ(Slot(BP.values()[9]), Slot(BP.values()[5]));
  EXPECT_EQ(Slot(BP.values()[10]), Slot(BP.values()[7]));
  EXPECT_EQ(Slot(BP.grads()[12]), Slot(BP.values()[9]));
  EXPECT_EQ(Slot(BP.grads()[11]), Slot(BP.grads()[12]));
  EXPECT_EQ(Slot(BP.grads()[9]), Slot(BP.grads()[10]));
  EXPECT_EQ(Slot(BP.grads()[8]), Slot(BP.grads()[10]));
  EXPECT_EQ(Slot(BP.grads()[5]), Slot(BP.values()[10]));
  EXPECT_EQ(Slot(BP.grads()[7]), Slot(BP.values()[8]));
  EXPECT_NE(Slot(BP.grads()[3]), Slot(BP.grads()[12]));
  EXPECT_EQ(BP.slots().size(), 7u);
  const std::vector<int64_t> Capacity = {30, 30, 20, 20, 30, 30, 20};
  for (size_t S = 0; S < Capacity.size(); ++S)
    EXPECT_EQ(BP.slots()[S].CapacityFloats, Capacity[S]) << "slot " << S;

  // Bytes, in floats: naive = values 170 (v11 included) + gradients 170.
  // The worst position is the SpMM's backward step (10): v3, v8, v10 and
  // the output, 100, and the gradients of v11, v3 and v10, 80. The arena's
  // 7 slots hold those 180 floats: the arena equals the peak.
  EXPECT_EQ(BP.naiveBytes(), 1360u);
  EXPECT_EQ(BP.peakBytes(), 720u);
  EXPECT_EQ(BP.arenaBytes(), 720u);
}

// The same plan in inference: v3 lives [0, 6], v5 [1, 3], v7 [2, 3], the
// edge arrays v8 [3, 4], v9 [4, 5] and v10 [5, 6], and the SpMM stores the
// pinned output at 6. An edge array takes a slot like any other buffer.
TEST(BufferPlan, GatInferenceEdgeArraysShareSlots) {
  CompositionPlan P =
      pruneCompositions(enumerateCompositions(makeModel(ModelKind::GAT).Root))
          .front();
  ASSERT_EQ(P.Steps.size(), 8u);
  BufferPlan BP(P, testBinding(), /*Training=*/false);
  SCOPED_TRACE(BP.toString(P));
  EXPECT_EQ(BP.fusedInto(), (std::vector<int>{-1, -1, -1, -1, -1, -1, -1, 6}));
  for (int V : {8, 9, 10}) {
    const ValueBuffer &B = BP.values()[static_cast<size_t>(V)];
    EXPECT_EQ(B.Class, BufferClass::SparseVals) << "v" << V;
    EXPECT_EQ(B.DefStep, V - 5) << "v" << V;
    EXPECT_EQ(B.LastUse, V - 4) << "v" << V;
    EXPECT_FALSE(B.Pinned) << "v" << V;
    EXPECT_GE(B.Slot, 0) << "v" << V;
  }

  // v8 finds no free slot at 3 and takes a new one. At 4 the logit
  // vectors are dead: v9 takes v5's slot, grown from 10 to 20 floats. At 5
  // v8 is dead too, and v10 takes its slot, the one free slot that fits.
  auto Slot = [&](int V) { return BP.values()[static_cast<size_t>(V)].Slot; };
  EXPECT_EQ(Slot(9), Slot(5));
  EXPECT_EQ(Slot(10), Slot(8));
  EXPECT_EQ(BP.slots().size(), 5u);
  const std::vector<int64_t> Capacity = {30, 20, 10, 20, 30};
  for (size_t S = 0; S < Capacity.size(); ++S)
    EXPECT_EQ(BP.slots()[S].CapacityFloats, Capacity[S]) << "slot " << S;
  EXPECT_TRUE(BP.slots()[static_cast<size_t>(Slot(12))].Pinned);

  // Floats: naive = 170 (v11, held in registers, included); the worst
  // position is the SpMM (6): v3, v10 and the output, 80; arena 110.
  EXPECT_EQ(BP.naiveBytes(), 680u);
  EXPECT_EQ(BP.peakBytes(), 320u);
  EXPECT_EQ(BP.arenaBytes(), 440u);
}

// GCN plan #0 in training: degree and inv_sqrt are setup steps (pinned),
// then v5 = gemm(H, W); v6 = row_bcast(dnorm, v5); v7 = spmm_u(A, v6);
// v8 = row_bcast(dnorm, v7); v9 = relu(v8)  (output). The seed runs at 7,
// the backward step of step S at 14 - S.
TEST(BufferPlan, GcnTrainingFusesBothChains) {
  CompositionPlan P =
      pruneCompositions(enumerateCompositions(makeModel(ModelKind::GCN).Root))
          .front();
  ASSERT_EQ(P.Steps.size(), 7u);
  ASSERT_EQ(P.Steps[6].Op, StepOp::Relu);
  BufferPlan BP(P, testBinding(), /*Training=*/true);
  SCOPED_TRACE(BP.toString(P));
  EXPECT_EQ(BP.positions(), 15);

  // Both chains fold as in inference: the GEMM stores v6, the SpMM the
  // output. No backward step reads v5, v7 or v8 (row scalings read their
  // scale vector, the unweighted SpMM nothing, the ReLU its output).
  EXPECT_EQ(BP.fusedInto(), (std::vector<int>{-1, -1, -1, 2, -1, 4, 4}));
  EXPECT_EQ(BufferPlan(P, testBinding(), false).fusedInto(), BP.fusedInto());
  for (int V : {5, 7, 8})
    EXPECT_TRUE(BP.values()[V].Elided) << "v" << V;
  EXPECT_EQ(BP.values()[6].DefStep, 2);
  EXPECT_EQ(BP.values()[6].LastUse, 4);
  EXPECT_EQ(BP.values()[9].DefStep, 4);
  // dnorm is read until step 3's backward step (11).
  EXPECT_TRUE(BP.values()[2].Pinned);
  EXPECT_EQ(BP.values()[2].LastUse, 11);

  // Every gradient lives from its step's successor's backward step to its
  // own; the ReLU's writes v8's in place of the seed.
  for (int V = 5; V <= 9; ++V) {
    const ValueBuffer &G = BP.grads()[static_cast<size_t>(V)];
    EXPECT_EQ(G.DefStep, 7 + (9 - V)) << "grad of v" << V;
    EXPECT_EQ(G.LastUse, G.DefStep + 1) << "grad of v" << V;
    EXPECT_EQ(G.InPlace, V == 8) << "grad of v" << V;
  }
  EXPECT_EQ(BP.grads()[8].Slot, BP.grads()[9].Slot);

  // Both passes fit in two shared dense slots beside the pinned output and
  // the two pinned degree vectors: v6's slot takes the seed, then v8's and
  // v6's gradients; a second takes v7's and v5's.
  std::vector<int> Shared;
  for (const ArenaSlot &S : BP.slots())
    if (!S.Pinned)
      Shared.push_back(static_cast<int>(S.CapacityFloats));
  EXPECT_EQ(Shared, (std::vector<int>{30, 30}));
  EXPECT_EQ(BP.grads()[9].Slot, BP.values()[6].Slot);
  EXPECT_EQ(BP.grads()[6].Slot, BP.values()[6].Slot);
  EXPECT_EQ(BP.grads()[5].Slot, BP.grads()[7].Slot);

  // Floats: naive = values 170 + gradients 150; peak 110 at positions 9 to
  // 11 (two gradients beside the pinned 50); arena 110.
  EXPECT_EQ(BP.naiveBytes(), 1280u);
  EXPECT_EQ(BP.peakBytes(), 440u);
  EXPECT_EQ(BP.arenaBytes(), 440u);
}

TEST(BufferPlan, NeverReadValueDiesAtDefinition) {
  CompositionPlan P = gcnLikePlan();
  // Append a dead step: v6 = relu(v3), never read (output stays v5).
  P.Values.push_back(denseTemp("dead", SymDim::n(), SymDim::kOut()));
  P.Steps.push_back({StepOp::Relu, {3}, 6});
  P.verify();
  BufferPlan BP(P, testBinding(), /*Training=*/false);
  EXPECT_EQ(BP.values()[6].DefStep, 3);
  EXPECT_EQ(BP.values()[6].LastUse, 3);
  // Its definition extends v3's lifetime to step 3.
  EXPECT_EQ(BP.values()[3].LastUse, 3);
}

TEST(BufferPlan, SetupResultsAndSparseValuesArePinned) {
  // v2 = degree(A) [setup]; v3 = inv_sqrt(v2) [setup];
  // v4 = scale_both(v3, A, v3) [setup, sparse]; v5 = A' @ H  (output).
  CompositionPlan P;
  P.Name = "setup-sparse";
  PlanValue Deg;
  Deg.Kind = PlanValueKind::Diag;
  Deg.Shape = {SymDim::n(), SymDim::one()};
  Deg.DebugName = "deg";
  Deg.GraphOnly = true;
  PlanValue Norm = Deg;
  Norm.DebugName = "dnorm";
  PlanValue Ahat;
  Ahat.Kind = PlanValueKind::Sparse;
  Ahat.Shape = {SymDim::n(), SymDim::n()};
  Ahat.SparseWeighted = true;
  Ahat.DebugName = "Ahat";
  Ahat.GraphOnly = true;
  P.Values = {sparseInput("A"),
              denseInput("H", LeafRole::Features, SymDim::n(), SymDim::kIn()),
              Deg, Norm, Ahat,
              denseTemp("out", SymDim::n(), SymDim::kIn())};
  P.Steps = {{StepOp::DegreeOffsets, {0}, 2, 0.0, /*Setup=*/true},
             {StepOp::InvSqrtVec, {2}, 3, 0.0, /*Setup=*/true},
             {StepOp::SddmmScaleBoth, {3, 0, 3}, 4, 0.0, /*Setup=*/true},
             {StepOp::SpmmWeighted, {4, 1}, 5}};
  P.OutputValue = 5;
  P.verify();

  BufferPlan BP(P, testBinding(), /*Training=*/false);
  EXPECT_TRUE(BP.values()[2].Pinned); // setup result
  EXPECT_TRUE(BP.values()[3].Pinned);
  EXPECT_EQ(BP.values()[2].Class, BufferClass::VecSlot);

  // A setup edge array, sized E: pinned in a slot of its own.
  const ValueBuffer &Sp = BP.values()[4];
  EXPECT_EQ(Sp.Class, BufferClass::SparseVals);
  EXPECT_TRUE(Sp.Pinned);
  ASSERT_GE(Sp.Slot, 0);
  EXPECT_TRUE(BP.slots()[static_cast<size_t>(Sp.Slot)].Pinned);
  EXPECT_EQ(BP.slots()[static_cast<size_t>(Sp.Slot)].CapacityFloats, 20);
  EXPECT_EQ(Sp.Floats, 20);

  // toString carries the lifetime listing used when debugging plans.
  std::string Listing = BP.toString(P);
  EXPECT_NE(Listing.find("Ahat: sparse 20 floats"), std::string::npos);
  EXPECT_NE(Listing.find("pinned"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Arena execution: bitwise equivalence, zero allocations, step profiles
//===----------------------------------------------------------------------===//

namespace {

/// Degree-skewed R-MAT graph: the adversarial case for any scheme whose
/// output could depend on work partitioning.
const Graph &skewedGraph() {
  static Graph G = makeRmat(500, 4000, 0.6, 0.2, 0.1, 9);
  return G;
}

} // namespace

TEST(PlanWorkspaceExec, ArenaMatchesLegacyBitwise) {
  GnnModel M = makeModel(ModelKind::GCN);
  LayerParams Params = makeLayerParams(M, skewedGraph(), 16, 8, 5);
  Executor Exec(HardwareModel::byName("cpu"));
  auto Plans = enumerateCompositions(M.Root);
  ASSERT_FALSE(Plans.empty());

  for (int Threads : {1, 4}) {
    ThreadPool::get().setNumThreads(Threads);
    for (size_t I = 0; I < Plans.size(); ++I) {
      // "Legacy" is the by-value run: a fresh workspace per call.
      DenseMatrix Legacy =
          Exec.run(Plans[I], Params.inputs(), Params.Stats).Output;
      PlanWorkspace Ws;
      ExecResult R;
      Exec.run(Plans[I], Params.inputs(), Params.Stats, Ws, R);
      ASSERT_EQ(R.Output.rows(), Legacy.rows());
      EXPECT_EQ(R.Output.maxAbsDiff(Legacy), 0.0f)
          << "plan " << I << " at " << Threads << " threads";
      // And again from the warm workspace: reuse must not perturb results.
      Exec.run(Plans[I], Params.inputs(), Params.Stats, Ws, R);
      EXPECT_EQ(R.Output.maxAbsDiff(Legacy), 0.0f)
          << "plan " << I << " rerun at " << Threads << " threads";
    }
  }
  ThreadPool::get().setNumThreads(0);
}

TEST(PlanWorkspaceExec, TrainingArenaMatchesLegacy) {
  GnnModel M = makeModel(ModelKind::GCN);
  LayerParams Params = makeLayerParams(M, skewedGraph(), 12, 6, 7);
  Executor Exec(HardwareModel::byName("cpu"));
  auto Plans = enumerateCompositions(M.Root);
  ASSERT_FALSE(Plans.empty());

  // "Legacy" is the by-value run: a fresh workspace per call.
  ExecResult Legacy = Exec.runTraining(Plans[0], Params.inputs(), Params.Stats);
  PlanWorkspace Ws;
  ExecResult R;
  Exec.runTraining(Plans[0], Params.inputs(), Params.Stats, Ws, R);
  EXPECT_EQ(R.Output.maxAbsDiff(Legacy.Output), 0.0f);
  ASSERT_EQ(R.WeightGrads.size(), Legacy.WeightGrads.size());
  for (const auto &[Name, Grad] : Legacy.WeightGrads) {
    ASSERT_TRUE(R.WeightGrads.count(Name));
    EXPECT_EQ(R.WeightGrads.at(Name).maxAbsDiff(Grad), 0.0f) << Name;
  }
  EXPECT_EQ(R.FeatureGrad.maxAbsDiff(Legacy.FeatureGrad), 0.0f);
}

// A warm training run allocates no workspace gradient buffer, and a reused
// result's feature gradient is written in place; every gradient stays
// bitwise equal to the by-value run.
TEST(PlanWorkspaceExec, TrainingReusesGradientBuffers) {
  GnnModel M = makeModel(ModelKind::GAT);
  LayerParams Params = makeLayerParams(M, skewedGraph(), 12, 6, 7);
  Executor Exec(HardwareModel::byName("cpu"));
  auto Plans = enumerateCompositions(M.Root);
  ASSERT_FALSE(Plans.empty());

  for (size_t I = 0; I < Plans.size(); ++I) {
    SCOPED_TRACE("plan " + std::to_string(I));
    ExecResult Legacy =
        Exec.runTraining(Plans[I], Params.inputs(), Params.Stats);
    PlanWorkspace Ws;
    ExecResult R;
    Exec.runTraining(Plans[I], Params.inputs(), Params.Stats, Ws, R);
    const float *Features = R.FeatureGrad.data();
    // Extra capacity in every parameter gradient: a warm run that rebuilt
    // the buffers would drop it.
    std::map<std::string, const float *> WeightData;
    for (auto &[Name, Grad] : R.WeightGrads) {
      Grad.reserveFloats(2 * static_cast<size_t>(Grad.size()) + 64);
      WeightData[Name] = Grad.data();
    }
    std::map<std::string, const float *> AttnData;
    for (auto &[Name, Grad] : R.AttnGrads) {
      Grad.reserve(2 * Grad.size() + 64);
      AttnData[Name] = Grad.data();
    }

    Ws.resetAllocationCount();
    Exec.runTraining(Plans[I], Params.inputs(), Params.Stats, Ws, R);
    EXPECT_EQ(Ws.allocationCount(), 0u);
    EXPECT_EQ(R.FeatureGrad.data(), Features);
    for (const auto &[Name, Grad] : R.WeightGrads) {
      ASSERT_TRUE(WeightData.count(Name)) << Name;
      EXPECT_EQ(Grad.data(), WeightData.at(Name)) << Name;
      EXPECT_GT(Grad.capacityFloats(), 2 * static_cast<size_t>(Grad.size()))
          << Name;
    }
    for (const auto &[Name, Grad] : R.AttnGrads) {
      ASSERT_TRUE(AttnData.count(Name)) << Name;
      EXPECT_EQ(Grad.data(), AttnData.at(Name)) << Name;
      EXPECT_GT(Grad.capacity(), 2 * Grad.size()) << Name;
    }
    EXPECT_EQ(R.FeatureGrad.maxAbsDiff(Legacy.FeatureGrad), 0.0f);
    ASSERT_EQ(R.WeightGrads.size(), Legacy.WeightGrads.size());
    for (const auto &[Name, Grad] : R.WeightGrads)
      EXPECT_EQ(Grad.maxAbsDiff(Legacy.WeightGrads.at(Name)), 0.0f) << Name;
    ASSERT_EQ(R.AttnGrads.size(), Legacy.AttnGrads.size());
    for (const auto &[Name, Grad] : R.AttnGrads)
      EXPECT_EQ(Grad, Legacy.AttnGrads.at(Name)) << Name;
  }
}

namespace {

bool sameBits(const DenseMatrix &A, const DenseMatrix &B) {
  return A.rows() == B.rows() && A.cols() == B.cols() &&
         std::equal(A.data(), A.data() + A.size(), B.data());
}

/// The output and every gradient of \p Got equal \p Want's bit for bit.
void expectSameTraining(const ExecResult &Got, const ExecResult &Want) {
  EXPECT_TRUE(sameBits(Got.Output, Want.Output)) << "output";
  EXPECT_TRUE(sameBits(Got.FeatureGrad, Want.FeatureGrad)) << "features";
  ASSERT_EQ(Got.WeightGrads.size(), Want.WeightGrads.size());
  for (const auto &[Name, Grad] : Want.WeightGrads) {
    ASSERT_TRUE(Got.WeightGrads.count(Name)) << Name;
    EXPECT_TRUE(sameBits(Got.WeightGrads.at(Name), Grad)) << Name;
  }
  EXPECT_EQ(Got.AttnGrads, Want.AttnGrads);
}

} // namespace

// One workspace (and one result) carried through a sequence of training
// configurations: another plan, other embedding sizes (a new buffer plan
// whose slots hold the previous plan's bytes), an inference run in
// between, and a second graph of the same size. Each run matches a fresh
// by-value run bit for bit, so no slot a gradient shares with an
// activation, or with the gradient it was written over in place, leaks a
// stale byte into the result.
TEST(PlanWorkspaceExec, RebuiltTrainingWorkspaceMatchesAFreshOne) {
  const Graph GA = makeRmat(300, 2400, 0.55, 0.2, 0.15, 21);
  const Graph GB = makeRmat(300, 2400, 0.55, 0.2, 0.15, 22);
  Executor Exec(HardwareModel::byName("cpu"));
  for (ModelKind Kind : {ModelKind::GAT, ModelKind::GCN, ModelKind::SAGE}) {
    GnnModel M = makeModel(Kind);
    const std::vector<CompositionPlan> Plans =
        pruneCompositions(enumerateCompositions(M.Root));
    ASSERT_FALSE(Plans.empty());
    struct Config {
      size_t Plan;
      int64_t KIn, KOut;
      const Graph *G;
      bool Training;
    };
    const std::vector<Config> Sequence = {
        {0, 16, 8, &GA, true},
        {Plans.size() - 1, 16, 8, &GA, true},
        {0, 8, 24, &GA, true},
        {0, 8, 24, &GA, false},
        {0, 8, 24, &GA, true},
        {0, 8, 24, &GB, true},
        {Plans.size() - 1, 24, 8, &GB, true}};
    for (int Threads : {1, 4}) {
      ThreadPool::get().setNumThreads(Threads);
      PlanWorkspace Ws;
      ExecResult R;
      for (size_t I = 0; I < Sequence.size(); ++I) {
        const Config &C = Sequence[I];
        SCOPED_TRACE(M.Name + " run " + std::to_string(I) + " at " +
                     std::to_string(Threads) + " threads");
        LayerParams Params = makeLayerParams(M, *C.G, C.KIn, C.KOut, 3);
        const CompositionPlan &Plan = Plans[C.Plan];
        if (!C.Training) {
          Exec.run(Plan, Params.inputs(), Params.Stats, Ws, R);
          EXPECT_TRUE(sameBits(
              R.Output, Exec.run(Plan, Params.inputs(), Params.Stats).Output));
          continue;
        }
        Exec.runTraining(Plan, Params.inputs(), Params.Stats, Ws, R);
        expectSameTraining(
            R, Exec.runTraining(Plan, Params.inputs(), Params.Stats));
      }
    }
  }
  ThreadPool::get().setNumThreads(0);
}

TEST(PlanWorkspaceExec, RecycledMappingsNeverLeakStaleValues) {
  // A freed mapping comes back with its last owner's bytes; constructors
  // that zero-initialize must still zero it. Mappings are recycled only at
  // a size freed before, so the first free of the size is a warm-up.
  const int64_t Rows = 1024, Cols = 512; // 2 MiB: a mapped buffer
  const size_t Floats = static_cast<size_t>(Rows * Cols);
  ASSERT_GE(Floats * sizeof(float), MappedAllocationBytes);
  { DenseMatrix WarmUp(Rows, Cols); }
  const float *Recycled = nullptr;
  {
    DenseMatrix Garbage(Rows, Cols);
    Garbage.fill(-123.25f);
    Recycled = Garbage.data();
  }
  DenseMatrix M(Rows, Cols);
  EXPECT_EQ(M.data(), Recycled) << "the mapping was not recycled";
  EXPECT_EQ(M.frobeniusNorm(), 0.0);
  {
    AlignedVector<float> Garbage(Floats, 77.5f);
    Recycled = Garbage.data();
  }
  AlignedVector<float> V(Floats, 0.0f);
  EXPECT_EQ(V.data(), Recycled) << "the mapping was not recycled";
  EXPECT_TRUE(std::all_of(V.begin(), V.end(),
                          [](float X) { return X == 0.0f; }));

  // By-value training results recycle each other's mappings from the
  // second freed result on: every call must still return the same bytes.
  GnnModel Model = makeModel(ModelKind::GAT);
  Graph G = makeRmat(4096, 40000, 0.55, 0.2, 0.15, 11);
  LayerParams Params = makeLayerParams(Model, G, 64, 96, 3);
  Executor Exec(HardwareModel::byName("cpu"));
  auto Plans = enumerateCompositions(Model.Root);
  ASSERT_FALSE(Plans.empty());
  auto Bytes = [](const DenseMatrix &D) {
    return std::vector<float>(D.data(), D.data() + D.size());
  };
  std::vector<float> Output, FeatureGrad;
  for (int Call = 0; Call < 4; ++Call) {
    ExecResult R = Exec.runTraining(Plans[0], Params.inputs(), Params.Stats);
    ASSERT_GE(R.Output.size() * sizeof(float), MappedAllocationBytes);
    if (Call == 0) {
      Output = Bytes(R.Output);
      FeatureGrad = Bytes(R.FeatureGrad);
      continue;
    }
    EXPECT_TRUE(Bytes(R.Output) == Output) << "call " << Call;
    EXPECT_TRUE(Bytes(R.FeatureGrad) == FeatureGrad) << "call " << Call;
  }
}

TEST(PlanWorkspaceExec, SteadyStatePerformsZeroAllocations) {
  GnnModel M = makeModel(ModelKind::GCN);
  LayerParams Params = makeLayerParams(M, skewedGraph(), 16, 8, 5);
  Executor Exec(HardwareModel::byName("cpu"));
  auto Plans = enumerateCompositions(M.Root);
  ASSERT_FALSE(Plans.empty());

  for (size_t I = 0; I < Plans.size(); ++I) {
    PlanWorkspace Ws;
    ExecResult R;
    Exec.run(Plans[I], Params.inputs(), Params.Stats, Ws, R); // warm-up
    Ws.resetAllocationCount();
    for (int Rep = 0; Rep < 3; ++Rep)
      Exec.run(Plans[I], Params.inputs(), Params.Stats, Ws, R);
    EXPECT_EQ(Ws.allocationCount(), 0u) << "plan " << I;
  }
}

// Every run records its steps, with no switch to turn on: one record per
// plan step, in step order, and in training one per backward primitive,
// the first of them the seed of dL/dOut. Their seconds, summed in execution
// order, are the result's totals bit for bit, on a measured and a
// simulated platform, cold and warm.
TEST(PlanWorkspaceExec, EveryRunRecordsItsSteps) {
  for (ModelKind Kind : {ModelKind::GCN, ModelKind::GAT}) {
    GnnModel M = makeModel(Kind);
    LayerParams Params = makeLayerParams(M, skewedGraph(), 16, 8, 5);
    for (const char *Hw : {"cpu", "h100"}) {
      Executor Exec(HardwareModel::byName(Hw));
      for (const CompositionPlan &Plan : enumerateCompositions(M.Root)) {
        for (bool Training : {false, true}) {
          SCOPED_TRACE(M.Name + " " + Plan.Name + " " + Hw +
                       (Training ? " train" : " infer"));
          PlanWorkspace Ws;
          ExecResult R;
          for (int Run = 0; Run < 2; ++Run) {
            if (Training)
              Exec.runTraining(Plan, Params.inputs(), Params.Stats, Ws, R);
            else
              Exec.run(Plan, Params.inputs(), Params.Stats, Ws, R);
            ASSERT_EQ(R.StepProfiles.size(), Plan.Steps.size());
            double Setup = 0.0, Forward = 0.0, Backward = 0.0;
            for (size_t S = 0; S < Plan.Steps.size(); ++S) {
              const StepProfile &P = R.StepProfiles[S];
              EXPECT_EQ(P.Step, static_cast<int64_t>(S));
              EXPECT_EQ(P.Value, Plan.Steps[S].Result);
              EXPECT_STREQ(P.Op, stepOpName(Plan.Steps[S].Op));
              EXPECT_EQ(P.Setup, Plan.Steps[S].Setup);
              EXPECT_GT(P.Bytes, 0.0) << S;
              EXPECT_GE(P.Seconds, 0.0) << S;
              (P.Setup ? Setup : Forward) += P.Seconds;
            }
            EXPECT_EQ(R.BackwardProfiles.empty(), !Training);
            for (const StepProfile &P : R.BackwardProfiles) {
              if (&P == &R.BackwardProfiles.front()) {
                EXPECT_STREQ(P.Op, SeedOpName);
                EXPECT_EQ(P.Step, -1);
                EXPECT_EQ(P.Value, Plan.OutputValue);
                EXPECT_GT(P.Bytes, 0.0);
                Backward += P.Seconds;
                continue;
              }
              ASSERT_GE(P.Step, 0);
              ASSERT_LT(P.Step, static_cast<int64_t>(Plan.Steps.size()));
              const StepOp Op = Plan.Steps[static_cast<size_t>(P.Step)].Op;
              EXPECT_STREQ(P.Op, backwardOpName(Op));
              Backward += P.Seconds;
            }
            EXPECT_EQ(Setup, R.SetupSeconds);
            EXPECT_EQ(Forward, R.ForwardSeconds);
            EXPECT_EQ(Backward, R.BackwardSeconds);
          }
        }
      }
    }
  }
}

TEST(PlanWorkspaceExec, OptimizerReusesWorkspaceAcrossExecutes) {
  GnnModel M = makeModel(ModelKind::GCN);
  OptimizerOptions Opts;
  Opts.Hw = HardwareModel::byName("cpu");
  AnalyticCostModel Cost(Opts.Hw);
  Optimizer Opt(M, Opts, &Cost);
  LayerParams Params = makeLayerParams(M, skewedGraph(), 16, 8, 5);

  Selection Sel = Opt.select(skewedGraph(), 16, 8);
  ExecResult First = Opt.execute(Sel, Params, /*Training=*/false);
  ExecResult Second = Opt.execute(Sel, Params, /*Training=*/false);
  EXPECT_EQ(Second.Output.maxAbsDiff(First.Output), 0.0f);
}
