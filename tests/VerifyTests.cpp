//===- VerifyTests.cpp - Whole-pipeline verifier tests -----------------------===//
//
// Hand-broken fixtures for every stage of the GRANII verifier: each test
// constructs an object that violates exactly one invariant and asserts the
// verifier rejects it with a diagnostic naming the stage and the offending
// node. Clean objects (real models, real buffer plans, real partitions)
// must verify without errors.
//
//===----------------------------------------------------------------------===//

#include "assoc/Enumerate.h"
#include "assoc/Prune.h"
#include "ir/VerifyIR.h"
#include "models/Models.h"
#include "runtime/BufferPlan.h"
#include "support/ThreadPool.h"
#include "verify/Verify.h"
#include "verify/VerifyBuffers.h"
#include "verify/VerifyPlan.h"

#include <gtest/gtest.h>

using namespace granii;

namespace {

/// True when some diagnostic's rendering contains \p Needle.
bool hasDiag(const DiagEngine &Diags, const std::string &Needle) {
  return Diags.render().find(Needle) != std::string::npos;
}

//===----------------------------------------------------------------------===//
// Diagnostic engine
//===----------------------------------------------------------------------===//

TEST(DiagTest, RenderingAndCounts) {
  DiagEngine Diags;
  EXPECT_FALSE(Diags.hasErrors());
  Diags.error("ir", "matmul/1:leaf(W)", "dimension mismatch", "fix the DSL");
  Diags.report(DiagSeverity::Warning, "plan", "plan#0/step1", "suspicious");
  EXPECT_EQ(Diags.errorCount(), 1u);
  EXPECT_EQ(Diags.diags().size(), 2u);
  EXPECT_EQ(Diags.diags()[0].toString(),
            "error: [ir] matmul/1:leaf(W): dimension mismatch "
            "(hint: fix the DSL)");
  EXPECT_NE(Diags.render().find("warning: [plan] plan#0/step1: suspicious"),
            std::string::npos);
  Diags.clear();
  EXPECT_FALSE(Diags.hasErrors());
  EXPECT_TRUE(Diags.render().empty());
}

//===----------------------------------------------------------------------===//
// IR stage: hand-broken DAGs (node constructors skip the ir:: factories'
// inference, so each fixture breaks exactly the invariant under test)
//===----------------------------------------------------------------------===//

TEST(VerifyIRTest, NullRootIsRejected) {
  DiagEngine Diags;
  EXPECT_FALSE(verifyIRDiags(nullptr, Diags));
  EXPECT_TRUE(hasDiag(Diags, "null IR root"));
  EXPECT_TRUE(hasDiag(Diags, "[ir]"));
}

TEST(VerifyIRTest, MatMulChainMismatchIsRejected) {
  // H (N x K_in) directly times A (N x N): inner dimensions cannot chain.
  IRNodeRef H = ir::featuresLeaf();
  IRNodeRef A = ir::adjacencyLeaf();
  IRNodeRef Bad = std::make_shared<MatMulNode>(
      std::vector<IRNodeRef>{H, A}, SymShape{SymDim::n(), SymDim::n()},
      MatrixAttr::DenseData);
  DiagEngine Diags;
  EXPECT_FALSE(verifyIRDiags(Bad, Diags));
  EXPECT_TRUE(hasDiag(Diags, "matmul chain dimension mismatch between "
                             "operand 0"));
}

TEST(VerifyIRTest, NestedMatMulIsRejected) {
  IRNodeRef A = ir::adjacencyLeaf();
  IRNodeRef H = ir::featuresLeaf();
  IRNodeRef Inner = std::make_shared<MatMulNode>(
      std::vector<IRNodeRef>{A, H}, SymShape{SymDim::n(), SymDim::kIn()},
      MatrixAttr::DenseData);
  IRNodeRef Outer = std::make_shared<MatMulNode>(
      std::vector<IRNodeRef>{A, Inner}, SymShape{SymDim::n(), SymDim::kIn()},
      MatrixAttr::DenseData);
  DiagEngine Diags;
  EXPECT_FALSE(verifyIRDiags(Outer, Diags));
  EXPECT_TRUE(hasDiag(Diags, "nested matmul"));
  // The path pinpoints the offending operand of the outer chain.
  EXPECT_TRUE(hasDiag(Diags, "matmul/1"));
}

TEST(VerifyIRTest, AddShapeMismatchIsRejected) {
  IRNodeRef H = ir::featuresLeaf(); // N x K_in
  IRNodeRef W = ir::weightLeaf();   // K_in x K_out
  IRNodeRef Bad = std::make_shared<AddNode>(
      std::vector<IRNodeRef>{H, W}, H->shape(), MatrixAttr::DenseData);
  DiagEngine Diags;
  EXPECT_FALSE(verifyIRDiags(Bad, Diags));
  EXPECT_TRUE(hasDiag(Diags, "add operand 1 shape"));
}

TEST(VerifyIRTest, BroadcastWithoutDiagonalIsRejected) {
  IRNodeRef H = ir::featuresLeaf();
  IRNodeRef Bad = std::make_shared<RowBroadcastNode>(
      /*Diag=*/H, /*Mat=*/H, H->shape(), MatrixAttr::DenseData);
  DiagEngine Diags;
  EXPECT_FALSE(verifyIRDiags(Bad, Diags));
  EXPECT_TRUE(hasDiag(Diags, "row broadcast requires a diagonal operand"));
}

TEST(VerifyIRTest, RedeclaredLeafNameIsRejected) {
  // Two leaves named "W" with different shapes: the CSE identity breaks.
  IRNodeRef H = ir::featuresLeaf();
  IRNodeRef W1 = ir::weightLeaf("W");
  IRNodeRef W2 = ir::weightLeafWithShape(
      "W", SymShape{SymDim::kOut(), SymDim::kOut()});
  IRNodeRef Root = ir::matMul({H, W1, W2});
  DiagEngine Diags;
  EXPECT_FALSE(verifyIRDiags(Root, Diags));
  EXPECT_TRUE(hasDiag(Diags, "leaf 'W' redeclared"));
}

TEST(VerifyIRTest, StoredAttributeMismatchIsRejected) {
  // A * H is dense data; stamping the node sparse.weighted must be caught
  // by attribute re-propagation.
  IRNodeRef A = ir::adjacencyLeaf();
  IRNodeRef H = ir::featuresLeaf();
  IRNodeRef Bad = std::make_shared<MatMulNode>(
      std::vector<IRNodeRef>{A, H}, SymShape{SymDim::n(), SymDim::kIn()},
      MatrixAttr::SparseWeighted);
  DiagEngine Diags;
  EXPECT_FALSE(verifyIRDiags(Bad, Diags));
  EXPECT_TRUE(hasDiag(Diags, "disagrees with re-propagated"));
}

TEST(VerifyIRTest, BadRewriteOutputNamesThePass) {
  IRNodeRef H = ir::featuresLeaf();
  IRNodeRef A = ir::adjacencyLeaf();
  IRNodeRef Bad = std::make_shared<MatMulNode>(
      std::vector<IRNodeRef>{H, A}, SymShape{SymDim::n(), SymDim::n()},
      MatrixAttr::DenseData);
  DiagEngine Diags;
  EXPECT_FALSE(verifyAfterPass(Bad, "broadcast-to-diag", Diags));
  ASSERT_FALSE(Diags.diags().empty());
  EXPECT_EQ(Diags.diags()[0].Stage, "rewrite:broadcast-to-diag");
}

TEST(VerifyIRTest, EveryModelVerifiesClean) {
  for (ModelKind Kind : extendedModels()) {
    DiagEngine Diags;
    EXPECT_TRUE(verifyIRDiags(makeModel(Kind).Root, Diags))
        << modelName(Kind) << ":\n"
        << Diags.render();
  }
}

//===----------------------------------------------------------------------===//
// Plan stage: hand-built straight-line programs
//===----------------------------------------------------------------------===//

/// A minimal well-formed plan: v2 = gemm(v0, v1); v3 = relu(v2);
/// v4 = v2 + v3; output v4.
CompositionPlan makeTinyPlan() {
  CompositionPlan Plan;
  Plan.Name = "tiny";
  PlanValue H;
  H.Kind = PlanValueKind::Dense;
  H.Shape = {SymDim::n(), SymDim::kIn()};
  H.DebugName = "H";
  H.InputRole = LeafRole::Features;
  PlanValue W;
  W.Kind = PlanValueKind::Dense;
  W.Shape = {SymDim::kIn(), SymDim::kOut()};
  W.DebugName = "W";
  W.InputRole = LeafRole::Weight;
  PlanValue Out;
  Out.Kind = PlanValueKind::Dense;
  Out.Shape = {SymDim::n(), SymDim::kOut()};
  Plan.Values = {H, W, Out, Out, Out};
  Plan.Values[2].DebugName = "HW";
  Plan.Values[3].DebugName = "relu";
  Plan.Values[4].DebugName = "sum";
  Plan.Steps = {{StepOp::Gemm, {0, 1}, 2},
                {StepOp::Relu, {2}, 3},
                {StepOp::AddDense, {2, 3}, 4}};
  Plan.OutputValue = 4;
  return Plan;
}

TEST(VerifyPlanTest, WellFormedPlanIsClean) {
  DiagEngine Diags;
  EXPECT_TRUE(verifyPlanDiags(makeTinyPlan(), Diags)) << Diags.render();
}

TEST(VerifyPlanTest, UseBeforeDefinitionIsRejected) {
  CompositionPlan Plan = makeTinyPlan();
  Plan.Steps[0].Operands = {0, 3}; // v3 defined only by step 1
  DiagEngine Diags;
  EXPECT_FALSE(verifyPlanDiags(Plan, Diags));
  EXPECT_TRUE(hasDiag(Diags, "used before definition"));
  EXPECT_TRUE(hasDiag(Diags, "tiny/step0(gemm)"));
}

TEST(VerifyPlanTest, DoubleDefinitionIsRejected) {
  CompositionPlan Plan = makeTinyPlan();
  Plan.Steps[1].Result = 2; // step 0 already defined v2
  Plan.Steps[2].Operands = {2, 2};
  Plan.OutputValue = 2;
  DiagEngine Diags;
  EXPECT_FALSE(verifyPlanDiags(Plan, Diags));
  EXPECT_TRUE(hasDiag(Diags, "defined twice"));
}

TEST(VerifyPlanTest, WrongOperandKindIsRejected) {
  // An SpMM whose "sparse" operand is the dense feature matrix.
  CompositionPlan Plan = makeTinyPlan();
  Plan.Steps[0].Op = StepOp::SpmmUnweighted;
  DiagEngine Diags;
  EXPECT_FALSE(verifyPlanDiags(Plan, Diags));
  EXPECT_TRUE(hasDiag(Diags, "operand 0 must be sparse, got dense"));
}

TEST(VerifyPlanTest, SpmmVariantMismatchIsRejected) {
  CompositionPlan Plan = makeTinyPlan();
  PlanValue Adj;
  Adj.Kind = PlanValueKind::Sparse;
  Adj.Shape = {SymDim::n(), SymDim::n()};
  Adj.SparseWeighted = false;
  Adj.DebugName = "A";
  Adj.InputRole = LeafRole::Adjacency;
  Adj.GraphOnly = true;
  Plan.Values.push_back(Adj); // v5
  Plan.Values[2].Shape = {SymDim::n(), SymDim::kIn()};
  Plan.Values[3].Shape = Plan.Values[2].Shape;
  Plan.Values[4].Shape = Plan.Values[2].Shape;
  // Weighted SpMM over the unweighted adjacency.
  Plan.Steps[0] = {StepOp::SpmmWeighted, {5, 0}, 2};
  DiagEngine Diags;
  EXPECT_FALSE(verifyPlanDiags(Plan, Diags));
  EXPECT_TRUE(hasDiag(Diags, "spmm variant mismatch"));
}

TEST(VerifyPlanTest, BrokenShapeChainIsRejected) {
  CompositionPlan Plan = makeTinyPlan();
  Plan.Steps[0].Operands = {1, 0}; // W (K_in x K_out) x H (N x K_in)
  DiagEngine Diags;
  EXPECT_FALSE(verifyPlanDiags(Plan, Diags));
  EXPECT_TRUE(hasDiag(Diags, "operand shapes do not chain"));
}

TEST(VerifyPlanTest, SetupDependingOnDataIsRejected) {
  CompositionPlan Plan = makeTinyPlan();
  Plan.Steps[0].Setup = true; // gemm over H and W is not graph-only
  DiagEngine Diags;
  EXPECT_FALSE(verifyPlanDiags(Plan, Diags));
  EXPECT_TRUE(hasDiag(Diags, "setup step depends on a non-graph-only "
                             "operand"));
}

TEST(VerifyPlanTest, EnumeratedPlansAreClean) {
  for (ModelKind Kind : extendedModels()) {
    for (const CompositionPlan &Plan :
         enumerateCompositions(makeModel(Kind).Root)) {
      DiagEngine Diags;
      EXPECT_TRUE(verifyPlanDiags(Plan, Diags))
          << modelName(Kind) << " " << Plan.Name << ":\n"
          << Diags.render();
    }
  }
}

//===----------------------------------------------------------------------===//
// Prune stage: scenario annotations and the survivor-set invariant
//===----------------------------------------------------------------------===//

TEST(VerifyPruneTest, ViableNowhereIsRejected) {
  CompositionPlan Plan = makeTinyPlan();
  Plan.ViableGe = Plan.ViableLt = false;
  DiagEngine Diags;
  EXPECT_FALSE(verifyScenarioAnnotations(Plan, Diags));
  EXPECT_TRUE(hasDiag(Diags, "viable in no embedding-size scenario"));
}

TEST(VerifyPruneTest, PromotedSurvivorsSatisfyTheInvariant) {
  std::vector<CompositionPlan> Promoted =
      pruneCompositions(enumerateCompositions(makeModel(ModelKind::GCN).Root));
  DiagEngine Diags;
  EXPECT_TRUE(verifySurvivorSet(Promoted, Diags)) << Diags.render();
}

TEST(VerifyPruneTest, UnprunedSetViolatesTheInvariant) {
  // Marking every enumerated GCN candidate viable everywhere must trip the
  // re-derived domination rules: pruning exists because most candidates are
  // beaten in at least one scenario.
  std::vector<CompositionPlan> All =
      enumerateCompositions(makeModel(ModelKind::GCN).Root);
  ASSERT_GT(All.size(), 4u);
  for (CompositionPlan &Plan : All)
    Plan.ViableGe = Plan.ViableLt = true;
  DiagEngine Diags;
  EXPECT_FALSE(verifySurvivorSet(All, Diags));
  EXPECT_TRUE(hasDiag(Diags, "dominated by"));
}

TEST(VerifyPruneTest, DuplicateSurvivorIsRejected) {
  std::vector<CompositionPlan> Promoted =
      pruneCompositions(enumerateCompositions(makeModel(ModelKind::GCN).Root));
  ASSERT_FALSE(Promoted.empty());
  Promoted.push_back(Promoted.front()); // identical cost multiset
  DiagEngine Diags;
  EXPECT_FALSE(verifySurvivorSet(Promoted, Diags));
  EXPECT_TRUE(hasDiag(Diags, "cost-duplicate of"));
}

//===----------------------------------------------------------------------===//
// Buffer stage: hand-broken slot assignments
//===----------------------------------------------------------------------===//

DimBinding tinyBinding() {
  DimBinding B;
  B.N = 8;
  B.E = 24;
  B.KIn = 4;
  B.KOut = 3;
  return B;
}

TEST(VerifyBuffersTest, RealPlansAreClean) {
  for (ModelKind Kind : extendedModels()) {
    for (const CompositionPlan &Plan :
         pruneCompositions(enumerateCompositions(makeModel(Kind).Root))) {
      for (bool Training : {false, true}) {
        DiagEngine Diags;
        BufferPlan Buffers(Plan, tinyBinding(), Training);
        EXPECT_TRUE(verifyBufferPlan(Plan, tinyBinding(), Buffers, Diags))
            << modelName(Kind) << " " << Plan.Name
            << (Training ? " (training)" : "") << ":\n"
            << Diags.render();
      }
    }
  }
}

TEST(VerifyBuffersTest, OverlappingLifetimesInOneSlotAreRejected) {
  CompositionPlan Plan = makeTinyPlan();
  BufferPlan Buffers(Plan, tinyBinding(), /*Training=*/false);
  std::vector<ValueBuffer> Vals = Buffers.values();
  std::vector<ArenaSlot> Slots = Buffers.slots();
  // v2 (live through the add at step 2) and v3 (defined at step 1) get
  // distinct slots; forcing them into one slot aliases live values.
  ASSERT_NE(Vals[2].Slot, Vals[3].Slot);
  Vals[3].Slot = Vals[2].Slot;
  DiagEngine Diags;
  EXPECT_FALSE(verifyBufferAssignment(Plan, tinyBinding(), false, Vals, {},
                                      Slots, Diags));
  EXPECT_TRUE(hasDiag(Diags, "overlapping lifetimes"));
}

TEST(VerifyBuffersTest, StaleLastUseIsRejected) {
  CompositionPlan Plan = makeTinyPlan();
  BufferPlan Buffers(Plan, tinyBinding(), /*Training=*/false);
  std::vector<ValueBuffer> Vals = Buffers.values();
  // v2 is read by the add at step 2; recording an earlier last use frees
  // its slot while the value is still live.
  ASSERT_EQ(Vals[2].LastUse, 2);
  Vals[2].LastUse = 1;
  DiagEngine Diags;
  EXPECT_FALSE(verifyBufferAssignment(Plan, tinyBinding(), false, Vals, {},
                                      Buffers.slots(), Diags));
  EXPECT_TRUE(hasDiag(Diags, "read until step"));
  EXPECT_TRUE(hasDiag(Diags, "freed early"));
}

TEST(VerifyBuffersTest, WrongPayloadSizeIsRejected) {
  CompositionPlan Plan = makeTinyPlan();
  BufferPlan Buffers(Plan, tinyBinding(), /*Training=*/false);
  std::vector<ValueBuffer> Vals = Buffers.values();
  Vals[2].Floats /= 2;
  DiagEngine Diags;
  EXPECT_FALSE(verifyBufferAssignment(Plan, tinyBinding(), false, Vals, {},
                                      Buffers.slots(), Diags));
  EXPECT_TRUE(hasDiag(Diags, "floats, expected"));
}

// GAT's plan #0 in training: v8 (the edge logits) is last read forward by
// the leaky ReLU at step 4, and again by its backward step at position
// 2 * 8 - 4 = 12; the gradient of v9 (the leaky ReLU's output) is written
// at the softmax's backward step, position 11. Recording v8 as dead after
// step 4 and giving v9's gradient v8's slot is a schedule a verifier that
// knew only the forward reads would accept: the intervals [3, 4] and
// [11, 12] look disjoint. The backward leaky ReLU would then read a
// gradient where v8 stood.
TEST(VerifyBuffersTest, GradientInASlotTheBackwardPassStillReadsIsRejected) {
  CompositionPlan Plan =
      pruneCompositions(enumerateCompositions(makeModel(ModelKind::GAT).Root))
          .front();
  ASSERT_EQ(Plan.Steps[4].Op, StepOp::EdgeLeakyRelu);
  ASSERT_EQ(Plan.Steps[4].Operands, (std::vector<int>{8}));
  ASSERT_EQ(Plan.Steps[4].Result, 9);
  BufferPlan Buffers(Plan, tinyBinding(), /*Training=*/true);
  std::vector<ValueBuffer> Vals = Buffers.values();
  std::vector<ValueBuffer> Grads = Buffers.grads();
  ASSERT_EQ(Vals[8].LastUse, 12);
  ASSERT_EQ(Grads[9].DefStep, 11);
  ASSERT_EQ(Grads[9].LastUse, 12);
  ASSERT_NE(Grads[9].Slot, Vals[8].Slot);
  Vals[8].LastUse = 4;
  Grads[9].Slot = Vals[8].Slot;
  DiagEngine Diags;
  EXPECT_FALSE(verifyBufferAssignment(Plan, tinyBinding(), true, Vals, Grads,
                                      Buffers.slots(), Diags));
  EXPECT_TRUE(hasDiag(Diags, "read until step 12"));
  EXPECT_TRUE(hasDiag(Diags, "overlapping lifetimes: v8 live through step "
                             "12, the gradient of v9 defined at step 11"));

  // With v8's interval left as recorded, the shared slot alone is caught.
  DiagEngine SlotOnly;
  Vals[8].LastUse = 12;
  EXPECT_FALSE(verifyBufferAssignment(Plan, tinyBinding(), true, Vals, Grads,
                                      Buffers.slots(), SlotOnly));
  EXPECT_TRUE(hasDiag(SlotOnly, "overlapping lifetimes"));
}

// A gradient recorded as dying before its producer's backward step reads
// it is rejected.
TEST(VerifyBuffersTest, TrainingGradientIntervalsAreChecked) {
  CompositionPlan Plan = makeTinyPlan();
  BufferPlan Buffers(Plan, tinyBinding(), /*Training=*/true);
  DiagEngine Clean;
  ASSERT_TRUE(verifyBufferPlan(Plan, tinyBinding(), Buffers, Clean))
      << Clean.render();
  // v2 = H * W feeds the ReLU and the add; its gradient is first written by
  // the add's backward step (position 2 * 3 - 2 = 4) and read by the GEMM's
  // (position 6).
  std::vector<ValueBuffer> Grads = Buffers.grads();
  ASSERT_EQ(Grads[2].DefStep, 4);
  ASSERT_EQ(Grads[2].LastUse, 6);
  Grads[2].LastUse = 5;
  DiagEngine Early;
  EXPECT_FALSE(verifyBufferAssignment(Plan, tinyBinding(), true,
                                      Buffers.values(), Grads,
                                      Buffers.slots(), Early));
  EXPECT_TRUE(hasDiag(Early, "read until step 6"));
}

namespace {

PlanValue denseValue(const char *Name, SymDim Rows, SymDim Cols,
                     std::optional<LeafRole> Role = std::nullopt) {
  PlanValue V;
  V.Kind = PlanValueKind::Dense;
  V.Shape = {Rows, Cols};
  V.DebugName = Name;
  V.InputRole = Role;
  return V;
}

} // namespace

// v2 = H * W; v3 = relu(v2); v4 = relu(v3) (output). Inference folds both
// ReLUs into the GEMM. Training folds the first only: the first ReLU's
// backward step reads its output v3, so v3 must be stored. A training
// schedule that keeps v3 in the GEMM's registers anyway is rejected.
TEST(VerifyBuffersTest, TrainingChainThroughABackwardReadIsRejected) {
  CompositionPlan Plan;
  Plan.Name = "relu-relu";
  Plan.Values = {
      denseValue("H", SymDim::n(), SymDim::kIn(), LeafRole::Features),
      denseValue("W", SymDim::kIn(), SymDim::kOut(), LeafRole::Weight),
      denseValue("t", SymDim::n(), SymDim::kOut()),
      denseValue("r", SymDim::n(), SymDim::kOut()),
      denseValue("out", SymDim::n(), SymDim::kOut())};
  Plan.Steps = {{StepOp::Gemm, {0, 1}, 2},
                {StepOp::Relu, {2}, 3},
                {StepOp::Relu, {3}, 4}};
  Plan.OutputValue = 4;
  EXPECT_EQ(BufferPlan(Plan, tinyBinding(), false).fusedInto(),
            (std::vector<int>{-1, 0, 0}));
  BufferPlan Buffers(Plan, tinyBinding(), /*Training=*/true);
  EXPECT_EQ(Buffers.fusedInto(), (std::vector<int>{-1, 0, -1}));
  DiagEngine Clean;
  ASSERT_TRUE(verifyBufferPlan(Plan, tinyBinding(), Buffers, Clean))
      << Clean.render();
  std::vector<ValueBuffer> Vals = Buffers.values();
  ASSERT_TRUE(Vals[2].Elided);
  ASSERT_FALSE(Vals[3].Elided);
  ASSERT_EQ(Vals[3].LastUse, 2 * 3 - 1); // the first ReLU's backward step
  Vals[3].Elided = true;
  Vals[3].Slot = -1;
  Vals[3].LastUse = 0;
  Vals[4].DefStep = 0;
  DiagEngine Diags;
  EXPECT_FALSE(verifyBufferAssignment(Plan, tinyBinding(), true, Vals,
                                      Buffers.grads(), Buffers.slots(),
                                      Diags));
  EXPECT_TRUE(hasDiag(Diags, "v3: kept in registers, but no fused chain "
                             "passes through it"));
  EXPECT_TRUE(hasDiag(Diags, "definition recorded at step 0, recomputed 2"));
}

// v2 = H * W; v3 = v2 * W2 (output). The second GEMM's backward step reads
// the output's gradient (born at the seed, position 2) and writes v2's
// first, both at position 3; a GEMM reads a whole row of the one to write
// each element of the other, so the two may not share a slot. The same
// plan with a ReLU in place of the second GEMM writes v2's gradient in the
// slot of the output's, the one alias the verifier accepts.
TEST(VerifyBuffersTest, InPlaceGradientAtAGemmIsRejected) {
  CompositionPlan Plan;
  Plan.Name = "gemm-gemm";
  Plan.Values = {
      denseValue("H", SymDim::n(), SymDim::kIn(), LeafRole::Features),
      denseValue("W", SymDim::kIn(), SymDim::kOut(), LeafRole::Weight),
      denseValue("t", SymDim::n(), SymDim::kOut()),
      denseValue("W2", SymDim::kOut(), SymDim::kOut(), LeafRole::Weight),
      denseValue("out", SymDim::n(), SymDim::kOut())};
  Plan.Steps = {{StepOp::Gemm, {0, 1}, 2}, {StepOp::Gemm, {2, 3}, 4}};
  Plan.OutputValue = 4;
  BufferPlan Buffers(Plan, tinyBinding(), /*Training=*/true);
  DiagEngine Clean;
  ASSERT_TRUE(verifyBufferPlan(Plan, tinyBinding(), Buffers, Clean))
      << Clean.render();
  std::vector<ValueBuffer> Grads = Buffers.grads();
  ASSERT_EQ(Grads[4].LastUse, 3);
  ASSERT_EQ(Grads[2].DefStep, 3);
  EXPECT_FALSE(Grads[2].InPlace);
  ASSERT_NE(Grads[2].Slot, Grads[4].Slot);
  Grads[2].Slot = Grads[4].Slot;
  DiagEngine Diags;
  EXPECT_FALSE(verifyBufferAssignment(Plan, tinyBinding(), true,
                                      Buffers.values(), Grads,
                                      Buffers.slots(), Diags));
  EXPECT_TRUE(hasDiag(Diags, "overlapping lifetimes: the gradient of v4 live "
                             "through step 3, the gradient of v2 defined at "
                             "step 3"));
  Grads[2].InPlace = true;
  DiagEngine Marked;
  EXPECT_FALSE(verifyBufferAssignment(Plan, tinyBinding(), true,
                                      Buffers.values(), Grads,
                                      Buffers.slots(), Marked));
  EXPECT_TRUE(hasDiag(Marked, "grad(v2): recorded in place"));

  Plan.Values.erase(Plan.Values.begin() + 3);
  Plan.Steps = {{StepOp::Gemm, {0, 1}, 2}, {StepOp::Relu, {2}, 3}};
  Plan.OutputValue = 3;
  BufferPlan Relu(Plan, tinyBinding(), /*Training=*/true);
  EXPECT_TRUE(Relu.grads()[2].InPlace);
  EXPECT_EQ(Relu.grads()[2].Slot, Relu.grads()[3].Slot);
  EXPECT_EQ(Relu.grads()[2].DefStep, Relu.grads()[3].LastUse);
  DiagEngine ReluDiags;
  EXPECT_TRUE(verifyBufferPlan(Plan, tinyBinding(), Relu, ReluDiags))
      << ReluDiags.render();
}

// v2 = H * W1; v3 = H * W2; v4 = relu(v3); v5 = v2 + v4 (output). The
// ReLU's backward step (position 6) writes v3's first gradient in place of
// v4's, which dies there. Placed instead in the slot of v2's gradient,
// which the first GEMM's backward step reads at position 8, or of the ReLU's
// output v4, which that step reads as its mask, it is rejected: only the
// step's own result gradient may be written over.
TEST(VerifyBuffersTest, InPlaceGradientOverALiveSourceIsRejected) {
  CompositionPlan Plan;
  Plan.Name = "sum-relu";
  Plan.Values = {
      denseValue("H", SymDim::n(), SymDim::kIn(), LeafRole::Features),
      denseValue("W1", SymDim::kIn(), SymDim::kOut(), LeafRole::Weight),
      denseValue("W2", SymDim::kIn(), SymDim::kOut(), LeafRole::Weight),
      denseValue("a", SymDim::n(), SymDim::kOut()),
      denseValue("b", SymDim::n(), SymDim::kOut()),
      denseValue("r", SymDim::n(), SymDim::kOut()),
      denseValue("out", SymDim::n(), SymDim::kOut())};
  Plan.Steps = {{StepOp::Gemm, {0, 1}, 3},
                {StepOp::Gemm, {0, 2}, 4},
                {StepOp::Relu, {4}, 5},
                {StepOp::AddDense, {3, 5}, 6}};
  Plan.OutputValue = 6;
  BufferPlan Buffers(Plan, tinyBinding(), /*Training=*/true);
  DiagEngine Clean;
  ASSERT_TRUE(verifyBufferPlan(Plan, tinyBinding(), Buffers, Clean))
      << Clean.render();
  const std::vector<ValueBuffer> &Grads = Buffers.grads();
  ASSERT_TRUE(Grads[4].InPlace);
  ASSERT_EQ(Grads[4].DefStep, 6);
  ASSERT_EQ(Grads[4].Slot, Grads[5].Slot);
  ASSERT_EQ(Grads[3].DefStep, 5);
  ASSERT_EQ(Grads[3].LastUse, 8);
  ASSERT_EQ(Buffers.values()[5].LastUse, 6);

  std::vector<ValueBuffer> OverGrad = Grads;
  OverGrad[4].Slot = Grads[3].Slot;
  DiagEngine Diags;
  EXPECT_FALSE(verifyBufferAssignment(Plan, tinyBinding(), true,
                                      Buffers.values(), OverGrad,
                                      Buffers.slots(), Diags));
  EXPECT_TRUE(hasDiag(Diags, "overlapping lifetimes: the gradient of v3 live "
                             "through step 8, the gradient of v4 defined at "
                             "step 6"));

  std::vector<ValueBuffer> OverMask = Grads;
  OverMask[4].Slot = Buffers.values()[5].Slot;
  DiagEngine Mask;
  EXPECT_FALSE(verifyBufferAssignment(Plan, tinyBinding(), true,
                                      Buffers.values(), OverMask,
                                      Buffers.slots(), Mask));
  EXPECT_TRUE(hasDiag(Mask, "overlapping lifetimes: v5 live through step 6, "
                            "the gradient of v4 defined at step 6"));
}

TEST(VerifyBuffersTest, ChainThroughASecondReaderIsRejected) {
  // In the tiny plan v2 = H * W feeds both the ReLU and the add, so no
  // chain may keep it in the GEMM's registers: fusing the ReLU anyway would
  // leave the add reading a value nothing stored.
  CompositionPlan Plan = makeTinyPlan();
  BufferPlan Buffers(Plan, tinyBinding(), /*Training=*/false);
  EXPECT_EQ(Buffers.fusedInto(), (std::vector<int>{-1, -1, -1}));
  std::vector<ValueBuffer> Vals = Buffers.values();
  Vals[2].Elided = true;
  Vals[2].Slot = -1;
  Vals[3].DefStep = 0;
  DiagEngine Diags;
  EXPECT_FALSE(verifyBufferAssignment(Plan, tinyBinding(), false, Vals, {},
                                      Buffers.slots(), Diags));
  EXPECT_TRUE(hasDiag(Diags, "no fused chain passes through it"));
  EXPECT_TRUE(hasDiag(Diags, "definition recorded at step 0, recomputed 1"));
}

TEST(VerifyBuffersTest, UnfusedChainIsRejected) {
  // v2 = H * W; v3 = relu(v2) (output): the ReLU folds into the GEMM, which
  // stores the output at step 0. A schedule storing v2 at step 0 and the
  // output at step 1 is not the fused one.
  CompositionPlan Plan = makeTinyPlan();
  Plan.Values.pop_back();
  Plan.Steps.pop_back();
  Plan.OutputValue = 3;
  BufferPlan Buffers(Plan, tinyBinding(), /*Training=*/false);
  ASSERT_EQ(Buffers.fusedInto(), (std::vector<int>{-1, 0}));
  std::vector<ValueBuffer> Vals = Buffers.values();
  EXPECT_TRUE(Vals[2].Elided);
  EXPECT_EQ(Vals[3].DefStep, 0);
  DiagEngine Clean;
  EXPECT_TRUE(verifyBufferAssignment(Plan, tinyBinding(), false, Vals, {},
                                     Buffers.slots(), Clean))
      << Clean.render();
  Vals[2].Elided = false;
  Vals[3].DefStep = 1;
  DiagEngine Diags;
  EXPECT_FALSE(verifyBufferAssignment(Plan, tinyBinding(), false, Vals, {},
                                      Buffers.slots(), Diags));
  EXPECT_TRUE(hasDiag(Diags, "fused chain of step 0 holds it in registers"));
  EXPECT_TRUE(hasDiag(Diags, "definition recorded at step 1, recomputed 0"));
}

TEST(VerifyBuffersTest, ChainThroughALateScaleIsRejected) {
  // v2 = H * W; v3 = degree(A); v4 = inv_sqrt(v3); v5 = row_bcast(v4, v2)
  // (output): the scale vector exists only after the GEMM ran, so the GEMM
  // cannot apply it. A schedule fusing it anyway is rejected.
  CompositionPlan Plan = makeTinyPlan();
  PlanValue A;
  A.Kind = PlanValueKind::Sparse;
  A.Shape = {SymDim::n(), SymDim::n()};
  A.DebugName = "A";
  A.InputRole = LeafRole::Adjacency;
  PlanValue Deg;
  Deg.Kind = PlanValueKind::Diag;
  Deg.Shape = {SymDim::n(), SymDim::one()};
  Deg.DebugName = "deg";
  Deg.GraphOnly = true;
  PlanValue Out = Plan.Values[2];
  Out.DebugName = "out";
  Plan.Values = {Plan.Values[0], Plan.Values[1], Plan.Values[2], Deg, Deg,
                 Out, A};
  Plan.Steps = {{StepOp::Gemm, {0, 1}, 2},
                {StepOp::DegreeOffsets, {6}, 3},
                {StepOp::InvSqrtVec, {3}, 4},
                {StepOp::RowBcast, {4, 2}, 5}};
  Plan.OutputValue = 5;
  Plan.verify();
  BufferPlan Buffers(Plan, tinyBinding(), /*Training=*/false);
  ASSERT_EQ(Buffers.fusedInto(), (std::vector<int>(4, -1)));
  std::vector<ValueBuffer> Vals = Buffers.values();
  Vals[2].Elided = true;
  Vals[2].Slot = -1;
  Vals[2].LastUse = 0;
  Vals[5].DefStep = 0;
  DiagEngine Diags;
  EXPECT_FALSE(verifyBufferAssignment(Plan, tinyBinding(), false, Vals, {},
                                      Buffers.slots(), Diags));
  EXPECT_TRUE(hasDiag(Diags, "no fused chain passes through it"));
  EXPECT_TRUE(hasDiag(Diags, "definition recorded at step 0, recomputed 3"));
}

//===----------------------------------------------------------------------===//
// Partition stage
//===----------------------------------------------------------------------===//

TEST(VerifyPartitionTest, ComputedPartitionsAreClean) {
  std::vector<int64_t> Offsets = {0, 3, 3, 10, 11, 40, 41, 44, 50};
  for (int64_t Chunks : {1, 2, 3, 7, 64}) {
    DiagEngine Diags;
    EXPECT_TRUE(verifyRowPartition(
        Offsets, csrRowPartitionBounds(Offsets, Chunks), Diags))
        << Chunks << " chunks:\n"
        << Diags.render();
  }
}

TEST(VerifyPartitionTest, GappedPartitionIsRejected) {
  std::vector<int64_t> Offsets = {0, 2, 4, 6};
  DiagEngine Diags;
  EXPECT_FALSE(verifyRowPartition(Offsets, {1, 3}, Diags));
  EXPECT_TRUE(hasDiag(Diags, "leaving rows before it uncovered"));
}

TEST(VerifyPartitionTest, ShortPartitionIsRejected) {
  std::vector<int64_t> Offsets = {0, 2, 4, 6};
  DiagEngine Diags;
  EXPECT_FALSE(verifyRowPartition(Offsets, {0, 2}, Diags));
  EXPECT_TRUE(hasDiag(Diags, "partition ends at row 2, expected 3"));
}

TEST(VerifyPartitionTest, DecreasingBoundIsRejected) {
  std::vector<int64_t> Offsets = {0, 2, 4, 6};
  DiagEngine Diags;
  EXPECT_FALSE(verifyRowPartition(Offsets, {0, 2, 1, 3}, Diags));
  EXPECT_TRUE(hasDiag(Diags, "bound decreases from 2 to 1"));
}

//===----------------------------------------------------------------------===//
// Umbrella pipeline
//===----------------------------------------------------------------------===//

TEST(VerifyPipelineTest, EveryModelPassesEndToEnd) {
  for (ModelKind Kind : extendedModels()) {
    PipelineReport Report = verifyPipeline(makeModel(Kind).Root);
    EXPECT_TRUE(Report.clean())
        << modelName(Kind) << ":\n"
        << Report.summary();
    // Every stage ran and the summary reports each one.
    ASSERT_EQ(Report.Stages.size(), 6u) << modelName(Kind);
    for (const char *Stage :
         {"ir:", "rewrite:", "plan:", "prune:", "buffers:", "partition:"})
      EXPECT_NE(Report.summary().find(Stage), std::string::npos)
          << modelName(Kind) << " missing " << Stage;
  }
}

TEST(VerifyPipelineTest, BrokenIRStopsAtTheFirstStage) {
  IRNodeRef H = ir::featuresLeaf();
  IRNodeRef A = ir::adjacencyLeaf();
  IRNodeRef Bad = std::make_shared<MatMulNode>(
      std::vector<IRNodeRef>{H, A}, SymShape{SymDim::n(), SymDim::n()},
      MatrixAttr::DenseData);
  PipelineReport Report = verifyPipeline(Bad);
  EXPECT_FALSE(Report.clean());
  ASSERT_EQ(Report.Stages.size(), 1u); // downstream stages are skipped
  EXPECT_EQ(Report.Stages[0].Stage, "ir");
  EXPECT_GT(Report.Stages[0].Errors, 0u);
}

} // namespace
