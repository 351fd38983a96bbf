//===- CodeGenTests.cpp - Tests for dispatch codegen and DOT export ---------===//

#include "assoc/DotExport.h"
#include "assoc/Enumerate.h"
#include "assoc/Prune.h"
#include "models/Models.h"
#include "runtime/CodeGen.h"

#include <gtest/gtest.h>

#include <cctype>
#include <set>

using namespace granii;

namespace {

std::vector<CompositionPlan> gcnPromoted() {
  GnnModel M = makeModel(ModelKind::GCN);
  return pruneCompositions(enumerateCompositions(M.Root));
}

size_t countOccurrences(const std::string &Haystack,
                        const std::string &Needle) {
  size_t Count = 0, Pos = 0;
  while ((Pos = Haystack.find(Needle, Pos)) != std::string::npos) {
    ++Count;
    Pos += Needle.size();
  }
  return Count;
}

} // namespace

//===----------------------------------------------------------------------===//
// Plan code generation
//===----------------------------------------------------------------------===//

namespace {

DimBinding referenceBinding() {
  DimBinding B;
  B.N = 4096;
  B.E = 65536;
  B.KIn = 64;
  B.KOut = 64;
  return B;
}

std::string planCode(const CompositionPlan &Plan, const std::string &Name) {
  return generatePlanCode(
      Plan, Name, BufferPlan(Plan, referenceBinding(), /*Training=*/false));
}

} // namespace

TEST(CodeGen, PlanCodeSeparatesSetup) {
  auto Plans = gcnPromoted();
  std::string Code = planCode(Plans[0], "gcn_c0");
  // Degree + rsqrt are graph-only: they belong to the _setup function.
  EXPECT_NE(Code.find("gcn_c0_setup(const Inputs &In, gcn_c0_Workspace &Ws)"),
            std::string::npos);
  size_t SetupPos = Code.find("_setup");
  size_t DegreePos = Code.find("degreeFromOffsetsInto");
  size_t MainPos = Code.find("DenseMatrix &gcn_c0(const Inputs &In");
  ASSERT_NE(DegreePos, std::string::npos);
  ASSERT_NE(MainPos, std::string::npos);
  EXPECT_LT(SetupPos, DegreePos);
  EXPECT_LT(DegreePos, MainPos); // Setup body precedes the main function.
}

TEST(CodeGen, PlanCodeReturnsOutputSlot) {
  auto Plans = gcnPromoted();
  for (const CompositionPlan &Plan : Plans) {
    BufferPlan Buffers(Plan, referenceBinding(), /*Training=*/false);
    std::string Code = generatePlanCode(Plan, "f", Buffers);
    int Slot = Buffers.values()[static_cast<size_t>(Plan.OutputValue)].Slot;
    EXPECT_NE(Code.find("return Ws.s" + std::to_string(Slot) + ";"),
              std::string::npos);
  }
}

TEST(CodeGen, PlanCodeUsesKernelApiNames) {
  auto Plans = gcnPromoted();
  bool SawSpmm = false, SawScaleBoth = false;
  for (const CompositionPlan &Plan : Plans) {
    std::string Code = planCode(Plan, "f");
    SawSpmm |= Code.find("kernels::spmmInto(") != std::string::npos;
    SawScaleBoth |=
        Code.find("kernels::scaleSparseBothInto(") != std::string::npos;
  }
  EXPECT_TRUE(SawSpmm);
  EXPECT_TRUE(SawScaleBoth);
}

TEST(CodeGen, GatAttentionStepsEmitted) {
  GnnModel M = makeModel(ModelKind::GAT);
  auto Plans = pruneCompositions(enumerateCompositions(M.Root));
  std::string Code = planCode(Plans[0], "gat0");
  EXPECT_NE(Code.find("sddmmAddScalarsInto"), std::string::npos);
  EXPECT_NE(Code.find("edgeSoftmaxInto"), std::string::npos);
  EXPECT_NE(Code.find("leakyReluEdgesInto"), std::string::npos);
}

TEST(CodeGen, DispatchSplitsOnEmbeddingSizes) {
  std::string Code = generateDispatchCode("gcn", gcnPromoted());
  EXPECT_NE(Code.find("if (In.KIn >= In.KOut)"), std::string::npos);
  EXPECT_NE(Code.find("gcn_forward"), std::string::npos);
  // GCN has two candidates per scenario: both branches use cost models.
  EXPECT_EQ(countOccurrences(Code, "featurize(In.Graph)"), 2u);
}

TEST(CodeGen, DispatchEmitsEveryCandidateOnce) {
  auto Promoted = gcnPromoted();
  std::string Code = generateDispatchCode("gcn", Promoted);
  for (size_t I = 0; I < Promoted.size(); ++I) {
    std::string Fn = "gcn_candidate" + std::to_string(I) + "(const Inputs";
    EXPECT_EQ(countOccurrences(Code, Fn), 1u) << Fn;
  }
}

TEST(CodeGen, SingleCandidateScenarioSkipsCostModels) {
  // GAT's two candidates are both dual-scenario, so build a synthetic case:
  // keep only one Ge-viable plan plus one Lt-viable plan.
  auto Promoted = gcnPromoted();
  std::vector<CompositionPlan> Two;
  for (const CompositionPlan &P : Promoted) {
    if (P.ViableGe && !P.ViableLt && Two.empty())
      Two.push_back(P);
    if (P.ViableLt && !P.ViableGe && Two.size() == 1)
      Two.push_back(P);
  }
  ASSERT_EQ(Two.size(), 2u);
  std::string Code = generateDispatchCode("m", Two);
  // One candidate per scenario: pure size conditions, no featurization.
  EXPECT_EQ(Code.find("featurize(In.Graph)"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Destination-passing (buffer-annotated) code generation
//===----------------------------------------------------------------------===//

TEST(CodeGenBuffers, EmitsWorkspaceStructAndIntoCalls) {
  auto Plans = gcnPromoted();
  BufferPlan Buffers(Plans[0], referenceBinding(), /*Training=*/false);
  std::string Code = generatePlanCode(Plans[0], "gcn_c0", Buffers);

  // A workspace struct with planned byte totals replaces per-call locals.
  EXPECT_NE(Code.find("struct gcn_c0_Workspace {"), std::string::npos);
  EXPECT_NE(Code.find("peak " + std::to_string(Buffers.peakBytes()) + " B"),
            std::string::npos);
  // Calls are the Into forms writing into workspace members, and the
  // function hands back a workspace reference, not a fresh value.
  EXPECT_NE(Code.find("Into("), std::string::npos);
  EXPECT_NE(Code.find(", Ws.s"), std::string::npos);
  EXPECT_NE(Code.find("DenseMatrix &gcn_c0(const Inputs &In, "
                      "gcn_c0_Workspace &Ws)"),
            std::string::npos);
  EXPECT_EQ(Code.find("DenseMatrix v"), std::string::npos); // no locals
}

TEST(CodeGenBuffers, ReuseCommentNamesTheDeadValue) {
  auto Plans = gcnPromoted();
  // Find a promoted plan whose buffer plan actually shares a slot.
  bool SawReuse = false;
  for (const CompositionPlan &Plan : Plans) {
    std::string Code = planCode(Plan, "f");
    if (Code.find("reuses v") != std::string::npos) {
      SawReuse = true;
      EXPECT_NE(Code.find("'s storage (dead after step"), std::string::npos);
    }
  }
  EXPECT_TRUE(SawReuse);
}

TEST(CodeGenBuffers, DispatchThreadsWorkspacesThrough) {
  std::string Code = generateDispatchCode("gcn", gcnPromoted());
  EXPECT_NE(Code.find("scenario bindings"), std::string::npos);
  EXPECT_NE(Code.find("static gcn_candidate0_Workspace Ws0;"),
            std::string::npos);
  EXPECT_NE(Code.find("(In, Ws0)"), std::string::npos);
  // Candidate bodies precede the dispatcher so the static workspace
  // declarations see complete types.
  EXPECT_LT(Code.find("struct gcn_candidate0_Workspace"),
            Code.find("gcn_forward(const Inputs &In)"));
}

namespace {

/// Every identifier \p Code declares after \p Marker (up to the next
/// character that cannot continue an identifier).
std::set<std::string> namesAfter(const std::string &Code,
                                 const std::string &Marker) {
  std::set<std::string> Names;
  for (size_t Pos = Code.find(Marker); Pos != std::string::npos;
       Pos = Code.find(Marker, Pos + 1)) {
    size_t Begin = Pos + Marker.size(), End = Begin;
    while (End < Code.size() &&
           (std::isalnum(static_cast<unsigned char>(Code[End])) ||
            Code[End] == '_'))
      ++End;
    if (End > Begin)
      Names.insert(Code.substr(Begin, End - Begin));
  }
  return Names;
}

/// Checks the dispatcher over \p Promoted emitted as \p Code:
///  - no kernel call reads a leaf through a name a workspace also binds
///    (the candidates' workspace parameter, the dispatcher's statics), so
///    every bare-identifier argument is one of the plans' input leaves;
///  - every dispatcher call of a candidate with setup steps comes right
///    after the call of that candidate's `_setup`, which writes the pinned
///    slots the candidate reads.
void expectDispatcherReadsLeavesAndRunsSetup(
    const std::string &Model, const std::vector<CompositionPlan> &Promoted,
    const std::string &Code) {
  std::set<std::string> Workspaces = namesAfter(Code, "_Workspace &");
  for (const std::string &Static : namesAfter(Code, "_Workspace "))
    Workspaces.insert(Static);
  std::set<std::string> Leaves;
  for (const CompositionPlan &Plan : Promoted)
    for (const PlanValue &Val : Plan.Values)
      if (Val.InputRole)
        Leaves.insert(Val.DebugName);

  size_t Calls = 0;
  for (size_t Pos = Code.find("kernels::"); Pos != std::string::npos;
       Pos = Code.find("kernels::", Pos + 1)) {
    size_t Open = Code.find('(', Pos), Close = Code.find(");\n", Pos);
    ASSERT_NE(Close, std::string::npos);
    std::string Args = Code.substr(Open + 1, Close - Open - 1) + ",";
    for (size_t B = 0, E; (E = Args.find(',', B)) != std::string::npos;
         B = E + 1) {
      std::string Arg = Args.substr(B, E - B);
      Arg.erase(0, Arg.find_first_not_of(' '));
      if (Arg.empty() || Arg.find_first_of(".{}") != std::string::npos ||
          std::isdigit(static_cast<unsigned char>(Arg[0])))
        continue; // a workspace member, an empty span or a constant
      EXPECT_EQ(Workspaces.count(Arg), 0u)
          << "leaf read through the workspace name '" << Arg << "' in "
          << Code.substr(Pos, Close - Pos);
      EXPECT_EQ(Leaves.count(Arg), 1u) << "'" << Arg << "' is not a leaf";
    }
    ++Calls;
  }
  EXPECT_GT(Calls, 0u);

  const std::string Dispatcher =
      Code.substr(Code.find(Model + "_forward(const Inputs &In)"));
  for (size_t I = 0; I < Promoted.size(); ++I) {
    const std::string Fn = Model + "_candidate" + std::to_string(I);
    bool HasSetup = false;
    for (const PlanStep &Step : Promoted[I].Steps)
      HasSetup |= Step.Setup;
    size_t Seen = 0;
    for (size_t Pos = Dispatcher.find("return " + Fn + "(In, ");
         Pos != std::string::npos;
         Pos = Dispatcher.find("return " + Fn + "(In, ", Pos + 1)) {
      ++Seen;
      size_t LineBegin = Dispatcher.rfind('\n', Pos);
      size_t PrevBegin = Dispatcher.rfind('\n', LineBegin - 1);
      std::string Prev =
          Dispatcher.substr(PrevBegin + 1, LineBegin - PrevBegin - 1);
      EXPECT_EQ(Prev.find(Fn + "_setup(In, ") != std::string::npos, HasSetup)
          << Fn << " is called after '" << Prev << "'";
    }
    EXPECT_GT(Seen, 0u) << Fn << " is never dispatched to";
  }
}

} // namespace

TEST(CodeGenBuffers, DispatchersReadLeavesAndRunCandidateSetup) {
  for (ModelKind Kind : {ModelKind::GCN, ModelKind::GAT}) {
    GnnModel M = makeModel(Kind);
    auto Promoted = pruneCompositions(enumerateCompositions(M.Root));
    SCOPED_TRACE(M.Name);
    expectDispatcherReadsLeavesAndRunsSetup(
        M.Name, Promoted, generateDispatchCode(M.Name, Promoted));
  }
}

//===----------------------------------------------------------------------===//
// DOT export
//===----------------------------------------------------------------------===//

TEST(DotExport, IRDigraphWellFormed) {
  GnnModel M = makeModel(ModelKind::GCN);
  std::string Dot = exportIRDot(M.Root, "gcn_ir");
  EXPECT_NE(Dot.find("digraph \"gcn_ir\""), std::string::npos);
  EXPECT_NE(Dot.find("shape=box"), std::string::npos);     // leaves
  EXPECT_NE(Dot.find("shape=ellipse"), std::string::npos); // operations
  EXPECT_NE(Dot.find("->"), std::string::npos);
  EXPECT_EQ(Dot.back(), '\n');
}

TEST(DotExport, SharedSubDagEmittedOnce) {
  // GAT's Theta (matmul(H, W)) is shared between attention and
  // aggregation; the DOT must contain exactly one matmul(H,W) node pair of
  // H/W leaf boxes.
  GnnModel M = makeModel(ModelKind::GAT);
  std::string Dot = exportIRDot(M.Root, "gat_ir");
  EXPECT_EQ(countOccurrences(Dot, "label=\"H\\n"), 1u);
  EXPECT_EQ(countOccurrences(Dot, "label=\"W\\n"), 1u);
}

TEST(DotExport, PlanDigraphMarksSetupDashed) {
  auto Plans = gcnPromoted();
  std::string Dot = exportPlanDot(Plans[0], "p0");
  EXPECT_NE(Dot.find("style=dashed"), std::string::npos);
  EXPECT_NE(Dot.find("peripheries=2"), std::string::npos); // output node
}

TEST(DotExport, PlanEdgesFollowOperands) {
  auto Plans = gcnPromoted();
  const CompositionPlan &Plan = Plans[0];
  std::string Dot = exportPlanDot(Plan, "p0");
  for (const PlanStep &Step : Plan.Steps)
    for (int Operand : Step.Operands)
      EXPECT_NE(Dot.find("v" + std::to_string(Operand) + " -> v" +
                         std::to_string(Step.Result)),
                std::string::npos);
}
