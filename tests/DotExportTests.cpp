//===- DotExportTests.cpp - Tests for Graphviz DOT export ------------------===//

#include "assoc/DotExport.h"
#include "assoc/Enumerate.h"
#include "assoc/Prune.h"
#include "models/Models.h"

#include <gtest/gtest.h>

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
