//===- Enumerate.cpp - Association-tree enumeration (Algorithm 1) ----------===//
//
// Implementation notes: a naive transcription of Algorithm 1 enumerates
// *reduction orders*, which revisits each association tree factorially many
// times for long chains (SGC's flattened chain has eight operands). We
// instead enumerate binary/ternary association trees directly with an
// interval construction that produces each tree exactly once, as "recipes";
// every recipe is then materialized into a CompositionPlan through a
// value-numbering builder whose CSE makes shared sub-recipes (e.g. GAT's
// updated embeddings, TAGCN's normalized adjacency) single steps. Additive
// terms are enumerated independently and locally pre-pruned with the same
// input-oblivious rules before taking cross products, which is sound
// because plan costs are additive over steps.
//
//===----------------------------------------------------------------------===//

#include "assoc/Enumerate.h"

#include "assoc/Prune.h"
#include "ir/Rewrite.h"
#include "support/Error.h"
#include "support/Trace.h"

#include <cassert>
#include <map>
#include <unordered_set>

using namespace granii;

namespace {

//===----------------------------------------------------------------------===//
// Recipes: symbolic association trees
//===----------------------------------------------------------------------===//

/// Node of a symbolic association tree. Leaves reference IR leaf nodes;
/// interior nodes carry the step op of the primitive that combines their
/// children. Attention expands into a fixed chain of interior nodes.
struct Recipe {
  enum class Tag { Input, DegreeNorm, DegreeInv, Step };

  Tag Kind = Tag::Step;
  /// For Input: the IR leaf it binds.
  const LeafNode *Leaf = nullptr;
  /// For Step: the operation and its children.
  StepOp Op = StepOp::Gemm;
  double Param = 0.0;
  std::vector<std::shared_ptr<const Recipe>> Children;

  /// Result classification, filled at construction.
  PlanValueKind ValueKind = PlanValueKind::Dense;
  bool SparseWeighted = false;
  SymShape Shape;

  /// Canonical string; equal sub-recipes materialize to one CSE'd step.
  std::string Key;
};

using RecipeRef = std::shared_ptr<const Recipe>;

RecipeRef makeInputRecipe(const LeafNode *Leaf) {
  auto R = std::make_shared<Recipe>();
  R->Kind = Recipe::Tag::Input;
  R->Leaf = Leaf;
  R->Shape = Leaf->shape();
  switch (Leaf->attr()) {
  case MatrixAttr::SparseUnweighted:
    R->ValueKind = PlanValueKind::Sparse;
    R->SparseWeighted = false;
    break;
  case MatrixAttr::SparseWeighted:
    R->ValueKind = PlanValueKind::Sparse;
    R->SparseWeighted = true;
    break;
  case MatrixAttr::Diagonal:
    R->ValueKind = PlanValueKind::Diag;
    break;
  case MatrixAttr::DenseData:
  case MatrixAttr::DenseWeight:
    R->ValueKind = PlanValueKind::Dense;
    break;
  }
  R->Key = Leaf->name();
  return R;
}

RecipeRef makeDegreeNormRecipe(bool Reciprocal) {
  auto R = std::make_shared<Recipe>();
  R->Kind = Reciprocal ? Recipe::Tag::DegreeInv : Recipe::Tag::DegreeNorm;
  R->ValueKind = PlanValueKind::Diag;
  R->Shape = {SymDim::n(), SymDim::n()};
  R->Key = Reciprocal ? "Dinv" : "Dnorm";
  return R;
}

RecipeRef makeStepRecipe(StepOp Op, std::vector<RecipeRef> Children,
                         PlanValueKind ValueKind, bool SparseWeighted,
                         SymShape Shape, double Param = 0.0) {
  auto R = std::make_shared<Recipe>();
  R->Kind = Recipe::Tag::Step;
  R->Op = Op;
  R->Param = Param;
  R->Children = std::move(Children);
  R->ValueKind = ValueKind;
  R->SparseWeighted = SparseWeighted;
  R->Shape = Shape;
  R->Key = std::string(stepOpName(Op)) + "[" + std::to_string(Param) + "](";
  for (size_t I = 0; I < R->Children.size(); ++I) {
    if (I != 0)
      R->Key += ",";
    R->Key += R->Children[I]->Key;
  }
  R->Key += ")";
  return R;
}

//===----------------------------------------------------------------------===//
// Plan materialization
//===----------------------------------------------------------------------===//

/// Turns recipes into CompositionPlan steps with value numbering + CSE.
class PlanBuilder {
public:
  explicit PlanBuilder(const EnumOptions &Opts) : Opts(&Opts) {}

  int materialize(const RecipeRef &R) {
    auto It = Memo.find(R->Key);
    if (It != Memo.end())
      return It->second;
    int Id = materializeImpl(R);
    Memo.emplace(R->Key, Id);
    return Id;
  }

  CompositionPlan Plan;

private:
  int addInput(const LeafNode *Leaf) {
    auto It = Memo.find(Leaf->name());
    if (It != Memo.end())
      return It->second;
    PlanValue Val;
    Val.Shape = Leaf->shape();
    Val.DebugName = Leaf->name();
    Val.InputRole = Leaf->role();
    switch (Leaf->attr()) {
    case MatrixAttr::SparseUnweighted:
      Val.Kind = PlanValueKind::Sparse;
      break;
    case MatrixAttr::SparseWeighted:
      Val.Kind = PlanValueKind::Sparse;
      Val.SparseWeighted = true;
      break;
    case MatrixAttr::Diagonal:
      Val.Kind = PlanValueKind::Diag;
      break;
    case MatrixAttr::DenseData:
    case MatrixAttr::DenseWeight:
      Val.Kind = PlanValueKind::Dense;
      break;
    }
    Val.GraphOnly = Leaf->role() == LeafRole::Adjacency;
    int Id = static_cast<int>(Plan.Values.size());
    Plan.Values.push_back(std::move(Val));
    Memo.emplace(Leaf->name(), Id);
    return Id;
  }

  int emit(StepOp Op, std::vector<int> Operands, PlanValue Def,
           double Param = 0.0) {
    bool GraphOnly = true;
    for (int Id : Operands)
      GraphOnly &= Plan.Values[static_cast<size_t>(Id)].GraphOnly;
    Def.GraphOnly = GraphOnly;
    int Result = static_cast<int>(Plan.Values.size());
    Plan.Values.push_back(std::move(Def));
    PlanStep Step;
    Step.Op = Op;
    Step.Operands = std::move(Operands);
    Step.Result = Result;
    Step.Param = Param;
    Step.Setup = GraphOnly && Opts->HoistGraphOnlySteps;
    Plan.Steps.push_back(std::move(Step));
    return Result;
  }

  int materializeImpl(const RecipeRef &R) {
    switch (R->Kind) {
    case Recipe::Tag::Input:
      return addInput(R->Leaf);
    case Recipe::Tag::DegreeNorm:
    case Recipe::Tag::DegreeInv: {
      // D^{-1/2} derives from the adjacency at runtime: degree + rsqrt.
      LeafNode Adj("A", LeafRole::Adjacency, MatrixAttr::SparseUnweighted,
                   {SymDim::n(), SymDim::n()});
      int AdjId = addInput(&Adj);
      PlanValue DegDef{PlanValueKind::Diag,
                       {SymDim::n(), SymDim::n()},
                       false,
                       "deg",
                       std::nullopt,
                       false};
      int Deg = emit(Opts->UseBinningDegree ? StepOp::DegreeBinning
                                            : StepOp::DegreeOffsets,
                     {AdjId}, std::move(DegDef));
      PlanValue NormDef{PlanValueKind::Diag,
                        {SymDim::n(), SymDim::n()},
                        false,
                        "dnorm",
                        std::nullopt,
                        false};
      return emit(R->Kind == Recipe::Tag::DegreeInv ? StepOp::InvVec
                                                    : StepOp::InvSqrtVec,
                  {Deg}, std::move(NormDef));
    }
    case Recipe::Tag::Step: {
      std::vector<int> Operands;
      Operands.reserve(R->Children.size());
      for (const RecipeRef &Child : R->Children)
        Operands.push_back(materialize(Child));
      PlanValue Def{R->ValueKind, R->Shape, R->SparseWeighted,
                    "t",          std::nullopt, false};
      return emit(R->Op, std::move(Operands), std::move(Def), R->Param);
    }
    }
    graniiUnreachable("unknown recipe tag");
  }

  const EnumOptions *Opts;
  std::map<std::string, int> Memo; // recipe key / leaf name -> value id
};

/// Materializes \p Root into a standalone plan.
CompositionPlan materializePlan(const RecipeRef &Root,
                                const EnumOptions &Opts) {
  PlanBuilder Builder(Opts);
  Builder.Plan.OutputValue = Builder.materialize(Root);
  return std::move(Builder.Plan);
}

//===----------------------------------------------------------------------===//
// Chain association enumeration (interval construction)
//===----------------------------------------------------------------------===//

/// Combines two adjacent association results with the binary window rules;
/// returns null when no rule applies (e.g. sparse x sparse: SpGEMM is not
/// in the primitive set).
RecipeRef combineBinary(const RecipeRef &L, const RecipeRef &R) {
  SymShape Shape = {L->Shape.Rows, R->Shape.Cols};
  PlanValueKind LK = L->ValueKind, RK = R->ValueKind;
  if (LK == PlanValueKind::Diag && RK == PlanValueKind::Sparse)
    return makeStepRecipe(StepOp::SddmmScaleRow, {L, R}, PlanValueKind::Sparse,
                          true, Shape);
  if (LK == PlanValueKind::Sparse && RK == PlanValueKind::Diag)
    return makeStepRecipe(StepOp::SddmmScaleCol, {L, R}, PlanValueKind::Sparse,
                          true, Shape);
  if (LK == PlanValueKind::Sparse && RK == PlanValueKind::Dense)
    return makeStepRecipe(L->SparseWeighted ? StepOp::SpmmWeighted
                                            : StepOp::SpmmUnweighted,
                          {L, R}, PlanValueKind::Dense, false, Shape);
  if (LK == PlanValueKind::Dense && RK == PlanValueKind::Dense)
    return makeStepRecipe(StepOp::Gemm, {L, R}, PlanValueKind::Dense, false,
                          Shape);
  if (LK == PlanValueKind::Diag && RK == PlanValueKind::Dense)
    return makeStepRecipe(StepOp::RowBcast, {L, R}, PlanValueKind::Dense,
                          false, Shape);
  if (LK == PlanValueKind::Dense && RK == PlanValueKind::Diag)
    return makeStepRecipe(StepOp::ColBcast, {L, R}, PlanValueKind::Dense,
                          false, Shape);
  if (LK == PlanValueKind::Diag && RK == PlanValueKind::Diag)
    return makeStepRecipe(StepOp::DiagDiag, {L, R}, PlanValueKind::Diag, false,
                          Shape);
  return nullptr;
}

/// Locally prunes a recipe set with the input-oblivious domination rules
/// when it exceeds \p Threshold. Sound inside larger compositions because
/// step costs are additive and every recipe of one chain interval has the
/// same result kind and shape.
std::vector<RecipeRef> pruneRecipeSet(std::vector<RecipeRef> Recipes,
                                      const EnumOptions &Opts,
                                      size_t Threshold) {
  if (Recipes.size() <= Threshold)
    return Recipes;
  std::vector<CompositionPlan> Plans;
  Plans.reserve(Recipes.size());
  for (const RecipeRef &R : Recipes)
    Plans.push_back(materializePlan(R, Opts));
  std::vector<CompositionPlan> Kept = pruneCompositions(std::move(Plans));
  std::unordered_set<std::string> KeptKeys;
  for (const CompositionPlan &Plan : Kept)
    KeptKeys.insert(Plan.canonicalKey());
  std::vector<RecipeRef> Result;
  for (const RecipeRef &R : Recipes)
    if (KeptKeys.count(materializePlan(R, Opts).canonicalKey()))
      Result.push_back(R);
  return Result;
}

/// Enumerates all association trees over a chain, each exactly once, via
/// interval decomposition with memoization.
class ChainEnumerator {
public:
  ChainEnumerator(std::vector<std::vector<RecipeRef>> ItemChoices,
                  const EnumOptions &Opts)
      : Items(std::move(ItemChoices)), Opts(Opts) {}

  std::vector<RecipeRef> run() { return interval(0, Items.size()); }

private:
  std::vector<RecipeRef> interval(size_t Begin, size_t End) {
    size_t MemoKey = Begin * 1024 + End;
    auto It = Memo.find(MemoKey);
    if (It != Memo.end())
      return It->second;

    std::vector<RecipeRef> Result;
    if (End - Begin == 1) {
      Result = Items[Begin];
    } else {
      for (size_t Split = Begin + 1; Split < End; ++Split)
        for (const RecipeRef &L : interval(Begin, Split))
          for (const RecipeRef &R : interval(Split, End))
            if (RecipeRef Combined = combineBinary(L, R))
              Result.push_back(std::move(Combined));
      // Fused ternary rule at exactly [diag, sparse, diag].
      if (Opts.EnableTernaryRule && End - Begin == 3) {
        for (const RecipeRef &A : Items[Begin])
          for (const RecipeRef &B : Items[Begin + 1])
            for (const RecipeRef &C : Items[Begin + 2])
              if (A->ValueKind == PlanValueKind::Diag &&
                  B->ValueKind == PlanValueKind::Sparse &&
                  C->ValueKind == PlanValueKind::Diag)
                Result.push_back(makeStepRecipe(
                    StepOp::SddmmScaleBoth, {A, B, C}, PlanValueKind::Sparse,
                    true, {A->Shape.Rows, C->Shape.Cols}));
      }
    }
    // Keep inner intervals tractable on long chains (SGC with k hops has
    // a 3k+2-operand chain); the full-range interval is never pre-pruned
    // so enumerateCompositions still reports the complete candidate set.
    if (End - Begin < Items.size())
      Result = pruneRecipeSet(std::move(Result), Opts, /*Threshold=*/32);
    Memo.emplace(MemoKey, Result);
    return Result;
  }

  std::vector<std::vector<RecipeRef>> Items;
  const EnumOptions &Opts;
  std::map<size_t, std::vector<RecipeRef>> Memo;
};

//===----------------------------------------------------------------------===//
// IR-node enumeration
//===----------------------------------------------------------------------===//

class Enumerator {
public:
  explicit Enumerator(const EnumOptions &Opts) : Opts(Opts) {}

  std::vector<RecipeRef> enumNode(const IRNodeRef &Node);

private:
  /// Locally prunes a recipe set with the input-oblivious domination rules;
  /// sound before cross products because step costs add up.
  std::vector<RecipeRef> prelimPrune(std::vector<RecipeRef> Recipes);

  const EnumOptions &Opts;
};

std::vector<RecipeRef> Enumerator::prelimPrune(std::vector<RecipeRef> Recipes) {
  return pruneRecipeSet(std::move(Recipes), Opts, /*Threshold=*/24);
}

std::vector<RecipeRef> Enumerator::enumNode(const IRNodeRef &Node) {
  switch (Node->kind()) {
  case IRKind::Leaf: {
    const auto &Leaf = cast<LeafNode>(Node);
    if (Leaf.role() == LeafRole::DegreeNorm)
      return {makeDegreeNormRecipe(/*Reciprocal=*/false)};
    if (Leaf.role() == LeafRole::DegreeInv)
      return {makeDegreeNormRecipe(/*Reciprocal=*/true)};
    return {makeInputRecipe(&Leaf)};
  }
  case IRKind::MatMul: {
    const auto &Mul = cast<MatMulNode>(Node);
    std::vector<std::vector<RecipeRef>> ItemChoices;
    for (const IRNodeRef &Op : Mul.operands())
      ItemChoices.push_back(prelimPrune(enumNode(Op)));
    ChainEnumerator Chain(std::move(ItemChoices), Opts);
    return Chain.run();
  }
  case IRKind::Add: {
    const auto &Add = cast<AddNode>(Node);
    std::vector<RecipeRef> Acc;
    for (size_t I = 0; I < Add.operands().size(); ++I) {
      std::vector<RecipeRef> Term = prelimPrune(enumNode(Add.operands()[I]));
      if (I == 0) {
        Acc = std::move(Term);
        continue;
      }
      std::vector<RecipeRef> Next;
      for (const RecipeRef &L : Acc)
        for (const RecipeRef &R : Term)
          Next.push_back(makeStepRecipe(StepOp::AddDense, {L, R},
                                        PlanValueKind::Dense, false,
                                        L->Shape));
      Acc = prelimPrune(std::move(Next));
    }
    return Acc;
  }
  case IRKind::RowBroadcast:
  case IRKind::ColBroadcast:
    GRANII_FATAL("broadcasts must be rewritten to diagonal multiplications "
                 "before enumeration");
  case IRKind::Unary: {
    const auto &Unary = cast<UnaryNode>(Node);
    std::vector<RecipeRef> Result;
    for (const RecipeRef &Child : enumNode(Unary.operand())) {
      switch (Unary.op()) {
      case UnaryOpKind::Relu:
        Result.push_back(makeStepRecipe(StepOp::Relu, {Child},
                                        Child->ValueKind,
                                        Child->SparseWeighted, Child->Shape));
        break;
      case UnaryOpKind::LeakyRelu:
        Result.push_back(makeStepRecipe(
            StepOp::EdgeLeakyRelu, {Child}, Child->ValueKind,
            Child->SparseWeighted, Child->Shape, Unary.param()));
        break;
      case UnaryOpKind::Scale:
        Result.push_back(makeStepRecipe(
            StepOp::ScaleDense, {Child}, Child->ValueKind,
            Child->SparseWeighted, Child->Shape, Unary.param()));
        break;
      }
    }
    return Result;
  }
  case IRKind::Atten: {
    const auto &Att = cast<AttenNode>(Node);
    const auto *AdjLeaf = dynCast<LeafNode>(Att.adj());
    const auto *SrcLeaf = dynCast<LeafNode>(Att.srcVec());
    const auto *DstLeaf = dynCast<LeafNode>(Att.dstVec());
    assert(AdjLeaf && SrcLeaf && DstLeaf &&
           "attention operands must be leaves");
    std::vector<RecipeRef> Result;
    SymShape VecShape = {SymDim::n(), SymDim::one()};
    SymShape MaskShape = {SymDim::n(), SymDim::n()};
    for (const RecipeRef &Theta : enumNode(Att.theta())) {
      RecipeRef Adj = makeInputRecipe(AdjLeaf);
      RecipeRef Src =
          makeStepRecipe(StepOp::AttnGemv, {Theta, makeInputRecipe(SrcLeaf)},
                         PlanValueKind::NodeVec, false, VecShape);
      RecipeRef Dst =
          makeStepRecipe(StepOp::AttnGemv, {Theta, makeInputRecipe(DstLeaf)},
                         PlanValueKind::NodeVec, false, VecShape);
      RecipeRef Logits = makeStepRecipe(StepOp::EdgeLogits, {Adj, Src, Dst},
                                        PlanValueKind::Sparse, true,
                                        MaskShape);
      RecipeRef Act =
          makeStepRecipe(StepOp::EdgeLeakyRelu, {Logits},
                         PlanValueKind::Sparse, true, MaskShape, 0.2);
      Result.push_back(makeStepRecipe(StepOp::EdgeSoftmax, {Act},
                                      PlanValueKind::Sparse, true, MaskShape));
    }
    return Result;
  }
  }
  graniiUnreachable("unknown IR kind");
}

} // namespace

std::vector<CompositionPlan>
granii::enumerateCompositions(const IRNodeRef &Root, const EnumOptions &Opts) {
  TraceSpan EnumSpan("enumerate", "optimizer");
  TraceSpan RewriteSpan("rewrite", "optimizer");
  std::vector<IRNodeRef> Variants =
      runRewritePipeline(Root, /*MaxVariants=*/64);
  RewriteSpan.setArg("variants", static_cast<double>(Variants.size()));
  RewriteSpan.end();

  std::vector<CompositionPlan> Plans;
  std::unordered_set<std::string> Seen;
  Enumerator Enum(Opts);
  for (const IRNodeRef &Variant : Variants) {
    for (const RecipeRef &Recipe : Enum.enumNode(Variant)) {
      if (Plans.size() >= Opts.MaxPlans)
        break;
      CompositionPlan Plan = materializePlan(Recipe, Opts);
      std::string Key = Plan.canonicalKey();
      if (!Seen.insert(std::move(Key)).second)
        continue;
      Plan.Name = "plan#" + std::to_string(Plans.size());
      Plan.verify();
      Plans.push_back(std::move(Plan));
    }
  }
  EnumSpan.setArg("plans", static_cast<double>(Plans.size()));
  return Plans;
}
