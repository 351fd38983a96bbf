//===- Rewrite.cpp - Matrix IR rewrite passes -------------------------------===//

#include "ir/Rewrite.h"

#include "ir/VerifyIR.h"
#include "support/Error.h"

#include <deque>
#include <unordered_set>

using namespace granii;

//===----------------------------------------------------------------------===//
// Broadcast elimination
//===----------------------------------------------------------------------===//

/// Rebuilds \p Node with \p NewChildren, preserving its operation.
static IRNodeRef rebuildNode(const IRNodeRef &Node,
                             std::vector<IRNodeRef> NewChildren) {
  switch (Node->kind()) {
  case IRKind::Leaf:
    return Node;
  case IRKind::MatMul:
    return ir::matMul(std::move(NewChildren));
  case IRKind::Add:
    return ir::add(std::move(NewChildren));
  case IRKind::RowBroadcast:
    return ir::rowBroadcast(NewChildren[0], NewChildren[1]);
  case IRKind::ColBroadcast:
    return ir::colBroadcast(NewChildren[0], NewChildren[1]);
  case IRKind::Unary: {
    const auto &Unary = cast<UnaryNode>(Node);
    switch (Unary.op()) {
    case UnaryOpKind::Relu:
      return ir::relu(NewChildren[0]);
    case UnaryOpKind::LeakyRelu:
      return std::make_shared<UnaryNode>(UnaryOpKind::LeakyRelu,
                                         Unary.param(), NewChildren[0],
                                         NewChildren[0]->shape(),
                                         NewChildren[0]->attr());
    case UnaryOpKind::Scale:
      return ir::scale(Unary.param(), NewChildren[0]);
    }
    graniiUnreachable("unknown unary op");
  }
  case IRKind::Atten:
    return ir::atten(NewChildren[0], NewChildren[1], NewChildren[2],
                     NewChildren[3]);
  }
  graniiUnreachable("unknown IR kind");
}

IRNodeRef granii::rewriteBroadcastsToDiag(const IRNodeRef &Root) {
  std::vector<IRNodeRef> NewChildren;
  for (const IRNodeRef &Child : Root->children())
    NewChildren.push_back(rewriteBroadcastsToDiag(Child));

  if (Root->kind() == IRKind::RowBroadcast)
    return ir::matMul({NewChildren[0], NewChildren[1]});
  if (Root->kind() == IRKind::ColBroadcast)
    return ir::matMul({NewChildren[0], NewChildren[1]});
  if (Root->kind() == IRKind::Leaf)
    return Root;
  return rebuildNode(Root, std::move(NewChildren));
}

//===----------------------------------------------------------------------===//
// Distribution over addition
//===----------------------------------------------------------------------===//

namespace {

/// Produces all single-step distribution rewrites of \p Node (at any depth).
/// Two directions at a MatMul containing an Add operand:
///   [..., Add(X, Y), T...] -> Add([..., X, T...], [..., Y, T...])
/// (distributing the full remaining chain into the addition).
void collectDistributionSteps(const IRNodeRef &Node,
                              std::vector<IRNodeRef> &Out);

/// Applies f to one child at a time, rebuilding the parent for each variant
/// the child produces.
void distributeInChildren(const IRNodeRef &Node, std::vector<IRNodeRef> &Out) {
  std::vector<IRNodeRef> Children = Node->children();
  for (size_t I = 0; I < Children.size(); ++I) {
    std::vector<IRNodeRef> ChildVariants;
    collectDistributionSteps(Children[I], ChildVariants);
    for (const IRNodeRef &Variant : ChildVariants) {
      std::vector<IRNodeRef> NewChildren = Children;
      NewChildren[I] = Variant;
      Out.push_back(rebuildNode(Node, std::move(NewChildren)));
    }
  }
}

void collectDistributionSteps(const IRNodeRef &Node,
                              std::vector<IRNodeRef> &Out) {
  if (Node->kind() == IRKind::Leaf)
    return;

  if (const auto *Mul = dynCast<MatMulNode>(Node)) {
    const auto &Ops = Mul->operands();
    for (size_t I = 0; I < Ops.size(); ++I) {
      const auto *AddOp = dynCast<AddNode>(Ops[I]);
      if (!AddOp)
        continue;
      // Distribute the whole chain over this addition.
      std::vector<IRNodeRef> Terms;
      for (const IRNodeRef &Term : AddOp->operands()) {
        std::vector<IRNodeRef> Chain;
        for (size_t J = 0; J < Ops.size(); ++J)
          Chain.push_back(J == I ? Term : Ops[J]);
        Terms.push_back(Chain.size() >= 2 ? ir::matMul(std::move(Chain))
                                          : Chain.front());
      }
      Out.push_back(ir::add(std::move(Terms)));
    }
  }

  if (const auto *Mul = dynCast<MatMulNode>(Node)) {
    // Pull a scale out of a chain operand: [..., scale(c, X), ...] ->
    // scale(c, [..., X, ...]). This is what lets GIN's (1 + eps) factor
    // share the H*W GEMM with the aggregation term.
    const auto &Ops = Mul->operands();
    for (size_t I = 0; I < Ops.size(); ++I) {
      const auto *Unary = dynCast<UnaryNode>(Ops[I]);
      if (!Unary || Unary->op() != UnaryOpKind::Scale)
        continue;
      std::vector<IRNodeRef> NewOps = Ops;
      NewOps[I] = Unary->operand();
      Out.push_back(ir::scale(Unary->param(), ir::matMul(std::move(NewOps))));
    }
  }

  // A Scale over a MatMul or Add can be pushed inside to free the chain:
  // scale(c, X*Y) stays a barrier otherwise. Push scale onto the first
  // dense-data operand.
  if (const auto *Unary = dynCast<UnaryNode>(Node);
      Unary && Unary->op() == UnaryOpKind::Scale) {
    if (const auto *Mul = dynCast<MatMulNode>(Unary->operand())) {
      // scale(c, A*B*...) -> (scale(c, A))*B*... only when A is dense data;
      // scaling sparse/weight operands is handled by other compositions.
      const auto &Ops = Mul->operands();
      for (size_t I = 0; I < Ops.size(); ++I) {
        if (Ops[I]->attr() != MatrixAttr::DenseData)
          continue;
        std::vector<IRNodeRef> NewOps = Ops;
        NewOps[I] = ir::scale(Unary->param(), Ops[I]);
        Out.push_back(ir::matMul(std::move(NewOps)));
        break;
      }
    }
  }

  distributeInChildren(Node, Out);
}

} // namespace

std::vector<IRNodeRef> granii::enumerateDistributions(const IRNodeRef &Root,
                                                      size_t MaxVariants) {
  std::vector<IRNodeRef> Result;
  std::unordered_set<std::string> Seen;
  std::deque<IRNodeRef> Worklist;

  auto Enqueue = [&](const IRNodeRef &Node) {
    if (Result.size() >= MaxVariants)
      return;
    if (!Seen.insert(Node->canonicalKey()).second)
      return;
    Result.push_back(Node);
    Worklist.push_back(Node);
  };

  Enqueue(Root);
  while (!Worklist.empty() && Result.size() < MaxVariants) {
    IRNodeRef Node = Worklist.front();
    Worklist.pop_front();
    std::vector<IRNodeRef> Steps;
    collectDistributionSteps(Node, Steps);
    for (const IRNodeRef &Step : Steps)
      Enqueue(Step);
  }
  return Result;
}

//===----------------------------------------------------------------------===//
// Verified pipeline
//===----------------------------------------------------------------------===//

/// Verifies one pass output. Returns true when clean. With a null \p Diags
/// a violation is fatal (the rewrite itself is buggy); otherwise the
/// diagnostics accumulate in \p Diags under stage "rewrite:<PassName>".
static bool checkPassOutput(const IRNodeRef &Root, const std::string &PassName,
                            DiagEngine *Diags) {
  if (Diags)
    return verifyAfterPass(Root, PassName, *Diags);
  DiagEngine Local;
  if (verifyAfterPass(Root, PassName, Local))
    return true;
  GRANII_FATAL("rewrite pass '" + PassName + "' produced invalid IR:\n" +
               Local.render());
}

std::vector<IRNodeRef> granii::runRewritePipeline(const IRNodeRef &Root,
                                                  size_t MaxVariants,
                                                  DiagEngine *Diags) {
  IRNodeRef NoBcast = rewriteBroadcastsToDiag(Root);
  if (!checkPassOutput(NoBcast, "broadcast-to-diag", Diags))
    return {};

  std::vector<IRNodeRef> Variants =
      enumerateDistributions(NoBcast, MaxVariants);
  std::vector<IRNodeRef> Clean;
  for (const IRNodeRef &Variant : Variants)
    if (checkPassOutput(Variant, "distribute", Diags))
      Clean.push_back(Variant);
  return Clean;
}
