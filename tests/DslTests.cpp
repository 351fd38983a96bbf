//===- DslTests.cpp - Tests for the message-passing DSL front end -----------===//

#include "ir/Dsl.h"
#include "ir/Rewrite.h"
#include "models/Models.h"

#include <gtest/gtest.h>

using namespace granii;

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

TEST(Lexer, TokenKindsAndText) {
  std::string Error;
  auto Tokens = lexModelDsl("model X { h = f(a, 1.5); }", &Error);
  EXPECT_TRUE(Error.empty());
  ASSERT_GE(Tokens.size(), 12u);
  EXPECT_EQ(Tokens[0].Kind, TokenKind::Identifier);
  EXPECT_EQ(Tokens[0].Text, "model");
  EXPECT_EQ(Tokens[2].Kind, TokenKind::LBrace);
  EXPECT_EQ(Tokens[4].Kind, TokenKind::Equals);
  EXPECT_EQ(Tokens.back().Kind, TokenKind::EndOfFile);
}

TEST(Lexer, NumbersIncludingExponents) {
  std::string Error;
  auto Tokens = lexModelDsl("1.25 3 2e-3", &Error);
  EXPECT_TRUE(Error.empty());
  EXPECT_DOUBLE_EQ(Tokens[0].NumberValue, 1.25);
  EXPECT_DOUBLE_EQ(Tokens[1].NumberValue, 3.0);
  EXPECT_DOUBLE_EQ(Tokens[2].NumberValue, 2e-3);
}

TEST(Lexer, CommentsSkippedAndLinesTracked) {
  std::string Error;
  auto Tokens = lexModelDsl("a # comment\nb", &Error);
  EXPECT_TRUE(Error.empty());
  ASSERT_GE(Tokens.size(), 3u);
  EXPECT_EQ(Tokens[0].Text, "a");
  EXPECT_EQ(Tokens[1].Text, "b");
  EXPECT_EQ(Tokens[1].Line, 2);
}

TEST(Lexer, RejectsUnknownCharacter) {
  std::string Error;
  auto Tokens = lexModelDsl("a @ b", &Error);
  EXPECT_NE(Error.find("unexpected character"), std::string::npos);
  EXPECT_EQ(Tokens.back().Kind, TokenKind::EndOfFile);
}

//===----------------------------------------------------------------------===//
// Parser + lowering
//===----------------------------------------------------------------------===//

TEST(Parser, GcnLowersToExpectedIR) {
  std::string Error;
  auto Model = parseModelDsl(modelDslSource(ModelKind::GCN), &Error);
  ASSERT_TRUE(Model.has_value()) << Error;
  EXPECT_EQ(Model->Name, "GCN");
  std::string Key = Model->Root->canonicalKey();
  EXPECT_EQ(Key,
            "relu(rowbcast(D,matmul(A,rowbcast(D,H),W)))");
}

TEST(Parser, AllFiveModelSourcesParse) {
  for (ModelKind Kind : allModels()) {
    std::string Error;
    auto Model = parseModelDsl(modelDslSource(Kind), &Error);
    EXPECT_TRUE(Model.has_value()) << modelName(Kind) << ": " << Error;
    if (Model)
      verifyIR(Model->Root);
  }
}

TEST(Parser, GatHasAttentionWithSharedTheta) {
  std::string Error;
  auto Model = parseModelDsl(modelDslSource(ModelKind::GAT), &Error);
  ASSERT_TRUE(Model.has_value()) << Error;
  std::string Key = Model->Root->canonicalKey();
  // Theta = matmul(H,W) appears both inside atten(...) and as the
  // aggregation operand (flattened into the chain).
  EXPECT_NE(Key.find("atten(A,matmul(H,W)"), std::string::npos);
}

TEST(Parser, SgcHopCountControlsChainLength) {
  std::string Error;
  auto One = parseModelDsl(modelDslSource(ModelKind::SGC, 1), &Error);
  auto Three = parseModelDsl(modelDslSource(ModelKind::SGC, 3), &Error);
  ASSERT_TRUE(One && Three);
  // Each hop adds "rowbcast" twice and "matmul(A" once.
  std::string K1 = One->Root->canonicalKey();
  std::string K3 = Three->Root->canonicalKey();
  EXPECT_LT(K1.size(), K3.size());
}

TEST(Parser, ReportsUndefinedName) {
  std::string Error;
  auto Model = parseModelDsl("model M { output relu(x); }", &Error);
  EXPECT_FALSE(Model.has_value());
  EXPECT_NE(Error.find("undefined name 'x'"), std::string::npos);
}

TEST(Parser, ReportsMissingOutput) {
  std::string Error;
  auto Model = parseModelDsl("model M { input features H; }", &Error);
  EXPECT_FALSE(Model.has_value());
  EXPECT_NE(Error.find("no 'output'"), std::string::npos);
}

TEST(Parser, ReportsLineNumbers) {
  std::string Error;
  auto Model = parseModelDsl("model M {\n  h = nosuch(1);\n}", &Error);
  EXPECT_FALSE(Model.has_value());
  EXPECT_NE(Error.find("line 2"), std::string::npos);
}

TEST(Parser, ReportsUnknownOperation) {
  std::string Error;
  auto Model = parseModelDsl(
      "model M { input features H; output frobnicate(H); }", &Error);
  EXPECT_FALSE(Model.has_value());
  EXPECT_NE(Error.find("unknown operation 'frobnicate'"), std::string::npos);
}

TEST(Parser, ReportsArityErrors) {
  std::string Error;
  auto Model = parseModelDsl(
      "model M { input features H; output matmul(H); }", &Error);
  EXPECT_FALSE(Model.has_value());
  EXPECT_NE(Error.find("matmul"), std::string::npos);
}

TEST(Parser, ReportsUnterminatedBody) {
  std::string Error;
  auto Model = parseModelDsl("model M { input features H;", &Error);
  EXPECT_FALSE(Model.has_value());
  EXPECT_NE(Error.find("end of input"), std::string::npos);
}

TEST(Parser, ScaleRequiresNumberFirst) {
  std::string Error;
  auto Model = parseModelDsl(
      "model M { input features H; output scale(H, 2); }", &Error);
  EXPECT_FALSE(Model.has_value());
}

// Operands the IR builders or the executor cannot accept are diagnostics,
// not aborts: a scale operand that is not a diagonal, add over different
// shapes, an attention mask that is not the input graph, relu or scale
// over a sparse operand, an attention vector anywhere but attention's last
// two arguments, and an output that is an input or sparse.
TEST(Parser, ReportsOperandsTheIRCannotBuild) {
  const std::string Decls = "model M {\n"
                            "  input graph A;\n"
                            "  input features H;\n"
                            "  param weight W;\n"
                            "  param attn_src s;\n"
                            "  param attn_dst t;\n";
  const std::pair<const char *, const char *> Cases[] = {
      {"output row_scale(H, H);", "row_scale scales by a diagonal"},
      {"h = matmul(H, W); output col_scale(h, h);",
       "col_scale scales by a diagonal"},
      {"h = matmul(H, W); output add(h, H);", "add operands must share"},
      {"h = matmul(H, W); output relu(attention(h, h, s, t));",
       "attention's first argument must be the input graph"},
      {"output matmul(attention(row_scale(inv_degree(A), A), matmul(H, W), "
       "s, t), H, W);",
       "attention's first argument must be the input graph"},
      {"output matmul(scale(0.5, A), H, W);", "scale takes a dense operand"},
      {"output relu(attention(A, matmul(H, W), s, t));",
       "relu takes a dense operand"},
      {"output matmul(relu(A), H, W);", "relu takes a dense operand"},
      {"output matmul(H, W, s);", "attention vector 's' can only be"},
      {"h = t; output relu(matmul(H, W, h));",
       "attention vector 't' can only be"},
      {"output W;", "output must be computed from the inputs"},
      {"output attention(A, matmul(H, W), s, t);", "output must be dense"},
  };
  for (const auto &[Body, Want] : Cases) {
    SCOPED_TRACE(Body);
    std::string Error;
    auto Model = parseModelDsl(Decls + "  " + Body + "\n}\n", &Error);
    EXPECT_FALSE(Model.has_value());
    EXPECT_NE(Error.find(Want), std::string::npos) << Error;
    EXPECT_NE(Error.find("line 7"), std::string::npos) << Error;
  }
}

TEST(Parser, RebindingNamesIsAllowed) {
  std::string Error;
  auto Model = parseModelDsl("model M {\n"
                             "  input graph A;\n"
                             "  input features H;\n"
                             "  h = aggregate(A, H);\n"
                             "  h = aggregate(A, h);\n"
                             "  output relu(h);\n"
                             "}",
                             &Error);
  ASSERT_TRUE(Model.has_value()) << Error;
  EXPECT_EQ(Model->Root->canonicalKey(), "relu(matmul(A,A,H))");
}

//===----------------------------------------------------------------------===//
// Model registry
//===----------------------------------------------------------------------===//

TEST(Models, NamesAndOrder) {
  EXPECT_EQ(modelName(ModelKind::GCN), "gcn");
  EXPECT_EQ(modelName(ModelKind::GAT), "gat");
  EXPECT_EQ(allModels().size(), 5u);
}

TEST(Models, MakeModelFillsMetadata) {
  GnnModel Tagcn = makeModel(ModelKind::TAGCN, 2);
  EXPECT_EQ(Tagcn.WeightCount, 3);
  EXPECT_EQ(Tagcn.Hops, 2);
  EXPECT_FALSE(Tagcn.UsesAttention);
  GnnModel Gat = makeModel(ModelKind::GAT);
  EXPECT_TRUE(Gat.UsesAttention);
  EXPECT_EQ(Gat.WeightCount, 1);
}

TEST(Models, SgcChainFlattensCompletely) {
  GnnModel Sgc = makeModel(ModelKind::SGC, 2);
  IRNodeRef Rewritten = rewriteBroadcastsToDiag(Sgc.Root);
  // matmul(D,A,D,D,A,D,H,W): 8 operands in a single flat chain.
  const auto *Mul = dynCast<MatMulNode>(Rewritten);
  ASSERT_NE(Mul, nullptr);
  EXPECT_EQ(Mul->operands().size(), 8u);
}
