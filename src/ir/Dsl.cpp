//===- Dsl.cpp - Message-passing DSL front end ------------------------------===//

#include "ir/Dsl.h"

#include "ir/VerifyIR.h"
#include "support/Str.h"
#include "support/Trace.h"

#include <cctype>
#include <map>

using namespace granii;

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

std::vector<Token> granii::lexModelDsl(const std::string &Source,
                                       std::string *ErrorMessage) {
  std::vector<Token> Tokens;
  int Line = 1;
  size_t I = 0;
  const size_t E = Source.size();
  while (I < E) {
    char C = Source[I];
    if (C == '\n') {
      ++Line;
      ++I;
      continue;
    }
    if (C == ' ' || C == '\t' || C == '\r') {
      ++I;
      continue;
    }
    if (C == '#') {
      while (I < E && Source[I] != '\n')
        ++I;
      continue;
    }
    Token Tok;
    Tok.Line = Line;
    if (std::isalpha(static_cast<unsigned char>(C)) || C == '_') {
      size_t Begin = I;
      while (I < E && (std::isalnum(static_cast<unsigned char>(Source[I])) ||
                       Source[I] == '_'))
        ++I;
      Tok.Kind = TokenKind::Identifier;
      Tok.Text = Source.substr(Begin, I - Begin);
      Tokens.push_back(std::move(Tok));
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(C)) || C == '.' ||
        ((C == '-' || C == '+') && I + 1 < E &&
         std::isdigit(static_cast<unsigned char>(Source[I + 1])))) {
      size_t Begin = I;
      ++I;
      while (I < E && (std::isdigit(static_cast<unsigned char>(Source[I])) ||
                       Source[I] == '.' || Source[I] == 'e' ||
                       Source[I] == 'E' || Source[I] == '-' ||
                       Source[I] == '+')) {
        // Allow exponent signs only directly after e/E.
        if ((Source[I] == '-' || Source[I] == '+') &&
            !(Source[I - 1] == 'e' || Source[I - 1] == 'E'))
          break;
        ++I;
      }
      Tok.Kind = TokenKind::Number;
      Tok.Text = Source.substr(Begin, I - Begin);
      // Checked parse: the lexed shape ("." or "1e" slip through the scan
      // above) is not guaranteed to be a number, and std::stod would throw
      // out of the lexer on such input.
      if (!parseDouble(Tok.Text, Tok.NumberValue)) {
        if (ErrorMessage)
          *ErrorMessage = "line " + std::to_string(Line) +
                          ": malformed number '" + Tok.Text + "'";
        Tokens.push_back({TokenKind::EndOfFile, "", 0.0, Line});
        return Tokens;
      }
      Tokens.push_back(std::move(Tok));
      continue;
    }
    switch (C) {
    case '{':
      Tok.Kind = TokenKind::LBrace;
      break;
    case '}':
      Tok.Kind = TokenKind::RBrace;
      break;
    case '(':
      Tok.Kind = TokenKind::LParen;
      break;
    case ')':
      Tok.Kind = TokenKind::RParen;
      break;
    case ',':
      Tok.Kind = TokenKind::Comma;
      break;
    case ';':
      Tok.Kind = TokenKind::Semicolon;
      break;
    case '=':
      Tok.Kind = TokenKind::Equals;
      break;
    default:
      if (ErrorMessage)
        *ErrorMessage = "line " + std::to_string(Line) +
                        ": unexpected character '" + std::string(1, C) + "'";
      Tokens.push_back({TokenKind::EndOfFile, "", 0.0, Line});
      return Tokens;
    }
    Tok.Text = std::string(1, C);
    Tokens.push_back(std::move(Tok));
    ++I;
  }
  Tokens.push_back({TokenKind::EndOfFile, "", 0.0, Line});
  return Tokens;
}

//===----------------------------------------------------------------------===//
// Parser / lowering
//===----------------------------------------------------------------------===//

namespace {

/// Recursive-descent parser that lowers to matrix IR on the fly. The
/// environment maps DSL variable names to IR sub-DAGs; assignments rebind.
class Parser {
public:
  Parser(std::vector<Token> Tokens) : Tokens(std::move(Tokens)) {}

  std::optional<ParsedModel> parse(std::string *ErrorMessage);

private:
  const Token &peek() const { return Tokens[Pos]; }
  const Token &advance() { return Tokens[Pos++]; }

  bool expect(TokenKind Kind, const std::string &What) {
    if (peek().Kind == Kind) {
      advance();
      return true;
    }
    return fail("expected " + What + " but found '" + peek().Text + "'");
  }

  bool fail(const std::string &Msg) {
    if (Error.empty())
      Error = "line " + std::to_string(peek().Line) + ": " + Msg;
    return false;
  }

  bool parseDeclaration();
  bool parseStatement();
  IRNodeRef parseExpr();
  IRNodeRef parseCall(const std::string &Callee);

  IRNodeRef lookup(const std::string &Name) {
    auto It = Env.find(Name);
    if (It == Env.end()) {
      fail("use of undefined name '" + Name + "'");
      return nullptr;
    }
    return It->second;
  }

  std::vector<Token> Tokens;
  size_t Pos = 0;
  std::string Error;
  std::map<std::string, IRNodeRef> Env;
  int WeightCount = 0;
  IRNodeRef Output;
  std::string ModelName;
};

bool Parser::parseDeclaration() {
  // input graph A; | input features H; | param weight W; |
  // param attn_src a; | param attn_dst a; | param hop_weight W0;
  std::string Intro = advance().Text; // "input" or "param"
  if (peek().Kind != TokenKind::Identifier)
    return fail("expected a declaration kind after '" + Intro + "'");
  std::string Kind = advance().Text;
  if (peek().Kind != TokenKind::Identifier)
    return fail("expected a name in declaration");
  std::string Name = advance().Text;
  if (!expect(TokenKind::Semicolon, "';'"))
    return false;

  if (Intro == "input" && Kind == "graph") {
    Env[Name] = ir::leaf(Name, LeafRole::Adjacency,
                         MatrixAttr::SparseUnweighted,
                         {SymDim::n(), SymDim::n()});
    return true;
  }
  if (Intro == "input" && Kind == "features") {
    Env[Name] = ir::leaf(Name, LeafRole::Features, MatrixAttr::DenseData,
                         {SymDim::n(), SymDim::kIn()});
    return true;
  }
  if (Intro == "param" && Kind == "weight") {
    // The first weight maps K_in -> K_out; later weights (multi-hop) share
    // that shape (the paper's TAGCN uses one weight per hop).
    Env[Name] = ir::weightLeafWithShape(Name, {SymDim::kIn(), SymDim::kOut()});
    ++WeightCount;
    return true;
  }
  if (Intro == "param" && Kind == "attn_src") {
    Env[Name] = ir::leaf(Name, LeafRole::AttnSrcVec, MatrixAttr::DenseWeight,
                         {SymDim::kOut(), SymDim::one()});
    return true;
  }
  if (Intro == "param" && Kind == "attn_dst") {
    Env[Name] = ir::leaf(Name, LeafRole::AttnDstVec, MatrixAttr::DenseWeight,
                         {SymDim::kOut(), SymDim::one()});
    return true;
  }
  return fail("unknown declaration '" + Intro + " " + Kind + "'");
}

IRNodeRef Parser::parseCall(const std::string &Callee) {
  // Parse the argument list (expressions or numbers).
  std::vector<IRNodeRef> Args;
  std::vector<double> NumberArgs;
  std::vector<bool> IsNumber;
  if (!expect(TokenKind::LParen, "'('"))
    return nullptr;
  if (peek().Kind != TokenKind::RParen) {
    while (true) {
      if (peek().Kind == TokenKind::Number) {
        NumberArgs.push_back(advance().NumberValue);
        Args.push_back(nullptr);
        IsNumber.push_back(true);
      } else {
        IRNodeRef Arg = parseExpr();
        if (!Arg)
          return nullptr;
        Args.push_back(std::move(Arg));
        IsNumber.push_back(false);
      }
      if (peek().Kind == TokenKind::Comma) {
        advance();
        continue;
      }
      break;
    }
  }
  if (!expect(TokenKind::RParen, "')'"))
    return nullptr;

  // Attention vectors bind as vectors, not as matrices: they may only be
  // attention's a_src and a_dst.
  for (size_t I = 0; I < Args.size(); ++I) {
    const auto *Leaf = IsNumber[I] ? nullptr : dynCast<LeafNode>(Args[I]);
    if (Leaf &&
        (Leaf->role() == LeafRole::AttnSrcVec ||
         Leaf->role() == LeafRole::AttnDstVec) &&
        !(Callee == "attention" && I >= 2)) {
      fail("attention vector '" + Leaf->name() +
           "' can only be attention's a_src or a_dst argument");
      return nullptr;
    }
  }

  auto MatrixArgCount = [&]() {
    size_t Count = 0;
    for (bool Num : IsNumber)
      if (!Num)
        ++Count;
    return Count;
  };

  if (Callee == "inv_sqrt_degree") {
    if (Args.size() != 1 || IsNumber[0]) {
      fail("inv_sqrt_degree takes one graph argument");
      return nullptr;
    }
    // The normalization diagonal is a derived input: a DegreeNorm leaf.
    return ir::degreeNormLeaf();
  }
  if (Callee == "inv_degree") {
    if (Args.size() != 1 || IsNumber[0]) {
      fail("inv_degree takes one graph argument");
      return nullptr;
    }
    return ir::degreeInvLeaf();
  }
  if (Callee == "row_scale" || Callee == "col_scale") {
    if (Args.size() != 2 || IsNumber[0] || IsNumber[1]) {
      fail(Callee + " takes (diag, matrix) arguments");
      return nullptr;
    }
    if (Args[0]->attr() != MatrixAttr::Diagonal) {
      fail(Callee + " scales by a diagonal (inv_sqrt_degree or inv_degree), "
                    "but its first argument is " +
           attrName(Args[0]->attr()) + " " + Args[0]->shape().toString());
      return nullptr;
    }
    if (Callee == "row_scale")
      return ir::rowBroadcast(Args[0], Args[1]);
    return ir::colBroadcast(Args[1], Args[0]);
  }
  if (Callee == "aggregate") {
    // aggregate(graph_or_alpha, features): message passing update_all,
    // lowered to multiplication per the paper's mapping table.
    if (Args.size() != 2 || IsNumber[0] || IsNumber[1]) {
      fail("aggregate takes (graph, features) arguments");
      return nullptr;
    }
    return ir::matMul({Args[0], Args[1]});
  }
  if (Callee == "matmul") {
    if (MatrixArgCount() < 2) {
      fail("matmul takes at least two matrix arguments");
      return nullptr;
    }
    std::vector<IRNodeRef> Operands;
    for (size_t I = 0; I < Args.size(); ++I) {
      if (IsNumber[I]) {
        fail("matmul arguments must be matrices");
        return nullptr;
      }
      Operands.push_back(Args[I]);
    }
    return ir::matMul(std::move(Operands));
  }
  if (Callee == "add") {
    std::vector<IRNodeRef> Operands;
    for (size_t I = 0; I < Args.size(); ++I) {
      if (IsNumber[I]) {
        fail("add arguments must be matrices");
        return nullptr;
      }
      Operands.push_back(Args[I]);
    }
    if (Operands.size() < 2) {
      fail("add takes at least two arguments");
      return nullptr;
    }
    for (const IRNodeRef &Op : Operands)
      if (!(Op->shape() == Operands.front()->shape())) {
        fail("add operands must share a shape, but " +
             Operands.front()->shape().toString() + " meets " +
             Op->shape().toString());
        return nullptr;
      }
    return ir::add(std::move(Operands));
  }
  // The element-wise maps run on dense operands only.
  auto DenseOperand = [&](const IRNodeRef &Arg) {
    if (isDenseAttr(Arg->attr()))
      return true;
    fail(Callee + " takes a dense operand, but its argument is " +
         attrName(Arg->attr()) + " " + Arg->shape().toString());
    return false;
  };
  if (Callee == "scale") {
    if (Args.size() != 2 || !IsNumber[0] || IsNumber[1]) {
      fail("scale takes (number, matrix) arguments");
      return nullptr;
    }
    if (!DenseOperand(Args[1]))
      return nullptr;
    return ir::scale(NumberArgs[0], Args[1]);
  }
  if (Callee == "relu") {
    if (Args.size() != 1 || IsNumber[0]) {
      fail("relu takes one matrix argument");
      return nullptr;
    }
    if (!DenseOperand(Args[0]))
      return nullptr;
    return ir::relu(Args[0]);
  }
  if (Callee == "attention") {
    if (Args.size() != 4 || IsNumber[0] || IsNumber[1] || IsNumber[2] ||
        IsNumber[3]) {
      fail("attention takes (graph, theta, a_src, a_dst)");
      return nullptr;
    }
    const auto *Mask = dynCast<LeafNode>(Args[0]);
    if (!Mask || Mask->role() != LeafRole::Adjacency) {
      fail("attention's first argument must be the input graph");
      return nullptr;
    }
    return ir::atten(Args[0], Args[1], Args[2], Args[3]);
  }
  fail("unknown operation '" + Callee + "'");
  return nullptr;
}

IRNodeRef Parser::parseExpr() {
  if (peek().Kind != TokenKind::Identifier) {
    fail("expected an expression");
    return nullptr;
  }
  std::string Name = advance().Text;
  if (peek().Kind == TokenKind::LParen)
    return parseCall(Name);
  return lookup(Name);
}

bool Parser::parseStatement() {
  if (peek().Kind != TokenKind::Identifier)
    return fail("expected a statement");
  if (peek().Text == "input" || peek().Text == "param")
    return parseDeclaration();
  if (peek().Text == "output") {
    advance();
    IRNodeRef Value = parseExpr();
    if (!Value)
      return false;
    // The executor writes the output as a computed dense matrix.
    if (dynCast<LeafNode>(Value))
      return fail("output must be computed from the inputs, not name one");
    if (!isDenseAttr(Value->attr()))
      return fail("output must be dense, but it is " +
                  attrName(Value->attr()) + " " + Value->shape().toString());
    if (!expect(TokenKind::Semicolon, "';'"))
      return false;
    Output = std::move(Value);
    return true;
  }
  // name = expr ;
  std::string Name = advance().Text;
  if (!expect(TokenKind::Equals, "'='"))
    return false;
  IRNodeRef Value = parseExpr();
  if (!Value)
    return false;
  if (!expect(TokenKind::Semicolon, "';'"))
    return false;
  Env[Name] = std::move(Value);
  return true;
}

std::optional<ParsedModel> Parser::parse(std::string *ErrorMessage) {
  auto Bail = [&]() -> std::optional<ParsedModel> {
    if (ErrorMessage)
      *ErrorMessage = Error.empty() ? "parse error" : Error;
    return std::nullopt;
  };

  if (peek().Kind != TokenKind::Identifier || peek().Text != "model") {
    fail("expected 'model'");
    return Bail();
  }
  advance();
  if (peek().Kind != TokenKind::Identifier) {
    fail("expected a model name");
    return Bail();
  }
  ModelName = advance().Text;
  if (!expect(TokenKind::LBrace, "'{'"))
    return Bail();
  while (peek().Kind != TokenKind::RBrace) {
    if (peek().Kind == TokenKind::EndOfFile) {
      fail("unexpected end of input inside model body");
      return Bail();
    }
    if (!parseStatement())
      return Bail();
  }
  advance(); // consume '}'
  if (!Output) {
    fail("model has no 'output' statement");
    return Bail();
  }
  // Post-parse structured verification: a model that parses but violates
  // the IR invariants (Table I roles, dimension chaining, ...) is a user
  // error, so it surfaces as a parse failure with the rendered
  // diagnostics, not an abort.
  DiagEngine Diags;
  if (!verifyIRDiags(Output, Diags, "parse")) {
    fail("model failed IR verification:\n" + Diags.render());
    return Bail();
  }
  return ParsedModel{ModelName, Output};
}

} // namespace

std::optional<ParsedModel> granii::parseModelDsl(const std::string &Source,
                                                 std::string *ErrorMessage) {
  TraceSpan Span("parse", "optimizer");
  std::string LexError;
  std::vector<Token> Tokens = lexModelDsl(Source, &LexError);
  if (!LexError.empty()) {
    if (ErrorMessage)
      *ErrorMessage = LexError;
    return std::nullopt;
  }
  Parser P(std::move(Tokens));
  return P.parse(ErrorMessage);
}
