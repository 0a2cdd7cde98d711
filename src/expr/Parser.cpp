//===- expr/Parser.cpp - Query-language parser and elaborator -------------===//

#include "expr/Parser.h"

#include "expr/Lexer.h"

#include <algorithm>
#include <map>
#include <set>

using namespace anosy;

namespace {

/// True when every integer subterm of \p Root stays within int64 at every
/// point of \p S's box. Concrete evaluation (evalInt) uses plain int64
/// arithmetic while every abstract evaluator saturates, so a query whose
/// arithmetic can leave int64 would get certificates its runtime answer
/// contradicts. The walk computes interval bounds in 128-bit arithmetic,
/// which operands inside int64 cannot overflow, so it never saturates;
/// the condition of an `if` is walked but both arms count. It is a
/// post-order walk on its own stacks, so a deep operator chain costs no
/// native stack.
bool arithmeticFitsInt64(const Expr &Root, const Schema &S) {
  struct Range {
    __int128 Lo, Hi;
  };
  std::vector<std::pair<const Expr *, bool>> Work{{&Root, false}};
  std::vector<Range> Values; // Operand ranges, operand 0 deepest.
  while (!Work.empty()) {
    auto [E, OperandsDone] = Work.back();
    Work.pop_back();
    if (!OperandsDone) {
      Work.push_back({E, true});
      for (size_t I = E->numOperands(); I-- != 0;)
        Work.push_back({E->operand(I).get(), false});
      continue;
    }
    size_t Base = Values.size() - E->numOperands();
    auto Op = [&](size_t I) -> const Range & { return Values[Base + I]; };
    Range R{0, 0}; // Boolean-sorted nodes have no value range.
    switch (E->kind()) {
    case ExprKind::IntConst:
      R = {E->intValue(), E->intValue()};
      break;
    case ExprKind::FieldRef:
      R = {S.field(E->fieldIndex()).Lo, S.field(E->fieldIndex()).Hi};
      break;
    case ExprKind::Neg:
      R = {-Op(0).Hi, -Op(0).Lo};
      break;
    case ExprKind::Add:
      R = {Op(0).Lo + Op(1).Lo, Op(0).Hi + Op(1).Hi};
      break;
    case ExprKind::Sub:
      R = {Op(0).Lo - Op(1).Hi, Op(0).Hi - Op(1).Lo};
      break;
    case ExprKind::Mul: {
      __int128 P[] = {Op(0).Lo * Op(1).Lo, Op(0).Lo * Op(1).Hi,
                      Op(0).Hi * Op(1).Lo, Op(0).Hi * Op(1).Hi};
      R = {*std::min_element(P, P + 4), *std::max_element(P, P + 4)};
      break;
    }
    case ExprKind::Abs:
      if (Op(0).Lo >= 0)
        R = Op(0);
      else if (Op(0).Hi <= 0)
        R = {-Op(0).Hi, -Op(0).Lo};
      else
        R = {0, std::max(-Op(0).Lo, Op(0).Hi)};
      break;
    case ExprKind::Min:
      R = {std::min(Op(0).Lo, Op(1).Lo), std::min(Op(0).Hi, Op(1).Hi)};
      break;
    case ExprKind::Max:
      R = {std::max(Op(0).Lo, Op(1).Lo), std::max(Op(0).Hi, Op(1).Hi)};
      break;
    case ExprKind::IntIte:
      R = {std::min(Op(1).Lo, Op(2).Lo), std::max(Op(1).Hi, Op(2).Hi)};
      break;
    case ExprKind::BoolConst:
    case ExprKind::Cmp:
    case ExprKind::Not:
    case ExprKind::And:
    case ExprKind::Or:
    case ExprKind::Implies:
      break;
    }
    if (R.Lo < INT64_MIN || R.Hi > INT64_MAX)
      return false;
    Values.resize(Base);
    Values.push_back(R);
  }
  return true;
}

/// A helper `def`: parameter list, declared return sort, and the token range
/// of its body. Bodies are re-parsed at each call site with the parameters
/// bound to the (already elaborated) argument expressions — call-by-name
/// inlining, which is sound because queries are pure.
struct DefInfo {
  std::vector<std::pair<std::string, bool>> Params; ///< (name, isBool)
  bool ReturnsBool = false;
  size_t BodyBegin = 0; ///< Token index of the body expression.
  size_t BodyEnd = 0;   ///< Token index one past the body.
};

class Parser {
public:
  explicit Parser(std::vector<Token> Tokens) : Tokens(std::move(Tokens)) {}

  Result<Module> parseModule();
  Result<ExprRef> parseStandaloneQuery(const Schema &S);
  Result<Schema> parseStandaloneSchema();

private:
  // -- Token plumbing ------------------------------------------------------
  const Token &peek() const { return Tokens[Pos]; }
  const Token &advance() { return Tokens[Pos++]; }
  bool check(TokenKind Kind) const { return peek().Kind == Kind; }
  bool match(TokenKind Kind) {
    if (!check(Kind))
      return false;
    ++Pos;
    return true;
  }

  Error errorHere(const std::string &Message) const {
    const Token &T = peek();
    return Error(ErrorCode::ParseError,
                 Message + " at line " + std::to_string(T.Line) +
                     ", column " + std::to_string(T.Column));
  }

  /// Consumes a token of kind \p Kind or fails.
  Result<void> expect(TokenKind Kind, const char *Context) {
    if (match(Kind))
      return Result<void>();
    return errorHere(std::string("expected ") + tokenKindName(Kind) +
                     " while parsing " + Context + ", found " +
                     tokenKindName(peek().Kind));
  }

  bool checkKeyword(const char *KW) const {
    return check(TokenKind::Ident) && peek().Text == KW;
  }
  bool matchKeyword(const char *KW) {
    if (!checkKeyword(KW))
      return false;
    ++Pos;
    return true;
  }

  // -- Declarations --------------------------------------------------------
  Result<void> parseSchemaDecl();
  Result<void> parseDefDecl();
  Result<void> parseQueryDecl();
  Result<void> parseClassifierDecl();

  // -- Expressions ---------------------------------------------------------
  using Env = std::map<std::string, ExprRef>;
  Result<ExprRef> parseExpr(const Env &E);
  Result<ExprRef> parseOr(const Env &E);
  Result<ExprRef> parseAnd(const Env &E);
  Result<ExprRef> parseNot(const Env &E);
  Result<ExprRef> parseCmp(const Env &E);
  Result<ExprRef> parseAdd(const Env &E);
  Result<ExprRef> parseMul(const Env &E);
  Result<ExprRef> parseUnary(const Env &E);
  Result<ExprRef> parsePrimary(const Env &E);
  Result<ExprRef> parseCall(const std::string &Name, const Env &E);

  /// Sort checks with diagnostics (the parser's type checker).
  Result<ExprRef> requireInt(Result<ExprRef> R, const char *Context);
  Result<ExprRef> requireBool(Result<ExprRef> R, const char *Context);
  /// The int64 rule of the query fragment (arithmeticFitsInt64); \p Decl
  /// names the declaration \p R elaborates.
  Result<ExprRef> requireInt64(Result<ExprRef> R, const std::string &Decl);

  std::vector<Token> Tokens;
  size_t Pos = 0;

  Schema S;
  bool HaveSchema = false;
  std::map<std::string, DefInfo> Defs;
  std::vector<QueryDef> Queries;
  std::vector<ClassifierDef> Classifiers;
  /// Call stack of `def` names currently being inlined; a repeat means
  /// recursion, which §5.1 rejects.
  std::vector<std::string> InlineStack;
};

Result<ExprRef> Parser::requireInt(Result<ExprRef> R, const char *Context) {
  if (!R)
    return R;
  if (!R.value()->isIntSorted())
    return Error(ErrorCode::UnsupportedQuery,
                 std::string("expected an integer expression in ") + Context);
  return R;
}

Result<ExprRef> Parser::requireBool(Result<ExprRef> R, const char *Context) {
  if (!R)
    return R;
  if (!R.value()->isBoolSorted())
    return Error(ErrorCode::UnsupportedQuery,
                 std::string("expected a boolean expression in ") + Context);
  return R;
}

Result<ExprRef> Parser::requireInt64(Result<ExprRef> R,
                                     const std::string &Decl) {
  if (!R || arithmeticFitsInt64(*R.value(), S))
    return R;
  return Error(ErrorCode::UnsupportedQuery,
               Decl + ": arithmetic can leave the int64 range over the "
                      "declared schema, which is outside the supported "
                      "query fragment");
}

Result<Module> Parser::parseModule() {
  if (auto R = parseSchemaDecl(); !R)
    return R.error();
  while (!check(TokenKind::Eof)) {
    if (checkKeyword("def")) {
      if (auto R = parseDefDecl(); !R)
        return R.error();
      continue;
    }
    if (checkKeyword("query")) {
      if (auto R = parseQueryDecl(); !R)
        return R.error();
      continue;
    }
    if (checkKeyword("classify")) {
      if (auto R = parseClassifierDecl(); !R)
        return R.error();
      continue;
    }
    return errorHere("expected 'def', 'query', or 'classify' declaration");
  }
  if (Queries.empty() && Classifiers.empty())
    return Error(ErrorCode::ParseError,
                 "module declares no queries or classifiers");
  return Module(std::move(S), std::move(Queries), std::move(Classifiers));
}

Result<ExprRef> Parser::parseStandaloneQuery(const Schema &Sch) {
  S = Sch;
  HaveSchema = true;
  auto R = requireBool(parseExpr(Env()), "query body");
  if (!R)
    return R;
  if (!check(TokenKind::Eof))
    return errorHere("trailing input after query expression");
  return requireInt64(std::move(R), "query expression");
}

Result<Schema> Parser::parseStandaloneSchema() {
  if (auto R = parseSchemaDecl(); !R)
    return R.error();
  if (!check(TokenKind::Eof))
    return errorHere("trailing input after schema declaration");
  return S;
}

Result<void> Parser::parseSchemaDecl() {
  if (!matchKeyword("secret"))
    return errorHere("expected 'secret' schema declaration");
  if (!check(TokenKind::Ident))
    return errorHere("expected schema name");
  std::string Name = advance().Text;

  if (auto R = expect(TokenKind::LBrace, "schema"); !R)
    return R;
  std::vector<Field> Fields;
  std::set<std::string> Seen;
  do {
    if (!check(TokenKind::Ident))
      return errorHere("expected field name");
    Field F;
    F.Name = advance().Text;
    if (!Seen.insert(F.Name).second)
      return Error(ErrorCode::ParseError,
                   "duplicate field '" + F.Name + "' in schema");
    if (auto R = expect(TokenKind::Colon, "field"); !R)
      return R;
    if (!matchKeyword("int"))
      return errorHere("expected 'int' field type");
    if (auto R = expect(TokenKind::LBracket, "field bounds"); !R)
      return R;
    bool NegLo = match(TokenKind::Minus);
    if (!check(TokenKind::Integer))
      return errorHere("expected lower bound");
    F.Lo = advance().IntValue * (NegLo ? -1 : 1);
    if (auto R = expect(TokenKind::Comma, "field bounds"); !R)
      return R;
    bool NegHi = match(TokenKind::Minus);
    if (!check(TokenKind::Integer))
      return errorHere("expected upper bound");
    F.Hi = advance().IntValue * (NegHi ? -1 : 1);
    if (auto R = expect(TokenKind::RBracket, "field bounds"); !R)
      return R;
    if (F.Lo > F.Hi)
      return Error(ErrorCode::ParseError,
                   "field '" + F.Name + "' has empty bounds");
    Fields.push_back(std::move(F));
  } while (match(TokenKind::Comma));
  if (auto R = expect(TokenKind::RBrace, "schema"); !R)
    return R;

  S = Schema(std::move(Name), std::move(Fields));
  HaveSchema = true;
  return Result<void>();
}

Result<void> Parser::parseDefDecl() {
  [[maybe_unused]] bool IsDef = matchKeyword("def");
  assert(IsDef && "caller checked the keyword");
  if (!check(TokenKind::Ident))
    return errorHere("expected def name");
  std::string Name = advance().Text;
  if (Defs.count(Name) || S.fieldIndex(Name) >= 0)
    return Error(ErrorCode::ParseError,
                 "redefinition of '" + Name + "'");

  DefInfo Info;
  if (auto R = expect(TokenKind::LParen, "def parameters"); !R)
    return R;
  if (!check(TokenKind::RParen)) {
    do {
      if (!check(TokenKind::Ident))
        return errorHere("expected parameter name");
      std::string PName = advance().Text;
      if (auto R = expect(TokenKind::Colon, "parameter"); !R)
        return R;
      bool IsBool;
      if (matchKeyword("int"))
        IsBool = false;
      else if (matchKeyword("bool"))
        IsBool = true;
      else
        return errorHere("expected parameter type 'int' or 'bool'");
      Info.Params.emplace_back(std::move(PName), IsBool);
    } while (match(TokenKind::Comma));
  }
  if (auto R = expect(TokenKind::RParen, "def parameters"); !R)
    return R;
  if (auto R = expect(TokenKind::Colon, "def return type"); !R)
    return R;
  if (matchKeyword("int"))
    Info.ReturnsBool = false;
  else if (matchKeyword("bool"))
    Info.ReturnsBool = true;
  else
    return errorHere("expected return type 'int' or 'bool'");
  if (auto R = expect(TokenKind::Assign, "def"); !R)
    return R;

  // Record the body's token range without elaborating it yet: bodies are
  // re-parsed per call site with parameters bound to arguments. Skip to the
  // next top-level 'def'/'query' keyword (expressions cannot contain them).
  Info.BodyBegin = Pos;
  while (!check(TokenKind::Eof) && !checkKeyword("def") &&
         !checkKeyword("query"))
    ++Pos;
  Info.BodyEnd = Pos;
  if (Info.BodyBegin == Info.BodyEnd)
    return errorHere("empty def body");

  Defs.emplace(std::move(Name), std::move(Info));
  return Result<void>();
}

Result<void> Parser::parseQueryDecl() {
  [[maybe_unused]] bool IsQuery = matchKeyword("query");
  assert(IsQuery && "caller checked the keyword");
  if (!check(TokenKind::Ident))
    return errorHere("expected query name");
  std::string Name = advance().Text;
  for (const QueryDef &Q : Queries)
    if (Q.Name == Name)
      return Error(ErrorCode::ParseError,
                   "redefinition of query '" + Name + "'");
  if (auto R = expect(TokenKind::Assign, "query"); !R)
    return R;
  auto Body = requireInt64(requireBool(parseExpr(Env()), "query body"),
                           "query '" + Name + "'");
  if (!Body)
    return Body.error();
  Queries.push_back({std::move(Name), Body.takeValue()});
  return Result<void>();
}

Result<void> Parser::parseClassifierDecl() {
  [[maybe_unused]] bool IsClassify = matchKeyword("classify");
  assert(IsClassify && "caller checked the keyword");
  if (!check(TokenKind::Ident))
    return errorHere("expected classifier name");
  std::string Name = advance().Text;
  for (const ClassifierDef &C : Classifiers)
    if (C.Name == Name)
      return Error(ErrorCode::ParseError,
                   "redefinition of classifier '" + Name + "'");
  if (auto R = expect(TokenKind::Assign, "classifier"); !R)
    return R;
  auto Body = requireInt64(requireInt(parseExpr(Env()), "classifier body"),
                           "classifier '" + Name + "'");
  if (!Body)
    return Body.error();
  Classifiers.push_back({std::move(Name), Body.takeValue()});
  return Result<void>();
}

Result<ExprRef> Parser::parseExpr(const Env &E) {
  auto LHS = parseOr(E);
  if (!LHS)
    return LHS;
  if (match(TokenKind::Arrow)) {
    auto L = requireBool(std::move(LHS), "'==>' left operand");
    if (!L)
      return L;
    auto R = requireBool(parseExpr(E), "'==>' right operand");
    if (!R)
      return R;
    return implies(L.takeValue(), R.takeValue());
  }
  return LHS;
}

Result<ExprRef> Parser::parseOr(const Env &E) {
  auto LHS = parseAnd(E);
  while (LHS && check(TokenKind::OrOr)) {
    advance();
    auto L = requireBool(std::move(LHS), "'||' left operand");
    if (!L)
      return L;
    auto R = requireBool(parseAnd(E), "'||' right operand");
    if (!R)
      return R;
    LHS = orOf(L.takeValue(), R.takeValue());
  }
  return LHS;
}

Result<ExprRef> Parser::parseAnd(const Env &E) {
  auto LHS = parseNot(E);
  while (LHS && check(TokenKind::AndAnd)) {
    advance();
    auto L = requireBool(std::move(LHS), "'&&' left operand");
    if (!L)
      return L;
    auto R = requireBool(parseNot(E), "'&&' right operand");
    if (!R)
      return R;
    LHS = andOf(L.takeValue(), R.takeValue());
  }
  return LHS;
}

Result<ExprRef> Parser::parseNot(const Env &E) {
  if (match(TokenKind::Bang)) {
    auto R = requireBool(parseNot(E), "'!' operand");
    if (!R)
      return R;
    return notOf(R.takeValue());
  }
  return parseCmp(E);
}

Result<ExprRef> Parser::parseCmp(const Env &E) {
  auto LHS = parseAdd(E);
  if (!LHS)
    return LHS;
  CmpOp Op;
  switch (peek().Kind) {
  case TokenKind::EqEq:
    Op = CmpOp::EQ;
    break;
  case TokenKind::NotEq:
    Op = CmpOp::NE;
    break;
  case TokenKind::Less:
    Op = CmpOp::LT;
    break;
  case TokenKind::LessEq:
    Op = CmpOp::LE;
    break;
  case TokenKind::Greater:
    Op = CmpOp::GT;
    break;
  case TokenKind::GreaterEq:
    Op = CmpOp::GE;
    break;
  default:
    return LHS;
  }
  advance();
  auto L = requireInt(std::move(LHS), "comparison left operand");
  if (!L)
    return L;
  auto R = requireInt(parseAdd(E), "comparison right operand");
  if (!R)
    return R;
  return cmp(Op, L.takeValue(), R.takeValue());
}

Result<ExprRef> Parser::parseAdd(const Env &E) {
  auto LHS = parseMul(E);
  while (LHS &&
         (check(TokenKind::Plus) || check(TokenKind::Minus))) {
    bool IsAdd = advance().Kind == TokenKind::Plus;
    auto L = requireInt(std::move(LHS), "additive left operand");
    if (!L)
      return L;
    auto R = requireInt(parseMul(E), "additive right operand");
    if (!R)
      return R;
    LHS = IsAdd ? add(L.takeValue(), R.takeValue())
                : sub(L.takeValue(), R.takeValue());
  }
  return LHS;
}

Result<ExprRef> Parser::parseMul(const Env &E) {
  auto LHS = parseUnary(E);
  while (LHS && check(TokenKind::Star)) {
    advance();
    auto L = requireInt(std::move(LHS), "'*' left operand");
    if (!L)
      return L;
    auto R = requireInt(parseUnary(E), "'*' right operand");
    if (!R)
      return R;
    LHS = mul(L.takeValue(), R.takeValue());
  }
  return LHS;
}

Result<ExprRef> Parser::parseUnary(const Env &E) {
  if (match(TokenKind::Minus)) {
    auto R = requireInt(parseUnary(E), "unary minus operand");
    if (!R)
      return R;
    return neg(R.takeValue());
  }
  return parsePrimary(E);
}

Result<ExprRef> Parser::parsePrimary(const Env &E) {
  if (check(TokenKind::Integer))
    return intConst(advance().IntValue);
  if (match(TokenKind::LParen)) {
    auto R = parseExpr(E);
    if (!R)
      return R;
    if (auto P = expect(TokenKind::RParen, "parenthesized expression"); !P)
      return P.error();
    return R;
  }
  if (matchKeyword("true"))
    return boolConst(true);
  if (matchKeyword("false"))
    return boolConst(false);
  if (matchKeyword("abs")) {
    if (auto P = expect(TokenKind::LParen, "abs"); !P)
      return P.error();
    auto A = requireInt(parseExpr(E), "abs argument");
    if (!A)
      return A;
    if (auto P = expect(TokenKind::RParen, "abs"); !P)
      return P.error();
    return absOf(A.takeValue());
  }
  if (checkKeyword("min") || checkKeyword("max")) {
    bool IsMin = advance().Text == "min";
    if (auto P = expect(TokenKind::LParen, "min/max"); !P)
      return P.error();
    auto A = requireInt(parseExpr(E), "min/max argument");
    if (!A)
      return A;
    if (auto P = expect(TokenKind::Comma, "min/max"); !P)
      return P.error();
    auto B = requireInt(parseExpr(E), "min/max argument");
    if (!B)
      return B;
    if (auto P = expect(TokenKind::RParen, "min/max"); !P)
      return P.error();
    return IsMin ? minOf(A.takeValue(), B.takeValue())
                 : maxOf(A.takeValue(), B.takeValue());
  }
  if (matchKeyword("if")) {
    auto C = requireBool(parseExpr(E), "if condition");
    if (!C)
      return C;
    if (!matchKeyword("then"))
      return errorHere("expected 'then'");
    auto T = parseExpr(E);
    if (!T)
      return T;
    if (!matchKeyword("else"))
      return errorHere("expected 'else'");
    auto F = parseExpr(E);
    if (!F)
      return F;
    // Boolean-sorted ite desugars to (c && t) || (!c && f).
    if (T.value()->isBoolSorted() && F.value()->isBoolSorted()) {
      ExprRef Cond = C.takeValue();
      return orOf(andOf(Cond, T.takeValue()),
                  andOf(notOf(Cond), F.takeValue()));
    }
    if (T.value()->isIntSorted() && F.value()->isIntSorted())
      return intIte(C.takeValue(), T.takeValue(), F.takeValue());
    return Error(ErrorCode::UnsupportedQuery,
                 "'if' arms must have the same sort");
  }
  if (check(TokenKind::Ident)) {
    std::string Name = advance().Text;
    // Parameter bound by the enclosing def's call site?
    if (auto It = E.find(Name); It != E.end())
      return It->second;
    // Secret field?
    if (int Idx = S.fieldIndex(Name); Idx >= 0)
      return fieldRef(static_cast<unsigned>(Idx));
    // Helper call?
    if (check(TokenKind::LParen) || Defs.count(Name))
      return parseCall(Name, E);
    return Error(ErrorCode::ParseError,
                 "unknown identifier '" + Name + "'" +
                     (HaveSchema ? "" : " (no schema in scope)"));
  }
  return errorHere("expected an expression");
}

Result<ExprRef> Parser::parseCall(const std::string &Name, const Env &E) {
  auto DefIt = Defs.find(Name);
  if (DefIt == Defs.end())
    return Error(ErrorCode::UnsupportedQuery,
                 "call to unknown function '" + Name +
                     "' (queries may only call earlier defs, §5.1)");
  const DefInfo &Info = DefIt->second;

  // §5.1: recursive definitions are rejected.
  for (const std::string &Active : InlineStack)
    if (Active == Name)
      return Error(ErrorCode::UnsupportedQuery,
                   "recursive definition of '" + Name +
                       "' is outside the supported query fragment");

  // Parse the (already elaborated) arguments.
  std::vector<ExprRef> Args;
  if (auto P = expect(TokenKind::LParen, "call"); !P)
    return P.error();
  if (!check(TokenKind::RParen)) {
    do {
      auto A = parseExpr(E);
      if (!A)
        return A;
      Args.push_back(A.takeValue());
    } while (match(TokenKind::Comma));
  }
  if (auto P = expect(TokenKind::RParen, "call"); !P)
    return P.error();
  if (Args.size() != Info.Params.size())
    return Error(ErrorCode::UnsupportedQuery,
                 "call to '" + Name + "' with " +
                     std::to_string(Args.size()) + " arguments, expected " +
                     std::to_string(Info.Params.size()));

  // Bind parameters and re-parse the def body at its token range.
  Env Bound;
  for (size_t I = 0, N = Args.size(); I != N; ++I) {
    bool WantBool = Info.Params[I].second;
    if (Args[I]->isBoolSorted() != WantBool)
      return Error(ErrorCode::UnsupportedQuery,
                   "argument " + std::to_string(I + 1) + " of '" + Name +
                       "' has the wrong sort");
    Bound.emplace(Info.Params[I].first, Args[I]);
  }

  size_t SavedPos = Pos;
  Pos = Info.BodyBegin;
  InlineStack.push_back(Name);
  auto Body = parseExpr(Bound);
  InlineStack.pop_back();
  bool ConsumedAll = Pos == Info.BodyEnd;
  Pos = SavedPos;

  if (!Body)
    return Body;
  if (!ConsumedAll)
    return Error(ErrorCode::ParseError,
                 "trailing input in body of def '" + Name + "'");
  if (Body.value()->isBoolSorted() != Info.ReturnsBool)
    return Error(ErrorCode::UnsupportedQuery,
                 "body of def '" + Name +
                     "' does not match its declared return type");
  return requireInt64(std::move(Body), "def '" + Name + "'");
}

} // namespace

Result<Module> anosy::parseModule(const std::string &Source) {
  auto Tokens = tokenize(Source);
  if (!Tokens)
    return Tokens.error();
  Parser P(Tokens.takeValue());
  return P.parseModule();
}

Result<ExprRef> anosy::parseQueryExpr(const Schema &S,
                                      const std::string &Source) {
  auto Tokens = tokenize(Source);
  if (!Tokens)
    return Tokens.error();
  Parser P(Tokens.takeValue());
  return P.parseStandaloneQuery(S);
}

Result<Schema> anosy::parseSchema(const std::string &Source) {
  auto Tokens = tokenize(Source);
  if (!Tokens)
    return Tokens.error();
  Parser P(Tokens.takeValue());
  return P.parseStandaloneSchema();
}
