//===- tests/expr/ParserTest.cpp - Parser/elaborator unit tests ------------===//

#include "expr/Parser.h"

#include "expr/Eval.h"

#include <gtest/gtest.h>

using namespace anosy;

namespace {

Schema userLoc() {
  return Schema("UserLoc", {{"x", 0, 400}, {"y", 0, 400}});
}

ExprRef parseOk(const Schema &S, const std::string &Src) {
  auto R = parseQueryExpr(S, Src);
  EXPECT_TRUE(R.ok()) << (R.ok() ? "" : R.error().str());
  return R.ok() ? R.value() : nullptr;
}

} // namespace

TEST(Parser, SimpleComparison) {
  ExprRef E = parseOk(userLoc(), "x <= 100");
  ASSERT_TRUE(E);
  EXPECT_TRUE(evalBool(*E, {100, 0}));
  EXPECT_FALSE(evalBool(*E, {101, 0}));
}

TEST(Parser, PrecedenceArithmeticOverComparison) {
  ExprRef E = parseOk(userLoc(), "x + 2 * y <= 10");
  ASSERT_TRUE(E);
  EXPECT_TRUE(evalBool(*E, {4, 3}));   // 4 + 6 <= 10
  EXPECT_FALSE(evalBool(*E, {5, 3}));  // 11
}

TEST(Parser, PrecedenceAndBindsTighterThanOr) {
  // a || b && c must parse as a || (b && c).
  ExprRef E = parseOk(userLoc(), "x == 1 || x == 2 && y == 3");
  ASSERT_TRUE(E);
  EXPECT_TRUE(evalBool(*E, {1, 0}));
  EXPECT_TRUE(evalBool(*E, {2, 3}));
  EXPECT_FALSE(evalBool(*E, {2, 4}));
}

TEST(Parser, ImpliesIsRightAssociative) {
  // a ==> b ==> c parses as a ==> (b ==> c).
  ExprRef E = parseOk(userLoc(), "x == 1 ==> y == 1 ==> x == y");
  ASSERT_TRUE(E);
  EXPECT_TRUE(evalBool(*E, {0, 7}));  // antecedent false
  EXPECT_TRUE(evalBool(*E, {1, 1}));
  EXPECT_TRUE(evalBool(*E, {1, 2})); // inner antecedent false
}

TEST(Parser, UnaryMinusAndParens) {
  ExprRef E = parseOk(userLoc(), "-(x - y) == y - x");
  ASSERT_TRUE(E);
  EXPECT_TRUE(evalBool(*E, {7, 3}));
}

TEST(Parser, Builtins) {
  ExprRef E = parseOk(userLoc(), "min(x, y) >= 2 && max(x, y) <= 8 && abs(x - y) <= 3");
  ASSERT_TRUE(E);
  EXPECT_TRUE(evalBool(*E, {4, 6}));
  EXPECT_FALSE(evalBool(*E, {1, 6}));
}

TEST(Parser, IfThenElseInteger) {
  ExprRef E = parseOk(userLoc(), "(if x < 200 then 200 - x else x - 200) <= 10");
  ASSERT_TRUE(E);
  EXPECT_TRUE(evalBool(*E, {195, 0}));
  EXPECT_TRUE(evalBool(*E, {210, 0}));
  EXPECT_FALSE(evalBool(*E, {150, 0}));
}

TEST(Parser, IfThenElseBooleanDesugars) {
  ExprRef E = parseOk(userLoc(), "if x < 10 then y < 5 else y > 5");
  ASSERT_TRUE(E);
  EXPECT_TRUE(evalBool(*E, {1, 2}));
  EXPECT_FALSE(evalBool(*E, {1, 7}));
  EXPECT_TRUE(evalBool(*E, {20, 7}));
}

TEST(Parser, RejectsSortErrors) {
  auto R = parseQueryExpr(userLoc(), "x + (y <= 2) <= 3");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.error().code(), ErrorCode::UnsupportedQuery);
  EXPECT_FALSE(parseQueryExpr(userLoc(), "x").ok()); // int, not bool
  EXPECT_FALSE(parseQueryExpr(userLoc(), "!(x + 1)").ok());
}

TEST(Parser, RejectsUnknownIdentifier) {
  auto R = parseQueryExpr(userLoc(), "z <= 3");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.error().message().find("unknown identifier 'z'"),
            std::string::npos);
}

TEST(Parser, RejectsTrailingInput) {
  EXPECT_FALSE(parseQueryExpr(userLoc(), "x <= 3 x").ok());
}

TEST(ParserModule, FullModuleWithDefs) {
  auto M = parseModule(R"(
    secret UserLoc { x: int[0, 400], y: int[0, 400] }
    def manhattan(ox: int, oy: int): int = abs(x - ox) + abs(y - oy)
    def nearby(ox: int, oy: int): bool = manhattan(ox, oy) <= 100
    query nearby200 = nearby(200, 200)
    query nearby400 = nearby(400, 200)
  )");
  ASSERT_TRUE(M.ok()) << M.error().str();
  EXPECT_EQ(M->schema().name(), "UserLoc");
  EXPECT_EQ(M->queries().size(), 2u);
  const QueryDef *Q = M->findQuery("nearby200");
  ASSERT_NE(Q, nullptr);
  EXPECT_TRUE(evalBool(*Q->Body, {250, 250}));
  EXPECT_FALSE(evalBool(*Q->Body, {0, 0}));
  EXPECT_EQ(M->findQuery("nope"), nullptr);
}

TEST(ParserModule, NestedDefCallsInlineTransitively) {
  auto M = parseModule(R"(
    secret S { a: int[0, 100] }
    def twice(v: int): int = 2 * v
    def quad(v: int): int = twice(twice(v))
    query big = quad(a) >= 40
  )");
  ASSERT_TRUE(M.ok()) << M.error().str();
  EXPECT_TRUE(evalBool(*M->queries()[0].Body, {10}));
  EXPECT_FALSE(evalBool(*M->queries()[0].Body, {9}));
}

TEST(ParserModule, RejectsRecursionPerPaper) {
  // §5.1: "recursive definitions of queries are rejected by ANOSY".
  auto M = parseModule(R"(
    secret S { a: int[0, 100] }
    def loop(v: int): int = loop(v)
    query q = loop(a) == 0
  )");
  ASSERT_FALSE(M.ok());
  EXPECT_EQ(M.error().code(), ErrorCode::UnsupportedQuery);
  EXPECT_NE(M.error().message().find("recursive"), std::string::npos);
}

TEST(ParserModule, RejectsMutualRecursion) {
  // Calls may only reference *earlier* defs, which already rules out
  // mutual recursion at the use site.
  auto M = parseModule(R"(
    secret S { a: int[0, 100] }
    def even(v: int): bool = odd(v - 1)
    def odd(v: int): bool = even(v - 1)
    query q = even(a)
  )");
  ASSERT_FALSE(M.ok());
}

TEST(ParserModule, RejectsCallArityMismatch) {
  auto M = parseModule(R"(
    secret S { a: int[0, 100] }
    def f(v: int): int = v + 1
    query q = f(a, a) == 0
  )");
  ASSERT_FALSE(M.ok());
  EXPECT_NE(M.error().message().find("arguments"), std::string::npos);
}

TEST(ParserModule, RejectsCallSortMismatch) {
  auto M = parseModule(R"(
    secret S { a: int[0, 100] }
    def f(v: bool): bool = v
    query q = f(a)
  )");
  ASSERT_FALSE(M.ok());
}

TEST(ParserModule, RejectsDuplicateNames) {
  EXPECT_FALSE(parseModule(R"(
    secret S { a: int[0, 10], a: int[0, 10] }
    query q = a <= 3
  )").ok());
  EXPECT_FALSE(parseModule(R"(
    secret S { a: int[0, 10] }
    query q = a <= 3
    query q = a <= 4
  )").ok());
}

TEST(ParserModule, RejectsEmptyFieldBounds) {
  auto M = parseModule(R"(
    secret S { a: int[5, 2] }
    query q = a <= 3
  )");
  ASSERT_FALSE(M.ok());
  EXPECT_NE(M.error().message().find("empty bounds"), std::string::npos);
}

TEST(ParserModule, NegativeBoundsParse) {
  auto M = parseModule(R"(
    secret S { lon: int[-100, -50] }
    query west = lon <= -75
  )");
  ASSERT_TRUE(M.ok()) << M.error().str();
  EXPECT_EQ(M->schema().field(0).Lo, -100);
  EXPECT_EQ(M->schema().field(0).Hi, -50);
}

TEST(ParserModule, RequiresAtLeastOneQuery) {
  EXPECT_FALSE(parseModule("secret S { a: int[0, 1] }").ok());
}

TEST(ParserModule, BoolParametersWork) {
  auto M = parseModule(R"(
    secret S { a: int[0, 100] }
    def guard(c: bool, v: int): bool = c && v >= 10
    query q = guard(a <= 50, a)
  )");
  ASSERT_TRUE(M.ok()) << M.error().str();
  EXPECT_TRUE(evalBool(*M->queries()[0].Body, {30}));
  EXPECT_FALSE(evalBool(*M->queries()[0].Body, {60}));
  EXPECT_FALSE(evalBool(*M->queries()[0].Body, {5}));
}

// === The int64 rule =====================================================

TEST(ParserModule, RejectsArithmeticLeavingInt64) {
  // x * 2^62 leaves int64 at x = ±2 and ±3. Every abstract evaluator
  // saturates there while evalInt would overflow, so the certificates and
  // the runtime answer would disagree: the module is outside the fragment.
  const char *Src = R"(secret S { x: int[-3, 3] }
query q = x * 4611686018427387904 >= 0
)";
  auto M = parseModule(Src);
  ASSERT_FALSE(M.ok());
  EXPECT_EQ(M.error().code(), ErrorCode::UnsupportedQuery);
  EXPECT_NE(M.error().message().find("query 'q'"), std::string::npos)
      << M.error().message();
  EXPECT_NE(M.error().message().find("int64"), std::string::npos);

  // A classifier and an inlined def are named the same way.
  auto C = parseModule("secret S { x: int[-3, 3] }\n"
                       "classify c = x * 4611686018427387904\n");
  ASSERT_FALSE(C.ok());
  EXPECT_EQ(C.error().code(), ErrorCode::UnsupportedQuery);
  EXPECT_NE(C.error().message().find("classifier 'c'"), std::string::npos);
  auto D = parseModule("secret S { x: int[-3, 3] }\n"
                       "def big(v: int): int = v * 4611686018427387904\n"
                       "query q = big(x) >= 0\n");
  ASSERT_FALSE(D.ok());
  EXPECT_EQ(D.error().code(), ErrorCode::UnsupportedQuery);
  EXPECT_NE(D.error().message().find("def 'big'"), std::string::npos);

  // The bound is exact: 3 * 3074457345618258602 is INT64_MAX - 1.
  auto Fits = parseModule("secret S { x: int[-3, 3] }\n"
                          "query q = x * 3074457345618258602 >= 0\n");
  ASSERT_TRUE(Fits.ok()) << Fits.error().str();
  EXPECT_FALSE(evalBool(*Fits->queries()[0].Body, {-3}));
  EXPECT_TRUE(evalBool(*Fits->queries()[0].Body, {3}));
}

TEST(Parser, RejectsConstantArithmeticLeavingInt64) {
  // The folding builders leave INT64_MAX + 1 unfolded, and the range
  // rule rejects it; neither step overflows.
  auto R = parseQueryExpr(userLoc(), "9223372036854775807 + 1 <= x");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.error().code(), ErrorCode::UnsupportedQuery);
  EXPECT_FALSE(parseQueryExpr(userLoc(), "-(0 - 9223372036854775807 - 1) <= x")
                   .ok());
  EXPECT_FALSE(parseQueryExpr(userLoc(), "x + 9223372036854775807 <= -2").ok());
  auto Edge = parseQueryExpr(userLoc(), "0 - 9223372036854775807 - 1 <= x");
  ASSERT_TRUE(Edge.ok()) << Edge.error().str();
  EXPECT_TRUE(evalBool(*Edge.value(), {0, 0}));
}
