//===- tests/expr/ExprTest.cpp - AST construction unit tests --------------===//

#include "expr/Expr.h"

#include <gtest/gtest.h>

using namespace anosy;

TEST(Expr, ConstantsCarryValues) {
  EXPECT_EQ(intConst(7)->intValue(), 7);
  EXPECT_TRUE(boolConst(true)->boolValue());
  EXPECT_FALSE(boolConst(false)->boolValue());
  EXPECT_EQ(fieldRef(1)->fieldIndex(), 1u);
}

TEST(Expr, Sorts) {
  EXPECT_TRUE(intConst(1)->isIntSorted());
  EXPECT_TRUE(fieldRef(0)->isIntSorted());
  EXPECT_TRUE(boolConst(true)->isBoolSorted());
  EXPECT_TRUE(le(fieldRef(0), intConst(3))->isBoolSorted());
  EXPECT_TRUE(add(fieldRef(0), intConst(3))->isIntSorted());
}

TEST(Expr, ConstantFolding) {
  EXPECT_EQ(add(intConst(2), intConst(3))->intValue(), 5);
  EXPECT_EQ(sub(intConst(2), intConst(3))->intValue(), -1);
  EXPECT_EQ(mul(intConst(4), intConst(3))->intValue(), 12);
  EXPECT_EQ(absOf(intConst(-9))->intValue(), 9);
  EXPECT_EQ(minOf(intConst(2), intConst(5))->intValue(), 2);
  EXPECT_EQ(maxOf(intConst(2), intConst(5))->intValue(), 5);
  EXPECT_EQ(neg(intConst(4))->intValue(), -4);
}

TEST(Expr, ConstantFoldingStopsAtInt64Limits) {
  // An overflowing fold is left as a node (the parser's int64 rule then
  // rejects it); folding it would be signed overflow.
  EXPECT_EQ(add(intConst(INT64_MAX), intConst(1))->kind(), ExprKind::Add);
  EXPECT_EQ(sub(intConst(INT64_MIN), intConst(1))->kind(), ExprKind::Sub);
  EXPECT_EQ(mul(intConst(INT64_MAX), intConst(2))->kind(), ExprKind::Mul);
  EXPECT_EQ(neg(intConst(INT64_MIN))->kind(), ExprKind::Neg);
  EXPECT_EQ(absOf(intConst(INT64_MIN))->kind(), ExprKind::Abs);
  EXPECT_EQ(add(intConst(INT64_MAX - 1), intConst(1))->intValue(), INT64_MAX);
  EXPECT_EQ(neg(intConst(INT64_MAX))->intValue(), -INT64_MAX);
}

TEST(Expr, IdentitySimplifications) {
  ExprRef X = fieldRef(0);
  EXPECT_EQ(add(X, intConst(0)).get(), X.get());
  EXPECT_EQ(add(intConst(0), X).get(), X.get());
  EXPECT_EQ(sub(X, intConst(0)).get(), X.get());
  EXPECT_EQ(mul(X, intConst(1)).get(), X.get());
  EXPECT_EQ(mul(intConst(1), X).get(), X.get());
  EXPECT_EQ(mul(X, intConst(0))->intValue(), 0);
  EXPECT_EQ(neg(neg(X)).get(), X.get());
  ExprRef AbsX = absOf(X);
  EXPECT_EQ(absOf(AbsX).get(), AbsX.get());
}

TEST(Expr, BooleanShortCircuitFolding) {
  ExprRef P = le(fieldRef(0), intConst(3));
  EXPECT_EQ(andOf(boolConst(true), P).get(), P.get());
  EXPECT_FALSE(andOf(boolConst(false), P)->boolValue());
  EXPECT_TRUE(orOf(boolConst(true), P)->boolValue());
  EXPECT_EQ(orOf(boolConst(false), P).get(), P.get());
  EXPECT_EQ(notOf(notOf(P)).get(), P.get());
}

TEST(Expr, ComparisonFolding) {
  EXPECT_TRUE(le(intConst(1), intConst(2))->boolValue());
  EXPECT_FALSE(gt(intConst(1), intConst(2))->boolValue());
  EXPECT_TRUE(eq(intConst(3), intConst(3))->boolValue());
  EXPECT_TRUE(ne(intConst(3), intConst(4))->boolValue());
  EXPECT_FALSE(lt(intConst(3), intConst(3))->boolValue());
  EXPECT_TRUE(ge(intConst(3), intConst(3))->boolValue());
}

TEST(Expr, IteFoldsOnConstantCondition) {
  ExprRef A = fieldRef(0), B = fieldRef(1);
  EXPECT_EQ(intIte(boolConst(true), A, B).get(), A.get());
  EXPECT_EQ(intIte(boolConst(false), A, B).get(), B.get());
}

TEST(Expr, AndAllOrAll) {
  EXPECT_TRUE(andAll({})->boolValue());
  EXPECT_FALSE(orAll({})->boolValue());
  ExprRef P = le(fieldRef(0), intConst(3));
  ExprRef Q = ge(fieldRef(0), intConst(1));
  ExprRef Conj = andAll({P, Q});
  EXPECT_EQ(Conj->kind(), ExprKind::And);
}

TEST(Expr, TreeSize) {
  // abs(x - 200) + abs(y - 200) <= 100
  ExprRef E = le(add(absOf(sub(fieldRef(0), intConst(200))),
                     absOf(sub(fieldRef(1), intConst(200)))),
                 intConst(100));
  EXPECT_EQ(E->treeSize(), 11u);
}

TEST(Expr, PrinterRoundTripSpelling) {
  Schema S("UserLoc", {{"x", 0, 400}, {"y", 0, 400}});
  ExprRef E = le(add(absOf(sub(fieldRef(0), intConst(200))),
                     absOf(sub(fieldRef(1), intConst(200)))),
                 intConst(100));
  EXPECT_EQ(E->str(S), "(abs(x - 200) + abs(y - 200)) <= 100");
  EXPECT_EQ(E->str(), "(abs($0 - 200) + abs($1 - 200)) <= 100");
}

TEST(Expr, StructuralEqualityAndHash) {
  ExprRef A = le(add(fieldRef(0), intConst(1)), intConst(5));
  ExprRef B = le(add(fieldRef(0), intConst(1)), intConst(5));
  ExprRef C = lt(add(fieldRef(0), intConst(1)), intConst(5));
  EXPECT_TRUE(Expr::structurallyEqual(*A, *B));
  EXPECT_FALSE(Expr::structurallyEqual(*A, *C));
  EXPECT_EQ(Expr::structuralHash(*A), Expr::structuralHash(*B));
}

TEST(Expr, CmpOpHelpers) {
  EXPECT_STREQ(cmpOpSpelling(CmpOp::LE), "<=");
  EXPECT_EQ(cmpOpNegation(CmpOp::LE), CmpOp::GT);
  EXPECT_EQ(cmpOpNegation(CmpOp::EQ), CmpOp::NE);
  EXPECT_EQ(cmpOpNegation(cmpOpNegation(CmpOp::LT)), CmpOp::LT);
}
