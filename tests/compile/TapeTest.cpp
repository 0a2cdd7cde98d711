//===- tests/compile/TapeTest.cpp - Tape compiler & interpreter units -----===//

#include "compile/CompiledEval.h"
#include "compile/Tape.h"
#include "domains/Box.h"
#include "solver/Predicate.h"
#include "solver/RangeEval.h"

#include "gtest/gtest.h"

#include <algorithm>

using namespace anosy;

namespace {

Box box2(int64_t ALo, int64_t AHi, int64_t BLo, int64_t BHi) {
  return Box({{ALo, AHi}, {BLo, BHi}});
}

TEST(TapeTest, CompilesComparisonToExpectedShape) {
  // $0 + 3 <= $1  →  ldf, ldc, add, ldf, cmp.
  ExprRef E = le(add(fieldRef(0), intConst(3)), fieldRef(1));
  TapeRef T = Tape::compile(*E);
  ASSERT_NE(T, nullptr);
  EXPECT_TRUE(T->resultIsBool());
  EXPECT_EQ(T->length(), 5u);
  EXPECT_EQ(T->numConsts(), 1u);
  EXPECT_GE(T->numIntRegs(), 2u);
  EXPECT_EQ(T->numBoolRegs(), 1u);
}

TEST(TapeTest, ScalarRunMatchesTreeWalkOnHandExamples) {
  TapeScratch S;
  ExprRef Q = andOf(le(absOf(sub(fieldRef(0), intConst(5))), intConst(10)),
                    ge(fieldRef(1), intConst(0)));
  TapeRef T = Tape::compile(*Q);
  ASSERT_NE(T, nullptr);
  for (const Box &B :
       {box2(-5, 20, -3, 8), box2(0, 0, 0, 0), box2(-100, -50, 1, 2),
        box2(-2, 14, 5, 5), box2(INT64_MIN, INT64_MAX, -1, 1)}) {
    EXPECT_EQ(T->run(B, S), evalTribool(*Q, B)) << B.str();
  }
}

TEST(TapeTest, IntTapeMatchesEvalRange) {
  TapeScratch S;
  ExprRef E = intIte(lt(fieldRef(0), intConst(0)), neg(fieldRef(0)),
                     mul(fieldRef(0), intConst(2)));
  TapeRef T = Tape::compile(*E);
  ASSERT_NE(T, nullptr);
  EXPECT_FALSE(T->resultIsBool());
  for (const Box &B : {box2(-10, -1, 0, 0), box2(1, 10, 0, 0),
                       box2(-10, 10, 0, 0), box2(0, 0, 0, 0)}) {
    EXPECT_EQ(T->runRange(B, S), evalRange(*E, B)) << B.str();
  }
}

TEST(TapeTest, SaturationMatchesTreeWalk) {
  TapeScratch S;
  // Both arms of the arithmetic saturate at the int64 rails.
  ExprRef E = add(mul(fieldRef(0), fieldRef(0)), intConst(INT64_MAX));
  TapeRef T = Tape::compile(*E);
  ASSERT_NE(T, nullptr);
  Box B = box2(INT64_MIN, INT64_MAX, 0, 0);
  EXPECT_EQ(T->runRange(B, S), evalRange(*E, B));
  ExprRef N = neg(fieldRef(0));
  TapeRef TN = Tape::compile(*N);
  ASSERT_NE(TN, nullptr);
  EXPECT_EQ(TN->runRange(B, S), evalRange(*N, B));
}

TEST(TapeTest, ShortCircuitJumpsSkipDeadSide) {
  // $0 < 0 && $1 > 100 over a box where the left side is definitely
  // false: the tape must still produce False (the jump lands on the
  // AndB, which folds a stale-but-valid right value into False).
  TapeScratch S;
  ExprRef Q = andOf(lt(fieldRef(0), intConst(0)),
                    gt(fieldRef(1), intConst(100)));
  TapeRef T = Tape::compile(*Q);
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(T->run(box2(5, 10, 0, 0), S), Tribool::False);
  EXPECT_EQ(T->run(box2(-10, -1, 200, 300), S), Tribool::True);
  EXPECT_EQ(T->run(box2(-10, 10, 200, 300), S), Tribool::Unknown);
}

TEST(TapeTest, DisassemblyNamesEveryInstruction) {
  ExprRef Q = orOf(notOf(le(fieldRef(0), intConst(0))),
                   lt(minOf(fieldRef(0), fieldRef(1)), intConst(4)));
  TapeRef T = Tape::compile(*Q);
  ASSERT_NE(T, nullptr);
  std::string Dis = T->str();
  // One line per instruction, each carrying its pc.
  EXPECT_EQ(static_cast<size_t>(std::count(Dis.begin(), Dis.end(), '\n')),
            T->length());
  for (const char *Mnemonic : {"ldf", "ldc", "min", "not", "jt", "or", "<="})
    EXPECT_NE(Dis.find(Mnemonic), std::string::npos) << Dis;
}

TEST(TapeTest, CompileRuleGatesOnTreeSize) {
  // A lone comparison stays on the tree walk; a conjunction compiles.
  ExprRef Tiny = lt(fieldRef(0), intConst(3));
  ExprRef Big = andOf(lt(fieldRef(0), intConst(3)),
                      gt(fieldRef(1), intConst(-3)));
  ASSERT_LT(Tiny->treeSize(), MinCompileTreeSize);
  ASSERT_GE(Big->treeSize(), MinCompileTreeSize);
  EXPECT_EQ(getOrCompileTape(Tiny), nullptr);
  EXPECT_NE(getOrCompileTape(Big), nullptr);
  // The rule is about cost, not ability: the tape compiles either one.
  EXPECT_NE(Tape::compile(*Tiny), nullptr);
}

TEST(TapeTest, EqualQueriesCompileToIdenticalTapes) {
  // Every call compiles afresh, so equal queries get distinct tapes; a
  // tape is a function of its expression's structure, so they are the
  // same program.
  ExprRef A = andOf(lt(fieldRef(0), intConst(17)),
                    gt(fieldRef(1), intConst(-17)));
  ExprRef B = andOf(lt(fieldRef(0), intConst(17)),
                    gt(fieldRef(1), intConst(-17)));
  ASSERT_NE(A.get(), B.get()); // Distinct nodes, equal structure.
  TapeRef TA = getOrCompileTape(A);
  TapeRef TB = getOrCompileTape(B);
  ASSERT_NE(TA, nullptr);
  ASSERT_NE(TB, nullptr);
  EXPECT_NE(TA.get(), TB.get());
  EXPECT_EQ(TA->str(), TB->str());
}

TEST(TapeTest, ExprPredicateWithNullTapeTreeWalks) {
  // A predicate built without a tape tree-walks and answers exactly as
  // the compiled one does.
  ExprRef E =
      andOf(le(fieldRef(0), fieldRef(1)), ge(fieldRef(0), intConst(-20)));
  PredicateRef Walk = exprPredicate(E, nullptr);
  PredicateRef Compiled = exprPredicate(E, Tape::compile(*E));
  for (const Box &B : {box2(0, 10, 20, 30), box2(-30, -25, -40, -39),
                       box2(-20, 60, -20, 60), box2(5, 5, 5, 5)}) {
    EXPECT_EQ(Walk->evalBox(B), evalTribool(*E, B)) << B.str();
    EXPECT_EQ(Compiled->evalBox(B), Walk->evalBox(B)) << B.str();
  }
}

} // namespace
