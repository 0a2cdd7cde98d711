//===- analysis/IntervalRefiner.cpp - NNF branch-posterior refiner --------===//

#include "analysis/IntervalRefiner.h"

#include "domains/IntervalArith.h"
#include "expr/Simplify.h"
#include "solver/RangeEval.h"

#include <algorithm>

using namespace anosy;
using namespace anosy::iarith;

namespace {

/// Bound on the outer narrowing fixpoint and on each conjunction's local
/// fixpoint.
constexpr unsigned MaxRounds = 6;

} // namespace

Box IntervalRefiner::refine(const Expr &E, const Box &Prior) const {
  Box Cur = Prior;
  for (unsigned Round = 0; Round != MaxRounds; ++Round) {
    if (Cur.isEmpty())
      break;
    Box Next = refineOnce(E, Cur);
    if (Next == Cur)
      break;
    Cur = std::move(Next);
  }
  return Cur;
}

Box IntervalRefiner::refineOnce(const Expr &E, Box B) const {
  if (B.isEmpty())
    return B;
  switch (E.kind()) {
  case ExprKind::BoolConst:
    return E.boolValue() ? B : Box::bottom(B.arity());
  case ExprKind::Cmp:
    return narrowCmp(E.cmpOp(), *E.operand(0), *E.operand(1), std::move(B));
  case ExprKind::Not:
    // NNF admits ¬ only above atoms; accept that shape defensively.
    if (E.operand(0)->kind() == ExprKind::Cmp) {
      const Expr &A = *E.operand(0);
      return narrowCmp(cmpOpNegation(A.cmpOp()), *A.operand(0),
                       *A.operand(1), std::move(B));
    }
    if (E.operand(0)->kind() == ExprKind::BoolConst)
      return E.operand(0)->boolValue() ? Box::bottom(B.arity()) : B;
    ANOSY_UNREACHABLE("IntervalRefiner requires NNF input (¬ above a "
                      "connective)");
  case ExprKind::And: {
    // ∧ is a meet; iterating the two children to a local fixpoint
    // propagates narrowing between sibling atoms without another full
    // traversal of the query.
    for (unsigned Round = 0; Round != MaxRounds; ++Round) {
      Box Prev = B;
      B = refineOnce(*E.operand(0), std::move(B));
      if (B.isEmpty())
        return B;
      B = refineOnce(*E.operand(1), std::move(B));
      if (B.isEmpty() || B == Prev)
        return B;
    }
    return B;
  }
  case ExprKind::Or:
    // ∨ is disjunctive: a box cannot represent the union, so refine each
    // branch and join. Empty branches drop out of the hull for free.
    return refineOnce(*E.operand(0), B).hull(refineOnce(*E.operand(1), B));
  case ExprKind::Implies:
    ANOSY_UNREACHABLE("IntervalRefiner requires NNF input (⇒ survives)");
  case ExprKind::IntConst:
  case ExprKind::FieldRef:
  case ExprKind::Neg:
  case ExprKind::Add:
  case ExprKind::Sub:
  case ExprKind::Mul:
  case ExprKind::Abs:
  case ExprKind::Min:
  case ExprKind::Max:
  case ExprKind::IntIte:
    break;
  }
  ANOSY_UNREACHABLE("refineOnce on integer-sorted expression");
}

Box IntervalRefiner::narrowCmp(CmpOp Op, const Expr &A, const Expr &C,
                               Box B) const {
  Interval RA = evalRange(A, B), RC = evalRange(C, B);
  switch (Op) {
  case CmpOp::LE: {
    // a ≤ c: a ∈ (−∞, rc.Hi], then c ∈ [ra'.Lo, ∞) with the tightened ra'.
    B = narrowInt(A, {INT64_MIN, RC.Hi}, std::move(B));
    if (B.isEmpty())
      return B;
    RA = evalRange(A, B);
    return narrowInt(C, {RA.Lo, INT64_MAX}, std::move(B));
  }
  case CmpOp::LT: {
    B = narrowInt(A, {INT64_MIN, satAdd(RC.Hi, -1)}, std::move(B));
    if (B.isEmpty())
      return B;
    RA = evalRange(A, B);
    return narrowInt(C, {satAdd(RA.Lo, 1), INT64_MAX}, std::move(B));
  }
  case CmpOp::GE:
  case CmpOp::GT:
    return narrowCmp(Op == CmpOp::GE ? CmpOp::LE : CmpOp::LT, C, A,
                     std::move(B));
  case CmpOp::EQ: {
    Interval Both = RA.intersect(RC);
    if (Both.isEmpty())
      return Box::bottom(B.arity());
    B = narrowInt(A, Both, std::move(B));
    if (B.isEmpty())
      return B;
    return narrowInt(C, Both, std::move(B));
  }
  case CmpOp::NE:
    // Narrowable only when one side is a fixed point at the other's
    // border (shaving that endpoint keeps the box exact).
    if (RC.Lo == RC.Hi) {
      if (RA.Lo == RC.Lo && RA.Lo < INT64_MAX)
        return narrowInt(A, {RA.Lo + 1, RA.Hi}, std::move(B));
      if (RA.Hi == RC.Lo && RA.Hi > INT64_MIN)
        return narrowInt(A, {RA.Lo, RA.Hi - 1}, std::move(B));
    }
    if (RA.Lo == RA.Hi) {
      if (RC.Lo == RA.Lo && RC.Lo < INT64_MAX)
        return narrowInt(C, {RC.Lo + 1, RC.Hi}, std::move(B));
      if (RC.Hi == RA.Lo && RC.Hi > INT64_MIN)
        return narrowInt(C, {RC.Lo, RC.Hi - 1}, std::move(B));
    }
    return B;
  }
  ANOSY_UNREACHABLE("unknown comparison operator");
}

Box IntervalRefiner::narrowInt(const Expr &E, Interval Target, Box B) const {
  if (B.isEmpty())
    return B;
  Interval R = evalRange(E, B);
  Target = Target.intersect(R);
  if (Target.isEmpty())
    return Box::bottom(B.arity());

  switch (E.kind()) {
  case ExprKind::IntConst:
    return Target.contains(E.intValue()) ? B : Box::bottom(B.arity());
  case ExprKind::FieldRef: {
    Interval NewDim = B.dim(E.fieldIndex()).intersect(Target);
    return B.withDim(E.fieldIndex(), NewDim);
  }
  case ExprKind::Neg:
    return narrowInt(*E.operand(0), {satNeg(Target.Hi), satNeg(Target.Lo)},
                     std::move(B));
  case ExprKind::Add: {
    const Expr &A = *E.operand(0), &C = *E.operand(1);
    Interval RA = evalRange(A, B), RC = evalRange(C, B);
    B = narrowInt(A, rangeSub(Target, RC), std::move(B));
    if (B.isEmpty())
      return B;
    RA = evalRange(A, B);
    return narrowInt(C, rangeSub(Target, RA), std::move(B));
  }
  case ExprKind::Sub: {
    const Expr &A = *E.operand(0), &C = *E.operand(1);
    Interval RA = evalRange(A, B), RC = evalRange(C, B);
    B = narrowInt(A, rangeAdd(Target, RC), std::move(B));
    if (B.isEmpty())
      return B;
    RA = evalRange(A, B);
    return narrowInt(C, rangeSub(RA, Target), std::move(B));
  }
  case ExprKind::Mul: {
    // Invertible only through a nonzero constant factor (§5.1 fragment).
    const Expr *Const = nullptr, *Var = nullptr;
    if (E.operand(0)->kind() == ExprKind::IntConst) {
      Const = E.operand(0).get();
      Var = E.operand(1).get();
    } else if (E.operand(1)->kind() == ExprKind::IntConst) {
      Const = E.operand(1).get();
      Var = E.operand(0).get();
    }
    if (!Const || Const->intValue() == 0)
      return B; // cannot invert; staying put is sound
    int64_t K = Const->intValue();
    Interval VarTarget =
        K > 0 ? Interval{ceilDiv(Target.Lo, K), floorDiv(Target.Hi, K)}
              : Interval{ceilDiv(Target.Hi, K), floorDiv(Target.Lo, K)};
    if (VarTarget.isEmpty())
      return Box::bottom(B.arity());
    return narrowInt(*Var, VarTarget, std::move(B));
  }
  case ExprKind::Abs: {
    // |a| ∈ Target (with Target ⊆ [0, ∞) after the range intersection)
    // splits into the branches a ∈ [lo, hi] and a ∈ [−hi, −lo]; refining
    // each and joining keeps the band's gap when one side is infeasible.
    const Expr &A = *E.operand(0);
    int64_t Lo = std::max<int64_t>(0, Target.Lo);
    Box Pos = narrowInt(A, {Lo, Target.Hi}, B);
    Box Neg = narrowInt(A, {satNeg(Target.Hi), satNeg(Lo)}, B);
    return Pos.hull(Neg);
  }
  case ExprKind::Min: {
    // min(a,c) ≥ lo forces both operands up (a meet); min(a,c) ≤ hi is
    // disjunctive (a ≤ hi ∨ c ≤ hi), refined per branch and joined.
    const Expr &A = *E.operand(0), &C = *E.operand(1);
    Interval AtLeast{Target.Lo, INT64_MAX};
    B = narrowInt(A, AtLeast, std::move(B));
    if (B.isEmpty())
      return B;
    B = narrowInt(C, AtLeast, std::move(B));
    if (B.isEmpty())
      return B;
    Interval AtMost{INT64_MIN, Target.Hi};
    return narrowInt(A, AtMost, B).hull(narrowInt(C, AtMost, B));
  }
  case ExprKind::Max: {
    const Expr &A = *E.operand(0), &C = *E.operand(1);
    Interval AtMost{INT64_MIN, Target.Hi};
    B = narrowInt(A, AtMost, std::move(B));
    if (B.isEmpty())
      return B;
    B = narrowInt(C, AtMost, std::move(B));
    if (B.isEmpty())
      return B;
    Interval AtLeast{Target.Lo, INT64_MAX};
    return narrowInt(A, AtLeast, B).hull(narrowInt(C, AtLeast, B));
  }
  case ExprKind::IntIte: {
    // Every point takes the then- or the else-value; narrow each branch
    // against the target and join (the condition itself is not consulted
    // — it may contain non-NNF structure).
    Box Then = narrowInt(*E.operand(1), Target, B);
    Box Else = narrowInt(*E.operand(2), Target, B);
    return Then.hull(Else);
  }
  case ExprKind::BoolConst:
  case ExprKind::Cmp:
  case ExprKind::Not:
  case ExprKind::And:
  case ExprKind::Or:
  case ExprKind::Implies:
    break;
  }
  ANOSY_UNREACHABLE("narrowInt on boolean-sorted expression");
}

NormalizedQuery anosy::normalizeQuery(const ExprRef &Query) {
  assert(Query && Query->isBoolSorted() &&
         "normalizeQuery needs a boolean query");
  ExprRef Simplified = simplify(Query);
  return {toNNF(Simplified), toNNF(notOf(Simplified))};
}

BranchPosteriors anosy::branchPosteriors(const NormalizedQuery &Q,
                                         const Box &Prior) {
  IntervalRefiner Refiner;
  return {Refiner.refine(*Q.True, Prior), Refiner.refine(*Q.False, Prior)};
}
