//===- baselines/AbstractInterpreter.cpp - Step-wise AI baseline ----------===//

#include "baselines/AbstractInterpreter.h"

#include "domains/IntervalArith.h"
#include "solver/RangeEval.h"

#include <algorithm>

using namespace anosy;
using namespace anosy::iarith;

namespace {

/// HC4-style forward-backward narrowing over one query AST.
class Narrower {
public:
  /// Narrows \p B under the constraint "value of E ∈ Target". Returns an
  /// empty box when the constraint is infeasible over B.
  Box narrowInt(const Expr &E, Interval Target, Box B) const {
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
      // a ∈ Target - rc, c ∈ Target - ra'.
      B = narrowInt(A, rangeSub(Target, RC), std::move(B));
      if (B.isEmpty())
        return B;
      RA = evalRange(A, B);
      return narrowInt(C, rangeSub(Target, RA), std::move(B));
    }
    case ExprKind::Sub: {
      const Expr &A = *E.operand(0), &C = *E.operand(1);
      Interval RA = evalRange(A, B), RC = evalRange(C, B);
      // a ∈ Target + rc, c ∈ ra' - Target.
      B = narrowInt(A, rangeAdd(Target, RC), std::move(B));
      if (B.isEmpty())
        return B;
      RA = evalRange(A, B);
      return narrowInt(C, rangeSub(RA, Target), std::move(B));
    }
    case ExprKind::Mul: {
      // Narrow only through a constant factor (the linear fragment).
      const Expr *Const = nullptr, *Var = nullptr;
      if (E.operand(0)->kind() == ExprKind::IntConst) {
        Const = E.operand(0).get();
        Var = E.operand(1).get();
      } else if (E.operand(1)->kind() == ExprKind::IntConst) {
        Const = E.operand(1).get();
        Var = E.operand(0).get();
      }
      if (!Const || Const->intValue() == 0)
        return B; // cannot invert; stay sound by not narrowing
      int64_t K = Const->intValue();
      Interval VarTarget =
          K > 0 ? Interval{ceilDiv(Target.Lo, K), floorDiv(Target.Hi, K)}
                : Interval{ceilDiv(Target.Hi, K), floorDiv(Target.Lo, K)};
      if (VarTarget.isEmpty())
        return Box::bottom(B.arity());
      return narrowInt(*Var, VarTarget, std::move(B));
    }
    case ExprKind::Abs: {
      const Expr &A = *E.operand(0);
      Interval RA = evalRange(A, B);
      // |a| ∈ Target. A box cannot represent the two-sided band, so we
      // keep only the hull [-Target.Hi, Target.Hi] (the baseline's
      // characteristic imprecision at abs).
      Interval Hull{satNeg(Target.Hi), Target.Hi};
      if (RA.Lo >= 0)
        Hull = Interval{std::max<int64_t>(0, Target.Lo), Target.Hi};
      else if (RA.Hi <= 0)
        Hull = Interval{satNeg(Target.Hi),
                        -std::max<int64_t>(0, Target.Lo)};
      return narrowInt(A, Hull, std::move(B));
    }
    case ExprKind::Min: {
      // min(a,c) ≥ Target.Lo forces both operands ≥ Target.Lo; the upper
      // side is disjunctive and is not narrowed.
      Interval Any{Target.Lo, INT64_MAX};
      B = narrowInt(*E.operand(0), Any, std::move(B));
      if (B.isEmpty())
        return B;
      return narrowInt(*E.operand(1), Any, std::move(B));
    }
    case ExprKind::Max: {
      Interval Any{INT64_MIN, Target.Hi};
      B = narrowInt(*E.operand(0), Any, std::move(B));
      if (B.isEmpty())
        return B;
      return narrowInt(*E.operand(1), Any, std::move(B));
    }
    case ExprKind::IntIte:
      return B; // disjunctive; not narrowed
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

  /// Narrows \p B under the constraint "E evaluates to Require".
  Box narrowBool(const Expr &E, bool Require, Box B) const {
    if (B.isEmpty())
      return B;
    switch (E.kind()) {
    case ExprKind::BoolConst:
      return E.boolValue() == Require ? B : Box::bottom(B.arity());
    case ExprKind::Cmp:
      return narrowCmp(Require ? E.cmpOp() : cmpOpNegation(E.cmpOp()),
                       *E.operand(0), *E.operand(1), std::move(B));
    case ExprKind::Not:
      return narrowBool(*E.operand(0), !Require, std::move(B));
    case ExprKind::And:
      if (Require) {
        B = narrowBool(*E.operand(0), true, std::move(B));
        if (B.isEmpty())
          return B;
        return narrowBool(*E.operand(1), true, std::move(B));
      }
      // ¬(a ∧ b) is disjunctive: join the two narrowed branches.
      return narrowBool(*E.operand(0), false, B)
          .hull(narrowBool(*E.operand(1), false, B));
    case ExprKind::Or:
      if (!Require) {
        B = narrowBool(*E.operand(0), false, std::move(B));
        if (B.isEmpty())
          return B;
        return narrowBool(*E.operand(1), false, std::move(B));
      }
      return narrowBool(*E.operand(0), true, B)
          .hull(narrowBool(*E.operand(1), true, B));
    case ExprKind::Implies:
      if (Require)
        // a ⇒ b ≡ ¬a ∨ b.
        return narrowBool(*E.operand(0), false, B)
            .hull(narrowBool(*E.operand(1), true, B));
      B = narrowBool(*E.operand(0), true, std::move(B));
      if (B.isEmpty())
        return B;
      return narrowBool(*E.operand(1), false, std::move(B));
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
    ANOSY_UNREACHABLE("narrowBool on integer-sorted expression");
  }

private:
  Box narrowCmp(CmpOp Op, const Expr &A, const Expr &C, Box B) const {
    Interval RA = evalRange(A, B), RC = evalRange(C, B);
    switch (Op) {
    case CmpOp::LE: {
      // a ≤ c: a ∈ (-∞, rc.Hi], c ∈ [ra.Lo, ∞).
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
      // Only narrow when one side is a fixed point at the other's border.
      if (RC.Lo == RC.Hi) {
        if (RA.Lo == RC.Lo)
          return narrowInt(A, {RA.Lo + 1, RA.Hi}, std::move(B));
        if (RA.Hi == RC.Lo)
          return narrowInt(A, {RA.Lo, RA.Hi - 1}, std::move(B));
      }
      return B;
    }
    ANOSY_UNREACHABLE("unknown comparison operator");
  }
};

} // namespace

Box AbstractInterpreter::posterior(const Expr &Query, const Box &Prior,
                                   bool Response) const {
  Narrower N;
  Box Cur = Prior;
  for (unsigned Round = 0; Round != MaxRounds; ++Round) {
    if (Cur.isEmpty())
      break;
    Box Next = N.narrowBool(Query, Response, Cur);
    if (Next == Cur)
      break;
    Cur = std::move(Next);
  }
  return Cur;
}

std::pair<Box, Box> AbstractInterpreter::posteriors(const Expr &Query,
                                                    const Box &Prior) const {
  return {posterior(Query, Prior, true), posterior(Query, Prior, false)};
}
