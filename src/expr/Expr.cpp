//===- expr/Expr.cpp - Query-language abstract syntax ---------------------===//

#include "expr/Expr.h"

#include <functional>

using namespace anosy;

const char *anosy::cmpOpSpelling(CmpOp Op) {
  switch (Op) {
  case CmpOp::EQ:
    return "==";
  case CmpOp::NE:
    return "!=";
  case CmpOp::LT:
    return "<";
  case CmpOp::LE:
    return "<=";
  case CmpOp::GT:
    return ">";
  case CmpOp::GE:
    return ">=";
  }
  ANOSY_UNREACHABLE("unknown comparison operator");
}

CmpOp anosy::cmpOpNegation(CmpOp Op) {
  switch (Op) {
  case CmpOp::EQ:
    return CmpOp::NE;
  case CmpOp::NE:
    return CmpOp::EQ;
  case CmpOp::LT:
    return CmpOp::GE;
  case CmpOp::LE:
    return CmpOp::GT;
  case CmpOp::GT:
    return CmpOp::LE;
  case CmpOp::GE:
    return CmpOp::LT;
  }
  ANOSY_UNREACHABLE("unknown comparison operator");
}

ExprRef ExprFactory::make(ExprKind Kind, int64_t IntValue, CmpOp Op,
                          std::vector<ExprRef> Ops) {
  return ExprRef(new Expr(Kind, IntValue, Op, std::move(Ops)));
}

size_t Expr::treeSize() const {
  size_t Size = 1;
  for (const ExprRef &Op : Operands)
    Size += Op->treeSize();
  return Size;
}

//===----------------------------------------------------------------------===//
// Factory functions
//===----------------------------------------------------------------------===//

static bool allIntSorted(const std::vector<ExprRef> &Ops) {
  for (const ExprRef &Op : Ops)
    if (!Op || !Op->isIntSorted())
      return false;
  return true;
}

static bool allBoolSorted(const std::vector<ExprRef> &Ops) {
  for (const ExprRef &Op : Ops)
    if (!Op || !Op->isBoolSorted())
      return false;
  return true;
}

ExprRef anosy::intConst(int64_t V) {
  return ExprFactory::make(ExprKind::IntConst, V, CmpOp::EQ, {});
}

ExprRef anosy::fieldRef(unsigned Index) {
  return ExprFactory::make(ExprKind::FieldRef, static_cast<int64_t>(Index),
                           CmpOp::EQ, {});
}

ExprRef anosy::neg(ExprRef A) {
  assert(A && A->isIntSorted() && "neg of non-integer expression");
  // Constants fold only when the result fits int64; an unfolded node is
  // left for the parser's range check to reject (expr/Parser.h).
  if (A->kind() == ExprKind::IntConst && A->intValue() != INT64_MIN)
    return intConst(-A->intValue());
  if (A->kind() == ExprKind::Neg)
    return A->operand(0);
  return ExprFactory::make(ExprKind::Neg, 0, CmpOp::EQ, {std::move(A)});
}

ExprRef anosy::add(ExprRef A, ExprRef B) {
  assert(allIntSorted({A, B}) && "add of non-integer expressions");
  int64_t Folded;
  if (A->kind() == ExprKind::IntConst && B->kind() == ExprKind::IntConst &&
      !__builtin_add_overflow(A->intValue(), B->intValue(), &Folded))
    return intConst(Folded);
  if (A->kind() == ExprKind::IntConst && A->intValue() == 0)
    return B;
  if (B->kind() == ExprKind::IntConst && B->intValue() == 0)
    return A;
  return ExprFactory::make(ExprKind::Add, 0, CmpOp::EQ,
                           {std::move(A), std::move(B)});
}

ExprRef anosy::sub(ExprRef A, ExprRef B) {
  assert(allIntSorted({A, B}) && "sub of non-integer expressions");
  int64_t Folded;
  if (A->kind() == ExprKind::IntConst && B->kind() == ExprKind::IntConst &&
      !__builtin_sub_overflow(A->intValue(), B->intValue(), &Folded))
    return intConst(Folded);
  if (B->kind() == ExprKind::IntConst && B->intValue() == 0)
    return A;
  return ExprFactory::make(ExprKind::Sub, 0, CmpOp::EQ,
                           {std::move(A), std::move(B)});
}

ExprRef anosy::mul(ExprRef A, ExprRef B) {
  assert(allIntSorted({A, B}) && "mul of non-integer expressions");
  int64_t Folded;
  if (A->kind() == ExprKind::IntConst && B->kind() == ExprKind::IntConst &&
      !__builtin_mul_overflow(A->intValue(), B->intValue(), &Folded))
    return intConst(Folded);
  if (A->kind() == ExprKind::IntConst && A->intValue() == 1)
    return B;
  if (B->kind() == ExprKind::IntConst && B->intValue() == 1)
    return A;
  if ((A->kind() == ExprKind::IntConst && A->intValue() == 0) ||
      (B->kind() == ExprKind::IntConst && B->intValue() == 0))
    return intConst(0);
  return ExprFactory::make(ExprKind::Mul, 0, CmpOp::EQ,
                           {std::move(A), std::move(B)});
}

ExprRef anosy::absOf(ExprRef A) {
  assert(A && A->isIntSorted() && "abs of non-integer expression");
  if (A->kind() == ExprKind::IntConst && A->intValue() != INT64_MIN)
    return intConst(A->intValue() < 0 ? -A->intValue() : A->intValue());
  if (A->kind() == ExprKind::Abs)
    return A;
  return ExprFactory::make(ExprKind::Abs, 0, CmpOp::EQ, {std::move(A)});
}

ExprRef anosy::minOf(ExprRef A, ExprRef B) {
  assert(allIntSorted({A, B}) && "min of non-integer expressions");
  if (A->kind() == ExprKind::IntConst && B->kind() == ExprKind::IntConst)
    return intConst(std::min(A->intValue(), B->intValue()));
  return ExprFactory::make(ExprKind::Min, 0, CmpOp::EQ,
                           {std::move(A), std::move(B)});
}

ExprRef anosy::maxOf(ExprRef A, ExprRef B) {
  assert(allIntSorted({A, B}) && "max of non-integer expressions");
  if (A->kind() == ExprKind::IntConst && B->kind() == ExprKind::IntConst)
    return intConst(std::max(A->intValue(), B->intValue()));
  return ExprFactory::make(ExprKind::Max, 0, CmpOp::EQ,
                           {std::move(A), std::move(B)});
}

ExprRef anosy::intIte(ExprRef Cond, ExprRef Then, ExprRef Else) {
  assert(Cond && Cond->isBoolSorted() && "ite condition must be boolean");
  assert(allIntSorted({Then, Else}) && "ite arms must be integers");
  if (Cond->kind() == ExprKind::BoolConst)
    return Cond->boolValue() ? Then : Else;
  return ExprFactory::make(ExprKind::IntIte, 0, CmpOp::EQ,
                           {std::move(Cond), std::move(Then),
                            std::move(Else)});
}

ExprRef anosy::boolConst(bool V) {
  return ExprFactory::make(ExprKind::BoolConst, V ? 1 : 0, CmpOp::EQ, {});
}

ExprRef anosy::cmp(CmpOp Op, ExprRef A, ExprRef B) {
  assert(allIntSorted({A, B}) && "comparison of non-integer expressions");
  if (A->kind() == ExprKind::IntConst && B->kind() == ExprKind::IntConst) {
    int64_t L = A->intValue(), R = B->intValue();
    switch (Op) {
    case CmpOp::EQ:
      return boolConst(L == R);
    case CmpOp::NE:
      return boolConst(L != R);
    case CmpOp::LT:
      return boolConst(L < R);
    case CmpOp::LE:
      return boolConst(L <= R);
    case CmpOp::GT:
      return boolConst(L > R);
    case CmpOp::GE:
      return boolConst(L >= R);
    }
  }
  return ExprFactory::make(ExprKind::Cmp, 0, Op, {std::move(A), std::move(B)});
}

ExprRef anosy::notOf(ExprRef A) {
  assert(A && A->isBoolSorted() && "not of non-boolean expression");
  if (A->kind() == ExprKind::BoolConst)
    return boolConst(!A->boolValue());
  if (A->kind() == ExprKind::Not)
    return A->operand(0);
  return ExprFactory::make(ExprKind::Not, 0, CmpOp::EQ, {std::move(A)});
}

ExprRef anosy::andOf(ExprRef A, ExprRef B) {
  assert(allBoolSorted({A, B}) && "and of non-boolean expressions");
  if (A->kind() == ExprKind::BoolConst)
    return A->boolValue() ? B : boolConst(false);
  if (B->kind() == ExprKind::BoolConst)
    return B->boolValue() ? A : boolConst(false);
  return ExprFactory::make(ExprKind::And, 0, CmpOp::EQ,
                           {std::move(A), std::move(B)});
}

ExprRef anosy::orOf(ExprRef A, ExprRef B) {
  assert(allBoolSorted({A, B}) && "or of non-boolean expressions");
  if (A->kind() == ExprKind::BoolConst)
    return A->boolValue() ? boolConst(true) : B;
  if (B->kind() == ExprKind::BoolConst)
    return B->boolValue() ? boolConst(true) : A;
  return ExprFactory::make(ExprKind::Or, 0, CmpOp::EQ,
                           {std::move(A), std::move(B)});
}

ExprRef anosy::implies(ExprRef A, ExprRef B) {
  assert(allBoolSorted({A, B}) && "implies of non-boolean expressions");
  return orOf(notOf(std::move(A)), std::move(B));
}

ExprRef anosy::andAll(const std::vector<ExprRef> &Conjuncts) {
  ExprRef Acc = boolConst(true);
  for (const ExprRef &C : Conjuncts)
    Acc = andOf(Acc, C);
  return Acc;
}

ExprRef anosy::orAll(const std::vector<ExprRef> &Disjuncts) {
  ExprRef Acc = boolConst(false);
  for (const ExprRef &D : Disjuncts)
    Acc = orOf(Acc, D);
  return Acc;
}

//===----------------------------------------------------------------------===//
// Printing
//===----------------------------------------------------------------------===//

namespace {

/// Pretty printer producing the surface syntax accepted by the parser.
class Printer {
public:
  explicit Printer(const Schema *S) : S(S) {}

  std::string print(const Expr &E) {
    switch (E.kind()) {
    case ExprKind::IntConst:
      return std::to_string(E.intValue());
    case ExprKind::FieldRef: {
      unsigned Idx = E.fieldIndex();
      if (S && Idx < S->arity())
        return S->field(Idx).Name;
      return "$" + std::to_string(Idx);
    }
    case ExprKind::Neg:
      return "-" + printParen(*E.operand(0));
    case ExprKind::Add:
      return printParen(*E.operand(0)) + " + " + printParen(*E.operand(1));
    case ExprKind::Sub:
      return printParen(*E.operand(0)) + " - " + printParen(*E.operand(1));
    case ExprKind::Mul:
      return printParen(*E.operand(0)) + " * " + printParen(*E.operand(1));
    case ExprKind::Abs:
      return "abs(" + print(*E.operand(0)) + ")";
    case ExprKind::Min:
      return "min(" + print(*E.operand(0)) + ", " + print(*E.operand(1)) +
             ")";
    case ExprKind::Max:
      return "max(" + print(*E.operand(0)) + ", " + print(*E.operand(1)) +
             ")";
    case ExprKind::IntIte:
      return "if " + print(*E.operand(0)) + " then " + print(*E.operand(1)) +
             " else " + print(*E.operand(2));
    case ExprKind::BoolConst:
      return E.boolValue() ? "true" : "false";
    case ExprKind::Cmp:
      return printParen(*E.operand(0)) + " " + cmpOpSpelling(E.cmpOp()) +
             " " + printParen(*E.operand(1));
    case ExprKind::Not:
      return "!" + printParen(*E.operand(0));
    case ExprKind::And:
      return printParen(*E.operand(0)) + " && " + printParen(*E.operand(1));
    case ExprKind::Or:
      return printParen(*E.operand(0)) + " || " + printParen(*E.operand(1));
    case ExprKind::Implies:
      return printParen(*E.operand(0)) + " ==> " + printParen(*E.operand(1));
    }
    ANOSY_UNREACHABLE("unknown expression kind");
  }

private:
  std::string printParen(const Expr &E) {
    if (E.numOperands() == 0 || E.kind() == ExprKind::Abs ||
        E.kind() == ExprKind::Min || E.kind() == ExprKind::Max)
      return print(E);
    return "(" + print(E) + ")";
  }

  const Schema *S;
};

} // namespace

std::string Expr::str() const { return Printer(nullptr).print(*this); }

std::string Expr::str(const Schema &S) const { return Printer(&S).print(*this); }

//===----------------------------------------------------------------------===//
// Structural equality and hashing
//===----------------------------------------------------------------------===//

bool Expr::structurallyEqual(const Expr &A, const Expr &B) {
  if (&A == &B)
    return true;
  if (A.Kind != B.Kind || A.IntValue != B.IntValue ||
      A.Operands.size() != B.Operands.size())
    return false;
  if (A.Kind == ExprKind::Cmp && A.Op != B.Op)
    return false;
  for (size_t I = 0, E = A.Operands.size(); I != E; ++I)
    if (!structurallyEqual(*A.Operands[I], *B.Operands[I]))
      return false;
  return true;
}

size_t Expr::structuralHash(const Expr &E) {
  size_t H = std::hash<int>()(static_cast<int>(E.Kind));
  auto Mix = [&H](size_t V) {
    H ^= V + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
  };
  Mix(std::hash<int64_t>()(E.IntValue));
  if (E.Kind == ExprKind::Cmp)
    Mix(std::hash<int>()(static_cast<int>(E.Op)));
  for (const ExprRef &Op : E.Operands)
    Mix(structuralHash(*Op));
  return H;
}
