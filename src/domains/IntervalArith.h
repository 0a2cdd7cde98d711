//===- domains/IntervalArith.h - Saturating interval primitives -*- C++ -*-===//
//
// Part of anosy-cpp (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scalar interval-arithmetic kernel shared by the tree-walking
/// abstract evaluator (solver/RangeEval) and the compiled tape interpreter
/// (compile/Tape). Both evaluators must produce bit-identical Interval and
/// Tribool results — the tree walk is the differential oracle for the tape
/// — so the saturating int64 primitives and the three-valued comparison
/// live here, defined exactly once.
///
/// Saturation at the int64 limits only ever widens a range. It agrees with
/// concrete evaluation because the parser admits no query whose
/// arithmetic can leave int64 over its schema; see solver/RangeEval.h.
///
//===----------------------------------------------------------------------===//

#ifndef ANOSY_DOMAINS_INTERVALARITH_H
#define ANOSY_DOMAINS_INTERVALARITH_H

#include "domains/Interval.h"
#include "expr/Expr.h"
#include "support/Tribool.h"

#include <algorithm>
#include <cassert>

namespace anosy {
namespace iarith {

/// Saturating int64 addition.
inline int64_t satAdd(int64_t A, int64_t B) {
  __int128 R = static_cast<__int128>(A) + B;
  if (R > INT64_MAX)
    return INT64_MAX;
  if (R < INT64_MIN)
    return INT64_MIN;
  return static_cast<int64_t>(R);
}

/// Saturating int64 multiplication.
inline int64_t satMul(int64_t A, int64_t B) {
  __int128 R = static_cast<__int128>(A) * B;
  if (R > INT64_MAX)
    return INT64_MAX;
  if (R < INT64_MIN)
    return INT64_MIN;
  return static_cast<int64_t>(R);
}

/// Saturating int64 negation.
inline int64_t satNeg(int64_t A) { return A == INT64_MIN ? INT64_MAX : -A; }

/// Floor division (rounds toward -inf); \p B must be non-zero. Inverts
/// multiplication by a constant when narrowing.
inline int64_t floorDiv(int64_t A, int64_t B) {
  assert(B != 0 && "division by zero");
  int64_t Q = A / B, R = A % B;
  return (R != 0 && ((R < 0) != (B < 0))) ? Q - 1 : Q;
}

/// Ceiling division (rounds toward +inf); \p B must be non-zero.
inline int64_t ceilDiv(int64_t A, int64_t B) {
  assert(B != 0 && "division by zero");
  int64_t Q = A / B, R = A % B;
  return (R != 0 && ((R < 0) == (B < 0))) ? Q + 1 : Q;
}

inline Interval rangeAdd(const Interval &A, const Interval &B) {
  return {satAdd(A.Lo, B.Lo), satAdd(A.Hi, B.Hi)};
}

inline Interval rangeSub(const Interval &A, const Interval &B) {
  return {satAdd(A.Lo, satNeg(B.Hi)), satAdd(A.Hi, satNeg(B.Lo))};
}

inline Interval rangeNeg(const Interval &A) {
  return {satNeg(A.Hi), satNeg(A.Lo)};
}

inline Interval rangeMul(const Interval &A, const Interval &B) {
  int64_t P1 = satMul(A.Lo, B.Lo), P2 = satMul(A.Lo, B.Hi);
  int64_t P3 = satMul(A.Hi, B.Lo), P4 = satMul(A.Hi, B.Hi);
  return {std::min(std::min(P1, P2), std::min(P3, P4)),
          std::max(std::max(P1, P2), std::max(P3, P4))};
}

inline Interval rangeAbs(const Interval &A) {
  if (A.Lo >= 0)
    return A;
  if (A.Hi <= 0)
    return rangeNeg(A);
  return {0, std::max(satNeg(A.Lo), A.Hi)};
}

inline Interval rangeMin(const Interval &A, const Interval &B) {
  return {std::min(A.Lo, B.Lo), std::min(A.Hi, B.Hi)};
}

inline Interval rangeMax(const Interval &A, const Interval &B) {
  return {std::max(A.Lo, B.Lo), std::max(A.Hi, B.Hi)};
}

/// Three-valued comparison of two value intervals.
inline Tribool rangeCmp(CmpOp Op, const Interval &L, const Interval &R) {
  switch (Op) {
  case CmpOp::LT:
    if (L.Hi < R.Lo)
      return Tribool::True;
    if (L.Lo >= R.Hi)
      return Tribool::False;
    return Tribool::Unknown;
  case CmpOp::LE:
    if (L.Hi <= R.Lo)
      return Tribool::True;
    if (L.Lo > R.Hi)
      return Tribool::False;
    return Tribool::Unknown;
  case CmpOp::GT:
    return rangeCmp(CmpOp::LT, R, L);
  case CmpOp::GE:
    return rangeCmp(CmpOp::LE, R, L);
  case CmpOp::EQ:
    if (L.Lo == L.Hi && R.Lo == R.Hi && L.Lo == R.Lo)
      return Tribool::True;
    if (L.Hi < R.Lo || R.Hi < L.Lo)
      return Tribool::False;
    return Tribool::Unknown;
  case CmpOp::NE:
    return triNot(rangeCmp(CmpOp::EQ, L, R));
  }
  ANOSY_UNREACHABLE("unknown comparison operator");
}

/// The IntIte merge: the taken arm when the condition is decided, the hull
/// of both arms when it is Unknown.
inline Interval rangeSelect(Tribool Cond, const Interval &Then,
                            const Interval &Else) {
  if (Cond == Tribool::True)
    return Then;
  if (Cond == Tribool::False)
    return Else;
  return Then.hull(Else);
}

} // namespace iarith
} // namespace anosy

#endif // ANOSY_DOMAINS_INTERVALARITH_H
