//===- solver/RangeEval.h - Abstract interval evaluation --------*- C++ -*-===//
//
// Part of anosy-cpp (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Three-valued abstract evaluation of query expressions over a Box of
/// secrets: integer-sorted expressions evaluate to the interval of values
/// they can take, boolean-sorted ones to a Tribool (True = holds for every
/// point in the box, False = for none, Unknown = undecided at this
/// granularity). This is the pruning oracle of every branch-and-bound
/// procedure in the solver, and it is *sound*: True/False answers are
/// exact statements about all points of the box.
///
/// Interval arithmetic saturates at the int64 limits; saturation only ever
/// widens a range. Concrete evaluation (expr/Eval.h) does not saturate, so
/// the two agree because the parser admits no query whose arithmetic can
/// leave int64 over its schema (expr/Parser.h).
///
//===----------------------------------------------------------------------===//

#ifndef ANOSY_SOLVER_RANGEEVAL_H
#define ANOSY_SOLVER_RANGEEVAL_H

#include "domains/Box.h"
#include "expr/Expr.h"
#include "support/Tribool.h"

namespace anosy {

/// Interval of the values an integer-sorted \p E takes over the non-empty
/// box \p B. The result is an over-approximation of the exact value set
/// (and exact for expressions whose fields occur once, by standard interval
/// arithmetic reasoning).
Interval evalRange(const Expr &E, const Box &B);

/// Three-valued truth of a boolean-sorted \p E over the non-empty box \p B.
Tribool evalTribool(const Expr &E, const Box &B);

} // namespace anosy

#endif // ANOSY_SOLVER_RANGEEVAL_H
