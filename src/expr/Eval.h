//===- expr/Eval.h - Concrete query evaluation ------------------*- C++ -*-===//
//
// Part of anosy-cpp (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Concrete evaluation of query expressions on a single secret Point — the
/// `query secret` call inside bounded downgrade (Fig. 2) and the ground
/// truth every abstract result is compared against in tests. Arithmetic
/// is plain int64: the parser admits only queries whose every subterm
/// stays within int64 at every point of the schema (expr/Parser.h).
///
//===----------------------------------------------------------------------===//

#ifndef ANOSY_EXPR_EVAL_H
#define ANOSY_EXPR_EVAL_H

#include "expr/Expr.h"
#include "expr/Schema.h"

namespace anosy {

/// Evaluates an integer-sorted expression at \p P.
int64_t evalInt(const Expr &E, const Point &P);

/// Evaluates a boolean-sorted expression at \p P.
bool evalBool(const Expr &E, const Point &P);

} // namespace anosy

#endif // ANOSY_EXPR_EVAL_H
