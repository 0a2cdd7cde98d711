//===- baselines/AbstractInterpreter.h - Step-wise AI baseline --*- C++ -*-===//
//
// Part of anosy-cpp (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The comparison baseline: a classic abstract-interpretation posterior
/// engine in the style the paper contrasts ANOSY against ("traditional
/// abstract interpretation based techniques will refine the domains as the
/// query is evaluated with small step semantics, leading to imprecision at
/// each step", §5.4; Prob's probabilistic abstract interpreter works this
/// way over its deterministic component).
///
/// Given a prior box and a required query response, the engine runs
/// forward interval evaluation followed by backward (HC4-style) constraint
/// narrowing through each AST node, iterated to a fixpoint. The result is
/// an *over*-approximation of the true posterior — sound, cheap, and
/// structurally imprecise at non-box-representable constraints (abs,
/// disjunctions), which is exactly the precision gap the Fig. 5/Prob
/// comparison measures.
///
//===----------------------------------------------------------------------===//

#ifndef ANOSY_BASELINES_ABSTRACTINTERPRETER_H
#define ANOSY_BASELINES_ABSTRACTINTERPRETER_H

#include "domains/Box.h"
#include "expr/Expr.h"

namespace anosy {

/// Abstract-interpretation posterior computation.
class AbstractInterpreter {
public:
  /// The narrowed box of secrets in \p Prior that may answer \p Response
  /// to \p Query. Sound over-approximation: every secret of Prior with
  /// that response is inside the result.
  Box posterior(const Expr &Query, const Box &Prior, bool Response) const;

  /// Both posteriors at once (the shape of QueryInfo::approx).
  std::pair<Box, Box> posteriors(const Expr &Query, const Box &Prior) const;
};

} // namespace anosy

#endif // ANOSY_BASELINES_ABSTRACTINTERPRETER_H
