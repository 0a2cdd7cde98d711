//===- solver/Predicate.h - Box-abstractable predicates ---------*- C++ -*-===//
//
// Part of anosy-cpp (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Predicates over secrets that can be evaluated both concretely (on one
/// Point) and abstractly (three-valued, over a whole Box). The solver's
/// deciders/counters/optimizers are written against this interface, so the
/// same machinery answers
///   * query-level questions ("∀x∈B. nearby x"),
///   * domain-membership questions ("x ∈ P" for a PowerBox), and
///   * the mixed obligations of the refinement specs in Fig. 4
///     ("∀x∈d. query x ∧ x ∈ prior"),
/// which is how we reproduce Liquid Haskell's composite obligations with
/// one engine.
///
/// Combinators use Kleene logic on the abstract side, so abstract answers
/// remain sound under composition.
///
//===----------------------------------------------------------------------===//

#ifndef ANOSY_SOLVER_PREDICATE_H
#define ANOSY_SOLVER_PREDICATE_H

#include "compile/Tape.h"
#include "domains/Box.h"
#include "domains/PowerBox.h"
#include "expr/Expr.h"
#include "solver/SplitHints.h"
#include "support/Tribool.h"

#include <memory>
#include <string>
#include <vector>

namespace anosy {

/// A predicate on secrets with sound three-valued box evaluation.
class Predicate {
public:
  virtual ~Predicate() = default;

  /// Three-valued truth over the non-empty box \p B: True means every point
  /// of \p B satisfies the predicate, False means none does.
  virtual Tribool evalBox(const Box &B) const = 0;

  /// Concrete truth at \p P.
  virtual bool evalPoint(const Point &P) const = 0;

  /// Appends the coordinates where this predicate's truth can flip (see
  /// solver/SplitHints.h). Publishing no hints is always sound; the
  /// deciders then fall back to midpoint bisection.
  virtual void splitHints(SplitHints &Hints) const { (void)Hints; }

  /// Debug rendering.
  virtual std::string str() const = 0;

protected:
  Predicate() = default;
};

using PredicateRef = std::shared_ptr<const Predicate>;

/// The query predicate: wraps a boolean-sorted expression; box evaluation
/// is abstract interval evaluation. Expressions large enough to pay for
/// compilation (compile/CompiledEval.h) get a tape, compiled by this call,
/// and box probes run the tape instead of tree-walking. Build it once per
/// query and reuse it: every call compiles afresh.
PredicateRef exprPredicate(ExprRef E);

/// As above, but with a tape the caller already compiled. A null \p Tape
/// means tree-walk unconditionally — the differential oracle's path.
PredicateRef exprPredicate(ExprRef E, TapeRef Tape);

/// Constant predicate.
PredicateRef constPredicate(bool Value);

/// Kleene combinators.
PredicateRef notPredicate(PredicateRef A);
PredicateRef andPredicate(PredicateRef A, PredicateRef B);
PredicateRef orPredicate(PredicateRef A, PredicateRef B);

/// Membership in a single box: exact three-valued box evaluation.
PredicateRef inBoxPredicate(Box B);

/// Membership in a union of boxes (still exact on boxes: True when the
/// union covers the whole box, False when it misses it entirely).
PredicateRef inUnionPredicate(std::vector<Box> Boxes);

/// Membership in a PowerBox (includes minus excludes).
PredicateRef inPowerBoxPredicate(const PowerBox &P);

} // namespace anosy

#endif // ANOSY_SOLVER_PREDICATE_H
