//===- analysis/IntervalRefiner.h - NNF branch-posterior refiner -*- C++ -*-===//
//
// Part of anosy-cpp (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static analyzer's abstract interpreter (DESIGN.md §7): an HC4-style
/// forward/backward interval narrower specialized to NNF query ASTs. Given
/// a public prior box it computes a *sound over-approximation* of each
/// answer branch's posterior — the box of secrets that may answer
/// True (resp. False) — without ever consulting a secret or a solver.
///
/// The refiner differs from the baselines/AbstractInterpreter engine in
/// three ways that matter for admission decisions:
///
///  * it only accepts NNF input (no `==>`, no `!` above an atom), so every
///    connective transfer is either a meet (∧) or a join of refined
///    branches (∨) — the transfer table in DESIGN.md §7 is exactly the
///    implementation;
///  * conjunctions iterate their children to a local fixpoint before the
///    outer rounds run, which propagates x-narrowing into y-atoms of the
///    same conjunction at no extra traversals;
///  * disjunctive arithmetic (abs bands, min/max one-sided constraints,
///    int-ite) is refined per branch and hulled, instead of giving the
///    hull of the target band up front — strictly tighter when one branch
///    is infeasible (e.g. |x| ∈ [5,10] over x ∈ [0,20] refines to [5,10],
///    not [0,10]).
///
/// Soundness invariant (the only contract the analyzer relies on): for
/// every x ∈ Prior with ⟦E⟧(x) = true, x is in refine(E, Prior). The
/// refiner never decides anything by itself; emptiness or small volume of
/// the *over*-approximation is what licenses the analyzer's verdicts.
///
//===----------------------------------------------------------------------===//

#ifndef ANOSY_ANALYSIS_INTERVALREFINER_H
#define ANOSY_ANALYSIS_INTERVALREFINER_H

#include "domains/Box.h"
#include "expr/Expr.h"

namespace anosy {

/// Sound branch-posterior refinement over NNF query expressions.
class IntervalRefiner {
public:
  /// Over-approximation of {x ∈ Prior | ⟦E⟧(x) = true} for the NNF
  /// boolean-sorted \p E. Empty result proves the branch unsatisfiable
  /// over the prior.
  Box refine(const Expr &E, const Box &Prior) const;

private:
  Box refineOnce(const Expr &E, Box B) const;
  Box narrowCmp(CmpOp Op, const Expr &A, const Expr &C, Box B) const;
  Box narrowInt(const Expr &E, Interval Target, Box B) const;
};

/// One query body in the form every analysis pass reads: simplified once,
/// then put in NNF once per answer branch.
struct NormalizedQuery {
  ExprRef True;  ///< NNF of the simplified body.
  ExprRef False; ///< NNF of the simplified body's negation.
};

/// Normalizes \p Query, any boolean-sorted expression of the §5.1
/// fragment.
NormalizedQuery normalizeQuery(const ExprRef &Query);

/// Both branch posteriors of one query over the public prior. The boxes
/// over-approximate {x | q(x)} ∩ Prior and {x | ¬q(x)} ∩ Prior.
struct BranchPosteriors {
  Box TruePosterior;
  Box FalsePosterior;
};

/// Refines both answer branches of \p Q over \p Prior: the box tier of
/// the leakage analyzer and the step of its sequence pass.
BranchPosteriors branchPosteriors(const NormalizedQuery &Q, const Box &Prior);

} // namespace anosy

#endif // ANOSY_ANALYSIS_INTERVALREFINER_H
