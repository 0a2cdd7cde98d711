//===- verify/RefinementChecker.h - Fig. 4 obligation checking --*- C++ -*-===//
//
// Part of anosy-cpp (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Machine-checking of the Fig. 4 refinement specifications — the stand-in
/// for Liquid Haskell's verification step (§2.3 step IV). For a query q
/// over a bounded secret space, the checker discharges, exactly:
///
///   under_indset : ∀x ∈ dT. q x            and  ∀x ∈ dF. ¬q x
///   over_indset  : ∀x. q x ⇒ x ∈ dT        and  ∀x. ¬q x ⇒ x ∈ dF
///   underapprox  : ∀x ∈ postT. q x ∧ x ∈ p and  ∀x ∈ postF. ¬q x ∧ x ∈ p
///   overapprox   : ∀x. (q x ∧ x ∈ p) ⇒ x ∈ postT   (dually for postF)
///
/// plus the Fig. 3 intersection refinement (the result of ∩ is a subset of
/// both arguments). All checks run over both the interval and the powerset
/// domain through DomainTraits.
///
//===----------------------------------------------------------------------===//

#ifndef ANOSY_VERIFY_REFINEMENTCHECKER_H
#define ANOSY_VERIFY_REFINEMENTCHECKER_H

#include "domains/AbstractDomain.h"
#include "solver/Decide.h"
#include "synth/Synthesizer.h"
#include "verify/Certificate.h"

namespace anosy {

/// Checks synthesized (or hand-written) knowledge artifacts for one query.
///
/// Failure domains (DESIGN.md §6): each obligation gets its own
/// MaxSolverNodes-sized budget, optionally chained to \p SessionBudget
/// (the per-session cumulative cap) and bounded by \p DeadlineMs of wall
/// clock. A budget that runs out yields an *undecided* certificate — no
/// counterexample, Exhausted set — which callers must not confuse with a
/// refutation (Certificate::undecided vs Certificate::refuted).
class RefinementChecker {
public:
  RefinementChecker(const Schema &S, ExprRef Query,
                    uint64_t MaxSolverNodes = 200'000'000,
                    SolverBudget *SessionBudget = nullptr,
                    uint64_t DeadlineMs = 0);

  /// Checks an ind. set pair against its Fig. 4 spec.
  template <AbstractDomain D>
  CertificateBundle checkIndSets(const IndSets<D> &Sets,
                                 ApproxKind Kind) const;

  /// Checks a posterior pair (approx applied to \p Prior) against the
  /// Fig. 4 underapprox/overapprox spec.
  template <AbstractDomain D>
  CertificateBundle checkPosterior(const D &Prior, const D &PostTrue,
                                   const D &PostFalse, ApproxKind Kind) const;

  /// Nodes used by all checks so far (verification cost metric).
  uint64_t solverNodesUsed() const { return NodesUsed; }

private:
  /// Builds "x ∈ D" as a solver predicate.
  template <AbstractDomain D> static PredicateRef memberPredicate(const D &Dom);

  Certificate checkForallObligation(const std::string &Obligation,
                                    const PredicateRef &P,
                                    const Box &Over) const;

  Schema S;
  Box Bounds;
  uint64_t MaxSolverNodes;
  SolverBudget *SessionBudget;
  uint64_t DeadlineMs;
  /// The query as a solver predicate, built (and its tape compiled) once
  /// at construction; every obligation's predicates share it.
  PredicateRef QueryPred;
  mutable uint64_t NodesUsed = 0;
};

} // namespace anosy

#endif // ANOSY_VERIFY_REFINEMENTCHECKER_H
