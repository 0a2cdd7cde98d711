//===- analysis/OctagonRefiner.h - Relational branch refiner ----*- C++ -*-===//
//
// Part of anosy-cpp (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The relational escalation tier of the static analyzer (DESIGN.md §7):
/// an octagon-domain refiner that extends the interval refiner's HC4
/// narrowing with relational transfer functions for `abs`, `+`, `-` and
/// comparison atoms. Where the interval refiner can only keep the bounding
/// box of `|x-a| + |y-b| <= r`, this refiner keeps the Manhattan ball
/// itself — the four ±x±y half-planes are exactly the atoms of the
/// octagon domain.
///
/// Per comparison atom the refiner normalizes both sides into
///     Σ aᵢ·|linᵢ| + Σ b_f·x_f + c  ⋈  0
/// and expands the absolute values by sign: a *positive*-coefficient
/// |t| on the ≤-side expands conjunctively over both signs of t (|x-a| +
/// |y-b| ≤ r becomes exactly its four half-planes), a *negative* one
/// disjunctively (refine per sign and join). Expanded half-planes whose
/// per-field coefficients are in {−1, 0, +1} with at most two non-zero
/// fields become octagon constraints; anything else is soundly skipped,
/// so the refiner degrades to a no-op — never below the box information
/// it starts from.
///
/// Soundness invariant (same single contract as the interval refiner):
/// every x in the input octagon with ⟦E⟧(x) = true is in refine(E, ·).
///
/// `relationalBranchPosteriors` is the reduced-product entry point the
/// leakage analyzer escalates to: it starts from the box tier's branch
/// posteriors, and box and octagon then narrow each other; it also
/// gives a per-branch integer cardinality upper bound.
///
//===----------------------------------------------------------------------===//

#ifndef ANOSY_ANALYSIS_OCTAGONREFINER_H
#define ANOSY_ANALYSIS_OCTAGONREFINER_H

#include "analysis/IntervalRefiner.h"
#include "domains/Octagon.h"

namespace anosy {

/// Sound branch-posterior refinement over NNF queries, octagon domain.
class OctagonRefiner {
public:
  /// Over-approximation of {x ∈ Prior | ⟦E⟧(x) = true} for NNF \p E.
  /// The result is closed; empty proves the branch unsatisfiable.
  Octagon refine(const Expr &E, const Octagon &Prior) const;

private:
  Octagon refineOnce(const Expr &E, Octagon O) const;
  Octagon refineCmp(CmpOp Op, const Expr &A, const Expr &B, Octagon O) const;
};

/// One branch of the reduced product box ⊓ octagon.
struct RelationalBranch {
  Box BoxPosterior;     ///< Product-reduced box (⊆ the box-only result).
  Octagon OctPosterior; ///< Closed octagon over-approximation.
  BigCount CardBound;   ///< Upper bound on the branch's secret count.
};

/// Both branch posteriors of one query under the reduced product.
struct RelationalPosteriors {
  RelationalBranch True;
  RelationalBranch False;
};

/// Escalation-tier entry point. \p BoxTier is branchPosteriors(Q, Prior):
/// each branch's octagon is seeded from that box, refined relationally,
/// and reduced against the box (each domain narrows the other). Every
/// secret of Prior satisfying (resp. falsifying) the query stays inside
/// the corresponding branch's box AND octagon.
RelationalPosteriors
relationalBranchPosteriors(const NormalizedQuery &Q,
                           const BranchPosteriors &BoxTier);

} // namespace anosy

#endif // ANOSY_ANALYSIS_OCTAGONREFINER_H
