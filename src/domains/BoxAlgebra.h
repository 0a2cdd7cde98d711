//===- domains/BoxAlgebra.h - Exact region algebra over boxes ---*- C++ -*-===//
//
// Part of anosy-cpp (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exact measures of unions and differences of n-dimensional boxes via
/// recursive coordinate compression. This is what makes PowerBox sizes
/// *exact set cardinalities* (|∪includes \ ∪excludes|) instead of the
/// paper's sum-minus-sum estimate, which miscounts under overlap — and
/// exactness is what the policy-soundness argument of §3 needs.
///
/// The decomposition enumerates only cells induced by the boxes' own
/// endpoints, so cost is O(∏_d (2k_d+1)) in the number of distinct
/// endpoints per dimension, independent of the (possibly astronomically
/// large) coordinate ranges.
///
//===----------------------------------------------------------------------===//

#ifndef ANOSY_DOMAINS_BOXALGEBRA_H
#define ANOSY_DOMAINS_BOXALGEBRA_H

#include "domains/Box.h"

#include <functional>
#include <vector>

namespace anosy {

/// Enumerates the canonical cell decomposition induced by several box
/// lists. For every non-empty cell of the arrangement, \p Callback receives
/// the cell's cardinality and, per input list, whether the cell lies inside
/// that list's union. Return false from the callback to stop early.
/// All boxes must share the same arity; empty boxes are ignored.
void forEachCell(
    const std::vector<const std::vector<Box> *> &Lists, size_t Arity,
    const std::function<bool(const BigCount &CellVolume,
                             const std::vector<bool> &InList)> &Callback);

/// Cardinality of ∪Boxes.
BigCount unionVolume(const std::vector<Box> &Boxes, size_t Arity);

/// Cardinality of ∪A \ ∪B.
BigCount differenceVolume(const std::vector<Box> &A,
                          const std::vector<Box> &B, size_t Arity);

/// True when Target ⊆ ∪Cover.
bool unionCovers(const std::vector<Box> &Cover, const Box &Target);

/// Drops empty boxes and boxes contained in another box of the list.
/// Preserves the union exactly.
std::vector<Box> pruneSubsumed(std::vector<Box> Boxes);

/// True when no two boxes of \p Boxes share a point.
bool pairwiseDisjoint(const std::vector<Box> &Boxes);

} // namespace anosy

#endif // ANOSY_DOMAINS_BOXALGEBRA_H
