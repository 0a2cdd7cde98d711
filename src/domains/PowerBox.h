//===- domains/PowerBox.h - Powerset-of-intervals domain A_P ----*- C++ -*-===//
//
// Part of anosy-cpp (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's powerset-of-intervals abstract domain A_P (§4.4). A PowerBox
/// represents the secret set  (∪ Includes) \ (∪ Excludes): the include list
/// is the paper's dom_i, the exclude list its dom_o. This two-list
/// representation lets synthesis add coarse regions and carve exceptions
/// out of them, which is exactly how ITERSYNTH (Algorithm 1) builds
/// over-approximations.
///
/// Every PowerBox records whether it is a *disjoint family*: pairwise
/// disjoint includes and no excludes. The list constructor decides it after
/// normalization, so synthesis, KB load and cache load establish it with no
/// help from the caller. ITERSYNTH's under-approximations are disjoint
/// families, ⊤ is one box, and the meet of two disjoint families is again
/// one, so every posterior a tracker stores is disjoint. On such families
/// the meet is the paper's pairwise intersection with nothing else to do,
/// and the paper's Σ|includes| size is exact.
///
/// Deviations from the paper, both deliberate (see DESIGN.md §4):
/// * `size()` is the exact cardinality of the represented set. On a
///   disjoint family that is Σ|includes|; otherwise (overlapping includes
///   or excludes, as in over-approximations or hand-written KBs) it comes
///   from the BoxAlgebra cell decomposition. The paper's sum-of-includes
///   minus sum-of-excludes shortcut is kept as `sizeLinearEstimate()`.
/// * `subsetOf` is exact; the paper's sound-but-incomplete syntactic
///   criterion is kept as `subsetOfSyntactic()`.
///
//===----------------------------------------------------------------------===//

#ifndef ANOSY_DOMAINS_POWERBOX_H
#define ANOSY_DOMAINS_POWERBOX_H

#include "domains/Box.h"
#include "domains/BoxAlgebra.h"

#include <string>
#include <vector>

namespace anosy {

/// A finite union-minus-union of boxes over one secret schema.
class PowerBox {
public:
  /// Placeholder empty set (0-ary); reassign before use.
  PowerBox() : Arity(0) {}

  /// The empty set over an \p Arity-field secret.
  explicit PowerBox(size_t Arity) : Arity(Arity) {}

  /// The set (∪Includes) \ (∪Excludes).
  PowerBox(size_t Arity, std::vector<Box> Includes, std::vector<Box> Excludes);

  /// The set represented by a single box.
  static PowerBox fromBox(const Box &B);

  /// Full domain of \p S (single include box covering the schema).
  static PowerBox top(const Schema &S);

  /// Empty domain over \p S's arity.
  static PowerBox bottom(const Schema &S);

  size_t arity() const { return Arity; }
  const std::vector<Box> &includes() const { return Includes; }
  const std::vector<Box> &excludes() const { return Excludes; }

  /// True for a disjoint family: pairwise disjoint includes, no excludes.
  bool disjoint() const { return Disjoint; }

  bool member(const Point &P) const;

  /// Exact subset test on the represented sets.
  bool subsetOf(const PowerBox &O) const;

  /// The paper's §4.4 criterion: every include of *this is inside some
  /// include of \p O and no exclude of *this is inside an exclude of \p O.
  /// Sound when it answers true; may answer false for actual subsets.
  bool subsetOfSyntactic(const PowerBox &O) const;

  /// Intersection: the non-empty pairwise include intersections, in order
  /// (§4.4). When both sides are disjoint families that list is the result
  /// as it stands, itself a disjoint family. Otherwise the excludes are
  /// unioned and the result normalized.
  PowerBox intersect(const PowerBox &O) const;

  /// Exact cardinality of the represented set: Σ|includes| on a disjoint
  /// family, the cell decomposition otherwise.
  BigCount size() const;

  /// The paper's Σ|includes| − Σ|excludes| estimate (exact only when the
  /// includes are pairwise disjoint and the excludes tile inside them).
  BigCount sizeLinearEstimate() const;

  bool isEmptySet() const { return size().isZero(); }

  /// Drops empty/subsumed includes and excludes that miss every include,
  /// then records whether the result is a disjoint family. Preserves the
  /// represented set exactly.
  void normalize();

  /// Sound *shrinking* for under-approximation use: keeps at most
  /// \p MaxBoxes include boxes (largest volumes first). The represented
  /// set only loses points, so any under-approximation stays one. This is
  /// the pressure valve for the k1*k2 include growth of repeated
  /// intersections that §6.2 describes. Requires an exclude-free PowerBox
  /// (which is what under-approximations synthesized by ITERSYNTH are).
  /// A disjoint family stays one.
  void pruneForUnder(size_t MaxBoxes);

  bool operator==(const PowerBox &O) const {
    return subsetOf(O) && O.subsetOf(*this);
  }

  /// Renders "{inc1, inc2, ...} \ {exc1, ...}".
  std::string str() const;

private:
  size_t Arity;
  std::vector<Box> Includes;
  std::vector<Box> Excludes;
  bool Disjoint = true; ///< See disjoint(); the empty set is one.
};

} // namespace anosy

#endif // ANOSY_DOMAINS_POWERBOX_H
