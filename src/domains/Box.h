//===- domains/Box.h - The interval abstract domain A_I ---------*- C++ -*-===//
//
// Part of anosy-cpp (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's interval abstract domain A_I (§4.3): an n-dimensional product
/// of integer intervals abstracting a secret with n fields. A Box is empty
/// iff any dimension is empty (empties canonicalize so that equality is
/// structural). The paper's ⊤_I / ⊥_I constructors correspond to
/// Box::top(Schema) and Box::bottom(Arity).
///
/// The Liquid Haskell `pos`/`neg` proof terms attached to A_I in the paper
/// have no typing counterpart here; the obligations they discharge are
/// checked by anosy/verify instead (see DESIGN.md §1).
///
//===----------------------------------------------------------------------===//

#ifndef ANOSY_DOMAINS_BOX_H
#define ANOSY_DOMAINS_BOX_H

#include "domains/Interval.h"
#include "expr/Schema.h"

#include <string>
#include <vector>

namespace anosy {

/// An n-dimensional box of secrets (product of integer intervals).
class Box {
public:
  Box() = default;

  /// Box with the given per-dimension intervals; canonicalizes empties.
  explicit Box(std::vector<Interval> Dims);

  /// The full domain of \p S (the paper's ⊤_I for that secret type).
  static Box top(const Schema &S);

  /// The empty domain with \p Arity dimensions (the paper's ⊥_I).
  static Box bottom(size_t Arity);

  /// Smallest box containing the single point \p P.
  static Box point(const Point &P);

  size_t arity() const { return Dims.size(); }
  bool isEmpty() const { return Empty; }

  const Interval &dim(size_t I) const {
    assert(I < Dims.size() && "dimension out of range");
    return Dims[I];
  }
  const std::vector<Interval> &dims() const { return Dims; }

  /// Returns a copy with dimension \p I replaced by \p NewDim.
  Box withDim(size_t I, Interval NewDim) const;

  bool contains(const Point &P) const;
  bool subsetOf(const Box &O) const;
  Box intersect(const Box &O) const;

  /// Convex hull (smallest box containing both).
  Box hull(const Box &O) const;

  /// True when the boxes share at least one point: a per-dimension overlap
  /// test that builds no box (same answer as !intersect(O).isEmpty()).
  bool intersects(const Box &O) const {
    assert(Dims.size() == O.Dims.size() && "arity mismatch");
    if (Empty || O.Empty)
      return false;
    for (size_t I = 0, E = Dims.size(); I != E; ++I)
      if (Dims[I].Hi < O.Dims[I].Lo || O.Dims[I].Hi < Dims[I].Lo)
        return false;
    return true;
  }

  /// Number of secrets in the box (its volume); 0 for empty boxes.
  BigCount volume() const;

  /// True when the box contains exactly one point.
  bool isUnit() const;

  /// The center point (any representative); box must be non-empty.
  Point center() const;

  /// Index of the widest dimension; box must be non-empty.
  size_t widestDim() const;

  /// Splits the box in half along \p Dim into two non-empty halves;
  /// requires that dimension to have width >= 2.
  std::pair<Box, Box> splitAt(size_t Dim) const;

  bool operator==(const Box &O) const;
  bool operator!=(const Box &O) const { return !(*this == O); }

  /// Renders "[a,b] x [c,d]" or "<empty/n>".
  std::string str() const;

private:
  std::vector<Interval> Dims;
  bool Empty = true; ///< Default-constructed boxes are 0-ary and empty.
};

} // namespace anosy

#endif // ANOSY_DOMAINS_BOX_H
