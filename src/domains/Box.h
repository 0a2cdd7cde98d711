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

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

namespace anosy {

/// An n-dimensional box of secrets (product of integer intervals).
///
/// Boxes of up to InlineDims fields keep their intervals in place, so
/// copying, meeting or splitting them never allocates; wider boxes own one
/// heap array. A moved-from box is the 0-ary empty box.
class Box {
public:
  Box() = default;

  /// Box with the given per-dimension intervals; canonicalizes empties.
  explicit Box(std::vector<Interval> Dims);

  Box(const Box &O) : N(O.N), Empty(O.Empty) {
    if (N > InlineDims)
      Heap = new Interval[N];
    std::copy_n(O.data(), N, data());
  }
  Box(Box &&O) noexcept : N(O.N), Empty(O.Empty) {
    takeStorage(O);
  }
  Box &operator=(const Box &O) {
    if (this != &O)
      *this = Box(O);
    return *this;
  }
  Box &operator=(Box &&O) noexcept {
    if (this == &O)
      return *this;
    release();
    N = O.N;
    Empty = O.Empty;
    takeStorage(O);
    return *this;
  }
  ~Box() { release(); }

  /// The full domain of \p S (the paper's ⊤_I for that secret type).
  static Box top(const Schema &S);

  /// The empty domain with \p Arity dimensions (the paper's ⊥_I).
  static Box bottom(size_t Arity);

  /// Smallest box containing the single point \p P.
  static Box point(const Point &P);

  size_t arity() const { return N; }
  bool isEmpty() const { return Empty; }

  const Interval &dim(size_t I) const {
    assert(I < N && "dimension out of range");
    return data()[I];
  }

  /// Returns a copy with dimension \p I replaced by \p NewDim.
  Box withDim(size_t I, Interval NewDim) const;

  bool contains(const Point &P) const;
  bool subsetOf(const Box &O) const;
  Box intersect(const Box &O) const;

  /// Convex hull (smallest box containing both).
  Box hull(const Box &O) const;

  /// True when the boxes share at least one point: a branch-free
  /// per-dimension overlap test that builds no box (same answer as
  /// !intersect(O).isEmpty()).
  bool intersects(const Box &O) const {
    assert(N == O.N && "arity mismatch");
    const Interval *A = data(), *B = O.data();
    bool Overlap = !Empty & !O.Empty;
    for (uint32_t I = 0; I != N; ++I)
      Overlap &= (A[I].Lo <= B[I].Hi) & (B[I].Lo <= A[I].Hi);
    return Overlap;
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
  /// Fields stored in place: every §2 and §6.2 secret and B1 have two.
  /// A third slot would grow every box from 40 to 56 bytes, and with it
  /// every include of every posterior a tracker stores.
  static constexpr uint32_t InlineDims = 2;

  /// A box of \p Arity dimensions whose intervals the caller fills in
  /// before calling canonicalize().
  static Box withArity(size_t Arity);

  /// Recomputes Empty from the intervals; an empty box gets canonical
  /// empty intervals, so equality stays structural.
  void canonicalize();

  Interval *data() { return N > InlineDims ? Heap : Inline; }
  const Interval *data() const { return N > InlineDims ? Heap : Inline; }

  void release() {
    if (N > InlineDims)
      delete[] Heap;
  }

  /// Takes \p O's intervals (or its heap array) into this box, whose N
  /// already equals O.N and which owns no heap array, and leaves \p O the
  /// 0-ary empty box.
  void takeStorage(Box &O) {
    std::memcpy(static_cast<void *>(Inline), O.Inline, sizeof(Inline));
    O.N = 0;
    O.Empty = true;
  }

  union {
    Interval Inline[InlineDims];
    Interval *Heap;
  };
  uint32_t N = 0;
  bool Empty = true; ///< Default-constructed boxes are 0-ary and empty.
};

} // namespace anosy

#endif // ANOSY_DOMAINS_BOX_H
