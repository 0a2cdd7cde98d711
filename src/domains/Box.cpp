//===- domains/Box.cpp - The interval abstract domain A_I -----------------===//

#include "domains/Box.h"

using namespace anosy;

Box Box::withArity(size_t Arity) {
  assert(Arity <= UINT32_MAX && "arity out of range");
  Box B;
  if (Arity > InlineDims)
    B.Heap = new Interval[Arity];
  B.N = static_cast<uint32_t>(Arity);
  return B;
}

void Box::canonicalize() {
  Interval *D = data();
  Empty = N == 0;
  for (uint32_t I = 0; I != N; ++I)
    Empty |= D[I].isEmpty();
  if (Empty)
    std::fill_n(D, N, Interval::empty());
}

Box::Box(std::vector<Interval> InDims) : Box(withArity(InDims.size())) {
  std::copy(InDims.begin(), InDims.end(), data());
  canonicalize();
}

Box Box::top(const Schema &S) {
  Box B = withArity(S.arity());
  Interval *D = B.data();
  for (const Field &F : S.fields())
    *D++ = {F.Lo, F.Hi};
  B.canonicalize();
  return B;
}

Box Box::bottom(size_t Arity) {
  assert(Arity > 0 && "secrets have at least one field");
  Box B = withArity(Arity);
  std::fill_n(B.data(), Arity, Interval::empty());
  return B;
}

Box Box::point(const Point &P) {
  Box B = withArity(P.size());
  Interval *D = B.data();
  for (int64_t V : P)
    *D++ = Interval::point(V);
  B.canonicalize();
  return B;
}

Box Box::withDim(size_t I, Interval NewDim) const {
  assert(I < N && "dimension out of range");
  Box B = *this;
  B.data()[I] = NewDim;
  B.canonicalize();
  return B;
}

bool Box::contains(const Point &P) const {
  if (Empty || P.size() != N)
    return false;
  const Interval *D = data();
  for (uint32_t I = 0; I != N; ++I)
    if (!D[I].contains(P[I]))
      return false;
  return true;
}

bool Box::subsetOf(const Box &O) const {
  if (Empty)
    return true;
  if (O.Empty || O.N != N)
    return false;
  const Interval *A = data(), *B = O.data();
  for (uint32_t I = 0; I != N; ++I)
    if (!A[I].subsetOf(B[I]))
      return false;
  return true;
}

Box Box::intersect(const Box &O) const {
  assert(N == O.N && "arity mismatch");
  if (Empty || O.Empty)
    return bottom(N);
  Box R = withArity(N);
  const Interval *A = data(), *B = O.data();
  Interval *D = R.data();
  for (uint32_t I = 0; I != N; ++I)
    D[I] = A[I].intersect(B[I]);
  R.canonicalize();
  return R;
}

Box Box::hull(const Box &O) const {
  assert(N == O.N && "arity mismatch");
  if (Empty)
    return O;
  if (O.Empty)
    return *this;
  Box R = withArity(N);
  const Interval *A = data(), *B = O.data();
  Interval *D = R.data();
  for (uint32_t I = 0; I != N; ++I)
    D[I] = A[I].hull(B[I]);
  R.canonicalize();
  return R;
}

BigCount Box::volume() const {
  if (Empty)
    return BigCount();
  BigCount V(1);
  const Interval *D = data();
  for (uint32_t I = 0; I != N; ++I)
    V = V * D[I].width();
  return V;
}

bool Box::isUnit() const {
  if (Empty)
    return false;
  const Interval *D = data();
  for (uint32_t I = 0; I != N; ++I)
    if (D[I].Lo != D[I].Hi)
      return false;
  return true;
}

Point Box::center() const {
  assert(!Empty && "center of empty box");
  Point P;
  P.reserve(N);
  const Interval *D = data();
  for (uint32_t I = 0; I != N; ++I)
    P.push_back(D[I].midpoint());
  return P;
}

size_t Box::widestDim() const {
  assert(!Empty && "widestDim of empty box");
  const Interval *D = data();
  size_t Best = 0;
  BigCount BestWidth = D[0].width();
  for (uint32_t I = 1; I != N; ++I) {
    BigCount W = D[I].width();
    if (BestWidth < W) {
      Best = I;
      BestWidth = W;
    }
  }
  return Best;
}

std::pair<Box, Box> Box::splitAt(size_t Dim) const {
  assert(!Empty && "splitting empty box");
  const Interval &I = dim(Dim);
  assert(I.Lo < I.Hi && "splitting a unit dimension");
  int64_t Mid = I.midpoint();
  return {withDim(Dim, {I.Lo, Mid}), withDim(Dim, {Mid + 1, I.Hi})};
}

bool Box::operator==(const Box &O) const {
  if (N != O.N)
    return false;
  if (Empty && O.Empty)
    return true;
  if (Empty != O.Empty)
    return false;
  const Interval *A = data(), *B = O.data();
  for (uint32_t I = 0; I != N; ++I)
    if (A[I] != B[I])
      return false;
  return true;
}

std::string Box::str() const {
  if (Empty)
    return "<empty/" + std::to_string(N) + ">";
  std::string Out;
  const Interval *D = data();
  for (uint32_t I = 0; I != N; ++I) {
    if (I != 0)
      Out += " x ";
    Out += D[I].str();
  }
  return Out;
}
