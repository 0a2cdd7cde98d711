//===- domains/PowerBox.cpp - Powerset-of-intervals domain A_P ------------===//

#include "domains/PowerBox.h"

#include <algorithm>

using namespace anosy;

PowerBox::PowerBox(size_t Arity, std::vector<Box> InIncludes,
                   std::vector<Box> InExcludes)
    : Arity(Arity), Includes(std::move(InIncludes)),
      Excludes(std::move(InExcludes)) {
  for ([[maybe_unused]] const Box &B : Includes)
    assert(B.arity() == Arity && "include arity mismatch");
  for ([[maybe_unused]] const Box &B : Excludes)
    assert(B.arity() == Arity && "exclude arity mismatch");
  normalize();
}

PowerBox PowerBox::fromBox(const Box &B) {
  if (B.isEmpty())
    return PowerBox(B.arity());
  return PowerBox(B.arity(), {B}, {});
}

PowerBox PowerBox::top(const Schema &S) { return fromBox(Box::top(S)); }

PowerBox PowerBox::bottom(const Schema &S) { return PowerBox(S.arity()); }

bool PowerBox::member(const Point &P) const {
  for (const Box &E : Excludes)
    if (E.contains(P))
      return false;
  for (const Box &I : Includes)
    if (I.contains(P))
      return true;
  return false;
}

bool PowerBox::subsetOf(const PowerBox &O) const {
  assert(Arity == O.Arity && "arity mismatch");
  bool IsSubset = true;
  forEachCell({&Includes, &Excludes, &O.Includes, &O.Excludes}, Arity,
              [&IsSubset](const BigCount &, const std::vector<bool> &In) {
                bool InThis = In[0] && !In[1];
                bool InOther = In[2] && !In[3];
                if (InThis && !InOther) {
                  IsSubset = false;
                  return false;
                }
                return true;
              });
  return IsSubset;
}

bool PowerBox::subsetOfSyntactic(const PowerBox &O) const {
  assert(Arity == O.Arity && "arity mismatch");
  for (const Box &I : Includes) {
    bool Inside = false;
    for (const Box &OI : O.Includes)
      if (I.subsetOf(OI)) {
        Inside = true;
        break;
      }
    if (!Inside)
      return false;
  }
  // The §4.4 criterion additionally requires O's excludes to carve nothing
  // out of our includes.
  for (const Box &OE : O.Excludes)
    for (const Box &I : Includes) {
      Box Carved = OE.intersect(I);
      if (Carved.isEmpty())
        continue;
      // The carved region must already be excluded by us.
      if (!unionCovers(Excludes, Carved))
        return false;
    }
  return true;
}

PowerBox PowerBox::intersect(const PowerBox &O) const {
  assert(Arity == O.Arity && "arity mismatch");
  // Collect the pairwise meets (A-major: pruneForUnder breaks volume ties
  // on this order) in per-thread scratch that keeps its capacity, then
  // copy them out at exact size: one allocation instead of a doubling
  // series.
  thread_local std::vector<Box> Scratch;
  Scratch.clear();
  for (const Box &A : Includes)
    for (const Box &B : O.Includes)
      if (A.intersects(B))
        Scratch.push_back(A.intersect(B));
  std::vector<Box> NewIncludes(Scratch.begin(), Scratch.end());
  // Meets of two disjoint families are pairwise disjoint (any two of them
  // lie in disjoint boxes of one side), so none contains another and
  // normalize() would return them unchanged.
  if (Disjoint && O.Disjoint) {
    PowerBox Meet(Arity);
    Meet.Includes = std::move(NewIncludes);
    return Meet;
  }
  std::vector<Box> NewExcludes = Excludes;
  NewExcludes.insert(NewExcludes.end(), O.Excludes.begin(), O.Excludes.end());
  return PowerBox(Arity, std::move(NewIncludes), std::move(NewExcludes));
}

BigCount PowerBox::size() const {
  if (Disjoint)
    return sizeLinearEstimate(); // exact: no overlap, nothing excluded
  return differenceVolume(Includes, Excludes, Arity);
}

BigCount PowerBox::sizeLinearEstimate() const {
  BigCount Inc, Exc;
  for (const Box &B : Includes)
    Inc = Inc + B.volume();
  for (const Box &B : Excludes)
    Exc = Exc + B.volume();
  return Inc - Exc;
}

void PowerBox::normalize() {
  Includes = pruneSubsumed(std::move(Includes));
  // Keep only excludes that actually carve something out of an include.
  std::vector<Box> Kept;
  for (const Box &E : Excludes) {
    if (E.isEmpty())
      continue;
    bool Touches = false;
    for (const Box &I : Includes)
      if (E.intersects(I)) {
        Touches = true;
        break;
      }
    if (Touches)
      Kept.push_back(E);
  }
  Excludes = pruneSubsumed(std::move(Kept));
  // An include entirely inside the excluded region contributes nothing.
  if (!Excludes.empty()) {
    std::vector<Box> Live;
    for (Box &I : Includes)
      if (!unionCovers(Excludes, I))
        Live.push_back(std::move(I));
    Includes = std::move(Live);
  }
  Disjoint = Excludes.empty() && pairwiseDisjoint(Includes);
}

void PowerBox::pruneForUnder(size_t MaxBoxes) {
  assert(Excludes.empty() &&
         "pruneForUnder requires an exclude-free (under) PowerBox");
  if (Includes.size() <= MaxBoxes)
    return;
  // Keep the largest boxes: dropping includes only shrinks the set, which
  // is sound for an under-approximation.
  std::stable_sort(Includes.begin(), Includes.end(),
                   [](const Box &A, const Box &B) {
                     return B.volume() < A.volume();
                   });
  Includes.resize(MaxBoxes);
}

std::string PowerBox::str() const {
  std::string Out = "{";
  for (size_t I = 0, E = Includes.size(); I != E; ++I) {
    if (I != 0)
      Out += ", ";
    Out += Includes[I].str();
  }
  Out += "}";
  if (!Excludes.empty()) {
    Out += " \\ {";
    for (size_t I = 0, E = Excludes.size(); I != E; ++I) {
      if (I != 0)
        Out += ", ";
      Out += Excludes[I].str();
    }
    Out += "}";
  }
  return Out;
}
