//===- domains/BoxAlgebra.cpp - Exact region algebra over boxes -----------===//

#include "domains/BoxAlgebra.h"

#include <algorithm>

using namespace anosy;

namespace {

/// A box tagged with the index of the input list it came from.
struct Entry {
  const Box *B;
  unsigned List;
};

/// Recursive cell enumeration. \p Entries are the boxes whose projection
/// onto dimensions [0, D) fully covers the cell prefix chosen so far;
/// \p Prefix is that prefix's cardinality.
bool forEachCellRec(
    const std::vector<Entry> &Entries, size_t D, size_t Arity,
    const BigCount &Prefix, size_t NumLists,
    const std::function<bool(const BigCount &, const std::vector<bool> &)>
        &Callback) {
  if (D == Arity) {
    std::vector<bool> InList(NumLists, false);
    for (const Entry &E : Entries)
      InList[E.List] = true;
    return Callback(Prefix, InList);
  }

  // Breakpoints: interval starts and one-past-ends in dimension D. Schemas
  // admit Hi == INT64_MAX, whose one-past-end is 2^63: cuts are 128-bit,
  // and every slab [Cuts[i], Cuts[i+1] - 1] is back in int64 range.
  std::vector<__int128> Cuts;
  Cuts.reserve(Entries.size() * 2);
  for (const Entry &E : Entries) {
    const Interval &I = E.B->dim(D);
    Cuts.push_back(I.Lo);
    Cuts.push_back(static_cast<__int128>(I.Hi) + 1);
  }
  std::sort(Cuts.begin(), Cuts.end());
  Cuts.erase(std::unique(Cuts.begin(), Cuts.end()), Cuts.end());

  std::vector<Entry> Slab;
  for (size_t CI = 0; CI + 1 < Cuts.size(); ++CI) {
    int64_t Lo = static_cast<int64_t>(Cuts[CI]);
    int64_t Hi = static_cast<int64_t>(Cuts[CI + 1] - 1);
    Slab.clear();
    for (const Entry &E : Entries) {
      const Interval &I = E.B->dim(D);
      if (I.Lo <= Lo && Hi <= I.Hi)
        Slab.push_back(E);
    }
    if (Slab.empty())
      continue;
    BigCount SlabWidth = BigCount::ofInterval(Lo, Hi);
    if (!forEachCellRec(Slab, D + 1, Arity, Prefix * SlabWidth, NumLists,
                        Callback))
      return false;
  }
  return true;
}

} // namespace

void anosy::forEachCell(
    const std::vector<const std::vector<Box> *> &Lists, size_t Arity,
    const std::function<bool(const BigCount &, const std::vector<bool> &)>
        &Callback) {
  std::vector<Entry> Entries;
  for (unsigned L = 0, NL = static_cast<unsigned>(Lists.size()); L != NL; ++L)
    for (const Box &B : *Lists[L]) {
      assert((B.isEmpty() || B.arity() == Arity) && "arity mismatch");
      if (!B.isEmpty())
        Entries.push_back({&B, L});
    }
  forEachCellRec(Entries, 0, Arity, BigCount(1), Lists.size(), Callback);
}

BigCount anosy::unionVolume(const std::vector<Box> &Boxes, size_t Arity) {
  BigCount Total;
  forEachCell({&Boxes}, Arity,
              [&Total](const BigCount &V, const std::vector<bool> &In) {
                if (In[0])
                  Total = Total + V;
                return true;
              });
  return Total;
}

BigCount anosy::differenceVolume(const std::vector<Box> &A,
                                 const std::vector<Box> &B, size_t Arity) {
  BigCount Total;
  forEachCell({&A, &B}, Arity,
              [&Total](const BigCount &V, const std::vector<bool> &In) {
                if (In[0] && !In[1])
                  Total = Total + V;
                return true;
              });
  return Total;
}

bool anosy::unionCovers(const std::vector<Box> &Cover, const Box &Target) {
  if (Target.isEmpty())
    return true;
  std::vector<Box> T{Target};
  bool Covered = true;
  forEachCell({&T, &Cover}, Target.arity(),
              [&Covered](const BigCount &, const std::vector<bool> &In) {
                if (In[0] && !In[1]) {
                  Covered = false;
                  return false;
                }
                return true;
              });
  return Covered;
}

std::vector<Box> anosy::pruneSubsumed(std::vector<Box> Boxes) {
  std::vector<Box> Kept;
  for (size_t I = 0, E = Boxes.size(); I != E; ++I) {
    const Box &B = Boxes[I];
    if (B.isEmpty())
      continue;
    bool Subsumed = false;
    for (size_t J = 0; J != E && !Subsumed; ++J) {
      if (I == J)
        continue;
      // Break ties by index so exact duplicates keep one representative.
      if (B.subsetOf(Boxes[J]) && !(Boxes[J] == B && J > I))
        Subsumed = true;
    }
    if (!Subsumed)
      Kept.push_back(B);
  }
  return Kept;
}

bool anosy::pairwiseDisjoint(const std::vector<Box> &Boxes) {
  for (size_t I = 0, E = Boxes.size(); I != E; ++I)
    for (size_t J = I + 1; J != E; ++J)
      if (Boxes[I].intersects(Boxes[J]))
        return false;
  return true;
}
