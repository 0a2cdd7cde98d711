//===- solver/Decide.cpp - Branch-and-bound decision procedures -----------===//

#include "solver/Decide.h"

#include <vector>

using namespace anosy;

namespace {

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit permutation.
uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

/// Path code of the search root for a given salt.
uint64_t rootCode(uint64_t Salt) { return mix64(Salt ^ 0xa905a905ULL); }

/// Path code of a split child, chained from the parent's code.
uint64_t childCode(uint64_t Code, bool LeftChild) {
  return mix64(Code ^ (LeftChild ? 0x632be59bd9b4e019ULL
                                 : 0xe220a8397b1dcdafULL));
}

/// Which half of a salted ∃-split is explored first: a pure function of
/// (Salt, path code). Salt 0 always visits the left half first (plain
/// findWitness).
bool saltedLeftFirst(uint64_t Salt, uint64_t Code) {
  return Salt == 0 || (mix64(Code ^ Salt) & 1) == 0;
}

/// Builds the normalized split hints of \p P (solver/SplitHints.h).
SplitHints hintsOf(const Predicate &P) {
  SplitHints Hints;
  P.splitHints(Hints);
  normalizeSplitHints(Hints);
  return Hints;
}

/// The ∃-search. Which half of each split is explored first is
/// saltedLeftFirst(Salt, path code), so restarts with different salts
/// reach different witnesses.
ExistsResult findWitnessImpl(const Predicate &P, const Box &B, uint64_t Salt,
                             SolverBudget &Budget) {
  ExistsResult Result;
  if (B.isEmpty())
    return Result;

  const SplitHints Hints = hintsOf(P);
  struct Entry {
    Box B;
    uint64_t Code;
  };
  std::vector<Entry> Stack;
  Stack.push_back({B, rootCode(Salt)});
  while (!Stack.empty()) {
    if (!Budget.charge()) {
      Result.Exhausted = true;
      return Result;
    }
    Entry Cur = std::move(Stack.back());
    Stack.pop_back();

    Tribool T = P.evalBox(Cur.B);
    if (T == Tribool::False)
      continue;
    if (T == Tribool::True) {
      Result.Witness = Cur.B.center();
      return Result;
    }
    if (Cur.B.isUnit()) {
      Point Pt = Cur.B.center();
      if (P.evalPoint(Pt)) {
        Result.Witness = std::move(Pt);
        return Result;
      }
      continue;
    }
    auto [Left, Right] = splitWithHints(Cur.B, Hints);
    Entry L{std::move(Left), childCode(Cur.Code, true)};
    Entry R{std::move(Right), childCode(Cur.Code, false)};
    if (saltedLeftFirst(Salt, Cur.Code)) {
      Stack.push_back(std::move(R));
      Stack.push_back(std::move(L));
    } else {
      Stack.push_back(std::move(L));
      Stack.push_back(std::move(R));
    }
  }
  return Result;
}

} // namespace

ForallResult anosy::checkForall(const Predicate &P, const Box &B,
                                SolverBudget &Budget) {
  ForallResult Result;
  Result.Holds = true;
  if (B.isEmpty())
    return Result;

  const SplitHints Hints = hintsOf(P);
  std::vector<Box> Stack;
  Stack.push_back(B);
  while (!Stack.empty()) {
    if (!Budget.charge()) {
      Result.Exhausted = true;
      Result.Holds = false;
      return Result;
    }
    Box Cur = std::move(Stack.back());
    Stack.pop_back();

    Tribool T = P.evalBox(Cur);
    if (T == Tribool::True)
      continue;
    if (T == Tribool::False) {
      // No point of Cur satisfies P; its center is a counterexample.
      Result.Holds = false;
      Result.CounterExample = Cur.center();
      return Result;
    }
    if (Cur.isUnit()) {
      Point Pt = Cur.center();
      if (!P.evalPoint(Pt)) {
        Result.Holds = false;
        Result.CounterExample = std::move(Pt);
        return Result;
      }
      continue;
    }
    auto [Left, Right] = splitWithHints(Cur, Hints);
    Stack.push_back(std::move(Left));
    Stack.push_back(std::move(Right));
  }
  return Result;
}

ExistsResult anosy::findWitness(const Predicate &P, const Box &B,
                                SolverBudget &Budget) {
  return findWitnessImpl(P, B, /*Salt=*/0, Budget);
}

ExistsResult anosy::findWitnessDiverse(const Predicate &P, const Box &B,
                                       uint64_t SeedSalt,
                                       SolverBudget &Budget) {
  return findWitnessImpl(P, B, SeedSalt == 0 ? 1 : SeedSalt, Budget);
}
