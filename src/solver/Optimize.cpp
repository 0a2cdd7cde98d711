//===- solver/Optimize.cpp - Box optimization procedures -------------------===//

#include "solver/Optimize.h"

#include "support/Rng.h"

#include <algorithm>

using namespace anosy;

const char *anosy::growObjectiveName(GrowObjective Obj) {
  switch (Obj) {
  case GrowObjective::Volume:
    return "volume";
  case GrowObjective::Balanced:
    return "balanced";
  case GrowObjective::ParetoWidth:
    return "pareto-width";
  }
  return "?";
}

namespace {

/// min(2 * X, Cap) for 0 < X <= Cap, without overflow.
int64_t doubledUpTo(int64_t X, int64_t Cap) {
  return X <= Cap / 2 ? X * 2 : Cap;
}

/// ceil((Lo + Hi) / 2) for Lo <= Hi, computed in uint64 like
/// Interval::midpoint(): exact on every interval, full range included.
int64_t upperMidpoint(int64_t Lo, int64_t Hi) {
  uint64_t Diff = static_cast<uint64_t>(Hi) - static_cast<uint64_t>(Lo);
  return static_cast<int64_t>(static_cast<uint64_t>(Lo) + Diff / 2 +
                              (Diff & 1));
}

/// Largest extension of \p Cur's dimension \p D by a slab on side \p Upper
/// that keeps every new point valid. Returns the new interval for D.
/// Uses exponential probing then binary refinement; each probe checks only
/// the *new* slab (the current box is already valid, and validity of a
/// slab is antitone in its size). On fields wider than 2^63 the room past
/// a face can exceed INT64_MAX; it is capped there, so every step and
/// every slab face stays in int64 range, and a later round extends on.
Interval extendSide(const Predicate &Valid, const Box &Cur, size_t D,
                    bool Upper, const Interval &Limit, int64_t MaxStep,
                    SolverBudget &Budget, bool &Exhausted) {
  const Interval &CurD = Cur.dim(D);
  __int128 Gap = Upper ? static_cast<__int128>(Limit.Hi) - CurD.Hi
                       : static_cast<__int128>(CurD.Lo) - Limit.Lo;
  if (Gap <= 0)
    return CurD;
  int64_t Room = Gap > INT64_MAX ? INT64_MAX : static_cast<int64_t>(Gap);
  if (MaxStep > 0)
    Room = std::min(Room, MaxStep);

  auto SlabValid = [&](int64_t Steps) {
    Interval SlabD = Upper ? Interval{CurD.Hi + 1, CurD.Hi + Steps}
                           : Interval{CurD.Lo - Steps, CurD.Lo - 1};
    ForallResult R = checkForall(Valid, Cur.withDim(D, SlabD), Budget);
    if (R.Exhausted)
      Exhausted = true;
    return R.Holds;
  };

  // Exponential probe: find the largest power-of-two-ish step that works.
  int64_t Good = 0;
  int64_t Probe = 1;
  while (Probe <= Room && !Exhausted && SlabValid(Probe)) {
    Good = Probe;
    if (Probe == Room)
      break;
    Probe = doubledUpTo(Probe, Room);
  }
  if (Good == 0)
    return CurD;
  // Binary refinement in (Good, min(2*Good, Room)].
  int64_t Lo = Good, Hi = doubledUpTo(Good, Room);
  while (Lo < Hi && !Exhausted) {
    int64_t Mid = upperMidpoint(Lo, Hi);
    if (SlabValid(Mid))
      Lo = Mid;
    else
      Hi = Mid - 1;
  }
  return Upper ? Interval{CurD.Lo, CurD.Hi + Lo}
               : Interval{CurD.Lo - Lo, CurD.Hi};
}

/// Grows one maximal box from \p SeedPoint. \p Capped selects the balanced
/// schedule (per-round extension capped at the current width) versus full
/// greedy per-dimension extension.
Box growFrom(const Predicate &Valid, const Point &SeedPoint,
             const Box &Bounds, bool Capped, SolverBudget &Budget,
             bool &Exhausted) {
  Box Cur = Box::point(SeedPoint);
  size_t N = Cur.arity();
  bool Changed = true;
  while (Changed && !Exhausted) {
    Changed = false;
    for (size_t D = 0; D != N && !Exhausted; ++D) {
      int64_t MaxStep = 0;
      if (Capped) {
        // Cap the per-round growth at the current width so all dimensions
        // advance together (§5.3's preference for square-ish boxes).
        BigCount Width = Cur.dim(D).width();
        MaxStep = Width.fitsInt64() ? Width.toInt64() : INT64_MAX;
      }
      for (bool Upper : {true, false}) {
        Interval NewD = extendSide(Valid, Cur, D, Upper, Bounds.dim(D),
                                   MaxStep, Budget, Exhausted);
        if (NewD != Cur.dim(D)) {
          Cur = Cur.withDim(D, NewD);
          Changed = true;
        }
      }
    }
  }
  return Cur;
}

/// True when A's width vector dominates B's (>= everywhere, > somewhere).
bool widthDominates(const Box &A, const Box &B) {
  bool Strict = false;
  for (size_t D = 0, N = A.arity(); D != N; ++D) {
    BigCount WA = A.dim(D).width();
    BigCount WB = B.dim(D).width();
    if (WA < WB)
      return false;
    if (WA > WB)
      Strict = true;
  }
  return Strict;
}

/// Smallest dimension width of the non-empty box \p B.
BigCount minWidth(const Box &B) {
  BigCount Min = B.dim(0).width();
  for (size_t D = 1, N = B.arity(); D != N; ++D)
    Min = std::min(Min, B.dim(D).width());
  return Min;
}

} // namespace

GrowResult anosy::growMaximalBox(const Predicate &Valid, const Predicate &Seed,
                                 const Box &Bounds,
                                 const GrowerConfig &Config,
                                 SolverBudget &Budget) {
  GrowResult Result;
  if (Bounds.isEmpty())
    return Result;

  unsigned Restarts = std::max(1u, Config.Restarts);
  bool Capped = Config.Objective != GrowObjective::Volume;

  std::vector<Box> Candidates;
  for (unsigned R = 0; R != Restarts; ++R) {
    // Fault-injection site: an abandoned restart reports as an exhausted
    // search, so the degradation machinery upstream (retry, then the
    // always-sound ⊥/⊤ fallback) handles it like any spent budget.
    if (faults::armed() && faults::shouldFail(FaultSite::GrowerRestart)) {
      Result.Exhausted = true;
      break;
    }
    ExistsResult Witness =
        findWitnessDiverse(Seed, Bounds, Config.Seed + R, Budget);
    if (Witness.Exhausted) {
      Result.Exhausted = true;
      break;
    }
    if (!Witness.Witness)
      break; // The seed region is empty; later restarts won't differ.
    bool GrowExhausted = false;
    Box Grown = growFrom(Valid, *Witness.Witness, Bounds, Capped, Budget,
                         GrowExhausted);
    if (GrowExhausted) {
      Result.Exhausted = true;
      break;
    }
    // Skip duplicates of earlier restarts.
    if (std::find(Candidates.begin(), Candidates.end(), Grown) ==
        Candidates.end())
      Candidates.push_back(std::move(Grown));
  }
  if (Candidates.empty())
    return Result;

  // Width-vector Pareto front across candidates.
  for (const Box &C : Candidates) {
    bool Dominated = false;
    for (const Box &O : Candidates)
      if (widthDominates(O, C))
        Dominated = true;
    if (!Dominated)
      Result.ParetoFront.push_back(C);
  }

  const std::vector<Box> &Pool = Config.Objective == GrowObjective::ParetoWidth
                                     ? Result.ParetoFront
                                     : Candidates;
  const Box *Best = &Pool.front();
  for (const Box &C : Pool) {
    if (Config.Objective == GrowObjective::Balanced) {
      auto Key = [](const Box &B) {
        return std::make_pair(minWidth(B), B.volume());
      };
      if (Key(*Best) < Key(C))
        Best = &C;
    } else if (Best->volume() < C.volume()) {
      Best = &C;
    }
  }
  Result.Best = *Best;
  return Result;
}

BoundResult anosy::tightBoundingBox(const Predicate &P, const Box &Bounds,
                                    SolverBudget &Budget) {
  BoundResult Result;
  Result.Bounding = Box::bottom(Bounds.isEmpty() ? 1 : Bounds.arity());
  if (Bounds.isEmpty())
    return Result;

  ExistsResult First = findWitness(P, Bounds, Budget);
  if (First.Exhausted) {
    Result.Exhausted = true;
    return Result;
  }
  if (!First.Witness)
    return Result; // Empty satisfying set: bounding box is bottom.
  const Point &W = *First.Witness;

  size_t N = Bounds.arity();
  std::vector<Interval> Tight(N, Interval::empty());
  for (size_t D = 0; D != N; ++D) {
    const Interval &Full = Bounds.dim(D);

    // Smallest c such that a satisfying point exists with x_D <= c; the
    // witness guarantees feasibility at c = W[D]. "∃ point with x_D <= c"
    // is monotone in c, so binary search applies.
    int64_t Lo = Full.Lo, Hi = W[D];
    while (Lo < Hi) {
      int64_t Mid = Interval{Lo, Hi}.midpoint();
      ExistsResult E =
          findWitness(P, Bounds.withDim(D, {Full.Lo, Mid}), Budget);
      if (E.Exhausted) {
        Result.Exhausted = true;
        return Result;
      }
      if (E.Witness)
        Hi = Mid;
      else
        Lo = Mid + 1;
    }
    int64_t MinCoord = Lo;

    // Largest c such that a satisfying point exists with x_D >= c.
    Lo = W[D];
    Hi = Full.Hi;
    while (Lo < Hi) {
      int64_t Mid = upperMidpoint(Lo, Hi);
      ExistsResult E =
          findWitness(P, Bounds.withDim(D, {Mid, Full.Hi}), Budget);
      if (E.Exhausted) {
        Result.Exhausted = true;
        return Result;
      }
      if (E.Witness)
        Lo = Mid;
      else
        Hi = Mid - 1;
    }
    Tight[D] = {MinCoord, Lo};
  }
  Result.Bounding = Box(std::move(Tight));
  return Result;
}
