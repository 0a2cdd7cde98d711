//===- analysis/OctagonRefiner.cpp - Relational branch refiner ------------===//

#include "analysis/OctagonRefiner.h"

#include <optional>
#include <utility>
#include <vector>

using namespace anosy;

namespace {

/// Bound on the outer refinement fixpoint and on each conjunction's local
/// fixpoint, as in the interval refiner.
constexpr unsigned MaxRounds = 6;

/// Magnitude guard for linearization arithmetic: coefficients beyond this
/// make an atom non-octagonal anyway, so the refiner bails before any
/// __int128 overflow risk.
const __int128 MagLimit = static_cast<__int128>(1) << 100;

/// Σ Coef[f]·x_f + Const over the schema's fields.
struct LinForm {
  __int128 Const = 0;
  std::vector<__int128> Coef;

  explicit LinForm(size_t Arity) : Coef(Arity, 0) {}

  bool inBounds() const {
    if (Const > MagLimit || Const < -MagLimit)
      return false;
    for (__int128 C : Coef)
      if (C > MagLimit || C < -MagLimit)
        return false;
    return true;
  }
};

/// Coef · |Arg| with a non-abs linear argument.
struct AbsTerm {
  __int128 Coef = 0;
  LinForm Arg;

  explicit AbsTerm(size_t Arity) : Arg(Arity) {}
};

/// Σ AbsTerms + Lin: the normal form of one side of a comparison.
struct LinAbs {
  LinForm Lin;
  std::vector<AbsTerm> Abs;

  explicit LinAbs(size_t Arity) : Lin(Arity) {}
};

void addLin(LinForm &A, const LinForm &B, __int128 Scale) {
  A.Const += B.Const * Scale;
  for (size_t F = 0; F != A.Coef.size(); ++F)
    A.Coef[F] += B.Coef[F] * Scale;
}

void scaleLinAbs(LinAbs &A, __int128 K) {
  A.Lin.Const *= K;
  for (__int128 &C : A.Lin.Coef)
    C *= K;
  for (AbsTerm &T : A.Abs)
    T.Coef *= K;
  if (K == 0)
    A.Abs.clear();
}

bool linAbsInBounds(const LinAbs &A) {
  if (!A.Lin.inBounds())
    return false;
  for (const AbsTerm &T : A.Abs)
    if (T.Coef > MagLimit || T.Coef < -MagLimit || !T.Arg.inBounds())
      return false;
  return true;
}

/// Normalizes an integer-sorted expression of the §5.1 fragment into
/// Σ aᵢ|linᵢ| + lin. Min/Max/IntIte and nested abs are outside the
/// octagon transfer table — nullopt makes the caller a sound no-op.
std::optional<LinAbs> linearize(const Expr &E, size_t Arity) {
  switch (E.kind()) {
  case ExprKind::IntConst: {
    LinAbs R(Arity);
    R.Lin.Const = E.intValue();
    return R;
  }
  case ExprKind::FieldRef: {
    LinAbs R(Arity);
    R.Lin.Coef[E.fieldIndex()] = 1;
    return R;
  }
  case ExprKind::Neg: {
    auto A = linearize(*E.operand(0), Arity);
    if (!A)
      return std::nullopt;
    scaleLinAbs(*A, -1);
    return A;
  }
  case ExprKind::Add:
  case ExprKind::Sub: {
    auto A = linearize(*E.operand(0), Arity);
    auto B = linearize(*E.operand(1), Arity);
    if (!A || !B)
      return std::nullopt;
    __int128 Sign = E.kind() == ExprKind::Add ? 1 : -1;
    addLin(A->Lin, B->Lin, Sign);
    for (AbsTerm &T : B->Abs) {
      T.Coef *= Sign;
      A->Abs.push_back(std::move(T));
    }
    if (!linAbsInBounds(*A))
      return std::nullopt;
    return A;
  }
  case ExprKind::Mul: {
    const Expr *Const = nullptr, *Var = nullptr;
    if (E.operand(0)->kind() == ExprKind::IntConst) {
      Const = E.operand(0).get();
      Var = E.operand(1).get();
    } else if (E.operand(1)->kind() == ExprKind::IntConst) {
      Const = E.operand(1).get();
      Var = E.operand(0).get();
    }
    if (!Const)
      return std::nullopt;
    auto A = linearize(*Var, Arity);
    if (!A)
      return std::nullopt;
    scaleLinAbs(*A, Const->intValue());
    if (!linAbsInBounds(*A))
      return std::nullopt;
    return A;
  }
  case ExprKind::Abs: {
    auto A = linearize(*E.operand(0), Arity);
    if (!A || !A->Abs.empty())
      return std::nullopt;
    bool AllZero = true;
    for (__int128 C : A->Lin.Coef)
      AllZero = AllZero && C == 0;
    LinAbs R(Arity);
    if (AllZero) {
      R.Lin.Const = A->Lin.Const < 0 ? -A->Lin.Const : A->Lin.Const;
      return R;
    }
    AbsTerm T(Arity);
    T.Coef = 1;
    T.Arg = std::move(A->Lin);
    R.Abs.push_back(std::move(T));
    return R;
  }
  case ExprKind::Min:
  case ExprKind::Max:
  case ExprKind::IntIte:
    return std::nullopt;
  case ExprKind::BoolConst:
  case ExprKind::Cmp:
  case ExprKind::Not:
  case ExprKind::And:
  case ExprKind::Or:
  case ExprKind::Implies:
    break;
  }
  ANOSY_UNREACHABLE("linearize on boolean-sorted expression");
}

/// Adds the pure-linear constraint Σ F.Coef·x ≤ −F.Const to \p O when it
/// is octagon-expressible (coefficients in {−1,0,1}, ≤ 2 fields); returns
/// \p O unchanged otherwise. Expects a closed \p O and returns a closed
/// octagon: the re-close runs only when the constraint strictly tightened
/// an entry, so a fixpoint round that re-applies already-absorbed atoms
/// costs no cubic closure.
Octagon applyLinear(Octagon O, const LinForm &F) {
  std::vector<std::pair<size_t, int>> Terms;
  for (size_t Fld = 0; Fld != F.Coef.size(); ++Fld) {
    if (F.Coef[Fld] == 0)
      continue;
    if ((F.Coef[Fld] != 1 && F.Coef[Fld] != -1) || Terms.size() == 2)
      return O;
    Terms.push_back({Fld, F.Coef[Fld] == 1 ? 1 : -1});
  }
  __int128 Rhs = -F.Const;
  if (Terms.empty())
    return Rhs < 0 ? Octagon::bottom(O.arity()) : O;
  if (Rhs > INT64_MAX)
    return O; // weaker than any expressible bound; skipping is sound
  int64_t R = Rhs < INT64_MIN ? INT64_MIN : static_cast<int64_t>(Rhs);
  bool Tightened = false;
  if (Terms.size() == 1) {
    auto [Fld, S] = Terms[0];
    if (S > 0)
      Tightened = O.addUpperBound(Fld, R); // x ≤ R
    else
      Tightened =
          O.addLowerBound(Fld, R == INT64_MIN ? INT64_MAX : -R); // x ≥ −R
  } else {
    auto [F1, S1] = Terms[0];
    auto [F2, S2] = Terms[1];
    if (S1 > 0 && S2 > 0)
      Tightened = O.addSumUpper(F1, F2, R);
    else if (S1 > 0)
      Tightened = O.addDiffUpper(F1, F2, R);
    else if (S2 > 0)
      Tightened = O.addDiffUpper(F2, F1, R);
    else
      Tightened = O.addSumLower(F1, F2, R == INT64_MIN ? INT64_MAX : -R);
  }
  if (Tightened)
    O.close();
  return O;
}

/// F = Base + Σ pos σᵢ·termᵢ + Σ neg τⱼ·termⱼ for one sign assignment.
LinForm composeLinear(const LinForm &Base,
                      const std::vector<const AbsTerm *> &Pos, unsigned SP,
                      const std::vector<const AbsTerm *> &Ng, unsigned SN) {
  LinForm F = Base;
  for (size_t K = 0; K != Pos.size(); ++K)
    addLin(F, Pos[K]->Arg, ((SP >> K) & 1) != 0 ? -Pos[K]->Coef
                                                : Pos[K]->Coef);
  for (size_t K = 0; K != Ng.size(); ++K)
    addLin(F, Ng[K]->Arg, ((SN >> K) & 1) != 0 ? -Ng[K]->Coef
                                               : Ng[K]->Coef);
  return F;
}

/// Refines \p O by the constraint L ≤ 0, expanding absolute values by
/// sign: positive-coefficient |t| conjunctively (every sign must hold),
/// negative-coefficient |t| disjunctively (refine per sign and join).
Octagon applyLE(const LinAbs &L, Octagon O) {
  std::vector<const AbsTerm *> Pos, Ng;
  for (const AbsTerm &T : L.Abs) {
    if (T.Coef > 0)
      Pos.push_back(&T);
    else if (T.Coef < 0)
      Ng.push_back(&T);
  }
  if (Pos.size() + Ng.size() > 4)
    return O; // 2^k expansion cap; skipping the atom is sound
  for (unsigned SP = 0; SP != (1u << Pos.size()); ++SP) {
    if (O.isEmpty())
      return O;
    if (Ng.empty()) {
      O = applyLinear(std::move(O), composeLinear(L.Lin, Pos, SP, Ng, 0));
      continue;
    }
    Octagon Acc = Octagon::bottom(O.arity());
    for (unsigned SN = 0; SN != (1u << Ng.size()); ++SN)
      Acc = Acc.join(applyLinear(O, composeLinear(L.Lin, Pos, SP, Ng, SN)));
    O = std::move(Acc);
  }
  return O;
}

} // namespace

Octagon OctagonRefiner::refine(const Expr &E, const Octagon &Prior) const {
  Octagon Cur = Prior;
  for (unsigned Round = 0; Round != MaxRounds; ++Round) {
    if (Cur.isEmpty())
      break;
    Octagon Next = refineOnce(E, Cur);
    if (Next == Cur)
      break;
    Cur = std::move(Next);
  }
  return Cur;
}

Octagon OctagonRefiner::refineOnce(const Expr &E, Octagon O) const {
  if (O.isEmpty())
    return O;
  switch (E.kind()) {
  case ExprKind::BoolConst:
    return E.boolValue() ? O : Octagon::bottom(O.arity());
  case ExprKind::Cmp:
    return refineCmp(E.cmpOp(), *E.operand(0), *E.operand(1), std::move(O));
  case ExprKind::Not:
    // NNF admits ¬ only above atoms; accept that shape defensively.
    if (E.operand(0)->kind() == ExprKind::Cmp) {
      const Expr &A = *E.operand(0);
      return refineCmp(cmpOpNegation(A.cmpOp()), *A.operand(0),
                       *A.operand(1), std::move(O));
    }
    if (E.operand(0)->kind() == ExprKind::BoolConst)
      return E.operand(0)->boolValue() ? Octagon::bottom(O.arity()) : O;
    return O; // sound no-op on unexpected shapes
  case ExprKind::And: {
    // ∧ is a meet; iterate the children to a local fixpoint so relational
    // narrowing propagates between sibling atoms.
    for (unsigned Round = 0; Round != MaxRounds; ++Round) {
      Octagon Prev = O;
      O = refineOnce(*E.operand(0), std::move(O));
      if (O.isEmpty())
        return O;
      O = refineOnce(*E.operand(1), std::move(O));
      if (O.isEmpty() || O == Prev)
        return O;
    }
    return O;
  }
  case ExprKind::Or:
    return refineOnce(*E.operand(0), O).join(refineOnce(*E.operand(1), O));
  case ExprKind::Implies:
    return O; // escalation tier: stay sound on non-NNF leftovers
  case ExprKind::IntConst:
  case ExprKind::FieldRef:
  case ExprKind::Neg:
  case ExprKind::Add:
  case ExprKind::Sub:
  case ExprKind::Mul:
  case ExprKind::Abs:
  case ExprKind::Min:
  case ExprKind::Max:
  case ExprKind::IntIte:
    break;
  }
  ANOSY_UNREACHABLE("refineOnce on integer-sorted expression");
}

Octagon OctagonRefiner::refineCmp(CmpOp Op, const Expr &A, const Expr &B,
                                  Octagon O) const {
  auto LA = linearize(A, O.arity());
  auto LB = linearize(B, O.arity());
  if (!LA || !LB)
    return O;
  // L = A − B, so the atom reads L ⋈ 0.
  LinAbs L = std::move(*LA);
  addLin(L.Lin, LB->Lin, -1);
  for (AbsTerm &T : LB->Abs) {
    T.Coef = -T.Coef;
    L.Abs.push_back(std::move(T));
  }
  if (!linAbsInBounds(L))
    return O;
  auto Negated = [](LinAbs N) {
    scaleLinAbs(N, -1);
    return N;
  };
  switch (Op) {
  case CmpOp::LE:
    return applyLE(L, std::move(O));
  case CmpOp::LT:
    L.Lin.Const += 1; // L < 0 ⟺ L + 1 ≤ 0 over the integers
    return applyLE(L, std::move(O));
  case CmpOp::GE:
    return applyLE(Negated(std::move(L)), std::move(O));
  case CmpOp::GT: {
    LinAbs M = Negated(std::move(L));
    M.Lin.Const += 1;
    return applyLE(M, std::move(O));
  }
  case CmpOp::EQ:
    O = applyLE(L, std::move(O));
    if (O.isEmpty())
      return O;
    return applyLE(Negated(std::move(L)), std::move(O));
  case CmpOp::NE:
    return O; // a punctured octagon is not an octagon; no-op is sound
  }
  ANOSY_UNREACHABLE("unknown comparison operator");
}

RelationalPosteriors
anosy::relationalBranchPosteriors(const NormalizedQuery &Q,
                                  const BranchPosteriors &BoxTier) {
  auto RefineBranch = [](const Expr &E, const Box &B) {
    const OctagonRefiner OctRef;
    RelationalBranch R;
    Octagon O = OctRef.refine(E, Octagon::fromBox(B));
    if (!O.isEmpty()) {
      // Reduced product: the octagon's enclosing box re-enters the HC4
      // narrower, and a tightened box re-enters the octagon refiner —
      // each domain narrows the other.
      Box B2 = O.toBox().intersect(B);
      if (B2 != B) {
        if (B2.isEmpty()) {
          O = Octagon::bottom(B.arity());
        } else {
          Box B3 = IntervalRefiner().refine(E, B2);
          if (B3.isEmpty())
            O = Octagon::bottom(B.arity());
          else
            O = OctRef.refine(E, O.meet(Octagon::fromBox(B3)));
        }
      }
    }
    if (O.isEmpty()) {
      R.BoxPosterior = Box::bottom(B.arity());
      R.OctPosterior = std::move(O);
      R.CardBound = BigCount(0);
      return R;
    }
    R.BoxPosterior = O.toBox().intersect(B);
    R.OctPosterior = std::move(O);
    BigCount BoxVol = R.BoxPosterior.volume();
    BigCount OctCard = R.OctPosterior.cardinalityBound();
    R.CardBound = OctCard < BoxVol ? OctCard : BoxVol;
    return R;
  };
  return {RefineBranch(*Q.True, BoxTier.TruePosterior),
          RefineBranch(*Q.False, BoxTier.FalsePosterior)};
}
