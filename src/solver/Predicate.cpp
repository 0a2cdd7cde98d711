//===- solver/Predicate.cpp - Box-abstractable predicates -----------------===//

#include "solver/Predicate.h"

#include "compile/CompiledEval.h"
#include "domains/BoxAlgebra.h"
#include "expr/Eval.h"
#include "solver/RangeEval.h"

#include <algorithm>

using namespace anosy;

namespace {

/// Per-thread tape scratch, shared by every compiled predicate on the
/// thread (the scratch is sized per run, so sharing is safe). Each anosyd
/// worker gets its own.
TapeScratch &tapeScratch() {
  thread_local TapeScratch S;
  return S;
}

/// The normalized hints of the boolean query \p E.
SplitHints exprHints(const ExprRef &E) {
  assert(E && E->isBoolSorted() &&
         "query predicates wrap boolean expressions");
  SplitHints Hints;
  collectExprSplitHints(*E, Hints);
  normalizeSplitHints(Hints);
  return Hints;
}

/// The normalized face coordinates of \p Boxes.
SplitHints faceHints(const std::vector<Box> &Boxes) {
  SplitHints Hints;
  for (const Box &B : Boxes)
    collectBoxSplitHints(B, Hints);
  normalizeSplitHints(Hints);
  return Hints;
}

/// |A ∩ B|, one dimension at a time: no box is built, so boxes of any
/// arity allocate nothing. Saturates like every BigCount product.
BigCount overlapVolume(const Box &A, const Box &B) {
  BigCount V(1);
  for (size_t D = 0, N = A.arity(); D != N; ++D)
    V = V * BigCount::ofInterval(std::max(A.dim(D).Lo, B.dim(D).Lo),
                                 std::min(A.dim(D).Hi, B.dim(D).Hi));
  return V;
}

class ExprPred final : public Predicate {
public:
  ExprPred(ExprRef E, TapeRef T)
      : Predicate(exprHints(E)), E(std::move(E)), T(std::move(T)) {}

  Tribool evalBox(const Box &B) const override {
    if (T)
      return T->run(B, tapeScratch());
    return evalTribool(*E, B);
  }
  // Concrete evaluation stays on the AST: evalBool uses plain wrapping
  // int64 arithmetic while the tape saturates, and points must keep the
  // tree walk's exact concrete semantics.
  bool evalPoint(const Point &P) const override { return evalBool(*E, P); }
  std::string str() const override { return E->str(); }

private:
  ExprRef E;
  TapeRef T; ///< Null = tree-walk.
};

class ConstPred final : public Predicate {
public:
  explicit ConstPred(bool Value) : Value(Value) {}

  Tribool evalBox(const Box &) const override { return triboolOf(Value); }
  bool evalPoint(const Point &) const override { return Value; }
  std::string str() const override { return Value ? "true" : "false"; }

private:
  bool Value;
};

class NotPred final : public Predicate {
public:
  explicit NotPred(PredicateRef A) : Predicate(A->hints()), A(std::move(A)) {}

  Tribool evalBox(const Box &B) const override {
    return triNot(A->evalBox(B));
  }
  bool evalPoint(const Point &P) const override { return !A->evalPoint(P); }
  std::string str() const override { return "!(" + A->str() + ")"; }

private:
  PredicateRef A;
};

class AndPred final : public Predicate {
public:
  AndPred(PredicateRef A, PredicateRef B)
      : Predicate(mergeSplitHints(A->hints(), B->hints())), A(std::move(A)),
        B(std::move(B)) {}

  Tribool evalBox(const Box &Bx) const override {
    Tribool TA = A->evalBox(Bx);
    if (TA == Tribool::False)
      return Tribool::False;
    return triAnd(TA, B->evalBox(Bx));
  }
  bool evalPoint(const Point &P) const override {
    return A->evalPoint(P) && B->evalPoint(P);
  }
  std::string str() const override {
    return "(" + A->str() + ") && (" + B->str() + ")";
  }

private:
  PredicateRef A, B;
};

class OrPred final : public Predicate {
public:
  OrPred(PredicateRef A, PredicateRef B)
      : Predicate(mergeSplitHints(A->hints(), B->hints())), A(std::move(A)),
        B(std::move(B)) {}

  Tribool evalBox(const Box &Bx) const override {
    Tribool TA = A->evalBox(Bx);
    if (TA == Tribool::True)
      return Tribool::True;
    return triOr(TA, B->evalBox(Bx));
  }
  bool evalPoint(const Point &P) const override {
    return A->evalPoint(P) || B->evalPoint(P);
  }
  std::string str() const override {
    return "(" + A->str() + ") || (" + B->str() + ")";
  }

private:
  PredicateRef A, B;
};

class InBoxPred final : public Predicate {
public:
  explicit InBoxPred(Box Target)
      : Predicate(faceHints({Target})), Target(std::move(Target)) {}

  Tribool evalBox(const Box &B) const override {
    if (Target.isEmpty())
      return Tribool::False;
    if (B.subsetOf(Target))
      return Tribool::True;
    if (!B.intersects(Target))
      return Tribool::False;
    return Tribool::Unknown;
  }
  bool evalPoint(const Point &P) const override { return Target.contains(P); }
  std::string str() const override { return "in " + Target.str(); }

private:
  Box Target;
};

class InUnionPred final : public Predicate {
public:
  /// \p Pruned has been through pruneSubsumed.
  explicit InUnionPred(std::vector<Box> Pruned)
      : Predicate(faceHints(Pruned)), Boxes(std::move(Pruned)),
        Disjoint(pairwiseDisjoint(Boxes)) {}

  Tribool evalBox(const Box &B) const override {
    bool AnyOverlap = false;
    for (const Box &T : Boxes) {
      if (B.subsetOf(T))
        return Tribool::True;
      if (B.intersects(T))
        AnyOverlap = true;
    }
    if (!AnyOverlap)
      return Tribool::False;
    // Several boxes may jointly cover B even though none does alone.
    return coversJointly(B) ? Tribool::True : Tribool::Unknown;
  }
  bool evalPoint(const Point &P) const override {
    for (const Box &T : Boxes)
      if (T.contains(P))
        return true;
    return false;
  }
  std::string str() const override {
    std::string Out = "in union{";
    for (size_t I = 0, E = Boxes.size(); I != E; ++I) {
      if (I != 0)
        Out += ", ";
      Out += Boxes[I].str();
    }
    return Out + "}";
  }

private:
  /// B ⊆ ∪Boxes. On disjoint boxes the pieces B ∩ Tᵢ partition
  /// B ∩ ∪Boxes, so B is covered exactly when Σ|B ∩ Tᵢ| = |B|; the cell
  /// decomposition answers the rest, and any count too large to sum.
  bool coversJointly(const Box &B) const {
    if (Disjoint) {
      BigCount Covered;
      for (const Box &T : Boxes)
        Covered = Covered + overlapVolume(B, T);
      BigCount Whole = B.volume();
      if (!Covered.isSaturated() && !Whole.isSaturated())
        return Covered == Whole;
    }
    return unionCovers(Boxes, B);
  }

  std::vector<Box> Boxes;
  bool Disjoint; ///< No two of Boxes share a point.
};

} // namespace

PredicateRef anosy::exprPredicate(ExprRef E) {
  TapeRef T = getOrCompileTape(E);
  return std::make_shared<ExprPred>(std::move(E), std::move(T));
}

PredicateRef anosy::exprPredicate(ExprRef E, TapeRef Tape) {
  return std::make_shared<ExprPred>(std::move(E), std::move(Tape));
}

PredicateRef anosy::constPredicate(bool Value) {
  return std::make_shared<ConstPred>(Value);
}

PredicateRef anosy::notPredicate(PredicateRef A) {
  return std::make_shared<NotPred>(std::move(A));
}

PredicateRef anosy::andPredicate(PredicateRef A, PredicateRef B) {
  return std::make_shared<AndPred>(std::move(A), std::move(B));
}

PredicateRef anosy::orPredicate(PredicateRef A, PredicateRef B) {
  return std::make_shared<OrPred>(std::move(A), std::move(B));
}

PredicateRef anosy::inBoxPredicate(Box B) {
  return std::make_shared<InBoxPred>(std::move(B));
}

PredicateRef anosy::inUnionPredicate(std::vector<Box> Boxes) {
  return std::make_shared<InUnionPred>(pruneSubsumed(std::move(Boxes)));
}

PredicateRef anosy::inPowerBoxPredicate(const PowerBox &P) {
  PredicateRef In = inUnionPredicate(P.includes());
  if (P.excludes().empty())
    return In;
  PredicateRef Out = inUnionPredicate(P.excludes());
  return andPredicate(std::move(In), notPredicate(std::move(Out)));
}
