//===- tests/solver/PredicateTest.cpp - Predicate combinator tests --------===//

#include "solver/Predicate.h"

#include "domains/BoxAlgebra.h"
#include "expr/Parser.h"
#include "support/Rng.h"

#include <algorithm>
#include <gtest/gtest.h>

using namespace anosy;

namespace {

Schema grid() { return Schema("G", {{"a", 0, 20}, {"b", 0, 20}}); }

Box box(int64_t XL, int64_t XH, int64_t YL, int64_t YH) {
  return Box({{XL, XH}, {YL, YH}});
}

PredicateRef q(const std::string &Src) {
  auto R = parseQueryExpr(grid(), Src);
  EXPECT_TRUE(R.ok());
  return exprPredicate(R.value());
}

/// 2-4 sorted distinct coordinates per dimension. Wide draws span from
/// near INT64_MIN to near INT64_MAX, so boxes built from them reach
/// near-full range and their volumes saturate at arity 2 and above.
std::vector<int64_t> randomCuts(Rng &R, bool Wide) {
  std::vector<int64_t> Cuts;
  if (Wide) {
    Cuts.push_back(INT64_MIN + R.range(0, 1));
    Cuts.push_back(INT64_MAX - R.range(0, 1));
  }
  for (int64_t I = 0, N = R.range(Wide ? 0 : 2, 2); I != N; ++I)
    Cuts.push_back(R.range(-6, 6));
  std::sort(Cuts.begin(), Cuts.end());
  Cuts.erase(std::unique(Cuts.begin(), Cuts.end()), Cuts.end());
  if (Cuts.size() == 1)
    Cuts.push_back(Cuts[0] + 1);
  return Cuts;
}

/// Every cell of the grid the cuts induce: [c_i, c_{i+1} - 1] per
/// dimension, the last one closed at the top cut. Pairwise disjoint.
std::vector<Box> gridCells(const std::vector<std::vector<int64_t>> &Cuts) {
  std::vector<std::vector<Interval>> Dims(1);
  for (const auto &C : Cuts) {
    std::vector<std::vector<Interval>> Next;
    for (const auto &Prefix : Dims)
      for (size_t I = 0; I + 1 < C.size(); ++I) {
        auto D = Prefix;
        D.push_back({C[I], I + 2 == C.size() ? C[I + 1] : C[I + 1] - 1});
        Next.push_back(std::move(D));
      }
    Dims = std::move(Next);
  }
  std::vector<Box> Cells;
  for (auto &D : Dims)
    Cells.push_back(Box(std::move(D)));
  return Cells;
}

/// A box spanning cuts a <= b in every dimension.
Box spanBox(Rng &R, const std::vector<std::vector<int64_t>> &Cuts) {
  std::vector<Interval> D;
  for (const auto &C : Cuts) {
    int64_t A = R.range(0, static_cast<int64_t>(C.size()) - 1);
    int64_t B = R.range(A, static_cast<int64_t>(C.size()) - 1);
    D.push_back({C[A], C[B]});
  }
  return Box(std::move(D));
}

} // namespace

TEST(Predicate, ExprPredicateMatchesConcreteEval) {
  PredicateRef P = q("a + b <= 10");
  EXPECT_TRUE(P->evalPoint({5, 5}));
  EXPECT_FALSE(P->evalPoint({6, 5}));
  EXPECT_EQ(P->evalBox(box(0, 2, 0, 2)), Tribool::True);
  EXPECT_EQ(P->evalBox(box(10, 20, 10, 20)), Tribool::False);
}

TEST(Predicate, ConstPredicate) {
  EXPECT_TRUE(constPredicate(true)->evalPoint({0, 0}));
  EXPECT_EQ(constPredicate(false)->evalBox(box(0, 1, 0, 1)),
            Tribool::False);
}

TEST(Predicate, CombinatorsUseKleeneLogic) {
  PredicateRef A = q("a <= 10");
  PredicateRef B = q("b <= 10");
  PredicateRef Both = andPredicate(A, B);
  PredicateRef Either = orPredicate(A, B);
  PredicateRef NotA = notPredicate(A);

  EXPECT_TRUE(Both->evalPoint({10, 10}));
  EXPECT_FALSE(Both->evalPoint({10, 11}));
  EXPECT_TRUE(Either->evalPoint({20, 5}));
  EXPECT_TRUE(NotA->evalPoint({11, 0}));

  EXPECT_EQ(Both->evalBox(box(0, 5, 0, 5)), Tribool::True);
  EXPECT_EQ(Both->evalBox(box(11, 20, 0, 5)), Tribool::False);
  EXPECT_EQ(Both->evalBox(box(5, 15, 0, 5)), Tribool::Unknown);
  // False annihilates Unknown under &&.
  EXPECT_EQ(andPredicate(q("a >= 100"), Both)->evalBox(box(5, 15, 0, 5)),
            Tribool::False);
  // True absorbs Unknown under ||.
  EXPECT_EQ(orPredicate(q("a >= 0"), Both)->evalBox(box(5, 15, 0, 5)),
            Tribool::True);
}

TEST(Predicate, InBoxExactThreeValued) {
  PredicateRef P = inBoxPredicate(box(5, 10, 5, 10));
  EXPECT_TRUE(P->evalPoint({5, 10}));
  EXPECT_FALSE(P->evalPoint({4, 10}));
  EXPECT_EQ(P->evalBox(box(6, 9, 6, 9)), Tribool::True);
  EXPECT_EQ(P->evalBox(box(0, 4, 0, 4)), Tribool::False);
  EXPECT_EQ(P->evalBox(box(0, 7, 5, 10)), Tribool::Unknown);
}

TEST(Predicate, InEmptyBoxIsFalse) {
  PredicateRef P = inBoxPredicate(Box::bottom(2));
  EXPECT_FALSE(P->evalPoint({0, 0}));
  EXPECT_EQ(P->evalBox(box(0, 5, 0, 5)), Tribool::False);
}

TEST(Predicate, InUnionSeesJointCoverage) {
  // Neither half alone covers the probe box, but together they do — the
  // union predicate must answer True, not Unknown.
  PredicateRef P =
      inUnionPredicate({box(0, 10, 0, 20), box(11, 20, 0, 20)});
  EXPECT_EQ(P->evalBox(box(5, 15, 2, 18)), Tribool::True);
  EXPECT_EQ(P->evalBox(box(0, 20, 0, 20)), Tribool::True);
}

TEST(Predicate, InUnionDisjointAndPartial) {
  PredicateRef P = inUnionPredicate({box(0, 4, 0, 4), box(10, 14, 10, 14)});
  EXPECT_EQ(P->evalBox(box(6, 8, 6, 8)), Tribool::False);
  EXPECT_EQ(P->evalBox(box(3, 6, 3, 6)), Tribool::Unknown);
  EXPECT_TRUE(P->evalPoint({12, 12}));
  EXPECT_FALSE(P->evalPoint({5, 5}));
}

TEST(Predicate, InPowerBoxHonorsExcludes) {
  PowerBox PB(2, {box(0, 10, 0, 10)}, {box(4, 6, 4, 6)});
  PredicateRef P = inPowerBoxPredicate(PB);
  EXPECT_TRUE(P->evalPoint({0, 0}));
  EXPECT_FALSE(P->evalPoint({5, 5}));
  EXPECT_EQ(P->evalBox(box(0, 2, 0, 2)), Tribool::True);
  EXPECT_EQ(P->evalBox(box(4, 6, 4, 6)), Tribool::False);
  EXPECT_EQ(P->evalBox(box(3, 7, 3, 7)), Tribool::Unknown);
}

TEST(Predicate, StrRenderings) {
  EXPECT_EQ(constPredicate(true)->str(), "true");
  EXPECT_NE(inBoxPredicate(box(0, 1, 0, 1))->str().find("in ["),
            std::string::npos);
  EXPECT_NE(notPredicate(q("a <= 1"))->str().find("!("), std::string::npos);
}

// InUnionPred decides joint coverage of a disjoint list by summing
// |B ∩ Tᵢ| and falls back to the cell decomposition when a count
// saturates or the list overlaps. Both must answer exactly what the cell
// decomposition answers: True iff B ⊆ ∪T, False iff B misses ∪T.
TEST(Predicate, InUnionMatchesCellDecomposition) {
  Rng R(20221);
  unsigned DisjointJoint = 0, SaturatedJoint = 0;
  for (int Case = 0; Case != 4000; ++Case) {
    const unsigned Arity = 1 + Case % 4;
    const bool Wide = R.range(0, 1) == 0;
    std::vector<std::vector<int64_t>> Cuts;
    for (unsigned D = 0; D != Arity; ++D)
      Cuts.push_back(randomCuts(R, Wide));

    std::vector<Box> List;
    if (R.range(0, 1) == 0) {
      for (Box &Cell : gridCells(Cuts))
        if (R.range(0, 3) != 0)
          List.push_back(std::move(Cell));
    } else {
      for (int64_t I = 0, N = R.range(1, 5); I != N; ++I)
        List.push_back(spanBox(R, Cuts));
    }
    const Box B = spanBox(R, Cuts);
    ASSERT_FALSE(B.isEmpty());

    bool AnyOverlap = false, AnyContains = false;
    for (const Box &T : List) {
      AnyOverlap = AnyOverlap || B.intersects(T);
      AnyContains = AnyContains || B.subsetOf(T);
    }
    Tribool Expected = unionCovers(List, B) ? Tribool::True
                       : AnyOverlap         ? Tribool::Unknown
                                            : Tribool::False;
    ASSERT_EQ(inUnionPredicate(List)->evalBox(B), Expected)
        << "case " << Case << ": " << B.str();

    if (AnyOverlap && !AnyContains && pairwiseDisjoint(pruneSubsumed(List))) {
      ++DisjointJoint;
      SaturatedJoint += B.volume().isSaturated() ? 1 : 0;
    }
  }
  // The sum and its saturation fallback both ran.
  EXPECT_GT(DisjointJoint, 200u) << SaturatedJoint;
  EXPECT_GT(SaturatedJoint, 50u) << DisjointJoint;
}
