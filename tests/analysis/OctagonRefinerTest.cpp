//===- tests/analysis/OctagonRefinerTest.cpp - Relational refiner tests ---===//
//
// The exhaustive-oracle soundness suite for the octagon escalation tier,
// mirroring IntervalRefinerTest: every secret must stay inside BOTH the
// reduced-product box and the octagon of its branch, and the cardinality
// bound must never under-count the branch. Plus exactness pins on the
// paper's Manhattan-ball queries, where the octagon is the whole point.
//
//===----------------------------------------------------------------------===//

#include "analysis/OctagonRefiner.h"

#include "analysis/IntervalRefiner.h"
#include "baselines/Exhaustive.h"
#include "expr/Eval.h"
#include "expr/Parser.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <string>

using namespace anosy;

namespace {

Schema userLoc() {
  return Schema("UserLoc", {{"x", 0, 400}, {"y", 0, 400}});
}

Schema smallXY() {
  return Schema("S", {{"x", -8, 8}, {"y", -8, 8}});
}

ExprRef q(const Schema &S, const std::string &Src) {
  auto R = parseQueryExpr(S, Src);
  EXPECT_TRUE(R.ok()) << (R.ok() ? "" : R.error().str());
  return R.value();
}

/// The octagon tier over \p Prior, started from the box tier's
/// posteriors as the leakage analyzer starts it.
RelationalPosteriors relational(const ExprRef &E, const Box &Prior) {
  NormalizedQuery N = normalizeQuery(E);
  return relationalBranchPosteriors(N, branchPosteriors(N, Prior));
}

/// The soundness oracle: every point of \p Prior must be inside the box
/// AND the octagon of its branch, and each branch's exact count must be
/// at most the reported cardinality bound.
void expectSound(const Schema &S, const ExprRef &E, const Box &Prior) {
  RelationalPosteriors P = relational(E, Prior);
  int64_t NT = 0, NF = 0;
  forEachPoint(Prior, [&](const Point &Pt) {
    const RelationalBranch &Must = evalBool(*E, Pt) ? P.True : P.False;
    (evalBool(*E, Pt) ? NT : NF) += 1;
    EXPECT_TRUE(Must.BoxPosterior.contains(Pt))
        << E->str(S) << ": point escaped the product box";
    EXPECT_TRUE(Must.OctPosterior.contains(Pt))
        << E->str(S) << ": point escaped the octagon";
    return true;
  });
  EXPECT_TRUE(P.True.CardBound >= NT) << E->str(S);
  EXPECT_TRUE(P.False.CardBound >= NF) << E->str(S);
}

} // namespace

TEST(OctagonRefiner, ManhattanBallIsExact) {
  Schema S = userLoc();
  // The §2 running example: the interval refiner keeps only the bounding
  // box [100,300]^2 (40401 candidates); the octagon keeps the ball itself
  // with its exact interior count 2r(r+1)+1 = 20201.
  RelationalPosteriors P = relational(
      q(S, "abs(x - 200) + abs(y - 200) <= 100"), Box::top(S));
  EXPECT_EQ(P.True.BoxPosterior, Box({{100, 300}, {100, 300}}));
  EXPECT_EQ(P.True.CardBound, BigCount(20201));
  EXPECT_TRUE(P.True.OctPosterior.contains({200, 300}));
  EXPECT_FALSE(P.True.OctPosterior.contains({300, 300}));
  // The complement of an interior ball is not an octagon; the False
  // branch soundly stays at the prior.
  EXPECT_EQ(P.False.BoxPosterior, Box::top(S));
}

TEST(OctagonRefiner, ClippedBallCountMatchesEnumeration) {
  Schema S = userLoc();
  // Off-center ball clipped by the domain boundary: ball ∩ box is still
  // an octagon, so the pair sweep counts it exactly.
  ExprRef E = q(S, "abs(x - 50) + abs(y - 50) <= 100");
  RelationalPosteriors P = relational(E, Box::top(S));
  int64_t Exact = countByEnumeration(*E, Box::top(S));
  ASSERT_TRUE(P.True.CardBound.fitsInt64());
  EXPECT_EQ(P.True.CardBound.toInt64(), Exact);
}

TEST(OctagonRefiner, ReducedProductTightensBoxBeyondHC4) {
  Schema S = Schema("S", {{"x", 0, 10}, {"y", 0, 10}});
  // x − y ≤ −3 and x + y ≤ 5 imply 2x ≤ 2, i.e. x ≤ 1 — a relational
  // consequence invisible to interval narrowing (which stops at x ≤ 2).
  ExprRef E = q(S, "x - y <= -3 && x + y <= 5");
  BranchPosteriors BoxOnly = branchPosteriors(normalizeQuery(E), Box::top(S));
  EXPECT_EQ(BoxOnly.TruePosterior.dim(0).Hi, 2);
  RelationalPosteriors P = relational(E, Box::top(S));
  EXPECT_EQ(P.True.BoxPosterior.dim(0).Hi, 1);
  EXPECT_TRUE(P.True.BoxPosterior.subsetOf(BoxOnly.TruePosterior));
  expectSound(S, E, Box::top(S));
}

TEST(OctagonRefiner, DetectsRelationalEmptiness) {
  Schema S = Schema("S", {{"x", 0, 10}, {"y", 0, 10}});
  // Each atom is box-satisfiable; their conjunction is not (x < y < x).
  ExprRef E = q(S, "x < y && y < x");
  RelationalPosteriors P = relational(E, Box::top(S));
  EXPECT_TRUE(P.True.OctPosterior.isEmpty());
  EXPECT_TRUE(P.True.BoxPosterior.isEmpty());
  EXPECT_TRUE(P.True.CardBound.isZero());
  EXPECT_EQ(P.False.BoxPosterior, Box::top(S));
}

TEST(OctagonRefiner, SmallBallExhaustivelySound) {
  Schema S = Schema("GeoLoc", {{"x", 0, 49}, {"y", 0, 49}});
  // The corpus tracker query: radius-1 interior ball, exactly 5 points.
  ExprRef E = q(S, "abs(x - 25) + abs(y - 25) <= 1");
  RelationalPosteriors P = relational(E, Box::top(S));
  EXPECT_EQ(P.True.CardBound, BigCount(5));
  expectSound(S, E, Box::top(S));
}

TEST(OctagonRefiner, SoundOnHandPickedQueries) {
  Schema S = smallXY();
  const char *Queries[] = {
      "abs(x - 2) + abs(y + 1) <= 5",
      "abs(x - 2) + abs(y + 1) >= 5",
      "x + y <= 3 && x - y >= -2",
      "abs(x) + abs(y) <= 4 || abs(x - 4) + abs(y - 4) <= 2",
      "2 * abs(x - 1) + abs(y) <= 6",
      "abs(x + y) <= 3",
      "abs(x - y) >= 2",
      "x == y",
      "x != y",
      "!(x <= 2 ==> y > 0)",
      "min(x, y) >= -2 || max(x, y) <= -5",
      "2 * x + 3 <= y",
      "abs(2 * x) <= 5",
      "x + y == 0 && x - y == 1",
  };
  for (const char *Src : Queries)
    expectSound(S, q(S, Src), Box::top(S));
}

TEST(OctagonRefiner, SoundOnRandomRelationalQueries) {
  Schema S = smallXY();
  Rng R(0x0C7B);
  // Random trees over the §5.1 fragment, biased toward the relational
  // atoms (abs-sums, diagonals) the octagon tier exists for; exhaustive
  // oracle over all 17x17 points per query.
  for (unsigned Iter = 0; Iter != 60; ++Iter) {
    std::string Src;
    unsigned Atoms = 1 + static_cast<unsigned>(R.range(0, 2));
    for (unsigned A = 0; A != Atoms; ++A) {
      if (A != 0)
        Src += R.range(0, 1) != 0 ? " && " : " || ";
      std::string Lhs;
      switch (R.range(0, 4)) {
      case 0:
        Lhs = "abs(x - " + std::to_string(R.range(-4, 4)) + ") + abs(y - " +
              std::to_string(R.range(-4, 4)) + ")";
        break;
      case 1:
        Lhs = R.range(0, 1) != 0 ? "x + y" : "x - y";
        break;
      case 2:
        Lhs = "abs(" + std::string(R.range(0, 1) != 0 ? "x" : "y") + " - " +
              std::to_string(R.range(-4, 4)) + ")";
        break;
      case 3:
        Lhs = "abs(x + y)";
        break;
      default:
        Lhs = R.range(0, 1) != 0 ? "x" : "y";
        break;
      }
      const char *Ops[] = {"<=", "<", ">=", ">", "==", "!="};
      Src += Lhs;
      Src += " ";
      Src += Ops[R.range(0, 5)];
      Src += " ";
      Src += std::to_string(R.range(-6, 8));
    }
    expectSound(S, q(S, Src), Box::top(S));
  }
}

TEST(OctagonRefiner, ProductBoxNeverWiderThanIntervalRefiner) {
  // The escalation tier must pay for itself: the reduced-product box is
  // a subset of the box-only posterior on every branch.
  Schema S = smallXY();
  const char *Queries[] = {
      "abs(x - 2) + abs(y + 1) <= 5",
      "x + y <= 3 && x - y >= -2 && abs(x) <= 6",
      "x <= 3 || y >= 2",
      "x + y >= 10 && x - y <= -1",
  };
  for (const char *Src : Queries) {
    ExprRef E = q(S, Src);
    BranchPosteriors B = branchPosteriors(normalizeQuery(E), Box::top(S));
    RelationalPosteriors P = relational(E, Box::top(S));
    EXPECT_TRUE(P.True.BoxPosterior.subsetOf(B.TruePosterior)) << Src;
    EXPECT_TRUE(P.False.BoxPosterior.subsetOf(B.FalsePosterior)) << Src;
    EXPECT_TRUE(P.True.CardBound <= B.TruePosterior.volume()) << Src;
    EXPECT_TRUE(P.False.CardBound <= B.FalsePosterior.volume()) << Src;
  }
}
