//===- tests/analysis/IntervalRefinerTest.cpp - NNF refiner tests ---------===//

#include "analysis/IntervalRefiner.h"

#include "baselines/AbstractInterpreter.h"
#include "baselines/Exhaustive.h"
#include "expr/Eval.h"
#include "expr/Parser.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

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

/// Both branch posteriors of \p E over \p Prior, normalized as the
/// leakage analyzer normalizes a query body.
BranchPosteriors posteriors(const ExprRef &E, const Box &Prior) {
  return branchPosteriors(normalizeQuery(E), Prior);
}

/// The soundness oracle: every point of \p Prior on \p E's branch must be
/// inside the refined posterior.
void expectSound(const Schema &S, const ExprRef &E, const Box &Prior) {
  BranchPosteriors P = posteriors(E, Prior);
  forEachPoint(Prior, [&](const Point &Pt) {
    const Box &Must = evalBool(*E, Pt) ? P.TruePosterior : P.FalsePosterior;
    EXPECT_TRUE(Must.contains(Pt))
        << E->str(S) << " at point outside its branch posterior";
    return true;
  });
}

} // namespace

TEST(IntervalRefiner, NarrowsSimpleComparison) {
  Schema S = userLoc();
  BranchPosteriors P = posteriors(q(S, "x <= 100"), Box::top(S));
  EXPECT_EQ(P.TruePosterior, Box({{0, 100}, {0, 400}}));
  EXPECT_EQ(P.FalsePosterior, Box({{101, 400}, {0, 400}}));
}

TEST(IntervalRefiner, NearbyQueryMatchesHandComputedBox) {
  Schema S = userLoc();
  // The §2 running example: the Manhattan ball of radius 100 at (200,200)
  // has bounding box [100,300] x [100,300]; its complement cannot be
  // narrowed (the ball is interior), so the False branch stays ⊤.
  BranchPosteriors P = posteriors(
      q(S, "abs(x - 200) + abs(y - 200) <= 100"), Box::top(S));
  EXPECT_EQ(P.TruePosterior, Box({{100, 300}, {100, 300}}));
  EXPECT_EQ(P.FalsePosterior, Box::top(S));
}

TEST(IntervalRefiner, AbsBandRefinesPerBranch) {
  Schema S = Schema("S", {{"x", 0, 20}});
  // |x| in [5,10] over [0,20]: the negative branch is infeasible, so the
  // per-branch hull gives [5,10] — not the [0,10] a plain backward abs
  // transfer would produce.
  BranchPosteriors P =
      posteriors(q(S, "abs(x) >= 5 && abs(x) <= 10"), Box::top(S));
  EXPECT_EQ(P.TruePosterior, Box({{5, 10}}));
}

TEST(IntervalRefiner, ConjunctionReachesLocalFixpoint) {
  Schema S = Schema("S", {{"x", 0, 10}, {"y", 0, 10}});
  // x <= y needs y's narrowing (from y <= 3) to reach x: the conjunction
  // iterates its children to a fixpoint instead of one pass.
  BranchPosteriors P =
      posteriors(q(S, "x <= y && y <= 3"), Box::top(S));
  EXPECT_EQ(P.TruePosterior, Box({{0, 3}, {0, 3}}));
}

TEST(IntervalRefiner, DisjunctionHullsRefinedBranches) {
  Schema S = Schema("S", {{"x", 0, 100}});
  BranchPosteriors P =
      posteriors(q(S, "x <= 10 || x >= 90"), Box::top(S));
  // Hull of [0,10] and [90,100]; the gap is a box-representation limit.
  EXPECT_EQ(P.TruePosterior, Box({{0, 100}}));
  // The negation (x >= 11 && x <= 89) narrows exactly.
  EXPECT_EQ(P.FalsePosterior, Box({{11, 89}}));
}

TEST(IntervalRefiner, MinMaxOneSidedConstraints) {
  Schema S = Schema("S", {{"x", 0, 100}, {"y", 0, 100}});
  // min(x,y) >= 30 forces both coordinates up.
  BranchPosteriors P =
      posteriors(q(S, "min(x, y) >= 30"), Box::top(S));
  EXPECT_EQ(P.TruePosterior, Box({{30, 100}, {30, 100}}));
  // max(x,y) <= 40 forces both coordinates down.
  BranchPosteriors Q2 =
      posteriors(q(S, "max(x, y) <= 40"), Box::top(S));
  EXPECT_EQ(Q2.TruePosterior, Box({{0, 40}, {0, 40}}));
}

TEST(IntervalRefiner, EmptyBranchDetected) {
  Schema S = Schema("S", {{"x", 0, 10}});
  BranchPosteriors P = posteriors(q(S, "x >= 0"), Box::top(S));
  EXPECT_EQ(P.TruePosterior, Box::top(S));
  EXPECT_TRUE(P.FalsePosterior.isEmpty());
  BranchPosteriors N = posteriors(q(S, "x < 0"), Box::top(S));
  EXPECT_TRUE(N.TruePosterior.isEmpty());
}

TEST(IntervalRefiner, EqualityAndDisequalityNarrow) {
  Schema S = Schema("S", {{"x", 0, 10}});
  BranchPosteriors P = posteriors(q(S, "x == 4"), Box::top(S));
  EXPECT_EQ(P.TruePosterior, Box({{4, 4}}));
  // x != 0 shaves the matching endpoint.
  BranchPosteriors Q2 = posteriors(q(S, "x != 0"), Box::top(S));
  EXPECT_EQ(Q2.TruePosterior, Box({{1, 10}}));
  EXPECT_EQ(Q2.FalsePosterior, Box({{0, 0}}));
}

TEST(IntervalRefiner, SoundOnHandPickedQueries) {
  Schema S = smallXY();
  const char *Queries[] = {
      "x + y <= 3",
      "abs(x - 2) + abs(y + 1) <= 5",
      "x == y",
      "x != y",
      "!(x <= 2 ==> y > 0)",
      "min(x, y) >= -2 || max(x, y) <= -5",
      "2 * x + 3 <= y",
  };
  for (const char *Src : Queries)
    expectSound(S, q(S, Src), Box::top(S));
}

TEST(IntervalRefiner, SoundOnRandomLinearQueries) {
  Schema S = smallXY();
  Rng R(0xA905);
  // Random small conjunction/disjunction trees over random affine atoms;
  // the exhaustive oracle checks all 17x17 points per query.
  for (unsigned Iter = 0; Iter != 60; ++Iter) {
    std::string Src;
    unsigned Atoms = 1 + static_cast<unsigned>(R.range(0, 2));
    for (unsigned A = 0; A != Atoms; ++A) {
      if (A != 0)
        Src += R.range(0, 1) != 0 ? " && " : " || ";
      std::string Lhs = R.range(0, 1) != 0 ? "x" : "y";
      if (R.range(0, 2) == 0)
        Lhs = "abs(" + Lhs + " - " + std::to_string(R.range(-4, 4)) + ")";
      else if (R.range(0, 2) == 0)
        Lhs = "x + y";
      const char *Ops[] = {"<=", "<", ">=", ">", "==", "!="};
      Src += Lhs;
      Src += " ";
      Src += Ops[R.range(0, 5)];
      Src += " ";
      Src += std::to_string(R.range(-6, 6));
    }
    expectSound(S, q(S, Src), Box::top(S));
  }
}

TEST(IntervalRefiner, NeverWiderThanBaselineInterpreterOnBenchQueries) {
  // The analyzer's refiner must be at least as precise as the baselines'
  // single-pass interpreter on the bench-style atoms it shares.
  Schema S = userLoc();
  AbstractInterpreter AI;
  const char *Queries[] = {
      "abs(x - 200) + abs(y - 200) <= 100",
      "x >= 50 && x <= 60 && y >= 10 && y <= 20",
      "x + y <= 10",
  };
  for (const char *Src : Queries) {
    ExprRef E = q(S, Src);
    BranchPosteriors P = posteriors(E, Box::top(S));
    Box Baseline = AI.posterior(*E, Box::top(S), true);
    EXPECT_TRUE(P.TruePosterior.subsetOf(Baseline)) << Src;
  }
}
