//===- tests/baselines/AbstractInterpreterTest.cpp - AI baseline tests ----===//

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

ExprRef q(const Schema &S, const std::string &Src) {
  auto R = parseQueryExpr(S, Src);
  EXPECT_TRUE(R.ok()) << (R.ok() ? "" : R.error().str());
  return R.value();
}

} // namespace

TEST(AbstractInterpreter, NarrowsSimpleComparison) {
  Schema S = userLoc();
  AbstractInterpreter AI;
  Box Post = AI.posterior(*q(S, "x <= 100"), Box::top(S), true);
  EXPECT_EQ(Post, Box({{0, 100}, {0, 400}}));
  Box PostF = AI.posterior(*q(S, "x <= 100"), Box::top(S), false);
  EXPECT_EQ(PostF, Box({{101, 400}, {0, 400}}));
}

TEST(AbstractInterpreter, NarrowsConjunctions) {
  Schema S = userLoc();
  AbstractInterpreter AI;
  Box Post = AI.posterior(
      *q(S, "x >= 50 && x <= 60 && y >= 10 && y <= 20"), Box::top(S), true);
  EXPECT_EQ(Post, Box({{50, 60}, {10, 20}}));
}

TEST(AbstractInterpreter, NarrowsThroughArithmetic) {
  Schema S = userLoc();
  AbstractInterpreter AI;
  // x + y <= 10 narrows both coordinates to [0, 10].
  Box Post = AI.posterior(*q(S, "x + y <= 10"), Box::top(S), true);
  EXPECT_EQ(Post, Box({{0, 10}, {0, 10}}));
  // 2*x <= 9 floors the division: x <= 4.
  Box Half = AI.posterior(*q(S, "2 * x <= 9"), Box::top(S), true);
  EXPECT_EQ(Half.dim(0), (Interval{0, 4}));
}

TEST(AbstractInterpreter, NarrowsEquality) {
  Schema S = userLoc();
  AbstractInterpreter AI;
  Box Post = AI.posterior(*q(S, "x == y"), Box({{10, 20}, {15, 30}}), true);
  EXPECT_EQ(Post, Box({{15, 20}, {15, 20}}));
}

TEST(AbstractInterpreter, InfeasibleResponseGivesEmpty) {
  Schema S = userLoc();
  AbstractInterpreter AI;
  EXPECT_TRUE(AI.posterior(*q(S, "x + y >= 5000"), Box::top(S), true)
                  .isEmpty());
  EXPECT_TRUE(
      AI.posterior(*q(S, "x >= 0"), Box::top(S), false).isEmpty());
}

TEST(AbstractInterpreter, DisjunctionHullsAreImprecise) {
  // The baseline's characteristic weakness: the disjunction forces a hull
  // spanning both blobs, unlike ANOSY's powerset which would keep them
  // separate.
  Schema S = userLoc();
  AbstractInterpreter AI;
  Box Post = AI.posterior(
      *q(S, "(x <= 10 && y <= 10) || (x >= 390 && y >= 390)"),
      Box::top(S), true);
  EXPECT_EQ(Post, Box::top(S)); // hull of the two corners
}

TEST(AbstractInterpreter, DisequalityAtInt64LimitStaysInRange) {
  // x ∈ [MAX, MAX] after the first conjunct; shaving MAX off for `!=`
  // must not compute MAX + 1. The True branch is empty.
  Schema S("S", {{"x", 0, INT64_MAX}});
  ExprRef E =
      q(S, "x >= 9223372036854775807 && x != 9223372036854775807");
  AbstractInterpreter AI;
  EXPECT_TRUE(AI.posterior(*E, Box::top(S), true).isEmpty());
  EXPECT_EQ(AI.posterior(*E, Box::top(S), false), Box::top(S));
}

TEST(AbstractInterpreter, NearbyPosteriorIsSoundButLoose) {
  Schema S = userLoc();
  ExprRef Q = q(S, "abs(x - 200) + abs(y - 200) <= 100");
  AbstractInterpreter AI;
  Box Post = AI.posterior(*Q, Box::top(S), true);
  // Soundness: every truly-satisfying point is inside the posterior.
  EXPECT_TRUE(Box({{100, 300}, {100, 300}}).subsetOf(Post));
  // And it must narrow at least somewhat from ⊤.
  EXPECT_TRUE(Post.volume() < Box::top(S).volume());
}

TEST(AbstractInterpreter, SoundnessSweep) {
  // Over random priors and a mix of queries: every point of the prior
  // with the required response stays inside the narrowed posterior.
  Schema S("G", {{"a", 0, 30}, {"b", 0, 30}});
  std::vector<ExprRef> Queries{
      q(S, "a + b <= 20"),
      q(S, "abs(a - 15) + abs(b - 15) <= 8"),
      q(S, "a == 3 || b >= 25"),
      q(S, "min(a, b) >= 5 && max(a, b) <= 27"),
      q(S, "2 * a - 3 * b <= 1"),
      q(S, "a != b"),
      q(S, "(a >= 10 ==> b >= 10)"),
  };
  AbstractInterpreter AI;
  Rng Rand(31337);
  for (int Trial = 0; Trial != 25; ++Trial) {
    int64_t XL = Rand.range(0, 30), YL = Rand.range(0, 30);
    Box Prior({{XL, Rand.range(XL, 30)}, {YL, Rand.range(YL, 30)}});
    for (const ExprRef &Q : Queries)
      for (bool Response : {true, false}) {
        Box Post = AI.posterior(*Q, Prior, Response);
        forEachPoint(Prior, [&](const Point &P) {
          if (evalBool(*Q, P) == Response) {
            EXPECT_TRUE(Post.contains(P))
                << Q->str() << " response=" << Response << " prior "
                << Prior.str() << " lost point (" << P[0] << "," << P[1]
                << ")";
          }
          return true;
        });
      }
  }
}

TEST(AbstractInterpreter, PosteriorsPairMatchesSingleCalls) {
  Schema S = userLoc();
  ExprRef Q = q(S, "x <= 100");
  AbstractInterpreter AI;
  auto [T, F] = AI.posteriors(*Q, Box::top(S));
  EXPECT_EQ(T, AI.posterior(*Q, Box::top(S), true));
  EXPECT_EQ(F, AI.posterior(*Q, Box::top(S), false));
}
