//===- tests/solver/FullRangeDomainTest.cpp - Full-range schema tests -----===//
//
// Regression (ISSUE 5): branch-and-bound over full- and near-full-range
// schemas used to route through signed-overflow midpoints (Box::splitAt
// and splitWithHints computed Lo + (Hi - Lo) / 2, UB when Hi - Lo wraps)
// and an int64 hint score that went negative on 2^63-wide partitions.
// These tests drive the splitting and counting paths end-to-end over
// [INT64_MIN, INT64_MAX]-shaped domains.

#include "solver/ModelCounter.h"

#include "expr/Parser.h"
#include "solver/Decide.h"
#include "solver/Optimize.h"
#include "solver/SplitHints.h"

#include <gtest/gtest.h>

using namespace anosy;

namespace {

Schema fullRange() { return Schema("FullRange", {{"v", INT64_MIN, INT64_MAX}}); }

PredicateRef q(const Schema &S, const std::string &Src) {
  auto R = parseQueryExpr(S, Src);
  EXPECT_TRUE(R.ok()) << (R.ok() ? "" : R.error().str());
  return exprPredicate(R.value());
}

} // namespace

TEST(FullRangeDomain, SplitWithHintsFullRange) {
  // A hint at 0 partitions the full range into two 2^63-point halves;
  // both candidate scores are 2^63, which the old int64 scoring wrapped
  // negative (discarding the hint and falling into the overflowing
  // midpoint split).
  Box Full({{INT64_MIN, INT64_MAX}});
  SplitHints Hints{{0}};
  auto [L, R] = splitWithHints(Full, Hints);
  EXPECT_EQ(L.dim(0), (Interval{INT64_MIN, -1}));
  EXPECT_EQ(R.dim(0), (Interval{0, INT64_MAX}));
}

TEST(FullRangeDomain, SplitWithHintsNoHintFallsBackToMidpoint) {
  Box Full({{INT64_MIN, INT64_MAX}});
  SplitHints None;
  auto [L, R] = splitWithHints(Full, None);
  EXPECT_EQ(L.dim(0), (Interval{INT64_MIN, -1}));
  EXPECT_EQ(R.dim(0), (Interval{0, INT64_MAX}));
}

TEST(FullRangeDomain, CountSatFullRange) {
  Schema S = fullRange();
  BigCount NonNeg = countSatExact(*q(S, "v >= 0"), Box::top(S));
  EXPECT_EQ(NonNeg.str(), "9223372036854775808"); // 2^63
  BigCount Neg = countSatExact(*q(S, "v <= -1"), Box::top(S));
  EXPECT_EQ(Neg.str(), "9223372036854775808");
  EXPECT_EQ((NonNeg + Neg).str(), "18446744073709551616"); // 2^64
}

TEST(FullRangeDomain, CountSatNearFullRange) {
  Schema S("NearFull", {{"v", INT64_MIN + 1, INT64_MAX - 1}});
  // The domain holds 2^64 - 2 points; the band (-10, 10) removes 19.
  BigCount C = countSatExact(*q(S, "v >= 10 || v <= -10"), Box::top(S));
  EXPECT_EQ(C.str(), "18446744073709551595");
}

TEST(FullRangeDomain, DecideOverFullRange) {
  Schema S = fullRange();
  SolverBudget Budget;
  ForallResult Tauto =
      checkForall(*q(S, "v >= 0 || v <= 5"), Box::top(S), Budget);
  EXPECT_TRUE(Tauto.Holds);
  ExistsResult W = findWitness(*q(S, "v >= 17 && v <= 17"), Box::top(S), Budget);
  ASSERT_TRUE(W.Witness.has_value());
  EXPECT_EQ(*W.Witness, (Point{17}));
}

// The box grower on fields wider than 2^62. Its room past a face, its
// doubling probe, its per-round width cap and its Pareto widths each
// overflowed int64 there; a probe wrapped to 0 then re-probed empty
// slabs, which charge no node, forever. Every objective must reach the
// maximal box, and the bounding-box search its exact bounds.
TEST(FullRangeDomain, GrowAndBoundOverWideFields) {
  const Schema Schemas[] = {
      Schema("Near", {{"v", INT64_MIN + 1, INT64_MAX}, {"w", 0, 10}}),
      Schema("Full", {{"v", INT64_MIN, INT64_MAX}, {"w", 0, 10}}),
      Schema("Wide", {{"v", 0, INT64_MAX - 1}, {"w", 0, 10}}),
  };
  for (const Schema &S : Schemas) {
    SCOPED_TRACE(S.name());
    const int64_t Lo = S.fields()[0].Lo;
    PredicateRef Valid = q(S, "v >= 100 && w <= 3");
    for (GrowObjective Obj : {GrowObjective::Volume, GrowObjective::Balanced,
                              GrowObjective::ParetoWidth}) {
      SCOPED_TRACE(growObjectiveName(Obj));
      GrowerConfig Config;
      Config.Objective = Obj;
      Config.Restarts = 2;
      SolverBudget Budget;
      GrowResult R =
          growMaximalBox(*Valid, *Valid, Box::top(S), Config, Budget);
      ASSERT_FALSE(R.Exhausted);
      ASSERT_TRUE(R.Best.has_value());
      EXPECT_EQ(*R.Best, Box({{100, S.fields()[0].Hi}, {0, 3}}));
    }
    PredicateRef Band = q(S, "v <= -7 || (v >= 40 && w == 2)");
    SolverBudget Budget;
    BoundResult B = tightBoundingBox(*Band, Box::top(S), Budget);
    ASSERT_FALSE(B.Exhausted);
    if (Lo <= -7)
      EXPECT_EQ(B.Bounding, Box({{Lo, S.fields()[0].Hi}, {0, 10}}));
    else
      EXPECT_EQ(B.Bounding, Box({{40, S.fields()[0].Hi}, {2, 2}}));
  }
}
