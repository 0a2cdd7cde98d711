//===- tests/solver/SplitHintsTest.cpp - Guided-splitting tests -----------===//

#include "solver/SplitHints.h"

#include "domains/BoxAlgebra.h"
#include "expr/Parser.h"
#include "gen/QueryGen.h"
#include "solver/Decide.h"
#include "solver/ModelCounter.h"

#include <algorithm>
#include <gtest/gtest.h>

using namespace anosy;

namespace {

Schema twoField() { return Schema("S", {{"a", 0, 1000}, {"b", 0, 1000}}); }

ExprRef q(const std::string &Src) {
  auto R = parseQueryExpr(twoField(), Src);
  EXPECT_TRUE(R.ok()) << (R.ok() ? "" : R.error().str());
  return R.value();
}

/// A random predicate and the raw hints that collecting over its whole
/// tree gathers: each leaf appends its own (a union appends the faces of
/// its pruned boxes), and each combinator appends its children's.
struct RandomPred {
  PredicateRef P;
  SplitHints Raw;
};

void append(SplitHints &To, const SplitHints &From) {
  if (To.size() < From.size())
    To.resize(From.size());
  for (size_t D = 0; D != From.size(); ++D)
    To[D].insert(To[D].end(), From[D].begin(), From[D].end());
}

/// A box over \p Arity fields in [-50, 50]; about one in eight is empty.
Box randomBox(Rng &R, unsigned Arity) {
  std::vector<Interval> D;
  for (unsigned I = 0; I != Arity; ++I) {
    int64_t Lo = R.range(-50, 50);
    D.push_back({Lo, Lo + R.range(R.range(0, 7) == 0 ? -3 : 0, 30)});
  }
  return Box(std::move(D));
}

RandomPred randomPred(Rng &R, QueryGen &G, unsigned Arity, unsigned Depth) {
  RandomPred Out;
  switch (R.range(0, Depth == 0 ? 2 : 5)) {
  case 0: {
    ExprRef E = G.genQuery();
    collectExprSplitHints(*E, Out.Raw);
    Out.P = exprPredicate(E);
    break;
  }
  case 1: {
    Box B = randomBox(R, Arity);
    collectBoxSplitHints(B, Out.Raw);
    Out.P = inBoxPredicate(B);
    break;
  }
  case 2: {
    std::vector<Box> Boxes;
    for (int64_t I = 0, N = R.range(0, 5); I != N; ++I)
      Boxes.push_back(randomBox(R, Arity));
    for (const Box &B : pruneSubsumed(Boxes))
      collectBoxSplitHints(B, Out.Raw);
    Out.P = inUnionPredicate(Boxes);
    break;
  }
  case 3: {
    RandomPred A = randomPred(R, G, Arity, Depth - 1);
    Out.Raw = A.Raw;
    Out.P = notPredicate(A.P);
    break;
  }
  default: {
    RandomPred A = randomPred(R, G, Arity, Depth - 1);
    RandomPred B = randomPred(R, G, Arity, Depth - 1);
    Out.Raw = A.Raw;
    append(Out.Raw, B.Raw);
    Out.P = R.range(0, 1) == 0 ? andPredicate(A.P, B.P)
                               : orPredicate(A.P, B.P);
    break;
  }
  }
  return Out;
}

bool hasHint(const SplitHints &H, size_t Dim, int64_t V) {
  if (Dim >= H.size())
    return false;
  return std::find(H[Dim].begin(), H[Dim].end(), V) != H[Dim].end();
}

} // namespace

TEST(SplitHints, ComparisonAtomsYieldThresholds) {
  SplitHints H;
  collectExprSplitHints(*q("a <= 137"), H);
  // The boundary sits between 137 and 138.
  EXPECT_TRUE(hasHint(H, 0, 137) || hasHint(H, 0, 138));
}

TEST(SplitHints, CoefficientAndOffsetSolved) {
  SplitHints H;
  collectExprSplitHints(*q("2 * a - 10 >= 100"), H);
  // 2a - 110 = 0 at a = 55.
  EXPECT_TRUE(hasHint(H, 0, 55) || hasHint(H, 0, 56));
}

TEST(SplitHints, AbsKinksContribute) {
  SplitHints H;
  collectExprSplitHints(*q("abs(a - 200) + abs(b - 300) <= 50"), H);
  EXPECT_TRUE(hasHint(H, 0, 200) || hasHint(H, 0, 201));
  EXPECT_TRUE(hasHint(H, 1, 300) || hasHint(H, 1, 301));
}

TEST(SplitHints, RelationalAtomsYieldNothing) {
  SplitHints H;
  collectExprSplitHints(*q("a + b <= 500"), H);
  for (const auto &Dim : H)
    EXPECT_TRUE(Dim.empty());
}

TEST(SplitHints, BoxFacesContribute) {
  SplitHints H;
  collectBoxSplitHints(Box({{10, 20}, {30, 40}}), H);
  normalizeSplitHints(H);
  EXPECT_TRUE(hasHint(H, 0, 10));
  EXPECT_TRUE(hasHint(H, 0, 21));
  EXPECT_TRUE(hasHint(H, 1, 30));
  EXPECT_TRUE(hasHint(H, 1, 41));
}

TEST(SplitHints, SplitWithHintsPartitions) {
  SplitHints H{{137}, {}};
  Box B({{0, 1000}, {0, 1000}});
  auto [L, R] = splitWithHints(B, H);
  EXPECT_EQ(L.dim(0), (Interval{0, 136}));
  EXPECT_EQ(R.dim(0), (Interval{137, 1000}));
  EXPECT_EQ(L.volume() + R.volume(), B.volume());
}

TEST(SplitHints, FallsBackToMidpointWithoutHints) {
  SplitHints H;
  Box B({{0, 9}, {0, 99}});
  auto [L, R] = splitWithHints(B, H);
  // Midpoint split of the widest dimension (dim 1).
  EXPECT_EQ(L.dim(0), B.dim(0));
  EXPECT_EQ(L.volume() + R.volume(), B.volume());
}

TEST(SplitHints, OutOfRangeHintsIgnored) {
  SplitHints H{{5000}, {}};
  Box B({{0, 9}, {0, 9}});
  auto [L, R] = splitWithHints(B, H);
  EXPECT_EQ(L.volume() + R.volume(), B.volume());
}

TEST(SplitHints, GuidedCountingVisitsFewNodes) {
  // The point of the machinery: a separable query over a huge domain must
  // resolve in a handful of nodes, not O(surface).
  Schema S("Big", {{"u", 0, 9999999}, {"v", 0, 9999999}});
  auto Q = parseQueryExpr(S, "u >= 1234567 && v <= 7654321");
  ASSERT_TRUE(Q.ok());
  SolverBudget Budget;
  CountResult R = countSat(*exprPredicate(Q.value()), Box::top(S), Budget);
  ASSERT_FALSE(R.Exhausted);
  EXPECT_EQ(R.Count, BigCount(10000000 - 1234567) * BigCount(7654322));
  EXPECT_LT(Budget.used(), 64u);
}

TEST(SplitHints, NormalizeSortsAndDedups) {
  SplitHints H{{5, 3, 5, 1}};
  normalizeSplitHints(H);
  EXPECT_EQ(H[0], (std::vector<int64_t>{1, 3, 5}));
}

TEST(SplitHints, MergeIsNormalizedUnion) {
  SplitHints A{{1, 5, 9}, {}, {2}};
  SplitHints B{{0, 5, 10}, {7}};
  EXPECT_EQ(mergeSplitHints(A, B),
            (SplitHints{{0, 1, 5, 9, 10}, {7}, {2}}));
  EXPECT_EQ(mergeSplitHints(A, {}), A);
  EXPECT_EQ(mergeSplitHints({}, B), B);
}

// Every predicate builds its hints once, at construction, by merging its
// children's sorted lists. They must equal what collecting every leaf's
// hints into one list and normalizing it once produces, which is what the
// deciders used to rebuild on every call.
TEST(SplitHints, ConstructionHintsMatchCollectThenNormalize) {
  Rng R(4049);
  for (int Case = 0; Case != 600; ++Case) {
    QueryGenConfig Config;
    Config.Arity = 1 + Case % 3;
    Config.MaxDepth = 3;
    QueryGen G(static_cast<uint64_t>(Case) * 7 + 1, Config);
    RandomPred T = randomPred(R, G, Config.Arity, 4);
    normalizeSplitHints(T.Raw);
    ASSERT_EQ(T.P->hints(), T.Raw) << "case " << Case << ": " << T.P->str();
  }
}
