//===- tests/domains/BoxTest.cpp - Box unit tests --------------------------===//

#include "domains/Box.h"

#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace anosy;

namespace {

Schema userLoc() {
  return Schema("UserLoc", {{"x", 0, 400}, {"y", 0, 400}});
}

Box box(int64_t XL, int64_t XH, int64_t YL, int64_t YH) {
  return Box({{XL, XH}, {YL, YH}});
}

} // namespace

TEST(Box, TopCoversSchema) {
  Box T = Box::top(userLoc());
  EXPECT_FALSE(T.isEmpty());
  EXPECT_EQ(T.arity(), 2u);
  EXPECT_EQ(T.volume().toInt64(), 401 * 401);
  EXPECT_TRUE(T.contains({0, 0}));
  EXPECT_TRUE(T.contains({400, 400}));
  EXPECT_FALSE(T.contains({401, 0}));
}

TEST(Box, BottomIsEmpty) {
  Box B = Box::bottom(2);
  EXPECT_TRUE(B.isEmpty());
  EXPECT_TRUE(B.volume().isZero());
  EXPECT_FALSE(B.contains({0, 0}));
}

TEST(Box, EmptyDimensionPropagates) {
  Box B({{0, 10}, Interval::empty()});
  EXPECT_TRUE(B.isEmpty());
  // Canonicalization makes all empty boxes of one arity equal.
  EXPECT_EQ(B, Box::bottom(2));
}

TEST(Box, PointBox) {
  Box P = Box::point({300, 200});
  EXPECT_TRUE(P.isUnit());
  EXPECT_EQ(P.volume().toInt64(), 1);
  EXPECT_EQ(P.center(), (Point{300, 200}));
}

TEST(Box, ContainsIsPerDimension) {
  Box B = box(121, 279, 179, 221); // the paper's §3 post1 region
  EXPECT_TRUE(B.contains({200, 200}));
  EXPECT_TRUE(B.contains({121, 179}));
  EXPECT_FALSE(B.contains({120, 200}));
  EXPECT_FALSE(B.contains({200, 222}));
}

TEST(Box, PaperPost1Volume) {
  // §3: post1 = {121..279, 179..221}, |post1| = 6837.
  EXPECT_EQ(box(121, 279, 179, 221).volume().toInt64(), 6837);
  // §3: post2 = {221..279, 179..221}, |post2| = 2537.
  EXPECT_EQ(box(221, 279, 179, 221).volume().toInt64(), 2537);
}

TEST(Box, SubsetOf) {
  EXPECT_TRUE(box(2, 3, 2, 3).subsetOf(box(0, 5, 0, 5)));
  EXPECT_FALSE(box(0, 5, 0, 5).subsetOf(box(2, 3, 2, 3)));
  EXPECT_TRUE(Box::bottom(2).subsetOf(box(2, 3, 2, 3)));
  EXPECT_FALSE(box(2, 3, 2, 3).subsetOf(Box::bottom(2)));
  EXPECT_TRUE(box(0, 5, 2, 3).subsetOf(box(0, 5, 2, 3)));
}

TEST(Box, IntersectMatchesSetSemantics) {
  Box A = box(0, 10, 0, 10), B = box(5, 15, 5, 15);
  Box I = A.intersect(B);
  EXPECT_EQ(I, box(5, 10, 5, 10));
  EXPECT_TRUE(A.intersect(box(11, 12, 0, 10)).isEmpty());
  EXPECT_TRUE(A.intersect(Box::bottom(2)).isEmpty());
}

TEST(Box, IntersectsAgreesWithIntersectRandomized) {
  // Small coordinates make touching, nested and disjoint pairs common; an
  // inverted interval makes a box empty, and the full range checks the
  // per-dimension test at the int64 rails.
  Rng R(91);
  auto RandInterval = [&R]() -> Interval {
    switch (R.range(0, 9)) {
    case 0:
      return {INT64_MIN, INT64_MAX};
    case 1:
      return {R.range(1, 6), R.range(-1, 0)}; // empty
    default: {
      int64_t Lo = R.range(0, 6);
      return {Lo, R.range(Lo, 7)};
    }
    }
  };
  for (int Trial = 0; Trial != 2000; ++Trial) {
    size_t Arity = static_cast<size_t>(R.range(1, 6));
    std::vector<Interval> DA, DB;
    for (size_t D = 0; D != Arity; ++D) {
      DA.push_back(RandInterval());
      DB.push_back(RandInterval());
    }
    Box A(DA), B(DB);
    bool Expected = !A.intersect(B).isEmpty();
    EXPECT_EQ(A.intersects(B), Expected) << A.str() << " vs " << B.str();
    EXPECT_EQ(B.intersects(A), Expected) << B.str() << " vs " << A.str();
  }
  EXPECT_FALSE(Box::bottom(2).intersects(Box::bottom(2)));
  EXPECT_FALSE(box(0, 3, 0, 3).intersects(Box::bottom(2)));
  EXPECT_TRUE(box(0, 3, 0, 3).intersects(box(3, 5, 3, 5))); // one corner
  EXPECT_FALSE(box(0, 3, 0, 3).intersects(box(4, 5, 0, 3)));
}

// Two fields live inline; anything wider goes to the heap. The box must
// stay small, since the tracker stores one per posterior include.
static_assert(sizeof(Box) <= 48, "Box outgrew its inline storage budget");

TEST(Box, WideBoxOperations) {
  for (size_t Arity : {3u, 5u}) {
    std::vector<Interval> Outer, Inner;
    for (size_t D = 0; D != Arity; ++D) {
      Outer.push_back({0, 10 + static_cast<int64_t>(D)});
      Inner.push_back({2, 4});
    }
    const Box O(Outer), I(Inner);
    ASSERT_EQ(O.arity(), Arity);
    const size_t Last = Arity - 1;

    Box W = O.withDim(Last, {3, 4});
    EXPECT_EQ(W.dim(Last), (Interval{3, 4}));
    for (size_t D = 0; D != Last; ++D)
      EXPECT_EQ(W.dim(D), O.dim(D));
    EXPECT_EQ(O.withDim(1, Interval::empty()), Box::bottom(Arity));

    auto [L, R] = O.splitAt(Last);
    EXPECT_EQ(L.volume() + R.volume(), O.volume());
    EXPECT_TRUE(L.intersect(R).isEmpty());
    EXPECT_FALSE(L.intersects(R));
    EXPECT_EQ(L.hull(R), O);
    EXPECT_EQ(L.dim(Last), (Interval{0, O.dim(Last).midpoint()}));

    EXPECT_TRUE(I.subsetOf(O));
    EXPECT_FALSE(O.subsetOf(I));
    EXPECT_TRUE(Box::bottom(Arity).subsetOf(I));
    EXPECT_FALSE(I.subsetOf(Box::bottom(Arity)));

    Box Far = I.withDim(0, {20, 30});
    EXPECT_EQ(I.hull(Far).dim(0), (Interval{2, 30}));
    EXPECT_EQ(I.hull(Box::bottom(Arity)), I);
    EXPECT_EQ(O.intersect(I), I);
    EXPECT_TRUE(I.intersect(Far).isEmpty());

    EXPECT_EQ(Box(Outer), O);
    EXPECT_NE(I, O);
    EXPECT_NE(O, W);
    EXPECT_NE(O, Box::bottom(Arity));
    EXPECT_NE(Box::bottom(Arity), Box::bottom(2));
    EXPECT_EQ(Box(Inner).withDim(2, {9, 1}), Box::bottom(Arity));
  }
}

TEST(Box, CopyAndMoveAcrossInlineAndHeapStorage) {
  const Box Narrow = box(0, 3, 5, 9);
  const Box Wide({{0, 1}, {2, 3}, {4, 5}, {6, 7}, {8, 9}});

  Box A(Wide), B(Narrow);
  EXPECT_EQ(A, Wide);
  EXPECT_EQ(B, Narrow);
  A = Narrow; // heap <- inline
  EXPECT_EQ(A, Narrow);
  B = Wide; // inline <- heap
  EXPECT_EQ(B, Wide);
  B = Wide; // heap <- heap of the same arity
  EXPECT_EQ(B, Wide);

  Box C(std::move(B)); // heap move
  EXPECT_EQ(C, Wide);
  EXPECT_EQ(B.arity(), 0u); // moved-from: the 0-ary empty box
  EXPECT_TRUE(B.isEmpty());
  Box D(std::move(A)); // inline move
  EXPECT_EQ(D, Narrow);
  EXPECT_EQ(A.arity(), 0u);

  A = std::move(C); // moved-from <- heap
  EXPECT_EQ(A, Wide);
  A = std::move(D); // heap <- inline
  EXPECT_EQ(A, Narrow);
  D = Wide;
  D = std::move(A); // heap <- inline, by move
  EXPECT_EQ(D, Narrow);
  A = Wide;
  B = Narrow;
  B = std::move(A); // inline <- heap, by move
  EXPECT_EQ(B, Wide);

  Box &SelfW = B;
  B = SelfW;
  EXPECT_EQ(B, Wide);
  B = std::move(SelfW);
  EXPECT_EQ(B, Wide);
  Box &SelfN = D;
  D = SelfN;
  D = std::move(SelfN);
  EXPECT_EQ(D, Narrow);

  // A copy owns its intervals.
  Box E = Wide;
  E = E.withDim(4, {0, 0});
  EXPECT_NE(E, Wide);
  EXPECT_EQ(Wide.dim(4), (Interval{8, 9}));

  // Vector growth relocates boxes of both kinds.
  std::vector<Box> V;
  for (int I = 0; I != 40; ++I)
    V.push_back(I % 2 ? Wide : Narrow);
  for (int I = 0; I != 40; ++I)
    EXPECT_EQ(V[I], I % 2 ? Wide : Narrow);
}

TEST(Box, Hull) {
  EXPECT_EQ(box(0, 1, 0, 1).hull(box(5, 6, 5, 6)), box(0, 6, 0, 6));
  EXPECT_EQ(Box::bottom(2).hull(box(5, 6, 5, 6)), box(5, 6, 5, 6));
}

TEST(Box, WithDim) {
  Box B = box(0, 10, 0, 10).withDim(1, {3, 4});
  EXPECT_EQ(B, box(0, 10, 3, 4));
}

TEST(Box, WidestDim) {
  EXPECT_EQ(box(0, 10, 0, 3).widestDim(), 0u);
  EXPECT_EQ(box(0, 2, 0, 30).widestDim(), 1u);
}

TEST(Box, SplitCoversAndPartitions) {
  Box B = box(0, 10, 0, 4);
  auto [L, R] = B.splitAt(0);
  EXPECT_EQ(L.volume() + R.volume(), B.volume());
  EXPECT_TRUE(L.intersect(R).isEmpty());
  EXPECT_TRUE(L.subsetOf(B));
  EXPECT_TRUE(R.subsetOf(B));
}

TEST(Box, SplitOddWidth) {
  Box B = Box({{0, 2}});
  auto [L, R] = B.splitAt(0);
  EXPECT_EQ(L.volume() + R.volume(), B.volume());
  EXPECT_FALSE(L.isEmpty());
  EXPECT_FALSE(R.isEmpty());
}

TEST(Box, Str) {
  EXPECT_EQ(box(1, 2, 3, 4).str(), "[1, 2] x [3, 4]");
  EXPECT_EQ(Box::bottom(2).str(), "<empty/2>");
}

// Regression (ISSUE 5): splitAt and center went through the naive signed
// midpoint, which overflows (UB) on full- and near-full-range dimensions;
// the old wraparound split produced the degenerate [MIN, MIN] / rest pair.
TEST(Box, SplitAtFullRange) {
  Box Full({{INT64_MIN, INT64_MAX}});
  auto [L, R] = Full.splitAt(0);
  EXPECT_EQ(L.dim(0), (Interval{INT64_MIN, -1}));
  EXPECT_EQ(R.dim(0), (Interval{0, INT64_MAX}));
  EXPECT_EQ((L.volume() + R.volume()).str(), Full.volume().str());
  EXPECT_TRUE(L.intersect(R).isEmpty());
}

TEST(Box, SplitAtNearFullRange) {
  Box B({{INT64_MIN + 1, INT64_MAX}});
  auto [L, R] = B.splitAt(0);
  EXPECT_EQ(L.dim(0), (Interval{INT64_MIN + 1, 0}));
  EXPECT_EQ(R.dim(0), (Interval{1, INT64_MAX}));
  EXPECT_EQ((L.volume() + R.volume()).str(), B.volume().str());
}

TEST(Box, CenterFullRange) {
  Box Full({{INT64_MIN, INT64_MAX}, {0, INT64_MAX}});
  Point C = Full.center();
  ASSERT_EQ(C.size(), 2u);
  EXPECT_EQ(C[0], -1);
  EXPECT_EQ(C[1], INT64_MAX / 2);
  EXPECT_TRUE(Full.contains(C));
}
