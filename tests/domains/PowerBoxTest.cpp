//===- tests/domains/PowerBoxTest.cpp - PowerBox unit tests ---------------===//

#include "domains/PowerBox.h"

#include "support/Rng.h"

#include <algorithm>

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

TEST(PowerBox, TopAndBottom) {
  Schema S = userLoc();
  PowerBox T = PowerBox::top(S);
  PowerBox B = PowerBox::bottom(S);
  EXPECT_EQ(T.size().toInt64(), 401 * 401);
  EXPECT_TRUE(B.size().isZero());
  EXPECT_TRUE(B.isEmptySet());
  EXPECT_TRUE(T.member({200, 200}));
  EXPECT_FALSE(B.member({200, 200}));
}

TEST(PowerBox, MemberRespectsExcludes) {
  PowerBox P(2, {box(0, 9, 0, 9)}, {box(3, 6, 3, 6)});
  EXPECT_TRUE(P.member({0, 0}));
  EXPECT_FALSE(P.member({4, 4}));
  EXPECT_TRUE(P.member({3, 2}));
  EXPECT_FALSE(P.member({10, 10}));
}

TEST(PowerBox, SizeIsExactUnderOverlap) {
  // Two overlapping includes: 4x4 + 4x4 overlapping in 2x4 = 16+16-8 = 24.
  PowerBox P(2, {box(0, 3, 0, 3), box(2, 5, 0, 3)}, {});
  EXPECT_EQ(P.size().toInt64(), 24);
  // The paper's linear estimate double-counts the overlap.
  EXPECT_EQ(P.sizeLinearEstimate().toInt64(), 32);
}

TEST(PowerBox, SizeWithExcludes) {
  PowerBox P(2, {box(0, 9, 0, 9)}, {box(0, 9, 0, 4)});
  EXPECT_EQ(P.size().toInt64(), 50);
}

TEST(PowerBox, NormalizeDropsUselessBoxes) {
  PowerBox P(2,
             {box(0, 9, 0, 9), box(2, 3, 2, 3), Box::bottom(2)},
             {box(100, 110, 100, 110), Box::bottom(2)});
  // The subsumed include, the empty boxes, and the exclude that touches no
  // include are all gone.
  EXPECT_EQ(P.includes().size(), 1u);
  EXPECT_TRUE(P.excludes().empty());
}

TEST(PowerBox, NormalizeDropsFullyExcludedIncludes) {
  PowerBox P(2, {box(0, 1, 0, 1), box(5, 6, 5, 6)}, {box(0, 2, 0, 2)});
  EXPECT_EQ(P.includes().size(), 1u);
  EXPECT_EQ(P.size().toInt64(), 4);
}

TEST(PowerBox, SubsetOfExact) {
  PowerBox Small(2, {box(1, 2, 1, 2)}, {});
  PowerBox Big(2, {box(0, 9, 0, 9)}, {});
  EXPECT_TRUE(Small.subsetOf(Big));
  EXPECT_FALSE(Big.subsetOf(Small));
  // Subset through a *union*: [0,9] = [0,4] ∪ [5,9] — the syntactic §4.4
  // criterion cannot see this, the exact one can.
  PowerBox Halves(2, {box(0, 4, 0, 9), box(5, 9, 0, 9)}, {});
  EXPECT_TRUE(Big.subsetOf(Halves));
  EXPECT_FALSE(Big.subsetOfSyntactic(Halves));
  EXPECT_TRUE(Small.subsetOfSyntactic(Big));
}

TEST(PowerBox, SubsetOfWithExcludes) {
  PowerBox Holey(2, {box(0, 9, 0, 9)}, {box(3, 6, 3, 6)});
  PowerBox Full(2, {box(0, 9, 0, 9)}, {});
  EXPECT_TRUE(Holey.subsetOf(Full));
  EXPECT_FALSE(Full.subsetOf(Holey));
}

TEST(PowerBox, IntersectPairwise) {
  PowerBox A(2, {box(0, 5, 0, 5)}, {});
  PowerBox B(2, {box(3, 9, 3, 9)}, {});
  PowerBox I = A.intersect(B);
  EXPECT_EQ(I.size().toInt64(), 9); // [3,5]^2
  EXPECT_TRUE(I.subsetOf(A));
  EXPECT_TRUE(I.subsetOf(B));
}

TEST(PowerBox, IntersectMergesExcludes) {
  PowerBox A(2, {box(0, 9, 0, 9)}, {box(0, 1, 0, 1)});
  PowerBox B(2, {box(0, 9, 0, 9)}, {box(8, 9, 8, 9)});
  PowerBox I = A.intersect(B);
  EXPECT_EQ(I.size().toInt64(), 100 - 4 - 4);
  EXPECT_FALSE(I.member({0, 0}));
  EXPECT_FALSE(I.member({9, 9}));
  EXPECT_TRUE(I.member({5, 5}));
}

TEST(PowerBox, IntersectionSemanticsRandomized) {
  // Grid [0, 14]^2; every box below lies inside it.
  Rng R(77);
  auto RandBox = [&R](int64_t MaxWidth) {
    int64_t XL = R.range(0, 12), YL = R.range(0, 12);
    return Box({{XL, std::min<int64_t>(14, R.range(XL, XL + MaxWidth))},
                {YL, std::min<int64_t>(14, R.range(YL, YL + MaxWidth))}});
  };
  auto InAny = [](const std::vector<Box> &Boxes, const Point &P) {
    for (const Box &B : Boxes)
      if (B.contains(P))
        return true;
    return false;
  };
  auto PointCount = [](const PowerBox &P) {
    int64_t N = 0;
    for (int64_t X = 0; X <= 14; ++X)
      for (int64_t Y = 0; Y <= 14; ++Y)
        N += P.member({X, Y});
    return N;
  };
  // A family as raw lists: odd trials draw disjoint, exclude-free ones (a
  // candidate that shares a grid point with an earlier include is
  // dropped), even trials anything, overlaps and an exclude included.
  struct Family {
    std::vector<Box> Inc, Exc;
  };
  auto RandFamily = [&](bool Disjoint) {
    Family F;
    for (int I = 0, N = static_cast<int>(R.range(1, Disjoint ? 6 : 3));
         I != N; ++I) {
      Box C = RandBox(Disjoint ? 4 : 14);
      bool Meets = false;
      for (int64_t X = 0; X <= 14 && Disjoint && !Meets; ++X)
        for (int64_t Y = 0; Y <= 14 && !Meets; ++Y)
          Meets = C.contains({X, Y}) && InAny(F.Inc, {X, Y});
      if (!Meets)
        F.Inc.push_back(C);
    }
    if (!Disjoint && R.range(0, 1))
      F.Exc.push_back(RandBox(14));
    return F;
  };
  for (int Trial = 0; Trial != 60; ++Trial) {
    const bool Disjoint = Trial % 2 == 1;
    Family FA = RandFamily(Disjoint), FB = RandFamily(Disjoint);
    PowerBox A(2, FA.Inc, FA.Exc), B(2, FB.Inc, FB.Exc);
    PowerBox I = A.intersect(B);
    for (int64_t X = 0; X <= 14; ++X)
      for (int64_t Y = 0; Y <= 14; ++Y) {
        Point P{X, Y};
        bool Expected = InAny(FA.Inc, P) && !InAny(FA.Exc, P) &&
                        InAny(FB.Inc, P) && !InAny(FB.Exc, P);
        EXPECT_EQ(I.member(P), Expected)
            << "trial " << Trial << " at (" << X << "," << Y << ")";
      }
    EXPECT_EQ(I.size(), differenceVolume(I.includes(), I.excludes(), 2))
        << "trial " << Trial;
    EXPECT_EQ(I.size().toInt64(), PointCount(I)) << "trial " << Trial;
    if (!Disjoint)
      continue;
    // The fast path: both sides and the meet are disjoint families, the
    // includes are kept as given, and the meet's includes are exactly the
    // non-empty pairwise intersections in order.
    ASSERT_TRUE(A.disjoint() && B.disjoint()) << "trial " << Trial;
    EXPECT_EQ(A.includes(), FA.Inc) << "trial " << Trial;
    EXPECT_TRUE(I.disjoint()) << "trial " << Trial;
    EXPECT_TRUE(I.excludes().empty());
    std::vector<Box> Pairwise;
    for (const Box &BA : FA.Inc)
      for (const Box &BB : FB.Inc)
        if (!BA.intersect(BB).isEmpty())
          Pairwise.push_back(BA.intersect(BB));
    EXPECT_EQ(I.includes(), Pairwise) << "trial " << Trial;
  }
}

TEST(PowerBox, DisjointFlagTracksRepresentation) {
  Schema S = userLoc();
  EXPECT_TRUE(PowerBox::top(S).disjoint());
  EXPECT_TRUE(PowerBox::bottom(S).disjoint());
  PowerBox Halves(2, {box(0, 4, 0, 9), box(5, 9, 0, 9)}, {});
  EXPECT_TRUE(Halves.disjoint());
  // Overlapping includes or any exclude leave the exact path in charge.
  PowerBox Overlap(2, {box(0, 3, 0, 3), box(2, 5, 0, 3)}, {});
  EXPECT_FALSE(Overlap.disjoint());
  PowerBox Holey(2, {box(0, 9, 0, 9)}, {box(3, 6, 3, 6)});
  EXPECT_FALSE(Holey.disjoint());
  // Normalization runs first: a subsumed include or an exclude that misses
  // every include does not count against the family.
  EXPECT_TRUE(PowerBox(2, {box(0, 9, 0, 9), box(2, 3, 2, 3)},
                       {box(100, 110, 100, 110)})
                  .disjoint());
  // The meet of two disjoint families is one; a meet that keeps an
  // exclude or an overlap is not, and is still sized exactly.
  EXPECT_TRUE(Halves.intersect(PowerBox::top(S)).disjoint());
  EXPECT_FALSE(Halves.intersect(Holey).disjoint());
  PowerBox Meet = Overlap.intersect(Halves);
  EXPECT_FALSE(Meet.disjoint());
  EXPECT_EQ(Meet.size().toInt64(), 24);
  // Pruning keeps a subset, which stays disjoint.
  PowerBox Pruned = Halves;
  Pruned.pruneForUnder(1);
  EXPECT_TRUE(Pruned.disjoint());
  EXPECT_EQ(Pruned.size().toInt64(), 50);
}

TEST(PowerBox, PruneForUnderOnlyShrinks) {
  std::vector<Box> Inc;
  for (int I = 0; I != 10; ++I)
    Inc.push_back(box(I * 20, I * 20 + I, 0, 9)); // growing volumes
  PowerBox P(2, Inc, {});
  BigCount Before = P.size();
  PowerBox Pruned = P;
  Pruned.pruneForUnder(4);
  EXPECT_LE(Pruned.includes().size(), 4u);
  EXPECT_TRUE(Pruned.subsetOf(P));
  EXPECT_TRUE(Pruned.size() <= Before);
  // The largest boxes were kept.
  EXPECT_TRUE(Pruned.member({186, 5})); // box 9: [180,189]
}

TEST(PowerBox, EqualityIsSemantic) {
  PowerBox A(2, {box(0, 9, 0, 9)}, {});
  PowerBox B(2, {box(0, 4, 0, 9), box(5, 9, 0, 9)}, {});
  EXPECT_TRUE(A == B);
}

TEST(PowerBox, FromBox) {
  PowerBox P = PowerBox::fromBox(box(1, 2, 3, 4));
  EXPECT_EQ(P.size().toInt64(), 4);
  PowerBox E = PowerBox::fromBox(Box::bottom(2));
  EXPECT_TRUE(E.isEmptySet());
}

TEST(PowerBox, StrRendering) {
  PowerBox P(2, {box(0, 1, 0, 1)}, {box(0, 0, 0, 0)});
  EXPECT_EQ(P.str(), "{[0, 1] x [0, 1]} \\ {[0, 0] x [0, 0]}");
}
