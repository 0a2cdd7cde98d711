//===- tests/verify/RefinementCheckerTest.cpp - Fig. 4 checking tests -----===//

#include "verify/RefinementChecker.h"

#include "expr/Eval.h"
#include "expr/Parser.h"

#include <gtest/gtest.h>

using namespace anosy;

namespace {

Schema userLoc() {
  return Schema("UserLoc", {{"x", 0, 400}, {"y", 0, 400}});
}

ExprRef nearby200(const Schema &S) {
  auto R = parseQueryExpr(S, "abs(x - 200) + abs(y - 200) <= 100");
  EXPECT_TRUE(R.ok());
  return R.value();
}

} // namespace

TEST(RefinementChecker, AcceptsPaperUnderIndSet) {
  // §2.2's hand-written under_indset for nearby(200,200):
  // True: x in [121,279], y in [179,221]; False: x in [0,400], y in [0,99].
  Schema S = userLoc();
  RefinementChecker C(S, nearby200(S));
  IndSets<Box> Sets{Box({{121, 279}, {179, 221}}),
                    Box({{0, 400}, {0, 99}})};
  CertificateBundle B = C.checkIndSets(Sets, ApproxKind::Under);
  EXPECT_TRUE(B.valid()) << B.str();
  EXPECT_EQ(B.Parts.size(), 2u);
  EXPECT_GT(C.solverNodesUsed(), 0u);
}

TEST(RefinementChecker, RejectsUnsoundUnderIndSetWithWitness) {
  Schema S = userLoc();
  ExprRef Q = nearby200(S);
  RefinementChecker C(S, Q);
  // One row too far: x = 280, y = 221 is at distance 80 + 21 = 101.
  IndSets<Box> Sets{Box({{121, 280}, {179, 221}}),
                    Box({{0, 400}, {0, 99}})};
  CertificateBundle B = C.checkIndSets(Sets, ApproxKind::Under);
  ASSERT_FALSE(B.valid());
  const Certificate *Fail = B.firstFailure();
  ASSERT_NE(Fail, nullptr);
  ASSERT_TRUE(Fail->CounterExample.has_value());
  // The witness is a real violation: inside the domain, fails the query.
  EXPECT_TRUE(Sets.TrueSet.contains(*Fail->CounterExample));
  EXPECT_FALSE(evalBool(*Q, *Fail->CounterExample));
}

TEST(RefinementChecker, BottomIsVacuouslyCorrectUnder) {
  // §4.2: "the bottom and top domains are vacuously correct solutions for
  // under- and over-approximations, respectively".
  Schema S = userLoc();
  RefinementChecker C(S, nearby200(S));
  IndSets<Box> Sets{Box::bottom(2), Box::bottom(2)};
  EXPECT_TRUE(C.checkIndSets(Sets, ApproxKind::Under).valid());
}

TEST(RefinementChecker, TopIsVacuouslyCorrectOver) {
  Schema S = userLoc();
  RefinementChecker C(S, nearby200(S));
  IndSets<Box> Sets{Box::top(S), Box::top(S)};
  EXPECT_TRUE(C.checkIndSets(Sets, ApproxKind::Over).valid());
}

TEST(RefinementChecker, AcceptsExactOverIndSet) {
  Schema S = userLoc();
  RefinementChecker C(S, nearby200(S));
  IndSets<Box> Sets{Box({{100, 300}, {100, 300}}), Box::top(S)};
  EXPECT_TRUE(C.checkIndSets(Sets, ApproxKind::Over).valid());
}

TEST(RefinementChecker, RejectsTooSmallOverIndSet) {
  Schema S = userLoc();
  ExprRef Q = nearby200(S);
  RefinementChecker C(S, Q);
  // Misses satisfying points near the left tip of the diamond.
  IndSets<Box> Sets{Box({{150, 300}, {100, 300}}), Box::top(S)};
  CertificateBundle B = C.checkIndSets(Sets, ApproxKind::Over);
  ASSERT_FALSE(B.valid());
  const Certificate *Fail = B.firstFailure();
  ASSERT_TRUE(Fail->CounterExample.has_value());
  EXPECT_TRUE(evalBool(*Q, *Fail->CounterExample));
  EXPECT_FALSE(Sets.TrueSet.contains(*Fail->CounterExample));
}

TEST(RefinementChecker, PowerBoxIndSets) {
  Schema S = userLoc();
  RefinementChecker C(S, nearby200(S));
  // A two-box under-approximation of the diamond plus a one-box False set.
  IndSets<PowerBox> Sets{
      PowerBox(2, {Box({{150, 250}, {150, 250}}),
                   Box({{121, 279}, {179, 221}})},
               {}),
      PowerBox(2, {Box({{0, 400}, {0, 99}})}, {})};
  EXPECT_TRUE(C.checkIndSets(Sets, ApproxKind::Under).valid());

  // Adding a box that pokes outside the diamond must be rejected.
  IndSets<PowerBox> Bad = Sets;
  Bad.TrueSet = PowerBox(
      2, {Box({{150, 250}, {150, 250}}), Box({{90, 110}, {190, 210}})}, {});
  EXPECT_FALSE(C.checkIndSets(Bad, ApproxKind::Under).valid());
}

TEST(RefinementChecker, PowerBoxOverWithExcludes) {
  Schema S = userLoc();
  RefinementChecker C(S, nearby200(S));
  // Bounding box minus a corner wedge that contains no diamond point.
  PowerBox OverTrue(2, {Box({{100, 300}, {100, 300}})},
                    {Box({{100, 120}, {100, 120}})});
  IndSets<PowerBox> Sets{OverTrue, PowerBox::top(S)};
  EXPECT_TRUE(C.checkIndSets(Sets, ApproxKind::Over).valid());

  // Excluding a region that *does* contain satisfying points is unsound.
  PowerBox BadTrue(2, {Box({{100, 300}, {100, 300}})},
                   {Box({{190, 210}, {190, 210}})});
  IndSets<PowerBox> Bad{BadTrue, PowerBox::top(S)};
  EXPECT_FALSE(C.checkIndSets(Bad, ApproxKind::Over).valid());
}

TEST(RefinementChecker, PosteriorUnderSpec) {
  Schema S = userLoc();
  RefinementChecker C(S, nearby200(S));
  Box Prior({{0, 250, }, {0, 250}});
  // postT/postF = ind-set ∩ prior (Fig. 4's underapprox definition).
  Box PostT = Box({{121, 279}, {179, 221}}).intersect(Prior);
  Box PostF = Box({{0, 400}, {0, 99}}).intersect(Prior);
  EXPECT_TRUE(
      C.checkPosterior(Prior, PostT, PostF, ApproxKind::Under).valid());

  // A posterior escaping the prior violates the x ∈ p conjunct.
  CertificateBundle Bad = C.checkPosterior(
      Prior, Box({{121, 279}, {179, 221}}), PostF, ApproxKind::Under);
  EXPECT_FALSE(Bad.valid());
}

TEST(RefinementChecker, PosteriorOverSpec) {
  Schema S = userLoc();
  RefinementChecker C(S, nearby200(S));
  Box Prior({{0, 250}, {0, 250}});
  Box PostT = Box({{100, 300}, {100, 300}}).intersect(Prior);
  Box PostF = Prior; // every prior point may answer False here
  EXPECT_TRUE(
      C.checkPosterior(Prior, PostT, PostF, ApproxKind::Over).valid());

  // Clipping the True posterior drops satisfying prior points: unsound.
  CertificateBundle Bad = C.checkPosterior(
      Prior, Box({{150, 300}, {150, 300}}).intersect(Prior), PostF,
      ApproxKind::Over);
  EXPECT_FALSE(Bad.valid());
}

TEST(RefinementChecker, ExhaustionMarksCertificates) {
  Schema S = userLoc();
  RefinementChecker C(S, nearby200(S), /*MaxSolverNodes=*/2);
  IndSets<Box> Sets{Box({{121, 279}, {179, 221}}), Box({{0, 400}, {0, 99}})};
  CertificateBundle B = C.checkIndSets(Sets, ApproxKind::Under);
  EXPECT_FALSE(B.valid());
  ASSERT_NE(B.firstFailure(), nullptr);
  EXPECT_TRUE(B.firstFailure()->Exhausted);
}

TEST(RefinementChecker, CertificateRendering) {
  Certificate C;
  C.Obligation = "forall x. x in dT => query x";
  C.Valid = false;
  C.CounterExample = Point{280, 221};
  std::string Out = C.str();
  EXPECT_NE(Out.find("[FAIL]"), std::string::npos);
  EXPECT_NE(Out.find("(280, 221)"), std::string::npos);
  C.Valid = true;
  C.CounterExample.reset();
  EXPECT_NE(C.str().find("[ok]"), std::string::npos);
}

// A field reaching INT64_MAX: dT = [0, MAX] x [0, 10] minus [0, 100] x
// [0, 10] holds (200, 5), which falsifies the query. The cell
// decomposition once wrapped at MAX + 1, found the exclude covering the
// whole include, and certified this artifact. The second artifact's
// excludes overlap, so its membership test takes the cell decomposition
// and not the disjoint volume sum.
TEST(RefinementChecker, RefutesArtifactReachingInt64Max) {
  Schema S("Wide", {{"x", 0, INT64_MAX}, {"y", 0, 10}});
  auto Q = parseQueryExpr(S, "x >= 100 && y <= 3");
  ASSERT_TRUE(Q.ok());
  RefinementChecker C(S, Q.value());
  const Box Include({{0, INT64_MAX}, {0, 10}});
  for (std::vector<Box> Excludes :
       {std::vector<Box>{Box({{0, 100}, {0, 10}})},
        std::vector<Box>{Box({{0, 100}, {0, 10}}),
                         Box({{50, 150}, {0, 10}})}}) {
    SCOPED_TRACE(Excludes.size());
    IndSets<PowerBox> Sets{PowerBox(2, {Include}, Excludes), PowerBox(2)};
    ASSERT_EQ(Sets.TrueSet.includes().size(), 1u);
    EXPECT_TRUE(Sets.TrueSet.member({200, 5}));
    CertificateBundle B = C.checkIndSets(Sets, ApproxKind::Under);
    const Certificate *Fail = B.firstRefuted();
    ASSERT_NE(Fail, nullptr) << B.str();
    ASSERT_TRUE(Fail->CounterExample.has_value());
    EXPECT_TRUE(Sets.TrueSet.member(*Fail->CounterExample));
    EXPECT_FALSE(evalBool(*Q.value(), *Fail->CounterExample));
  }
}
