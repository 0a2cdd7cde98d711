//===- tests/core/DegradationTest.cpp - Graceful degradation tests --------===//

#include "core/AnosySession.h"

#include "expr/Parser.h"

#include <gtest/gtest.h>

using namespace anosy;

namespace {

Module nearbyModule() {
  auto M = parseModule(R"(
    secret UserLoc { x: int[0, 400], y: int[0, 400] }
    def nearby(ox: int, oy: int): bool = abs(x - ox) + abs(y - oy) <= 100
    query nearby200 = nearby(200, 200)
    query nearby300 = nearby(300, 200)
  )");
  EXPECT_TRUE(M.ok());
  return M.takeValue();
}

/// `x + y + x + … <= 25000007` with \p Terms alternating terms: every
/// solver node evaluates the whole sum, so at 1,000 terms the search's
/// 2,570 nodes take tens of milliseconds.
Module longSumModule(unsigned Terms) {
  std::string Src = "secret S { x: int[0, 100000], y: int[0, 100000] }\n"
                    "query longsum = x";
  for (unsigned I = 1; I != Terms; ++I)
    Src += I % 2 != 0 ? " + y" : " + x";
  auto M = parseModule(Src + " <= 25000007\n");
  EXPECT_TRUE(M.ok());
  return M.takeValue();
}

Module classifierModule() {
  auto M = parseModule(R"(
    secret Person { age: int[0, 120], zip: int[0, 99] }
    classify band = if age < 18 then 0 else if age < 65 then 1 else 2
  )");
  EXPECT_TRUE(M.ok());
  return M.takeValue();
}

} // namespace

TEST(Degradation, ExhaustedSessionDegradesInsteadOfFailing) {
  SessionOptions Options;
  Options.Synth.MaxSolverNodes = 5;
  auto S = AnosySession<Box>::create(nearbyModule(),
                                     minSizePolicy<Box>(100), Options);
  ASSERT_TRUE(S.ok()) << S.error().str();
  EXPECT_TRUE(S->degradation().degraded());
  EXPECT_EQ(S->degradation().Queries.size(), 2u);
  EXPECT_EQ(S->stats().DegradedQueries, 2u);
  for (const char *Name : {"nearby200", "nearby300"}) {
    const QueryArtifacts<Box> *Art = S->artifacts(Name);
    ASSERT_NE(Art, nullptr) << Name;
    ASSERT_TRUE(Art->Degradation.has_value()) << Name;
    // Every rung is certified: either machine-checked partial sets or
    // the vacuously-valid ⊥ bundle.
    EXPECT_TRUE(Art->Certificates.valid()) << Art->Certificates.str();
    ASSERT_NE(S->degradation().find(Name), nullptr);
  }
}

TEST(Degradation, DegradedDowngradeIsConservative) {
  // The degraded session must never answer a downgrade the budget-free
  // session rejects, and any answer it gives must match.
  auto Full = AnosySession<Box>::create(nearbyModule(),
                                        minSizePolicy<Box>(100));
  ASSERT_TRUE(Full.ok());
  SessionOptions Tiny;
  Tiny.Synth.MaxSolverNodes = 5;
  auto Degraded = AnosySession<Box>::create(nearbyModule(),
                                            minSizePolicy<Box>(100), Tiny);
  ASSERT_TRUE(Degraded.ok());
  for (Point Secret : {Point{300, 200}, Point{0, 0}, Point{200, 200}}) {
    for (const char *Name : {"nearby200", "nearby300"}) {
      auto D = Degraded->downgrade(Secret, Name);
      if (D.ok()) {
        auto F = Full->downgrade(Secret, Name);
        ASSERT_TRUE(F.ok()) << "degraded session accepted a downgrade the "
                               "full session rejects";
        EXPECT_EQ(*D, *F);
      }
    }
  }
}

TEST(Degradation, BottomFallbackRejectsUnderMinSizePolicy) {
  // ⊥ posteriors have size 0 < any min-size bound: the downgrade decision
  // is a policy violation, never a leak.
  SessionOptions Tiny;
  Tiny.Synth.MaxSolverNodes = 5;
  auto S = AnosySession<Box>::create(nearbyModule(),
                                     minSizePolicy<Box>(100), Tiny);
  ASSERT_TRUE(S.ok());
  const QueryArtifacts<Box> *Art = S->artifacts("nearby200");
  ASSERT_NE(Art, nullptr);
  if (Art->Degradation && Art->Degradation->FellBack) {
    auto R = S->downgrade({300, 200}, "nearby200");
    ASSERT_FALSE(R.ok());
    EXPECT_EQ(R.error().code(), ErrorCode::PolicyViolation);
  }
}

TEST(Degradation, RetryWithGrownBudgetRecovers) {
  // 10 nodes is far too few for the first attempt; the budget quadruples
  // each retry (saturating at unlimited), so some later attempt fits and
  // the session is NOT degraded.
  SessionOptions Options;
  Options.Synth.MaxSolverNodes = 10;
  Options.Retry.MaxAttempts = 40;
  auto S = AnosySession<Box>::create(nearbyModule(),
                                     minSizePolicy<Box>(100), Options);
  ASSERT_TRUE(S.ok()) << S.error().str();
  EXPECT_FALSE(S->degradation().degraded()) << S->degradation().str();
  // Retries happened: more attempts than queries.
  EXPECT_GT(S->stats().Attempts, 2u);
  const QueryArtifacts<Box> *Art = S->artifacts("nearby200");
  ASSERT_NE(Art, nullptr);
  EXPECT_GT(Art->Attempts, 1u);
  EXPECT_TRUE(Art->Certificates.valid());
}

TEST(Degradation, SessionNodeCapBoundsTotalWork) {
  SessionOptions Options;
  Options.MaxSessionNodes = 100;
  auto S = AnosySession<Box>::create(nearbyModule(),
                                     minSizePolicy<Box>(100), Options);
  ASSERT_TRUE(S.ok()) << S.error().str();
  ASSERT_NE(S->sessionBudget(), nullptr);
  EXPECT_TRUE(S->sessionBudget()->exhausted());
  EXPECT_TRUE(S->degradation().degraded());
}

TEST(Degradation, ExpiredDeadlineStillYieldsSoundSession) {
  // Deadline of 1ms: on any machine the session budget expires almost
  // immediately; every query must still come back sound (⊥ at worst) and
  // creation must not error.
  SessionOptions Options;
  Options.DeadlineMs = 1;
  auto S = AnosySession<Box>::create(nearbyModule(),
                                     minSizePolicy<Box>(100), Options);
  ASSERT_TRUE(S.ok()) << S.error().str();
  for (const char *Name : {"nearby200", "nearby300"}) {
    const QueryArtifacts<Box> *Art = S->artifacts(Name);
    ASSERT_NE(Art, nullptr);
    EXPECT_TRUE(Art->Certificates.valid());
  }
}

TEST(Degradation, DeadlineStopsAtTheFirstNodePastIt) {
  // A 10 ms deadline passes a few hundred nodes into the 1,000-term
  // sum's search. Every charge reads the clock while a deadline is
  // armed, so the session stops there, coded `deadline`, instead of
  // finishing the search.
  auto Free = AnosySession<Box>::create(longSumModule(1000),
                                        permissivePolicy<Box>());
  ASSERT_TRUE(Free.ok()) << Free.error().str();
  ASSERT_FALSE(Free->degradation().degraded());

  SessionOptions Options;
  Options.DeadlineMs = 10;
  auto Timed = AnosySession<Box>::create(longSumModule(1000),
                                         permissivePolicy<Box>(), Options);
  ASSERT_TRUE(Timed.ok()) << Timed.error().str();
  const QueryDegradation *D = Timed->degradation().find("longsum");
  ASSERT_NE(D, nullptr) << "the deadline never stopped the search";
  EXPECT_EQ(D->code(), ReasonCode::Deadline);
  ASSERT_NE(Timed->sessionBudget(), nullptr);
  EXPECT_LT(Timed->sessionBudget()->used(), Free->stats().SolverNodes);
}

TEST(Degradation, UnlimitedSessionMatchesLegacyBehavior) {
  // No caps: identical artifacts and an empty report.
  auto Legacy = AnosySession<Box>::create(nearbyModule(),
                                          minSizePolicy<Box>(100));
  ASSERT_TRUE(Legacy.ok());
  EXPECT_FALSE(Legacy->degradation().degraded());
  EXPECT_EQ(Legacy->sessionBudget(), nullptr);
  EXPECT_EQ(Legacy->stats().DegradedQueries, 0u);
  EXPECT_GT(Legacy->stats().SolverNodes, 0u);
  EXPECT_EQ(Legacy->stats().Attempts, 2u); // one per query, no retries
}

TEST(Degradation, DegradedClassifierRefusesToDowngrade) {
  SessionOptions Tiny;
  Tiny.Synth.MaxSolverNodes = 5;
  auto S = AnosySession<Box>::create(classifierModule(),
                                     minSizePolicy<Box>(10), Tiny);
  ASSERT_TRUE(S.ok()) << S.error().str();
  ASSERT_TRUE(S->degradation().degraded());
  const QueryDegradation *Deg = S->degradation().find("band");
  ASSERT_NE(Deg, nullptr);
  EXPECT_TRUE(Deg->FellBack);
  auto R = S->downgradeClassifier({30, 42}, "band");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.error().code(), ErrorCode::PolicyViolation);
}

TEST(Degradation, ReasonNamesAreStable) {
  EXPECT_STREQ(degradationReasonName(DegradationReason::SynthesisExhausted),
               "synthesis-exhausted");
  EXPECT_STREQ(
      degradationReasonName(DegradationReason::VerificationUndecided),
      "verification-undecided");
  EXPECT_STREQ(degradationReasonName(DegradationReason::KnowledgeBaseCorrupt),
               "knowledge-base-corrupt");
  EXPECT_STREQ(
      degradationReasonName(DegradationReason::LoadedArtifactInvalid),
      "loaded-artifact-invalid");
  QueryDegradation Q{"q", DegradationReason::SynthesisExhausted, 2, true,
                     "detail"};
  EXPECT_NE(Q.str().find("bottom fallback"), std::string::npos);
  DegradationReport R;
  EXPECT_FALSE(R.degraded());
  R.Queries.push_back(Q);
  EXPECT_NE(R.str().find("synthesis-exhausted"), std::string::npos);
}
