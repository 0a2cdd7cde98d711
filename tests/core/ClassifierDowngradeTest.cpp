//===- tests/core/ClassifierDowngradeTest.cpp - Multi-output downgrades ---===//

#include "core/AnosySession.h"

#include "expr/Parser.h"
#include "obs/Metrics.h"
#include "obs/Obs.h"
#include "solver/ModelCounter.h"

#include <gtest/gtest.h>

using namespace anosy;

namespace {

Module bandModule() {
  auto M = parseModule(R"(
    secret Person { age: int[0, 120], zip: int[0, 99] }
    classify band = if age < 18 then 0 else if age < 65 then 1 else 2
    query adultish = age >= 18
  )");
  EXPECT_TRUE(M.ok()) << (M.ok() ? "" : M.error().str());
  return M.takeValue();
}

} // namespace

TEST(ClassifierDowngrade, SessionRegistersAndAnswers) {
  auto S = AnosySession<Box>::create(bandModule(),
                                     minSizePolicy<Box>(100));
  ASSERT_TRUE(S.ok()) << S.error().str();
  // Each band holds >= 18*100 = 1800 secrets, so the policy passes.
  auto R = S->downgradeClassifier({30, 42}, "band");
  ASSERT_TRUE(R.ok()) << R.error().str();
  EXPECT_EQ(*R, 1);
  // The posterior is the adult band.
  EXPECT_EQ(S->tracker().knowledgeFor({30, 42}),
            Box({{18, 64}, {0, 99}}));
}

TEST(ClassifierDowngrade, PolicyCheckedOnEveryOutput) {
  // Tighten the policy above the smallest band's size (minor band:
  // 18 * 100 = 1800): the downgrade must refuse regardless of the actual
  // output, because *some* output would be too revealing.
  auto S = AnosySession<Box>::create(bandModule(),
                                     minSizePolicy<Box>(2000));
  ASSERT_TRUE(S.ok()) << S.error().str();
  auto R = S->downgradeClassifier({30, 42}, "band"); // adult: 4700 > 2000
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.error().code(), ErrorCode::PolicyViolation);
  EXPECT_NE(R.error().message().find("output 0"), std::string::npos);
}

TEST(ClassifierDowngrade, UnknownClassifier) {
  auto S = AnosySession<Box>::create(bandModule(),
                                     permissivePolicy<Box>());
  ASSERT_TRUE(S.ok());
  auto R = S->downgradeClassifier({30, 42}, "nope");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.error().code(), ErrorCode::UnknownQuery);
}

TEST(ClassifierDowngrade, ComposesWithBooleanQueries) {
  // Once the band is known to be "senior", the boolean query's False
  // branch has an *empty* posterior, so a size policy must refuse it (the
  // answer is implied, but Fig. 2 checks both branches). A permissive
  // policy lets the composition through and refines the knowledge.
  Point Secret{70, 10};

  auto Strict = AnosySession<Box>::create(bandModule(),
                                          minSizePolicy<Box>(100));
  ASSERT_TRUE(Strict.ok()) << Strict.error().str();
  ASSERT_TRUE(Strict->downgradeClassifier(Secret, "band").ok());
  auto Refused = Strict->downgrade(Secret, "adultish");
  ASSERT_FALSE(Refused.ok());
  EXPECT_EQ(Refused.error().code(), ErrorCode::PolicyViolation);

  auto Open = AnosySession<Box>::create(bandModule(),
                                        permissivePolicy<Box>());
  ASSERT_TRUE(Open.ok()) << Open.error().str();
  auto Band = Open->downgradeClassifier(Secret, "band");
  ASSERT_TRUE(Band.ok());
  EXPECT_EQ(*Band, 2);
  auto Adult = Open->downgrade(Secret, "adultish");
  ASSERT_TRUE(Adult.ok());
  EXPECT_TRUE(*Adult);
  Box K = Open->tracker().knowledgeFor(Secret);
  EXPECT_TRUE(K.subsetOf(Box({{65, 120}, {0, 99}})));
}

TEST(ClassifierDowngrade, PowersetDomainSession) {
  SessionOptions Options;
  Options.PowersetSize = 2;
  auto S = AnosySession<PowerBox>::create(
      bandModule(), minSizePolicy<PowerBox>(100), Options);
  ASSERT_TRUE(S.ok()) << S.error().str();
  auto R = S->downgradeClassifier({10, 5}, "band");
  ASSERT_TRUE(R.ok()) << R.error().str();
  EXPECT_EQ(*R, 0);
  EXPECT_EQ(S->tracker().knowledgeFor({10, 5}).size().toInt64(),
            18 * 100);
}

TEST(ClassifierDowngrade, TrackerLevelSoundness) {
  // The stored posterior under-approximates the true post-observation
  // knowledge {x | band(x) = band(s)}.
  auto M = bandModule();
  auto S = AnosySession<Box>::create(M, permissivePolicy<Box>());
  ASSERT_TRUE(S.ok());
  Point Secret{16, 3};
  auto R = S->downgradeClassifier(Secret, "band");
  ASSERT_TRUE(R.ok());
  const ClassifierDef *C = M.findClassifier("band");
  PredicateRef SameBand =
      exprPredicate(eq(C->Body, intConst(*R)));
  PredicateRef Escapee = andPredicate(
      inBoxPredicate(S->tracker().knowledgeFor(Secret)),
      notPredicate(SameBand));
  EXPECT_TRUE(countSatExact(*Escapee, Box::top(M.schema())).isZero());
}

TEST(ClassifierDowngrade, UnregisteredOutputAdmitsNothing) {
  // A classifier whose registered ind. sets miss one output (a KB record
  // or hand-built ClassifierInfo can lack one): a secret that produces
  // that output fails verification, is not counted as admitted, and
  // leaves its knowledge as it was.
  obs::ScopedEnable Obs(true);
  auto S = AnosySession<Box>::create(bandModule(), minSizePolicy<Box>(100));
  ASSERT_TRUE(S.ok()) << S.error().str();
  ClassifierInfo<Box> Band = *S->tracker().classifierInfo("band");
  ASSERT_EQ(Band.Ind.size(), 3u);
  Band.Ind.erase(Band.Ind.begin() + 1); // the adult band, output 1

  // A permissive tracker, so that only the missing ind. set can refuse.
  KnowledgeTracker<Box> T(S->tracker().schema(), permissivePolicy<Box>());
  T.registerQuery(*S->tracker().queryInfo("adultish"));
  T.registerClassifier(Band);
  const Point Secret{30, 42};
  ASSERT_TRUE(T.downgrade(Secret, "adultish").ok());
  const Box Before = T.knowledgeFor(Secret);

  obs::Counter &AdmittedTotal = obs::MetricsRegistry::global().counter(
      "anosy_downgrades_admitted_total");
  const uint64_t AdmittedBefore = AdmittedTotal.value();
  auto R = T.downgradeClassifier(Secret, "band");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.error().code(), ErrorCode::VerificationFailure);
  EXPECT_EQ(AdmittedTotal.value(), AdmittedBefore);
  EXPECT_EQ(T.knowledgeFor(Secret), Before);
  EXPECT_EQ(T.trackedSecretCount(), 1u);

  // The same refusal on an untracked secret stores nothing.
  auto Fresh = T.downgradeClassifier({40, 7}, "band");
  ASSERT_FALSE(Fresh.ok());
  EXPECT_EQ(Fresh.error().code(), ErrorCode::VerificationFailure);
  EXPECT_EQ(AdmittedTotal.value(), AdmittedBefore);
  EXPECT_FALSE(T.hasTrackedKnowledge({40, 7}));
}
