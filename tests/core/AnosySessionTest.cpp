//===- tests/core/AnosySessionTest.cpp - Session facade tests -------------===//

#include "core/AnosySession.h"

#include "benchlib/Problems.h"
#include "expr/Parser.h"

#include <chrono>
#include <gtest/gtest.h>

using namespace anosy;

namespace {

Module nearbyModule() {
  auto M = parseModule(R"(
    secret UserLoc { x: int[0, 400], y: int[0, 400] }
    def nearby(ox: int, oy: int): bool = abs(x - ox) + abs(y - oy) <= 100
    query nearby200 = nearby(200, 200)
    query nearby300 = nearby(300, 200)
    query nearby400 = nearby(400, 200)
  )");
  EXPECT_TRUE(M.ok());
  return M.takeValue();
}

/// Registers each of B1–B5 in its own session with default options
/// (verification on, k = 3) and returns the solver nodes the sessions
/// charged in total.
template <AbstractDomain D> uint64_t paperSuiteSessionNodes() {
  uint64_t Nodes = 0;
  for (const BenchmarkProblem &P : mardzielBenchmarks()) {
    auto S = AnosySession<D>::create(P.M, permissivePolicy<D>());
    EXPECT_TRUE(S.ok()) << P.Id << ": " << S.error().str();
    if (S.ok())
      Nodes += S->stats().SolverNodes;
  }
  return Nodes;
}

} // namespace

TEST(AnosySession, CreateSynthesizesAndVerifiesAllQueries) {
  auto S = AnosySession<Box>::create(nearbyModule(),
                                     minSizePolicy<Box>(100));
  ASSERT_TRUE(S.ok()) << S.error().str();
  for (const char *Name : {"nearby200", "nearby300", "nearby400"}) {
    const QueryArtifacts<Box> *Art = S->artifacts(Name);
    ASSERT_NE(Art, nullptr) << Name;
    EXPECT_TRUE(Art->Certificates.valid()) << Art->Certificates.str();
    EXPECT_FALSE(Art->Ind.TrueSet.isEmpty());
    EXPECT_GT(Art->Stats.SolverNodes, 0u);
    // The rendered artifact names the query and carries bounds.
    EXPECT_NE(Art->SynthesizedSource.find("under_indset_" +
                                          std::string(Name)),
              std::string::npos);
    EXPECT_NE(Art->SynthesizedSource.find("AInt"), std::string::npos);
  }
  EXPECT_EQ(S->artifacts("nope"), nullptr);
}

TEST(AnosySession, DowngradeSequenceEnforcesPolicy) {
  // The §3 trace driven end-to-end through synthesis. With the powerset
  // domain (k = 5) the synthesized approximations are precise enough for
  // the paper's two-then-reject shape: nearby200 and nearby300 are
  // authorized, nearby400 (which would pinch the knowledge to at most one
  // candidate, §2.1) is rejected.
  SessionOptions Options;
  Options.PowersetSize = 5;
  auto S = AnosySession<PowerBox>::create(
      nearbyModule(), minSizePolicy<PowerBox>(100), Options);
  ASSERT_TRUE(S.ok()) << S.error().str();
  Point Secret{300, 200};
  auto R1 = S->downgrade(Secret, "nearby200");
  ASSERT_TRUE(R1.ok()) << R1.error().str();
  EXPECT_TRUE(*R1);
  auto R2 = S->downgrade(Secret, "nearby300");
  ASSERT_TRUE(R2.ok()) << R2.error().str();
  EXPECT_TRUE(*R2);
  auto R3 = S->downgrade(Secret, "nearby400");
  ASSERT_FALSE(R3.ok());
  EXPECT_EQ(R3.error().code(), ErrorCode::PolicyViolation);
}

TEST(AnosySession, IntervalDomainSequenceViolatesEventually) {
  // The interval domain's single-box approximations are coarser: the
  // sequence still makes progress and still terminates with a policy
  // violation, only earlier (the Fig. 6 k=1-dies-first effect).
  auto S = AnosySession<Box>::create(nearbyModule(),
                                     minSizePolicy<Box>(100));
  ASSERT_TRUE(S.ok()) << S.error().str();
  Point Secret{300, 200};
  unsigned Answered = 0;
  bool Violated = false;
  Box Prev = Box::top(S->module().schema());
  for (const char *Name : {"nearby200", "nearby300", "nearby400"}) {
    auto R = S->downgrade(Secret, Name);
    if (!R.ok()) {
      EXPECT_EQ(R.error().code(), ErrorCode::PolicyViolation);
      Violated = true;
      break;
    }
    ++Answered;
    Box K = S->tracker().knowledgeFor(Secret);
    EXPECT_TRUE(K.subsetOf(Prev));
    EXPECT_TRUE(K.volume() > 100);
    Prev = K;
  }
  EXPECT_GE(Answered, 1u);
  EXPECT_TRUE(Violated);
}

TEST(AnosySession, PowersetSessionAnswersMoreQueries) {
  // §6.2's headline: higher-precision domains authorize more downgrades.
  Module M = nearbyModule();
  Point Secret{300, 200};

  auto CountAnswered = [&Secret](auto &Session) {
    unsigned N = 0;
    for (const char *Name : {"nearby200", "nearby300", "nearby400"})
      if (Session.downgrade(Secret, Name).ok())
        ++N;
    return N;
  };

  auto BoxS = AnosySession<Box>::create(M, minSizePolicy<Box>(100));
  SessionOptions PBOpts;
  PBOpts.PowersetSize = 5;
  auto PBS = AnosySession<PowerBox>::create(
      M, minSizePolicy<PowerBox>(100), PBOpts);
  ASSERT_TRUE(BoxS.ok() && PBS.ok());
  EXPECT_GE(CountAnswered(*PBS), CountAnswered(*BoxS));
}

TEST(AnosySession, RejectsUnsupportedQueries) {
  auto M = parseModule(R"(
    secret S { a: int[0, 10], b: int[0, 10] }
    query bad = a * b <= 7
  )");
  ASSERT_TRUE(M.ok());
  auto S = AnosySession<Box>::create(M.takeValue(),
                                     permissivePolicy<Box>());
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.error().code(), ErrorCode::UnsupportedQuery);
}

TEST(AnosySession, UnknownQueryAtRuntime) {
  auto S = AnosySession<Box>::create(nearbyModule(),
                                     permissivePolicy<Box>());
  ASSERT_TRUE(S.ok());
  auto R = S->downgrade({0, 0}, "not_registered");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.error().code(), ErrorCode::UnknownQuery);
}

TEST(AnosySession, VerifyOffSkipsCertificates) {
  SessionOptions Options;
  Options.Verify = false;
  auto S = AnosySession<Box>::create(nearbyModule(),
                                     permissivePolicy<Box>(), Options);
  ASSERT_TRUE(S.ok());
  EXPECT_TRUE(S->artifacts("nearby200")->Certificates.Parts.empty());
}

TEST(AnosySession, DefaultOptionsPinPaperSuiteNodeCounts) {
  // Registration runs on the one serial engine, so the solver work of a
  // default session is a fixed number: every pass over the paper suite
  // charges exactly these nodes (synthesis plus verification).
  for (int Pass = 0; Pass != 2; ++Pass) {
    SCOPED_TRACE("pass " + std::to_string(Pass));
    EXPECT_EQ(paperSuiteSessionNodes<Box>(), 7'342u);
    EXPECT_EQ(paperSuiteSessionNodes<PowerBox>(), 16'217u);
  }
}

// A field wider than 2^62. The box grower's doubling probe wrapped past
// INT64_MAX and stuck at 0, then re-probed empty slabs, which charge no
// solver node, so neither the node budget nor the deadline ever fired and
// registration never returned. Both domains must now register, well
// inside the deadline, with verified artifacts.
TEST(AnosySession, WideFieldRegistersWithinDeadline) {
  auto M = parseModule(R"(
    secret S { x: int[0, 9223372036854775806], y: int[0, 10] }
    query q = x >= 100 && y <= 3
  )");
  ASSERT_TRUE(M.ok()) << M.error().str();
  SessionOptions O;
  O.DeadlineMs = 100;
  auto Start = std::chrono::steady_clock::now();
  auto I = AnosySession<Box>::create(*M, permissivePolicy<Box>(), O);
  auto P = AnosySession<PowerBox>::create(*M, permissivePolicy<PowerBox>(), O);
  EXPECT_LT(std::chrono::steady_clock::now() - Start, std::chrono::seconds(5));
  ASSERT_TRUE(I.ok()) << I.error().str();
  ASSERT_TRUE(P.ok()) << P.error().str();
  // Each pass takes a few milliseconds; only a stalled host could make the
  // deadline degrade a query, which stays sound either way.
  if (!I->degradation().degraded()) {
    EXPECT_TRUE(I->artifacts("q")->Certificates.valid());
    EXPECT_EQ(I->artifacts("q")->Ind.TrueSet,
              Box({{100, 9223372036854775806}, {0, 3}}));
  }
  if (!P->degradation().degraded()) {
    EXPECT_TRUE(P->artifacts("q")->Certificates.valid());
  }
}

// Schemas whose fields reach both int64 extremes register in both domains
// without deadline or node cap; the asan-ubsan CI job runs this for
// overflow in the grower, the bounding-box search and the cell
// decomposition.
TEST(AnosySession, FullRangeFieldsRegister) {
  for (const char *Src : {
           R"(secret S { x: int[-9223372036854775807, 9223372036854775807],
                         y: int[0, 10] }
              query q = x >= 100 && y <= 3
              query r = x <= -5 || y == 7)",
           R"(secret S { x: int[0, 9223372036854775807],
                         y: int[-9223372036854775807, 0] }
              query q = x >= 100 && y <= -3)"}) {
    auto M = parseModule(Src);
    ASSERT_TRUE(M.ok()) << M.error().str();
    auto I = AnosySession<Box>::create(*M, permissivePolicy<Box>());
    ASSERT_TRUE(I.ok()) << I.error().str();
    EXPECT_FALSE(I->degradation().degraded());
    auto P = AnosySession<PowerBox>::create(*M, permissivePolicy<PowerBox>());
    ASSERT_TRUE(P.ok()) << P.error().str();
    EXPECT_FALSE(P->degradation().degraded());
    for (const QueryDef &Q : M->queries()) {
      EXPECT_TRUE(I->artifacts(Q.Name)->Certificates.valid()) << Q.Name;
      EXPECT_TRUE(P->artifacts(Q.Name)->Certificates.valid()) << Q.Name;
    }
  }
}
