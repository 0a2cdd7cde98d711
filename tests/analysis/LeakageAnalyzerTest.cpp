//===- tests/analysis/LeakageAnalyzerTest.cpp - anosy-lint tests ----------===//

#include "analysis/LeakageAnalyzer.h"

#include "analysis/LintReport.h"
#include "benchlib/Problems.h"
#include "core/AnosySession.h"
#include "core/Qif.h"
#include "expr/Parser.h"

#include <gtest/gtest.h>

using namespace anosy;

namespace {

Module parse(const std::string &Src) {
  auto M = parseModule(Src);
  EXPECT_TRUE(M.ok()) << (M.ok() ? "" : M.error().str());
  return M.takeValue();
}

} // namespace

TEST(LeakageAnalyzer, CleanQueryOverWidePrior) {
  Module M = parse("secret S { x: int[0, 400] }\n"
                   "query low = x <= 100\n");
  LintOptions Opt;
  Opt.MinSize = 50;
  ModuleAnalysis A = analyzeModule(M, Opt);
  ASSERT_EQ(A.Queries.size(), 1u);
  EXPECT_EQ(A.Queries[0].Verdict, LintVerdict::Clean);
  EXPECT_FALSE(A.Queries[0].RejectStatically);
  EXPECT_EQ(A.count(LintSeverity::Error), 0u);
}

TEST(LeakageAnalyzer, PolicyUnsatisfiableWhenBranchTooSmall) {
  // The True branch keeps 11 candidates <= k = 100: the monitor would
  // refuse this query for every secret, so lint rejects it statically.
  Module M = parse("secret S { x: int[0, 400] }\n"
                   "query tight = x <= 10\n");
  LintOptions Opt;
  Opt.MinSize = 100;
  ModuleAnalysis A = analyzeModule(M, Opt);
  ASSERT_EQ(A.Queries.size(), 1u);
  EXPECT_EQ(A.Queries[0].Verdict, LintVerdict::PolicyUnsatisfiable);
  EXPECT_TRUE(A.Queries[0].RejectStatically);
  EXPECT_TRUE(A.hasErrors());
}

TEST(LeakageAnalyzer, ConstantAnswerBothPolarities) {
  Module M = parse("secret S { x: int[0, 10] }\n"
                   "query always = x >= 0\n"
                   "query never = x < 0\n");
  ModuleAnalysis A = analyzeModule(M, {});
  const QueryAnalysis *Always = A.find("always");
  ASSERT_NE(Always, nullptr);
  EXPECT_EQ(Always->Verdict, LintVerdict::ConstantAnswer);
  EXPECT_TRUE(Always->SkipSynthesis);
  ASSERT_TRUE(Always->ConstantValue.has_value());
  EXPECT_TRUE(*Always->ConstantValue);
  const QueryAnalysis *Never = A.find("never");
  ASSERT_NE(Never, nullptr);
  ASSERT_TRUE(Never->ConstantValue.has_value());
  EXPECT_FALSE(*Never->ConstantValue);
  // Constant answers are notes, not errors: they leak nothing.
  EXPECT_EQ(A.count(LintSeverity::Error), 0u);
}

TEST(LeakageAnalyzer, RelationalHotspotNoted) {
  Module M = parse("secret S { x: int[0, 400], y: int[0, 400] }\n"
                   "query near = abs(x - 200) + abs(y - 200) <= 100\n");
  ModuleAnalysis A = analyzeModule(M, {});
  ASSERT_EQ(A.Queries.size(), 1u);
  EXPECT_EQ(A.Queries[0].Verdict, LintVerdict::RelationalHotspot);
  EXPECT_TRUE(A.Queries[0].Features.Relational);
  EXPECT_EQ(A.Queries[0].TruePosterior, Box({{100, 300}, {100, 300}}));
}

TEST(LeakageAnalyzer, SessionBudgetRiskFlagsCorneringChain) {
  // Three overlapping windows: answering True to each pins x down to a
  // single candidate — some answer path must trip a k=10 policy.
  Module M = parse("secret S { x: int[0, 100] }\n"
                   "query a = x >= 40 && x <= 60\n"
                   "query b = x >= 50 && x <= 70\n"
                   "query c = x >= 50 && x <= 50\n");
  LintOptions Opt;
  Opt.MinSize = 10;
  ModuleAnalysis A = analyzeModule(M, Opt);
  bool SawRisk = false;
  for (const LintDiagnostic &D : A.Diagnostics)
    if (D.Verdict == LintVerdict::SessionBudgetRisk) {
      SawRisk = true;
      EXPECT_EQ(D.Severity, LintSeverity::Warning);
    }
  EXPECT_TRUE(SawRisk);
}

TEST(LeakageAnalyzer, SessionBudgetRiskSkipsRejectedQueries) {
  // The narrow query is rejected statically, so the monitor refuses it
  // for every secret: the chain must not count its posterior.
  Module M = parse("secret S { x: int[0, 100] }\n"
                   "query narrow = x == 5\n"
                   "query wide = x <= 60\n");
  LintOptions Opt;
  Opt.MinSize = 10;
  ModuleAnalysis A = analyzeModule(M, Opt);
  const QueryAnalysis *Narrow = A.find("narrow");
  ASSERT_NE(Narrow, nullptr);
  EXPECT_TRUE(Narrow->RejectStatically);
  for (const LintDiagnostic &D : A.Diagnostics)
    EXPECT_NE(D.Verdict, LintVerdict::SessionBudgetRisk)
        << "chain must skip statically rejected queries";
}

TEST(LeakageAnalyzer, DeterministicAndRenderable) {
  LintOptions Opt;
  Opt.MinSize = 100;
  std::vector<LintedModule> A, B;
  for (const BenchmarkProblem &P : mardzielBenchmarks()) {
    A.push_back({P.Id, Opt, analyzeModule(P.M, Opt)});
    B.push_back({P.Id, Opt, analyzeModule(P.M, Opt)});
  }
  // Bit-identical reports across runs (the analyzer has no threads, no
  // randomness, no solver).
  EXPECT_EQ(renderLintText(A), renderLintText(B));
  EXPECT_EQ(renderLintJson(A), renderLintJson(B));
  EXPECT_NE(renderLintJson(A).find("\"modules\""), std::string::npos);
}

TEST(LeakageAnalyzer, PragmaParsing) {
  LintOptions Base;
  Base.MinSize = 7;
  LintOptions None = lintOptionsForSource("secret S { x: int[0,1] }", Base);
  EXPECT_EQ(None.MinSize, 7);
  LintOptions One = lintOptionsForSource(
      "# anosy-lint: min-size=123\nsecret S { x: int[0,1] }", Base);
  EXPECT_EQ(One.MinSize, 123);
  // Last occurrence wins; unknown keys are ignored.
  LintOptions Two = lintOptionsForSource("# anosy-lint: min-size=1\n"
                                         "# anosy-lint: frobnicate=9\n"
                                         "# anosy-lint: min-size=42\n",
                                         Base);
  EXPECT_EQ(Two.MinSize, 42);
}

// === The octagon escalation tier (DESIGN.md §7) =========================

TEST(LeakageAnalyzer, OctagonTierRejectsInteriorTracker) {
  // The location-family recall gap in miniature: the radius-1 ball keeps
  // 5 candidates, but its bounding box keeps 9 > k = 8, so the box tier
  // cannot reject. The octagon tier counts the ball exactly and does.
  Module M = parse("secret GeoLoc { x: int[0, 49], y: int[0, 49] }\n"
                   "query tracker = abs(x - 25) + abs(y - 25) <= 1\n");
  LintOptions Opt;
  Opt.MinSize = 8;
  ModuleAnalysis A = analyzeModule(M, Opt);
  ASSERT_EQ(A.Queries.size(), 1u);
  const QueryAnalysis &Q = A.Queries[0];
  EXPECT_EQ(Q.Tier, DomainTier::Octagon);
  EXPECT_EQ(Q.Verdict, LintVerdict::PolicyUnsatisfiable);
  EXPECT_TRUE(Q.RejectStatically);
  EXPECT_EQ(Q.TrueCardBound, BigCount(5));
  EXPECT_TRUE(A.hasErrors());
}

TEST(LeakageAnalyzer, OctagonTierKeepsPrecisionOnAdmissibleBall) {
  // Precision 1.0 is non-negotiable: the radius-2 ball keeps 13 > k = 8
  // candidates, so the exact octagon count must NOT reject it even
  // though the escalation tier ran.
  Module M = parse("secret GeoLoc { x: int[0, 49], y: int[0, 49] }\n"
                   "query pinpoint = abs(x - 25) + abs(y - 25) <= 2\n");
  LintOptions Opt;
  Opt.MinSize = 8;
  ModuleAnalysis A = analyzeModule(M, Opt);
  ASSERT_EQ(A.Queries.size(), 1u);
  const QueryAnalysis &Q = A.Queries[0];
  EXPECT_EQ(Q.Tier, DomainTier::Octagon);
  EXPECT_EQ(Q.Verdict, LintVerdict::RelationalHotspot);
  EXPECT_FALSE(Q.RejectStatically);
  EXPECT_EQ(Q.TrueCardBound, BigCount(13));
  EXPECT_FALSE(A.hasErrors());
}

TEST(LeakageAnalyzer, OctagonTierProvesRelationalConstantAnswer) {
  // x + y = 0 ∧ x − y = 1 has a rational witness but no integer one;
  // the box tier narrows without concluding, the tight integer closure
  // proves the True branch empty — an exact ConstantAnswer(false).
  Module M = parse("secret S { x: int[-5, 5], y: int[-5, 5] }\n"
                   "query odd = x + y == 0 && x - y == 1\n");
  ModuleAnalysis A = analyzeModule(M, {});
  ASSERT_EQ(A.Queries.size(), 1u);
  const QueryAnalysis &Q = A.Queries[0];
  EXPECT_EQ(Q.Tier, DomainTier::Octagon);
  EXPECT_EQ(Q.Verdict, LintVerdict::ConstantAnswer);
  EXPECT_TRUE(Q.SkipSynthesis);
  ASSERT_TRUE(Q.ConstantValue.has_value());
  EXPECT_FALSE(*Q.ConstantValue);
}

TEST(LeakageAnalyzer, RelationalOffKeepsBoxBehaviour) {
  // The box tier on its own, as the analyzer runs it before escalating:
  // the tracker keeps its bounding box, 9 > k = 8 candidates, so the box
  // tier cannot reject it. The octagon tier, which starts from these
  // posteriors, is what rejects it (OctagonTierRejectsInteriorTracker).
  Module M = parse("secret GeoLoc { x: int[0, 49], y: int[0, 49] }\n"
                   "query tracker = abs(x - 25) + abs(y - 25) <= 1\n");
  NormalizedQuery N = normalizeQuery(M.queries()[0].Body);
  BranchPosteriors P = branchPosteriors(N, Box::top(M.schema()));
  EXPECT_EQ(P.TruePosterior, Box({{24, 26}, {24, 26}}));
  EXPECT_EQ(P.TruePosterior.volume(), BigCount(9));
  EXPECT_EQ(P.FalsePosterior, Box::top(M.schema()));
  EXPECT_TRUE(analyzeQuery(*N.True).Relational);

  RelationalPosteriors RP = relationalBranchPosteriors(N, P);
  EXPECT_EQ(RP.True.CardBound, BigCount(5));
  EXPECT_TRUE(RP.True.BoxPosterior.subsetOf(P.TruePosterior));
}

TEST(LeakageAnalyzer, RelationalPragmaParsing) {
  // The octagon tier is no longer selectable: a `relational=` pragma left
  // in an old module is ignored like any unknown key, and a min-size
  // beside it still applies.
  LintOptions Base;
  Base.MinSize = 7;
  LintOptions Off = lintOptionsForSource(
      "# anosy-lint: relational=off\nsecret S { x: int[0,1] }", Base);
  EXPECT_EQ(Off.MinSize, 7);
  LintOptions Both = lintOptionsForSource(
      "# anosy-lint: min-size=9, relational=off\n", Base);
  EXPECT_EQ(Both.MinSize, 9);

  Module M = parse("secret GeoLoc { x: int[0, 49], y: int[0, 49] }\n"
                   "query tracker = abs(x - 25) + abs(y - 25) <= 1\n");
  LintOptions Opt;
  Opt.MinSize = 8;
  ModuleAnalysis A = analyzeModule(
      M, lintOptionsForSource("# anosy-lint: relational=off\n", Opt));
  EXPECT_EQ(A.Queries[0].Tier, DomainTier::Octagon);
  EXPECT_TRUE(A.Queries[0].RejectStatically);
}

TEST(LeakageAnalyzer, PragmaIgnoresOutOfRangeMinSize) {
  // A 20-digit value does not fit int64; it is ignored the way an
  // unknown key is, not accumulated past the limit.
  LintOptions Base;
  Base.MinSize = 7;
  LintOptions Huge = lintOptionsForSource(
      "# anosy-lint: min-size=99999999999999999999\n", Base);
  EXPECT_EQ(Huge.MinSize, 7);
  LintOptions Max = lintOptionsForSource(
      "# anosy-lint: min-size=9223372036854775807\n", Base);
  EXPECT_EQ(Max.MinSize, INT64_MAX);
  LintOptions Later = lintOptionsForSource(
      "# anosy-lint: min-size=99999999999999999999, min-size=12\n", Base);
  EXPECT_EQ(Later.MinSize, 12);
}

TEST(LeakageAnalyzer, JsonEscaping) {
  // Module names are file paths and reach the JSON report verbatim; the
  // report must stay valid JSON whatever characters they hold.
  Module M = parse("secret S { x: int[0, 10] }\n"
                   "query q = x <= 5\n");
  std::vector<LintedModule> Mods;
  for (const char *Name : {"plain", "a\"b\\c", "x\ny", "cr\rlf"})
    Mods.push_back({Name, LintOptions{}, analyzeModule(M, {})});
  std::string Json = renderLintJson(Mods);
  EXPECT_NE(Json.find("{\"module\": \"plain\","), std::string::npos);
  EXPECT_NE(Json.find("{\"module\": \"a\\\"b\\\\c\","), std::string::npos);
  EXPECT_NE(Json.find("{\"module\": \"x\\ny\","), std::string::npos);
  EXPECT_NE(Json.find("{\"module\": \"cr\\rlf\","), std::string::npos);
  EXPECT_EQ(Json.find('\r'), std::string::npos);
}

// === Session integration: admission without solver spend ===============

TEST(StaticAdmission, B3PhotoRejectsWithZeroSolverNodes) {
  // The acceptance pin: B3's photo query keeps 4 candidates on the True
  // branch (Table 1), so under the paper's k=100 qpolicy lint rejects it
  // statically and the session spends ZERO solver nodes on it.
  const BenchmarkProblem &B3 = benchmarkById("B3");
  SessionOptions Opt;
  Opt.StaticAdmission = true;
  auto S = AnosySession<Box>::create(B3.M, minSizePolicy<Box>(100), Opt);
  ASSERT_TRUE(S.ok()) << (S.ok() ? "" : S.error().str());

  const std::string &Name = B3.query().Name;
  const QueryArtifacts<Box> *Art = S->artifacts(Name);
  ASSERT_NE(Art, nullptr);
  EXPECT_EQ(Art->Stats.SolverNodes, 0u);
  EXPECT_EQ(Art->Attempts, 0u);
  EXPECT_TRUE(Art->Ind.TrueSet.isEmpty());
  EXPECT_TRUE(Art->Ind.FalseSet.isEmpty());
  ASSERT_TRUE(Art->Degradation.has_value());
  EXPECT_EQ(Art->Degradation->Reason, DegradationReason::StaticallyRejected);

  // The whole session (B3 has a single query) ran solver-free.
  EXPECT_EQ(S->stats().SolverNodes, 0u);

  // And the runtime monitor refuses the downgrade for any secret, as the
  // static argument promised.
  Point Secret(B3.M.schema().arity(), 1);
  auto R = S->downgrade(Secret, Name);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.error().code(), ErrorCode::PolicyViolation);
}

TEST(StaticAdmission, ConstantAnswerSkipsSynthesis) {
  Module M = parse("secret S { x: int[0, 10] }\n"
                   "query always = x >= 0\n");
  SessionOptions Opt;
  Opt.StaticAdmission = true;
  auto S = AnosySession<Box>::create(M, permissivePolicy<Box>(), Opt);
  ASSERT_TRUE(S.ok()) << (S.ok() ? "" : S.error().str());
  const QueryArtifacts<Box> *Art = S->artifacts("always");
  ASSERT_NE(Art, nullptr);
  EXPECT_EQ(Art->Stats.SolverNodes, 0u);
  EXPECT_EQ(Art->Attempts, 0u);
  EXPECT_EQ(Art->Ind.TrueSet, Box::top(M.schema()));
  EXPECT_TRUE(Art->Ind.FalseSet.isEmpty());
  // Constant answers are exact, not degraded.
  EXPECT_FALSE(Art->Degradation.has_value());
  // The downgrade itself works and answers True for any secret.
  auto R = S->downgrade(Point{5}, "always");
  ASSERT_TRUE(R.ok()) << R.error().str();
  EXPECT_TRUE(R.value());
}

TEST(StaticAdmission, RejectedQueryNeverChargesSessionBudget) {
  const BenchmarkProblem &B3 = benchmarkById("B3");
  SessionOptions Opt;
  Opt.StaticAdmission = true;
  Opt.MaxSessionNodes = 1'000'000;
  auto S = AnosySession<Box>::create(B3.M, minSizePolicy<Box>(100), Opt);
  ASSERT_TRUE(S.ok()) << (S.ok() ? "" : S.error().str());
  ASSERT_NE(S->sessionBudget(), nullptr);
  EXPECT_EQ(S->sessionBudget()->used(), 0u);
}

TEST(StaticAdmission, OffByDefaultKeepsLegacyBehaviour) {
  // Without the opt-in, the same module/policy pair synthesizes normally
  // (and spends real solver nodes) even though lint would reject it.
  const BenchmarkProblem &B3 = benchmarkById("B3");
  auto S = AnosySession<Box>::create(B3.M, minSizePolicy<Box>(100), {});
  ASSERT_TRUE(S.ok()) << (S.ok() ? "" : S.error().str());
  EXPECT_GT(S->stats().SolverNodes, 0u);
  EXPECT_TRUE(S->analysis().Queries.empty());
}

TEST(StaticAdmission, MinEntropyPolicyPublishesThreshold) {
  // minEntropyPolicy(12 bits) must surface MinSize = 4096 to the
  // analyzer (size > 2^12 and size > 4096 agree on integers).
  auto P = minEntropyPolicy<Box>(12.0);
  ASSERT_TRUE(P.MinSize.has_value());
  EXPECT_EQ(*P.MinSize, 4096);
  EXPECT_FALSE(permissivePolicy<Box>().MinSize.has_value());
  EXPECT_EQ(*minSizePolicy<Box>(100).MinSize, 100);
}
