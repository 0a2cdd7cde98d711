//===- tests/gen/OracleTest.cpp - Exhaustive oracle and lint score --------===//
//
// Ground truth on hand-checkable modules, the lint scorecard's soundness
// guarantee (precisions must be 1.0), and oracle-shadowed replays on
// small modules where every admitted answer, policy decision, and
// knowledge bound can be verified independently. The Regression suite
// pins seeds that exercised tricky paths while the harness was built.
//
//===----------------------------------------------------------------------===//

#include "gen/Oracle.h"

#include "expr/Parser.h"
#include "gen/Corpus.h"
#include "gen/ScenarioGen.h"
#include "support/FaultInjection.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <vector>

using namespace anosy;

namespace {

Module tinyModule() {
  auto M = parseModule("secret S { x: int[0, 9] }\n"
                       "query high = x >= 5\n"
                       "query always = x >= 0\n"
                       "query never = x > 9\n");
  EXPECT_TRUE(M.ok()) << M.error().str();
  return *M;
}

GeneratedTrace sweepTrace(const Module &M, const TracePolicy &P,
                          const Point &Secret) {
  GeneratedTrace T;
  T.Name = "hand_sweep";
  T.ModuleName = "hand";
  T.Strategy = AttackerStrategy::Sweep;
  T.Seed = 1;
  T.Policy = P;
  T.Secrets = {Secret};
  for (const QueryDef &Q : M.queries())
    T.Steps.push_back({0, Q.Name});
  return T;
}

} // namespace

TEST(Oracle, GroundTruthCountsExactly) {
  Module M = tinyModule();
  GroundTruth GT = computeGroundTruth(M);
  EXPECT_EQ(GT.DomainSize, 10);
  const QueryTruth *High = GT.find("high");
  ASSERT_NE(High, nullptr);
  EXPECT_EQ(High->TrueCount, 5);
  EXPECT_EQ(High->FalseCount, 5);
  EXPECT_FALSE(High->constantAnswer());
  const QueryTruth *Always = GT.find("always");
  ASSERT_NE(Always, nullptr);
  EXPECT_EQ(Always->TrueCount, 10);
  EXPECT_EQ(Always->FalseCount, 0);
  EXPECT_TRUE(Always->constantAnswer());
  const QueryTruth *Never = GT.find("never");
  ASSERT_NE(Never, nullptr);
  EXPECT_EQ(Never->TrueCount, 0);
  EXPECT_TRUE(Never->constantAnswer());
  EXPECT_EQ(GT.find("ghost"), nullptr);
}

TEST(Oracle, RefusalForcedMatchesThreshold) {
  QueryTruth Q{"q", 5, 95};
  EXPECT_FALSE(Q.refusalForced(-1)); // Permissive: never forced.
  EXPECT_FALSE(Q.refusalForced(4));  // Both branches above 4.
  EXPECT_TRUE(Q.refusalForced(5));   // True branch is exactly 5: size > 5
                                     // fails for it (fig2 checks both).
  EXPECT_TRUE(Q.refusalForced(100));
}

TEST(Oracle, TracePolicyThresholds) {
  TracePolicy P;
  P.K = TracePolicy::Kind::Permissive;
  EXPECT_EQ(tracePolicyThreshold(P), -1);
  P.K = TracePolicy::Kind::MinSize;
  P.MinSize = 42;
  EXPECT_EQ(tracePolicyThreshold(P), 42);
  P.K = TracePolicy::Kind::MinEntropy;
  P.Bits = 3; // minEntropyPolicy publishes floor(2^3).
  EXPECT_EQ(tracePolicyThreshold(P), 8);
}

TEST(Oracle, PermissiveReplayAdmitsEverything) {
  Module M = tinyModule();
  TracePolicy P;
  P.K = TracePolicy::Kind::Permissive;
  GeneratedTrace T = sweepTrace(M, P, {7});
  ReplayResult R = replayWithOracle(M, T);
  EXPECT_TRUE(R.ok()) << (R.Mismatches.empty() ? "" : R.Mismatches[0]);
  EXPECT_EQ(R.Stats.Steps, 3u);
  EXPECT_EQ(R.Stats.Admitted, 3u);
  EXPECT_EQ(R.Stats.Refused, 0u);
  // x=7: high true, always true, never false.
  ASSERT_EQ(R.Outcomes.size(), 3u);
  EXPECT_EQ(R.Outcomes[0].Value, 1);
  EXPECT_EQ(R.Outcomes[1].Value, 1);
  EXPECT_EQ(R.Outcomes[2].Value, 0);
}

TEST(Oracle, MinSizeReplayRefusesSoundly) {
  Module M = tinyModule();
  TracePolicy P;
  P.K = TracePolicy::Kind::MinSize;
  P.MinSize = 6; // high splits 5/5: size > 6 fails ⇒ must refuse.
  GeneratedTrace T = sweepTrace(M, P, {7});
  ReplayResult R = replayWithOracle(M, T);
  EXPECT_TRUE(R.ok()) << (R.Mismatches.empty() ? "" : R.Mismatches[0]);
  EXPECT_GE(R.Stats.Refused, 1u);
  ASSERT_EQ(R.Outcomes.size(), 3u);
  EXPECT_FALSE(R.Outcomes[0].Admitted); // high: both branches too small.
}

TEST(Oracle, UnknownNamesAreCountedNotMismatched) {
  Module M = tinyModule();
  TracePolicy P;
  P.K = TracePolicy::Kind::Permissive;
  GeneratedTrace T = sweepTrace(M, P, {3});
  T.Steps.push_back({0, "ghost_query"});
  ReplayResult R = replayWithOracle(M, T);
  EXPECT_TRUE(R.ok()) << (R.Mismatches.empty() ? "" : R.Mismatches[0]);
  EXPECT_EQ(R.Stats.UnknownName, 1u);
}

TEST(Oracle, ClassifierReplayChecksOutputs) {
  auto M = parseModule("secret S { age: int[0, 99] }\n"
                       "query adult = age >= 18\n"
                       "classify band = if age < 18 then 0 else "
                       "if age < 65 then 1 else 2\n");
  ASSERT_TRUE(M.ok()) << M.error().str();
  GeneratedTrace T;
  T.Name = "hand_classify";
  T.ModuleName = "hand";
  T.Policy.K = TracePolicy::Kind::MinSize;
  T.Policy.MinSize = 8;
  T.Secrets = {{30}};
  T.Steps = {{0, "band"}, {0, "adult"}, {0, "band"}};
  ReplayResult R = replayWithOracle(*M, T);
  EXPECT_TRUE(R.ok()) << (R.Mismatches.empty() ? "" : R.Mismatches[0]);
  for (const StepOutcome &O : R.Outcomes)
    if (O.Admitted && !O.IsQuery)
      EXPECT_EQ(O.Value, 1); // age 30 is band 1.
}

TEST(Oracle, RejectsSecretsOutsideSchema) {
  Module M = tinyModule();
  TracePolicy P;
  P.K = TracePolicy::Kind::Permissive;
  GeneratedTrace T = sweepTrace(M, P, {1'000}); // x out of [0,9].
  ReplayResult R = replayWithOracle(M, T);
  EXPECT_FALSE(R.ok());
}

TEST(Oracle, LintScoreIsSoundOnEveryFamily) {
  for (unsigned F = 0; F != NumScenarioFamilies; ++F) {
    for (uint64_t Seed : {1, 2}) {
      ScenarioOptions Opt;
      Opt.Family = static_cast<ScenarioFamily>(F);
      Opt.Seed = Seed;
      Opt.MaxDomainSize = 2'000;
      GeneratedModule Mod = generateScenarioModule(Opt);
      auto M = parseModule(Mod.Source);
      ASSERT_TRUE(M.ok()) << Mod.Name;
      GroundTruth GT = computeGroundTruth(*M);
      LintScore S = scoreLint(*M, Mod.PolicyMinSize, GT);
      EXPECT_TRUE(S.sound())
          << Mod.Name << ": const FP " << S.ConstFP << ", reject FP "
          << S.RejectFP;
      EXPECT_EQ(S.QueriesScored, M->queries().size()) << Mod.Name;
    }
  }
}

TEST(Oracle, LintScoreFindsPlantedVerdicts) {
  // `never` is constant (lint catches x > 9 by interval arithmetic);
  // `narrow` keeps one point on the true branch, forcing refusal at
  // k = 8 and statically provably so.
  auto M = parseModule("secret S { x: int[0, 99] }\n"
                       "query never = x > 99\n"
                       "query narrow = x >= 99\n"
                       "query wide = x >= 50\n");
  ASSERT_TRUE(M.ok()) << M.error().str();
  GroundTruth GT = computeGroundTruth(*M);
  LintScore S = scoreLint(*M, 8, GT);
  EXPECT_TRUE(S.sound());
  EXPECT_GE(S.ConstTP, 1u);  // never
  EXPECT_GE(S.RejectTP, 1u); // narrow
  EXPECT_EQ(S.ConstFP, 0u);
  EXPECT_EQ(S.RejectFP, 0u);
}

TEST(Oracle, MergeAccumulates) {
  LintScore A, B;
  A.ConstTP = 1;
  A.QueriesScored = 3;
  B.RejectFN = 2;
  B.QueriesScored = 4;
  A.merge(B);
  EXPECT_EQ(A.ConstTP, 1u);
  EXPECT_EQ(A.RejectFN, 2u);
  EXPECT_EQ(A.QueriesScored, 7u);
}

// Found by `anosy_gen faults --seed 1 --scenarios 2000` (scenario 83):
// with the fault harness still armed, reloading an exported knowledge
// base re-verifies every record, and an injected undecided obligation
// makes the reload re-synthesize degraded ind. sets. The oracle's strict
// round-trip equality check must not fire on that legitimate degradation
// — it applies to fault-free replays only. The test checks that the
// scenario really injects a verifier fault, and that the seeded harness
// replays it exactly: the serial engine makes the same solver calls every
// run, so every site sees the same hits and injections.
TEST(Oracle, KbRoundTripCheckToleratesArmedFaults) {
  ScenarioOptions Opt;
  Opt.Family = static_cast<ScenarioFamily>(83 % NumScenarioFamilies);
  Opt.Seed = 83;
  Opt.MaxDomainSize = 2'000;
  GeneratedModule Mod = generateScenarioModule(Opt);
  auto M = parseModule(Mod.Source);
  ASSERT_TRUE(M.ok()) << Mod.Name;
  TracePolicy Policy;
  Policy.MinSize = Opt.PolicyMinSize;
  GeneratedTrace T = generateTrace(
      *M, Mod.Name,
      static_cast<AttackerStrategy>((83 / 3) % NumAttackerStrategies),
      Policy, 83, 8);

  // The scenario-83 configuration, re-derived exactly as the sweep does.
  Rng R(83 ^ 0xfa017ULL);
  FaultConfig FC;
  FC.Seed = 83;
  bool Any = false;
  for (unsigned S = 0; S != NumFaultSites; ++S) {
    if (R.range(0, 2) == 0)
      continue;
    FC.Sites[S].OneIn = static_cast<uint64_t>(1) << R.range(0, 6);
    FC.Sites[S].MaxFaults = static_cast<uint64_t>(R.range(0, 3));
    Any = true;
  }
  if (!Any)
    FC.Sites[static_cast<unsigned>(FaultSite::SolverCharge)].OneIn = 4;

  struct SiteCounts {
    uint64_t Hits = 0, Injected = 0;
  };
  std::vector<SiteCounts> Runs[2];
  for (std::vector<SiteCounts> &Counts : Runs) {
    faults::configure(FC);
    ReplayResult Replay =
        replayWithOracle(*M, T, {}, /*CheckKbRoundTrip=*/true);
    for (unsigned S = 0; S != NumFaultSites; ++S)
      Counts.push_back({faults::hits(static_cast<FaultSite>(S)),
                        faults::injected(static_cast<FaultSite>(S))});
    faults::reset();
    EXPECT_TRUE(Replay.ok())
        << (Replay.Mismatches.empty() ? "" : Replay.Mismatches[0]);
  }
  const unsigned Verifier =
      static_cast<unsigned>(FaultSite::VerifierObligation);
  EXPECT_GE(Runs[0][Verifier].Injected, 1u);
  for (unsigned S = 0; S != NumFaultSites; ++S) {
    EXPECT_EQ(Runs[0][S].Hits, Runs[1][S].Hits)
        << faultSiteName(static_cast<FaultSite>(S));
    EXPECT_EQ(Runs[0][S].Injected, Runs[1][S].Injected)
        << faultSiteName(static_cast<FaultSite>(S));
  }
}

// Seeds that exercised tricky paths while the harness was built: each of
// these replays end-to-end (session, oracle shadow, KB round-trip) and
// must stay mismatch-free. If one regresses, the mismatch string names
// the step and check that broke.
//
// gtest names each case by the raw bytes of its parameter, so the struct
// has no padding: Reserved fills the word after Family and is always zero.
// Padding would print whatever the stack held, and the case names would
// change from build to build.
struct RegressionCase {
  RegressionCase(ScenarioFamily Family, uint64_t ModuleSeed,
                 AttackerStrategy Strategy, TracePolicy::Kind Policy,
                 uint64_t TraceSeed)
      : Family(Family), ModuleSeed(ModuleSeed), Strategy(Strategy),
        Policy(Policy), TraceSeed(TraceSeed) {}

  ScenarioFamily Family;
  uint32_t Reserved = 0;
  uint64_t ModuleSeed;
  AttackerStrategy Strategy;
  TracePolicy::Kind Policy;
  uint64_t TraceSeed;
};
static_assert(sizeof(RegressionCase) == 32,
              "RegressionCase must have no padding bytes");

class OracleRegression
    : public ::testing::TestWithParam<RegressionCase> {};

TEST_P(OracleRegression, ReplaysClean) {
  const RegressionCase &C = GetParam();
  ScenarioOptions Opt;
  Opt.Family = C.Family;
  Opt.Seed = C.ModuleSeed;
  Opt.MaxDomainSize = 2'000;
  GeneratedModule Mod = generateScenarioModule(Opt);
  auto M = parseModule(Mod.Source);
  ASSERT_TRUE(M.ok()) << Mod.Name << ": " << M.error().str();
  TracePolicy P;
  P.K = C.Policy;
  P.MinSize = Opt.PolicyMinSize;
  GeneratedTrace T =
      generateTrace(*M, Mod.Name, C.Strategy, P, C.TraceSeed, 10);
  ReplayResult R = replayWithOracle(*M, T);
  EXPECT_TRUE(R.ok()) << Mod.Name << "/" << T.Name << ": "
                      << (R.Mismatches.empty() ? "" : R.Mismatches[0]);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, OracleRegression,
    ::testing::Values(
        // Hostile ghost names interleaved with re-asks after refusal.
        RegressionCase{ScenarioFamily::Location, 1,
                       AttackerStrategy::Hostile,
                       TracePolicy::Kind::MinSize, 3},
        // Min-entropy policy (threshold = floor(2^Bits)) on the probe
        // family's bisection ladder — the near-threshold endgame.
        RegressionCase{ScenarioFamily::Probe, 2, AttackerStrategy::Bisect,
                       TracePolicy::Kind::MinEntropy, 5},
        // Classifier downgrades mixed into a census sweep.
        RegressionCase{ScenarioFamily::Census, 3, AttackerStrategy::Sweep,
                       TracePolicy::Kind::MinSize, 7},
        // Repeat-idempotence on a constant-heavy medical module.
        RegressionCase{ScenarioFamily::Medical, 1,
                       AttackerStrategy::Repeat,
                       TracePolicy::Kind::Permissive, 11},
        // Interleaved sessions over grammar-random adversarial queries.
        RegressionCase{ScenarioFamily::Adversarial, 4,
                       AttackerStrategy::Interleave,
                       TracePolicy::Kind::MinSize, 13}));
