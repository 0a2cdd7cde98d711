//===- tests/analysis/SolverSeedsTest.cpp - Seeded synthesis tests --------===//
//
// The region-seed contract (SynthOptions::{True,False}RegionSeed,
// DESIGN.md §7): confining a response's search to a sound
// over-approximation of its branch must keep every artifact valid and
// keep the over arm's bounding boxes identical. The cache's parent seeds
// rely on it; these tests seed with the analyzer's branch posteriors,
// the other sound over-approximation the library computes.
//
//===----------------------------------------------------------------------===//

#include "analysis/LeakageAnalyzer.h"
#include "benchlib/Problems.h"
#include "synth/Synthesizer.h"
#include "verify/RefinementChecker.h"

#include <gtest/gtest.h>

using namespace anosy;

namespace {

struct SynthRun {
  IndSets<Box> Under;
  IndSets<Box> Over;
  bool Seeded = false; ///< At least one response's search was confined.
};

SynthRun runInterval(const BenchmarkProblem &P, bool Seeded) {
  SynthOptions Opt;
  SynthRun Run;
  if (Seeded) {
    ModuleAnalysis MA = analyzeModule(P.M, {});
    const QueryAnalysis *QA = MA.find(P.query().Name);
    EXPECT_NE(QA, nullptr);
    // A posterior equal to the prior carries no information: leave that
    // response unseeded.
    Box Top = Box::top(P.M.schema());
    if (QA != nullptr && QA->TruePosterior != Top)
      Opt.TrueRegionSeed = QA->TruePosterior;
    if (QA != nullptr && QA->FalsePosterior != Top)
      Opt.FalseRegionSeed = QA->FalsePosterior;
    Run.Seeded = Opt.TrueRegionSeed || Opt.FalseRegionSeed;
  }
  auto Sy = Synthesizer::create(P.M.schema(), P.query().Body, Opt);
  EXPECT_TRUE(Sy.ok()) << P.Id << ": " << Sy.error().str();
  auto U = Sy->synthesizeInterval(ApproxKind::Under);
  auto O = Sy->synthesizeInterval(ApproxKind::Over);
  EXPECT_TRUE(U.ok()) << P.Id;
  EXPECT_TRUE(O.ok()) << P.Id;
  Run.Under = *U;
  Run.Over = *O;
  return Run;
}

} // namespace

TEST(SolverSeeds, SeededArtifactsStayValidOnAllBenchmarks) {
  unsigned SeededProblems = 0;
  for (const BenchmarkProblem &P : mardzielBenchmarks()) {
    SynthRun Seeded = runInterval(P, /*Seeded=*/true);
    SeededProblems += Seeded.Seeded;
    RefinementChecker Checker(P.M.schema(), P.query().Body);
    EXPECT_TRUE(Checker.checkIndSets(Seeded.Under, ApproxKind::Under).valid())
        << P.Id;
    EXPECT_TRUE(Checker.checkIndSets(Seeded.Over, ApproxKind::Over).valid())
        << P.Id;
  }
  EXPECT_GT(SeededProblems, 0u) << "no benchmark exercised a seed";
}

TEST(SolverSeeds, OverArmIsExactlyTheUnseededResult) {
  // The over arm computes the branch's exact bounding box; since that box
  // lies inside the seed region, confining the search cannot change it.
  for (const BenchmarkProblem &P : mardzielBenchmarks()) {
    SynthRun Plain = runInterval(P, /*Seeded=*/false);
    SynthRun Seeded = runInterval(P, /*Seeded=*/true);
    EXPECT_EQ(Plain.Over.TrueSet, Seeded.Over.TrueSet) << P.Id;
    EXPECT_EQ(Plain.Over.FalseSet, Seeded.Over.FalseSet) << P.Id;
  }
}

TEST(SolverSeeds, ArityMismatchedSeedIsRejectedAtCreate) {
  const BenchmarkProblem &Nearby = nearbyProblem();
  SynthOptions Opt;
  Opt.TrueRegionSeed = Box({{0, 1}});
  auto Sy = Synthesizer::create(Nearby.M.schema(), Nearby.query().Body, Opt);
  ASSERT_FALSE(Sy.ok());
  EXPECT_EQ(Sy.error().code(), ErrorCode::UnsupportedQuery);
}

TEST(SolverSeeds, EmptySeedRegionYieldsBottomWithoutSolving) {
  // An empty search region short-circuits the branch: synthesis returns
  // bottom (always a valid under-approximation) without burning nodes.
  const BenchmarkProblem &Nearby = nearbyProblem();
  SynthOptions Opt;
  Opt.FalseRegionSeed = Box::bottom(2);
  auto Sy = Synthesizer::create(Nearby.M.schema(), Nearby.query().Body, Opt);
  ASSERT_TRUE(Sy.ok()) << Sy.error().str();
  auto U = Sy->synthesizeInterval(ApproxKind::Under);
  ASSERT_TRUE(U.ok());
  EXPECT_TRUE(U->FalseSet.isEmpty());
}
