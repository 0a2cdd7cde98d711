//===- tests/gen/CuratedCorpusTest.cpp - Hand-written corpus fixtures -----===//
//
// The curated location-family fixtures under tests/corpus/curated/: byte
// pins (the files are hand-written, so the expected bytes live here, not
// in a generator) plus oracle-checked lint verdicts. These modules exist
// because the generated corpus alone cannot distinguish the octagon tier
// from a lucky box: each one carries a query whose forced refusal is
// provable only relationally, next to near-miss queries that pin the
// tier's precision.
//
//===----------------------------------------------------------------------===//

#include "analysis/LeakageAnalyzer.h"
#include "expr/Parser.h"
#include "gen/Oracle.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

using namespace anosy;

namespace {

std::string slurp(const std::filesystem::path &P) {
  std::ifstream In(P, std::ios::binary);
  EXPECT_TRUE(In.good()) << P;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// Scores the box tier on its own (the interval refiner over the prior,
/// as the analyzer runs it before any escalation) on static rejection
/// against the exhaustive oracle, the way scoreLint scores the analyzer.
LintScore scoreBoxTier(const Module &M, int64_t MinSize,
                       const GroundTruth &GT) {
  LintScore S;
  for (const QueryDef &Q : M.queries()) {
    BranchPosteriors P =
        branchPosteriors(normalizeQuery(Q.Body), Box::top(M.schema()));
    if (P.TruePosterior.isEmpty() || P.FalsePosterior.isEmpty())
      continue; // A constant answer, never a rejection.
    bool Reject = P.TruePosterior.volume() <= MinSize ||
                  P.FalsePosterior.volume() <= MinSize;
    bool Forced = GT.find(Q.Name)->refusalForced(MinSize);
    if (Reject)
      ++(Forced ? S.RejectTP : S.RejectFP);
    else if (Forced)
      ++S.RejectFN;
  }
  return S;
}

std::filesystem::path curatedDir() {
  return std::filesystem::path(ANOSY_CORPUS_DIR) / "curated";
}

constexpr const char *OffcenterBytes =
    R"(# anosy curated scenario: family=location variant=offcenter
# Hand-written companion to the generated location fixtures: off-center
# Manhattan balls clipped by the domain boundary. The quiet_zone ball is
# interior (13 candidates) but its bounding box holds 25 > 16, so only
# the octagon tier of anosy-lint can prove the forced refusal.
# Byte-pinned by tests/gen/CuratedCorpusTest.cpp — do not hand-edit
# without updating the pin there.
#
# anosy-lint: min-size=16

secret GeoLoc { x: int[0, 49], y: int[0, 49] }

def nearby(ox: int, oy: int, r: int): bool = abs(x - ox) + abs(y - oy) <= r

query corner_ad = nearby(3, 3, 10)
query quiet_zone = nearby(8, 31, 2)
query wide_reach = nearby(25, 20, 18)
)";

constexpr const char *OverlapBytes =
    R"(# anosy curated scenario: family=location variant=overlap
# Two overlapping advertiser balls plus their conjunction (the handoff
# band where both bid) and an interior radius-1 tracker. The tracker
# keeps 5 candidates against a bounding box of 9 > 8: a forced refusal
# only the octagon tier rejects statically. The handoff intersection is
# itself an octagon — its exact count (85 > 8) must keep it admitted,
# pinning the tier's precision.
# Byte-pinned by tests/gen/CuratedCorpusTest.cpp — do not hand-edit
# without updating the pin there.
#
# anosy-lint: min-size=8

secret GeoLoc { x: int[0, 39], y: int[0, 39] }

def nearby(ox: int, oy: int, r: int): bool = abs(x - ox) + abs(y - oy) <= r

query ad_east = nearby(22, 20, 9)
query ad_west = nearby(16, 20, 9)
query handoff = nearby(22, 20, 9) && nearby(16, 20, 9)
query tracker = nearby(30, 8, 1)
)";

} // namespace

TEST(CuratedCorpus, FixtureBytesPinned) {
  EXPECT_EQ(slurp(curatedDir() / "location_offcenter.anosy"),
            OffcenterBytes);
  EXPECT_EQ(slurp(curatedDir() / "location_overlap.anosy"), OverlapBytes);
}

TEST(CuratedCorpus, OffcenterVerdictsMatchOracle) {
  auto M = parseModule(OffcenterBytes);
  ASSERT_TRUE(M.ok()) << M.error().str();
  LintOptions Opt = lintOptionsForSource(OffcenterBytes);
  EXPECT_EQ(Opt.MinSize, 16);
  GroundTruth GT = computeGroundTruth(*M);
  EXPECT_EQ(GT.find("quiet_zone")->TrueCount, 13);
  EXPECT_EQ(GT.find("corner_ad")->TrueCount, 129);

  ModuleAnalysis A = analyzeModule(*M, Opt);
  const QueryAnalysis *Quiet = A.find("quiet_zone");
  ASSERT_NE(Quiet, nullptr);
  EXPECT_EQ(Quiet->Tier, DomainTier::Octagon);
  EXPECT_TRUE(Quiet->RejectStatically);
  EXPECT_EQ(Quiet->TrueCardBound, BigCount(13));
  // The clipped corner ball keeps 129 > 16 candidates: admitted.
  EXPECT_FALSE(A.find("corner_ad")->RejectStatically);
  EXPECT_FALSE(A.find("wide_reach")->RejectStatically);

  // Scored against the exhaustive oracle: the octagon tier turns the
  // forced refusal into a true positive; the box tier alone misses it.
  // Both stay sound (precision 1.0).
  LintScore Lint = scoreLint(*M, Opt.MinSize, GT);
  EXPECT_TRUE(Lint.sound());
  EXPECT_EQ(Lint.RejectTP, 1u);
  EXPECT_EQ(Lint.RejectFN, 0u);
  LintScore BoxOnly = scoreBoxTier(*M, Opt.MinSize, GT);
  EXPECT_TRUE(BoxOnly.sound());
  EXPECT_EQ(BoxOnly.RejectTP, 0u);
  EXPECT_EQ(BoxOnly.RejectFN, 1u);
}

TEST(CuratedCorpus, OverlapVerdictsMatchOracle) {
  auto M = parseModule(OverlapBytes);
  ASSERT_TRUE(M.ok()) << M.error().str();
  LintOptions Opt = lintOptionsForSource(OverlapBytes);
  EXPECT_EQ(Opt.MinSize, 8);
  GroundTruth GT = computeGroundTruth(*M);
  EXPECT_EQ(GT.find("tracker")->TrueCount, 5);
  EXPECT_EQ(GT.find("handoff")->TrueCount, 85);

  ModuleAnalysis A = analyzeModule(*M, Opt);
  const QueryAnalysis *Tracker = A.find("tracker");
  ASSERT_NE(Tracker, nullptr);
  EXPECT_EQ(Tracker->Tier, DomainTier::Octagon);
  EXPECT_TRUE(Tracker->RejectStatically);
  EXPECT_EQ(Tracker->TrueCardBound, BigCount(5));
  // The meet of the two balls is itself an octagon, so the handoff
  // band's bound is exact — and 85 > 8 keeps it admitted.
  const QueryAnalysis *Handoff = A.find("handoff");
  ASSERT_NE(Handoff, nullptr);
  EXPECT_EQ(Handoff->TrueCardBound, BigCount(85));
  EXPECT_FALSE(Handoff->RejectStatically);
  EXPECT_FALSE(A.find("ad_east")->RejectStatically);
  EXPECT_FALSE(A.find("ad_west")->RejectStatically);

  LintScore Lint = scoreLint(*M, Opt.MinSize, GT);
  EXPECT_TRUE(Lint.sound());
  EXPECT_EQ(Lint.RejectTP, 1u);
  EXPECT_EQ(Lint.RejectFN, 0u);
  LintScore BoxOnly = scoreBoxTier(*M, Opt.MinSize, GT);
  EXPECT_TRUE(BoxOnly.sound());
  EXPECT_EQ(BoxOnly.RejectTP, 0u);
  EXPECT_EQ(BoxOnly.RejectFN, 1u);
}
