//===- tests/integration/PersistenceTest.cpp - Deploy-cycle tests ---------===//
//
// End-to-end deployment cycle: synthesize+verify at "build time", export
// the knowledge base, reload it in a fresh process-like context, and run
// the §3 enforcement trace without re-synthesizing — including random
// knowledge bases from the fuzz generator.
//
//===----------------------------------------------------------------------===//

#include "core/ArtifactIO.h"

#include "gen/QueryGen.h"
#include "benchlib/Problems.h"
#include "core/KnowledgeTracker.h"
#include "synth/Synthesizer.h"
#include "verify/RefinementChecker.h"

#include <gtest/gtest.h>

using namespace anosy;

TEST(Persistence, NearbyTraceThroughExportReload) {
  const BenchmarkProblem &NB = nearbyProblem();
  const Schema &S = NB.M.schema();

  // Build time: synthesize and export.
  std::vector<QueryInfo<PowerBox>> Infos;
  for (const QueryDef &Q : NB.M.queries()) {
    auto Sy = Synthesizer::create(S, Q.Body);
    ASSERT_TRUE(Sy.ok());
    auto Sets = Sy->synthesizePowerset(ApproxKind::Under, 5);
    ASSERT_TRUE(Sets.ok());
    Infos.push_back({Q.Name, Q.Body, Sets.takeValue(), ApproxKind::Under});
  }
  std::string KBText = serializeKnowledgeBaseV2(S, Infos);

  // Deploy time: reload and enforce the §3 trace.
  auto KB = parseKnowledgeBase<PowerBox>(KBText);
  ASSERT_TRUE(KB.ok()) << KB.error().str();
  KnowledgeTracker<PowerBox> T(KB->S, minSizePolicy<PowerBox>(100));
  for (QueryInfo<PowerBox> &Info : KB->Queries)
    T.registerQuery(std::move(Info));

  Point Secret{300, 200};
  EXPECT_TRUE(T.downgrade(Secret, "nearby200").ok());
  EXPECT_TRUE(T.downgrade(Secret, "nearby300").ok());
  auto R3 = T.downgrade(Secret, "nearby400");
  ASSERT_FALSE(R3.ok());
  EXPECT_EQ(R3.error().code(), ErrorCode::PolicyViolation);
}

namespace {
class RandomKnowledgeBases : public ::testing::TestWithParam<uint64_t> {};
} // namespace

TEST_P(RandomKnowledgeBases, RoundTripPreservesArtifacts) {
  QueryGenConfig Config;
  Config.ConstLo = -20;
  Config.ConstHi = 20;
  QueryGen Gen(GetParam(), Config);
  Schema S("F", {{"a", 0, 24}, {"b", 0, 24}});

  std::vector<QueryInfo<PowerBox>> Infos;
  for (int I = 0; I != 5; ++I) {
    ExprRef Q = Gen.genQuery();
    auto Sy = Synthesizer::create(S, Q);
    ASSERT_TRUE(Sy.ok());
    auto Sets = Sy->synthesizePowerset(ApproxKind::Under, 3);
    ASSERT_TRUE(Sets.ok());
    Infos.push_back({"q" + std::to_string(I), Q, Sets.takeValue(),
                     ApproxKind::Under});
  }

  auto KB = parseKnowledgeBase<PowerBox>(serializeKnowledgeBaseV2(S, Infos));
  ASSERT_TRUE(KB.ok()) << KB.error().str();
  ASSERT_EQ(KB->Queries.size(), Infos.size());
  for (size_t I = 0; I != Infos.size(); ++I) {
    // Domains round-trip to semantically equal sets.
    EXPECT_TRUE(KB->Queries[I].Ind.TrueSet == Infos[I].Ind.TrueSet)
        << Infos[I].QueryExpr->str(S);
    EXPECT_TRUE(KB->Queries[I].Ind.FalseSet == Infos[I].Ind.FalseSet);
    // Reloaded artifacts still pass the refinement checker (the bodies
    // round-tripped through the printer/parser).
    RefinementChecker Checker(KB->S, KB->Queries[I].QueryExpr);
    EXPECT_TRUE(
        Checker.checkIndSets(KB->Queries[I].Ind, ApproxKind::Under).valid())
        << Infos[I].QueryExpr->str(S);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomKnowledgeBases,
                         ::testing::Values(17, 29, 71, 113));
