//===- tests/core/ArtifactIOTest.cpp - Knowledge-base persistence tests ---===//

#include "core/ArtifactIO.h"

#include "core/AnosySession.h"
#include "expr/Eval.h"
#include "expr/Parser.h"
#include "verify/RefinementChecker.h"

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

/// Synthesized QueryInfos for the module's queries at domain D.
template <AbstractDomain D>
std::vector<QueryInfo<D>> synthesizeAll(const Module &M, unsigned K) {
  std::vector<QueryInfo<D>> Infos;
  for (const QueryDef &Q : M.queries()) {
    auto Sy = Synthesizer::create(M.schema(), Q.Body);
    EXPECT_TRUE(Sy.ok());
    QueryInfo<D> Info;
    Info.Name = Q.Name;
    Info.QueryExpr = Q.Body;
    if constexpr (std::is_same_v<D, Box>) {
      auto Sets = Sy->synthesizeInterval(ApproxKind::Under);
      EXPECT_TRUE(Sets.ok());
      Info.Ind = Sets.takeValue();
    } else {
      auto Sets = Sy->synthesizePowerset(ApproxKind::Under, K);
      EXPECT_TRUE(Sets.ok());
      Info.Ind = Sets.takeValue();
    }
    Infos.push_back(std::move(Info));
  }
  return Infos;
}

} // namespace

TEST(ArtifactIO, IntervalRoundTrip) {
  Module M = nearbyModule();
  auto Infos = synthesizeAll<Box>(M, 1);
  std::string Text = serializeKnowledgeBase(M.schema(), Infos);
  EXPECT_NE(Text.find("anosy-knowledge-base v1 domain interval"),
            std::string::npos);

  auto KB = parseKnowledgeBase<Box>(Text);
  ASSERT_TRUE(KB.ok()) << KB.error().str();
  EXPECT_EQ(KB->S.name(), "UserLoc");
  ASSERT_EQ(KB->Queries.size(), 2u);
  for (size_t I = 0; I != 2; ++I) {
    EXPECT_EQ(KB->Queries[I].Name, Infos[I].Name);
    EXPECT_EQ(KB->Queries[I].Ind.TrueSet, Infos[I].Ind.TrueSet);
    EXPECT_EQ(KB->Queries[I].Ind.FalseSet, Infos[I].Ind.FalseSet);
    // Query bodies round-trip semantically.
    EXPECT_TRUE(evalBool(*KB->Queries[I].QueryExpr, {200, 200}) ==
                evalBool(*Infos[I].QueryExpr, {200, 200}));
  }
}

TEST(ArtifactIO, PowersetRoundTrip) {
  Module M = nearbyModule();
  auto Infos = synthesizeAll<PowerBox>(M, 3);
  std::string Text = serializeKnowledgeBase(M.schema(), Infos);
  auto KB = parseKnowledgeBase<PowerBox>(Text);
  ASSERT_TRUE(KB.ok()) << KB.error().str();
  ASSERT_EQ(KB->Queries.size(), 2u);
  for (size_t I = 0; I != 2; ++I) {
    EXPECT_TRUE(KB->Queries[I].Ind.TrueSet == Infos[I].Ind.TrueSet);
    EXPECT_TRUE(KB->Queries[I].Ind.FalseSet == Infos[I].Ind.FalseSet);
  }
}

TEST(ArtifactIO, LoadedArtifactsStillVerify) {
  // The deployment story: artifacts can be re-verified after loading,
  // so a tampered knowledge base is caught before enforcement trusts it.
  Module M = nearbyModule();
  auto Infos = synthesizeAll<PowerBox>(M, 3);
  std::string Text = serializeKnowledgeBase(M.schema(), Infos);
  auto KB = parseKnowledgeBase<PowerBox>(Text);
  ASSERT_TRUE(KB.ok());
  for (const QueryInfo<PowerBox> &Info : KB->Queries) {
    RefinementChecker Checker(KB->S, Info.QueryExpr);
    EXPECT_TRUE(Checker.checkIndSets(Info.Ind, ApproxKind::Under).valid())
        << Info.Name;
  }
}

TEST(ArtifactIO, TamperedArtifactFailsVerification) {
  Module M = nearbyModule();
  auto Infos = synthesizeAll<Box>(M, 1);
  // Inflate the True box beyond the diamond.
  Infos[0].Ind.TrueSet = Box({{0, 400}, {0, 400}});
  std::string Text = serializeKnowledgeBase(M.schema(), Infos);
  auto KB = parseKnowledgeBase<Box>(Text);
  ASSERT_TRUE(KB.ok());
  RefinementChecker Checker(KB->S, KB->Queries[0].QueryExpr);
  EXPECT_FALSE(
      Checker.checkIndSets(KB->Queries[0].Ind, ApproxKind::Under).valid());
}

TEST(ArtifactIO, LoadIntoTrackerSkipsSynthesis) {
  Module M = nearbyModule();
  std::string Text =
      serializeKnowledgeBase(M.schema(), synthesizeAll<PowerBox>(M, 3));
  auto KB = parseKnowledgeBase<PowerBox>(Text);
  ASSERT_TRUE(KB.ok());

  KnowledgeTracker<PowerBox> T(KB->S, minSizePolicy<PowerBox>(100));
  for (QueryInfo<PowerBox> &Info : KB->Queries)
    T.registerQuery(std::move(Info));
  auto R = T.downgrade({300, 200}, "nearby200");
  ASSERT_TRUE(R.ok());
  EXPECT_TRUE(*R);
}

TEST(ArtifactIO, EmptyDomainsSerialize) {
  Schema S("S", {{"a", 0, 10}});
  QueryInfo<Box> Info;
  Info.Name = "never";
  auto Q = parseQueryExpr(S, "a > 100");
  ASSERT_TRUE(Q.ok());
  Info.QueryExpr = Q.value();
  Info.Ind.TrueSet = Box::bottom(1);
  Info.Ind.FalseSet = Box({{0, 10}});
  std::vector<QueryInfo<Box>> Infos{Info};
  std::string Text = serializeKnowledgeBase(S, Infos);
  auto KB = parseKnowledgeBase<Box>(Text);
  ASSERT_TRUE(KB.ok()) << KB.error().str();
  EXPECT_TRUE(KB->Queries[0].Ind.TrueSet.isEmpty());
}

TEST(ArtifactIO, NegativeCoordinatesRoundTrip) {
  Schema S("T", {{"lon", -74100000, -74000000}});
  QueryInfo<Box> Info;
  Info.Name = "west";
  auto Q = parseQueryExpr(S, "lon <= -74050000");
  ASSERT_TRUE(Q.ok());
  Info.QueryExpr = Q.value();
  Info.Ind.TrueSet = Box({{-74100000, -74050000}});
  Info.Ind.FalseSet = Box({{-74049999, -74000000}});
  std::vector<QueryInfo<Box>> Infos{Info};
  auto KB = parseKnowledgeBase<Box>(serializeKnowledgeBase(S, Infos));
  ASSERT_TRUE(KB.ok()) << KB.error().str();
  EXPECT_EQ(KB->Queries[0].Ind.TrueSet, Info.Ind.TrueSet);
}

TEST(ArtifactIO, OverlappingIncludesLoadWithExactSize) {
  // Synthesized ind. sets have disjoint includes, but a knowledge base is
  // untrusted input: a record whose includes overlap must still load, and
  // its sizes must count the union, not the sum.
  auto KB = parseKnowledgeBase<PowerBox>(
      "anosy-knowledge-base v1 domain powerset\n"
      "secret S { a: int[0, 10], b: int[0, 10] }\n"
      "query q = a <= 5\n"
      "true include [0, 3] [0, 3] ; [2, 5] [0, 3]\n"
      "true exclude\n"
      "false include [6, 10] [0, 10]\n"
      "false exclude\n"
      "end\n");
  ASSERT_TRUE(KB.ok()) << KB.error().str();
  ASSERT_EQ(KB->Queries.size(), 1u);
  const IndSets<PowerBox> &Ind = KB->Queries[0].Ind;
  ASSERT_EQ(Ind.TrueSet.includes().size(), 2u);
  EXPECT_FALSE(Ind.TrueSet.disjoint());
  EXPECT_EQ(Ind.TrueSet.size().toInt64(), 16 + 16 - 8);
  EXPECT_TRUE(Ind.FalseSet.disjoint());
  EXPECT_EQ(Ind.FalseSet.size().toInt64(), 5 * 11);
  // The posterior a tracker computes from ⊤ keeps the exact union size.
  auto [PostT, PostF] = KB->Queries[0].approx(PowerBox::top(KB->S));
  EXPECT_EQ(PostT.size().toInt64(), 24);
  EXPECT_EQ(PostF.size().toInt64(), 55);
}

TEST(ArtifactIO, RejectsDomainMismatch) {
  Module M = nearbyModule();
  std::string Text =
      serializeKnowledgeBase(M.schema(), synthesizeAll<PowerBox>(M, 3));
  auto KB = parseKnowledgeBase<Box>(Text);
  ASSERT_FALSE(KB.ok());
  EXPECT_NE(KB.error().message().find("domain"), std::string::npos);
}

TEST(ArtifactIO, RejectsMalformedInput) {
  EXPECT_FALSE(parseKnowledgeBase<Box>("").ok());
  EXPECT_FALSE(parseKnowledgeBase<Box>("not a header\n").ok());
  EXPECT_FALSE(parseKnowledgeBase<Box>(
                   "anosy-knowledge-base v1 domain interval\n"
                   "secret S { a: int[0, 10] }\n"
                   "query q = a <= 5\n"
                   "true include [0, 5]\n") // truncated record
                   .ok());
  EXPECT_FALSE(parseKnowledgeBase<Box>(
                   "anosy-knowledge-base v1 domain interval\n"
                   "secret S { a: int[0, 10] }\n"
                   "query q = a <= 5\n"
                   "true include [0, 5] [0, 5]\n" // wrong arity
                   "true exclude\n"
                   "false include\n"
                   "false exclude\n"
                   "end\n")
                   .ok());
  EXPECT_FALSE(parseKnowledgeBase<Box>(
                   "anosy-knowledge-base v1 domain interval\n"
                   "secret S { a: int[0, 10] }\n"
                   "query q = b <= 5\n" // unknown field
                   "true include\ntrue exclude\nfalse include\n"
                   "false exclude\nend\n")
                   .ok());
}
