//===- tests/cache/ArtifactCacheTest.cpp - Cross-process cache tests ------===//
//
// The content-addressed artifact store (DESIGN.md §12): publish/lookup
// round-trips across permuted schemas, corrupt entries degrading to
// misses (never to wrong answers), parent-posterior seeding through the
// family index, and the end-to-end session contract — a warm registration
// spends zero solver nodes and reproduces the cold artifacts exactly,
// while a poisoned entry silently resynthesizes.
//
//===----------------------------------------------------------------------===//

#include "cache/ArtifactCache.h"

#include "core/AnosySession.h"
#include "expr/Parser.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <dirent.h>
#include <fstream>
#include <sys/stat.h>

using namespace anosy;

namespace {

/// A fresh, empty cache root under the test temp dir.
std::string freshRoot(const std::string &Name) {
  std::string Root = testing::TempDir() + "anosy_cache_" + Name;
  // Scrub leftovers from a previous run: two levels of sharded files.
  if (DIR *D = ::opendir(Root.c_str())) {
    while (struct dirent *E = ::readdir(D)) {
      std::string Shard = Root + "/" + E->d_name;
      if (E->d_name[0] == '.')
        continue;
      if (DIR *SD = ::opendir(Shard.c_str())) {
        while (struct dirent *F = ::readdir(SD))
          if (F->d_name[0] != '.')
            std::remove((Shard + "/" + F->d_name).c_str());
        ::closedir(SD);
      }
      ::rmdir(Shard.c_str());
    }
    ::closedir(D);
    ::rmdir(Root.c_str());
  }
  return Root;
}

/// Flips one byte in the middle of \p Path (checksum-visible damage).
void corruptFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  ASSERT_TRUE(In.good()) << Path;
  std::string Text((std::istreambuf_iterator<char>(In)),
                   std::istreambuf_iterator<char>());
  In.close();
  ASSERT_GT(Text.size(), 10u);
  Text[Text.size() / 2] ^= 0x20;
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Text;
}

/// Corrupts every published cache entry under \p Root.
unsigned corruptAllEntries(const std::string &Root) {
  unsigned N = 0;
  DIR *D = ::opendir(Root.c_str());
  if (D == nullptr)
    return 0;
  while (struct dirent *E = ::readdir(D)) {
    if (E->d_name[0] == '.')
      continue;
    std::string Shard = Root + "/" + E->d_name;
    if (DIR *SD = ::opendir(Shard.c_str())) {
      while (struct dirent *F = ::readdir(SD)) {
        std::string Name = F->d_name;
        if (Name.size() > 4 && Name.rfind(".akb") == Name.size() - 4) {
          corruptFile(Shard + "/" + Name);
          ++N;
        }
      }
      ::closedir(SD);
    }
  }
  ::closedir(D);
  return N;
}

Module twoQueryModule() {
  auto M = parseModule(R"(
    secret Pt { x: int[0, 100], y: int[0, 100] }
    query low_x = x <= 40
    query band = x + y >= 60 && x + y <= 140
  )");
  EXPECT_TRUE(M.ok()) << (M.ok() ? "" : M.error().str());
  return M.takeValue();
}

} // namespace

TEST(ArtifactCache, MissingEntryIsPlainMiss) {
  ArtifactCache Cache(freshRoot("miss"));
  Schema S("S", {{"x", 0, 24}, {"y", 0, 24}});
  CanonicalQuery K = canonicalizeQuery(
      S, cmp(CmpOp::LE, fieldRef(0), intConst(5)), "interval", 0);
  EXPECT_FALSE(Cache.lookup<Box>(K).has_value());
  EXPECT_EQ(Cache.counters().Misses, 1u);
  EXPECT_EQ(Cache.counters().Poisoned, 0u);
}

TEST(ArtifactCache, StoreLookupRoundTripsAcrossPermutedSchemas) {
  ArtifactCache Cache(freshRoot("roundtrip"));
  // Writer declares (x, y) and queries y; reader declares (y, x). Both
  // canonicalize to the same entry; each gets the artifact back in its
  // *own* field order.
  Schema SA("S", {{"x", 0, 10}, {"y", 0, 20}});
  Schema SB("S", {{"y", 0, 20}, {"x", 0, 10}});
  CanonicalQuery KA = canonicalizeQuery(
      SA, cmp(CmpOp::LE, fieldRef(1), intConst(5)), "interval", 0);
  CanonicalQuery KB = canonicalizeQuery(
      SB, cmp(CmpOp::LE, fieldRef(0), intConst(5)), "interval", 0);
  ASSERT_EQ(KA.Hash, KB.Hash);

  IndSets<Box> Ind{Box({{0, 10}, {0, 5}}), Box({{0, 10}, {6, 20}})};
  auto W = Cache.store<Box>(KA, Ind);
  ASSERT_TRUE(W.ok()) << W.error().str();

  auto HitA = Cache.lookup<Box>(KA);
  ASSERT_TRUE(HitA.has_value());
  EXPECT_EQ(HitA->TrueSet, Ind.TrueSet);
  EXPECT_EQ(HitA->FalseSet, Ind.FalseSet);

  auto HitB = Cache.lookup<Box>(KB);
  ASSERT_TRUE(HitB.has_value());
  EXPECT_EQ(HitB->TrueSet, Box({{0, 5}, {0, 10}}));
  EXPECT_EQ(HitB->FalseSet, Box({{6, 20}, {0, 10}}));
  EXPECT_EQ(Cache.counters().Hits, 2u);
  EXPECT_EQ(Cache.counters().Stores, 1u);
}

TEST(ArtifactCache, CorruptEntryIsPoisonedMiss) {
  ArtifactCache Cache(freshRoot("corrupt"));
  Schema S("S", {{"x", 0, 24}, {"y", 0, 24}});
  CanonicalQuery K = canonicalizeQuery(
      S, cmp(CmpOp::LE, fieldRef(0), intConst(5)), "interval", 0);
  IndSets<Box> Ind{Box({{0, 5}, {0, 24}}), Box({{6, 24}, {0, 24}})};
  ASSERT_TRUE(Cache.store<Box>(K, Ind).ok());
  corruptFile(Cache.entryPath(K.Hash));

  EXPECT_FALSE(Cache.lookup<Box>(K).has_value());
  EXPECT_EQ(Cache.counters().Misses, 1u);
  EXPECT_EQ(Cache.counters().Poisoned, 1u);
  // Re-publishing heals the entry in place.
  ASSERT_TRUE(Cache.store<Box>(K, Ind).ok());
  EXPECT_TRUE(Cache.lookup<Box>(K).has_value());
}

TEST(ArtifactCache, EntryOutsideInt64RuleIsMiss) {
  // An entry for a query whose arithmetic leaves int64 (x * 2^62 over
  // x in [-3, 3]) fails the body re-parse on lookup: a poisoned miss,
  // never its artifacts.
  ArtifactCache Cache(freshRoot("int64"));
  Schema S("S", {{"x", -3, 3}});
  CanonicalQuery K = canonicalizeQuery(
      S,
      cmp(CmpOp::GE, mul(fieldRef(0), intConst(4611686018427387904)),
          intConst(0)),
      "interval", 0);
  IndSets<Box> Ind{Box({{0, 3}}), Box({{-3, -1}})};
  ASSERT_TRUE(Cache.store<Box>(K, Ind).ok());
  EXPECT_FALSE(Cache.lookup<Box>(K).has_value());
  EXPECT_EQ(Cache.counters().Misses, 1u);
  EXPECT_EQ(Cache.counters().Poisoned, 1u);
}

TEST(ArtifactCache, WrongDomainEntryNeverServes) {
  // A powerset artifact and an interval artifact of the same body live at
  // different addresses; neither lookup can be served the other's bytes.
  ArtifactCache Cache(freshRoot("domains"));
  Schema S("S", {{"x", 0, 24}, {"y", 0, 24}});
  ExprRef Q = cmp(CmpOp::LE, fieldRef(0), intConst(5));
  CanonicalQuery KI = canonicalizeQuery(S, Q, "interval", 0);
  CanonicalQuery KP = canonicalizeQuery(S, Q, "powerset", 3);
  IndSets<Box> Ind{Box({{0, 5}, {0, 24}}), Box({{6, 24}, {0, 24}})};
  ASSERT_TRUE(Cache.store<Box>(KI, Ind).ok());
  EXPECT_FALSE(Cache.lookup<PowerBox>(KP).has_value());
  EXPECT_TRUE(Cache.lookup<Box>(KI).has_value());
}

TEST(ArtifactCache, SeedsDeriveFromCachedParentPosterior) {
  ArtifactCache Cache(freshRoot("seeds"));
  // Parent: q := x <= 11 over the wide prior [0,24]² with the exact
  // posterior split published.
  Schema Wide("S", {{"x", 0, 24}, {"y", 0, 24}});
  ExprRef Q = cmp(CmpOp::LE, fieldRef(0), intConst(11));
  CanonicalQuery KW = canonicalizeQuery(Wide, Q, "interval", 0);
  IndSets<Box> Parent{Box({{0, 11}, {0, 24}}), Box({{12, 24}, {0, 24}})};
  ASSERT_TRUE(Cache.store<Box>(KW, Parent).ok());

  // Child: same query under the narrower prior [0,24]×[0,5] (a refined
  // posterior from a sequential session). Exact lookup misses, but the
  // family scan finds the parent and carves its certain regions out of
  // the child prior.
  Schema Narrow("S", {{"x", 0, 24}, {"y", 0, 5}});
  CanonicalQuery KN = canonicalizeQuery(Narrow, Q, "interval", 0);
  ASSERT_NE(KN.Hash, KW.Hash);
  EXPECT_FALSE(Cache.lookup<Box>(KN).has_value());

  auto Seeds = Cache.lookupSeeds<Box>(KN);
  ASSERT_TRUE(Seeds.has_value());
  EXPECT_EQ(Seeds->ParentHash, KW.Hash);
  EXPECT_EQ(Seeds->TrueRegion, Box({{0, 11}, {0, 5}}));
  EXPECT_EQ(Seeds->FalseRegion, Box({{12, 24}, {0, 5}}));
  EXPECT_EQ(Cache.counters().SeedHits, 1u);

  // A child whose prior is NOT contained in the parent's must get no
  // seeds — the parent's artifact says nothing about secrets outside it.
  Schema Elsewhere("S", {{"x", 0, 30}, {"y", 0, 5}});
  CanonicalQuery KE = canonicalizeQuery(Elsewhere, Q, "interval", 0);
  EXPECT_FALSE(Cache.lookupSeeds<Box>(KE).has_value());
}

TEST(ArtifactCache, WarmSessionSkipsSynthesisAndReproducesArtifacts) {
  std::string Root = freshRoot("warm");
  SessionOptions Opt;

  ArtifactCache Cold(Root);
  Opt.Cache = &Cold;
  auto S1 = AnosySession<Box>::create(twoQueryModule(),
                                      minSizePolicy<Box>(50), Opt);
  ASSERT_TRUE(S1.ok()) << S1.error().str();
  EXPECT_EQ(S1->stats().CacheHits, 0u);
  EXPECT_EQ(S1->stats().CacheMisses, 2u);
  EXPECT_GT(S1->stats().SolverNodes, 0u);
  EXPECT_EQ(Cold.counters().Stores, 2u);

  // A different process would hold a different ArtifactCache over the
  // same directory; model that with a second instance.
  ArtifactCache Warm(Root);
  Opt.Cache = &Warm;
  auto S2 = AnosySession<Box>::create(twoQueryModule(),
                                      minSizePolicy<Box>(50), Opt);
  ASSERT_TRUE(S2.ok()) << S2.error().str();
  EXPECT_EQ(S2->stats().CacheHits, 2u);
  EXPECT_EQ(S2->stats().CacheMisses, 0u);
  // The warm bar: zero synthesis. Re-verification cost is tracked
  // honestly, but apart — it never touches the session budget.
  EXPECT_EQ(S2->stats().SolverNodes, 0u);
  EXPECT_GT(S2->stats().CacheVerifyNodes, 0u);

  for (const char *Name : {"low_x", "band"}) {
    const QueryArtifacts<Box> *A1 = S1->artifacts(Name);
    const QueryArtifacts<Box> *A2 = S2->artifacts(Name);
    ASSERT_NE(A1, nullptr);
    ASSERT_NE(A2, nullptr);
    EXPECT_TRUE(A2->FromCache);
    EXPECT_EQ(A1->Ind.TrueSet, A2->Ind.TrueSet) << Name;
    EXPECT_EQ(A1->Ind.FalseSet, A2->Ind.FalseSet) << Name;
    EXPECT_TRUE(A2->Certificates.valid());
  }
}

TEST(ArtifactCache, PoisonedEntriesResynthesizeToValidArtifacts) {
  std::string Root = freshRoot("poison");
  SessionOptions Opt;

  ArtifactCache Cold(Root);
  Opt.Cache = &Cold;
  auto S1 = AnosySession<Box>::create(twoQueryModule(),
                                      minSizePolicy<Box>(50), Opt);
  ASSERT_TRUE(S1.ok()) << S1.error().str();
  ASSERT_EQ(corruptAllEntries(Root), 2u);

  ArtifactCache Warm(Root);
  Opt.Cache = &Warm;
  auto S2 = AnosySession<Box>::create(twoQueryModule(),
                                      minSizePolicy<Box>(50), Opt);
  ASSERT_TRUE(S2.ok()) << S2.error().str();
  // Every entry was damaged: all lookups degrade to misses, synthesis
  // runs normally, and the repaired entries are republished.
  EXPECT_EQ(S2->stats().CacheHits, 0u);
  EXPECT_EQ(S2->stats().CacheMisses, 2u);
  EXPECT_GT(S2->stats().SolverNodes, 0u);
  EXPECT_EQ(Warm.counters().Poisoned, 2u);
  EXPECT_EQ(Warm.counters().Stores, 2u);
  for (const char *Name : {"low_x", "band"})
    EXPECT_TRUE(S2->artifacts(Name)->Certificates.valid());
}

TEST(ArtifactCache, SemanticallyPoisonedHitFailsReVerifyAndResynthesizes) {
  // A checksum-valid entry with a *wrong* artifact: the bytes parse, the
  // identity matches, but the claimed under-approximation is refutable.
  // Re-verify-on-load must catch it — the cache is never an authority.
  std::string Root = freshRoot("hostile");
  Module M = twoQueryModule();
  const QueryDef &Q = M.queries().front(); // low_x: x <= 40
  ArtifactCache Hostile(Root);
  CanonicalQuery K =
      canonicalizeQuery(M.schema(), Q.Body, DomainTraits<Box>::Name, 0);
  // Claim the whole prior answers true — false for any x > 40.
  IndSets<Box> Lie{Box::top(M.schema()), Box({{41, 100}, {0, 100}})};
  ASSERT_TRUE(Hostile.store<Box>(K, Lie).ok());

  ArtifactCache Cache(Root);
  SessionOptions Opt;
  Opt.Cache = &Cache;
  auto S = AnosySession<Box>::create(std::move(M),
                                     minSizePolicy<Box>(50), Opt);
  ASSERT_TRUE(S.ok()) << S.error().str();
  const QueryArtifacts<Box> *Art = S->artifacts("low_x");
  ASSERT_NE(Art, nullptr);
  EXPECT_FALSE(Art->FromCache);
  EXPECT_TRUE(Art->Certificates.valid());
  // The lie never became the artifact.
  EXPECT_TRUE(Art->Ind.TrueSet.subsetOf(Box({{0, 40}, {0, 100}})));
  EXPECT_GE(Cache.counters().Poisoned, 1u);
}

TEST(ArtifactCache, PowerBoxArtifactsRoundTripThroughSessions) {
  std::string Root = freshRoot("powerbox");
  SessionOptions Opt;
  Opt.PowersetSize = 3;

  ArtifactCache Cold(Root);
  Opt.Cache = &Cold;
  auto S1 = AnosySession<PowerBox>::create(twoQueryModule(),
                                           minSizePolicy<PowerBox>(50), Opt);
  ASSERT_TRUE(S1.ok()) << S1.error().str();
  EXPECT_EQ(Cold.counters().Stores, 2u);

  ArtifactCache Warm(Root);
  Opt.Cache = &Warm;
  auto S2 = AnosySession<PowerBox>::create(twoQueryModule(),
                                           minSizePolicy<PowerBox>(50), Opt);
  ASSERT_TRUE(S2.ok()) << S2.error().str();
  EXPECT_EQ(S2->stats().CacheHits, 2u);
  EXPECT_EQ(S2->stats().SolverNodes, 0u);
  for (const char *Name : {"low_x", "band"}) {
    EXPECT_EQ(S1->artifacts(Name)->Ind.TrueSet,
              S2->artifacts(Name)->Ind.TrueSet)
        << Name;
    EXPECT_EQ(S1->artifacts(Name)->Ind.FalseSet,
              S2->artifacts(Name)->Ind.FalseSet)
        << Name;
  }
}
