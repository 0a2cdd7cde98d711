//===- tests/integration/FaultInjectionSuiteTest.cpp - Fault suite --------===//
//
// The DESIGN.md §6 acceptance suite: every fault site, under several
// seeds, injected while a real session synthesizes, verifies, persists,
// and reloads knowledge. The invariants under test:
//
//   1. Session creation never fails because of an injected resource
//      fault — it degrades.
//   2. Every surviving artifact is *sound*: a fresh, fault-free
//      refinement check accepts it (⊥ passes vacuously).
//   3. Downgrades are identical to a clean session's, or conservative
//      rejections — never an extra accept — as long as the degraded
//      artifacts are ⊥ (partial non-⊥ artifacts are sound but
//      incomparable decision-wise, so comparison stops there).
//   4. Knowledge-base faults (torn writes, bit rot) never corrupt the
//      *previous* state and are always detected on load.
//
//===----------------------------------------------------------------------===//

#include "core/AnosySession.h"
#include "core/ArtifactIO.h"

#include "expr/Parser.h"
#include "support/FaultInjection.h"
#include "verify/RefinementChecker.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace anosy;

namespace {

struct FaultScope {
  ~FaultScope() { faults::reset(); }
};

const uint64_t Seeds[] = {1, 2, 3};

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

SessionOptions faultTolerantOptions() {
  SessionOptions Options;
  Options.Retry.MaxAttempts = 3;
  return Options;
}

/// Creates a session with \p Site armed at rate 1-in-\p OneIn under
/// \p Seed, then disarms. EXPECTs creation success and returns the
/// session (unset on failure).
std::optional<AnosySession<Box>>
createUnderFault(FaultSite Site, uint64_t OneIn, uint64_t Seed,
                 SessionOptions Options = faultTolerantOptions()) {
  FaultConfig C;
  C.Seed = Seed;
  C.Sites[static_cast<unsigned>(Site)] = {OneIn, UINT64_MAX};
  faults::configure(C);
  auto S = AnosySession<Box>::create(nearbyModule(),
                                     minSizePolicy<Box>(100), Options);
  faults::reset();
  EXPECT_TRUE(S.ok()) << faultSiteName(Site) << " seed " << Seed << ": "
                      << (S.ok() ? "" : S.error().str());
  if (!S.ok())
    return std::nullopt;
  return std::optional<AnosySession<Box>>(S.takeValue());
}

/// Fault-free refinement check of every artifact the session holds.
void expectAllArtifactsSound(AnosySession<Box> &S, const char *Ctx) {
  ASSERT_FALSE(faults::armed());
  for (const QueryDef &Q : S.module().queries()) {
    const QueryArtifacts<Box> *Art = S.artifacts(Q.Name);
    ASSERT_NE(Art, nullptr) << Ctx << ": " << Q.Name;
    RefinementChecker Checker(S.module().schema(), Q.Body);
    EXPECT_TRUE(Checker.checkIndSets(Art->Ind, ApproxKind::Under).valid())
        << Ctx << ": " << Q.Name
        << (Art->Degradation ? " (degraded: " + Art->Degradation->str() + ")"
                             : " (not degraded)");
  }
}

/// Declaration-order differential downgrade against a clean session.
/// Comparison is meaningful while every faulted artifact encountered is
/// either identical to the clean one or the ⊥ fallback; a partial non-⊥
/// degraded artifact ends the comparable prefix.
void expectConservativeDowngrades(AnosySession<Box> &Faulted,
                                  AnosySession<Box> &Clean,
                                  const char *Ctx) {
  Point Secret{300, 200};
  for (const QueryDef &Q : Faulted.module().queries()) {
    const QueryArtifacts<Box> *FArt = Faulted.artifacts(Q.Name);
    const QueryArtifacts<Box> *CArt = Clean.artifacts(Q.Name);
    ASSERT_NE(FArt, nullptr);
    ASSERT_NE(CArt, nullptr);
    bool Identical = FArt->Ind.TrueSet == CArt->Ind.TrueSet &&
                     FArt->Ind.FalseSet == CArt->Ind.FalseSet;
    bool Bottom = FArt->Ind.TrueSet.isEmpty() && FArt->Ind.FalseSet.isEmpty();
    if (!Identical && !Bottom)
      break; // Sound partial artifact: decisions diverge legitimately.
    auto F = Faulted.downgrade(Secret, Q.Name);
    auto C = Clean.downgrade(Secret, Q.Name);
    if (F.ok()) {
      // Never an extra accept: the faulted session only answers when the
      // clean one does, and with the same value.
      ASSERT_TRUE(C.ok()) << Ctx << ": faulted session accepted '" << Q.Name
                          << "' which the clean session rejects";
      EXPECT_EQ(*F, *C) << Ctx << ": " << Q.Name;
    } else if (C.ok()) {
      break; // Conservative rejection; states diverge from here on.
    }
  }
}

} // namespace

// --- Invariants 1 + 2 + 3 across every site and seed -------------------

TEST(FaultSuite, AllSitesAllSeedsSessionsSurviveAndStaySound) {
  FaultScope Scope;
  for (unsigned SiteI = 0; SiteI != NumFaultSites; ++SiteI) {
    FaultSite Site = static_cast<FaultSite>(SiteI);
    for (uint64_t Seed : Seeds) {
      SCOPED_TRACE(std::string(faultSiteName(Site)) + " seed " +
                   std::to_string(Seed));
      auto S = createUnderFault(Site, /*OneIn=*/50, Seed);
      ASSERT_TRUE(S.has_value());
      expectAllArtifactsSound(*S, faultSiteName(Site));
      // Fresh clean session per round: downgrades mutate tracker state.
      auto Clean = AnosySession<Box>::create(nearbyModule(),
                                             minSizePolicy<Box>(100));
      ASSERT_TRUE(Clean.ok()) << Clean.error().str();
      expectConservativeDowngrades(*S, *Clean, faultSiteName(Site));
    }
  }
}

TEST(FaultSuite, HighFaultRatesStillDegradeGracefully) {
  // Rate 1-in-5 on the solver's own charge path is brutal — most passes
  // die. The session must still come up, all-⊥ at worst.
  FaultScope Scope;
  for (uint64_t Seed : Seeds) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    auto S = createUnderFault(FaultSite::SolverCharge, /*OneIn=*/5, Seed);
    ASSERT_TRUE(S.has_value());
    expectAllArtifactsSound(*S, "solver-charge@5");
  }
}

TEST(FaultSuite, VerifierFaultsNeverForgeCertificates) {
  // An injected verifier fault yields an *undecided* obligation, never a
  // valid one: every certificate a faulted session reports as valid must
  // re-check cleanly.
  FaultScope Scope;
  for (uint64_t Seed : Seeds) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    auto S =
        createUnderFault(FaultSite::VerifierObligation, /*OneIn=*/3, Seed);
    ASSERT_TRUE(S.has_value());
    for (const QueryDef &Q : S->module().queries()) {
      const QueryArtifacts<Box> *Art = S->artifacts(Q.Name);
      ASSERT_NE(Art, nullptr);
      EXPECT_TRUE(Art->Certificates.valid()) << Q.Name;
    }
    expectAllArtifactsSound(*S, "verifier-obligation@3");
  }
}

// --- Invariant 4: knowledge-base faults --------------------------------

TEST(FaultSuite, TornWritesNeverCorruptTheDeployedKnowledgeBase) {
  FaultScope Scope;
  auto S = AnosySession<Box>::create(nearbyModule(),
                                     minSizePolicy<Box>(100));
  ASSERT_TRUE(S.ok());
  std::string Path =
      testing::TempDir() + "anosy_fault_suite_torn.akb";
  std::string Original = S->exportKnowledgeBase();
  ASSERT_TRUE(writeKnowledgeBaseFileAtomic(Path, Original).ok());

  for (uint64_t Seed : Seeds) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    FaultConfig C;
    C.Seed = Seed;
    C.Sites[static_cast<unsigned>(FaultSite::KbWrite)] = {1, UINT64_MAX};
    faults::configure(C);
    EXPECT_FALSE(writeKnowledgeBaseFileAtomic(Path, "doomed write").ok());
    faults::reset();
    auto Back = readKnowledgeBaseFile(Path);
    ASSERT_TRUE(Back.ok());
    EXPECT_EQ(*Back, Original);
    auto Reloaded = AnosySession<Box>::createFromKnowledgeBase(
        *Back, minSizePolicy<Box>(100));
    ASSERT_TRUE(Reloaded.ok());
    EXPECT_FALSE(Reloaded->degradation().degraded());
  }
  std::remove(Path.c_str());
  std::remove((Path + ".tmp").c_str());
}

TEST(FaultSuite, DirFsyncFaultReportsErrorButNeverTearsTheDestination) {
  // The kb-dir-fsync site models power loss with the rename still only in
  // the parent directory's page cache. The contract is asymmetric to a
  // torn write: the *destination* already holds the complete new content
  // (rename happened), but the writer must report Error so callers retry
  // until the rename is known durable. A retry is idempotent — same
  // bytes, same path — so the recovery story is "call it again".
  FaultScope Scope;
  std::string Path = testing::TempDir() + "anosy_fault_suite_dirsync.akb";
  const std::string Old = "previous state\n";
  const std::string New = "next state\n";
  ASSERT_TRUE(writeKnowledgeBaseFileAtomic(Path, Old).ok());

  for (uint64_t Seed : Seeds) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    FaultConfig C;
    C.Seed = Seed;
    C.Sites[static_cast<unsigned>(FaultSite::KbDirFsync)] = {1, UINT64_MAX};
    faults::configure(C);
    auto W = writeKnowledgeBaseFileAtomic(Path, New);
    ASSERT_FALSE(W.ok());
    EXPECT_NE(W.error().message().find("kb-dir-fsync"), std::string::npos);
    faults::reset();
    // Never torn: the destination is the complete new content (the
    // rename landed), not the old content and not a mix.
    auto Back = readKnowledgeBaseFile(Path);
    ASSERT_TRUE(Back.ok());
    EXPECT_EQ(*Back, New);
    // The idempotent retry under a healthy directory succeeds.
    EXPECT_TRUE(writeKnowledgeBaseFileAtomic(Path, New).ok());
    ASSERT_TRUE(writeKnowledgeBaseFileAtomic(Path, Old).ok());
  }
  std::remove(Path.c_str());
}

TEST(FaultSuite, BitRotOnReadIsDetectedAndRepairedBySalvage) {
  FaultScope Scope;
  auto S = AnosySession<Box>::create(nearbyModule(),
                                     minSizePolicy<Box>(100));
  ASSERT_TRUE(S.ok());
  std::string Path = testing::TempDir() + "anosy_fault_suite_rot.akb";
  ASSERT_TRUE(
      writeKnowledgeBaseFileAtomic(Path, S->exportKnowledgeBase()).ok());

  for (uint64_t Seed : Seeds) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    FaultConfig C;
    C.Seed = Seed;
    C.Sites[static_cast<unsigned>(FaultSite::KbRead)] = {1, UINT64_MAX};
    faults::configure(C);
    auto Rotten = readKnowledgeBaseFile(Path);
    faults::reset();
    ASSERT_TRUE(Rotten.ok());
    // The flip is always caught by the strict parser...
    EXPECT_FALSE(parseKnowledgeBase<Box>(*Rotten).ok());
    // ...and salvage + resynthesis restores a sound session whenever the
    // header and schema survive (the flip may land on those two lines, in
    // which case refusing to load is the correct outcome).
    auto Reloaded = AnosySession<Box>::createFromKnowledgeBase(
        *Rotten, minSizePolicy<Box>(100));
    if (Reloaded.ok())
      expectAllArtifactsSound(*Reloaded, "kb-read salvage");
  }
  std::remove(Path.c_str());
}

// --- Full pipeline under faults: synthesize → export → reload ----------

TEST(FaultSuite, EndToEndPipelineSurvivesEverySite) {
  FaultScope Scope;
  std::string Path = testing::TempDir() + "anosy_fault_suite_e2e.akb";
  for (uint64_t Seed : Seeds) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    // Everything armed at a low rate simultaneously.
    FaultConfig C;
    C.Seed = Seed;
    for (unsigned I = 0; I != NumFaultSites; ++I)
      C.Sites[I] = {100, UINT64_MAX};
    faults::configure(C);

    auto S = AnosySession<Box>::create(nearbyModule(),
                                       minSizePolicy<Box>(100),
                                       faultTolerantOptions());
    ASSERT_TRUE(S.ok()) << S.error().str();
    std::string Text = S->exportKnowledgeBase();
    // The atomic writer may tear (kb-write site): retry until it lands.
    bool Written = false;
    for (int Try = 0; Try != 8 && !Written; ++Try)
      Written = writeKnowledgeBaseFileAtomic(Path, Text).ok();
    faults::reset();
    ASSERT_TRUE(Written);

    auto Back = readKnowledgeBaseFile(Path);
    ASSERT_TRUE(Back.ok());
    auto Reloaded = AnosySession<Box>::createFromKnowledgeBase(
        *Back, minSizePolicy<Box>(100));
    ASSERT_TRUE(Reloaded.ok()) << Reloaded.error().str();
    expectAllArtifactsSound(*Reloaded, "e2e reload");
  }
  std::remove(Path.c_str());
}
