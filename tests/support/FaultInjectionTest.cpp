//===- tests/support/FaultInjectionTest.cpp - Fault harness tests ---------===//

#include "support/FaultInjection.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

using namespace anosy;

namespace {

/// RAII: every test leaves the harness disarmed, whatever happens.
struct FaultScope {
  ~FaultScope() { faults::reset(); }
};

FaultConfig singleSite(FaultSite Site, uint64_t OneIn, uint64_t Seed,
                       uint64_t MaxFaults = UINT64_MAX) {
  FaultConfig C;
  C.Seed = Seed;
  C.Sites[static_cast<unsigned>(Site)] = {OneIn, MaxFaults};
  return C;
}

} // namespace

TEST(FaultInjection, DisarmedByDefault) {
  FaultScope Scope;
  faults::reset();
  EXPECT_FALSE(faults::armed());
  // shouldFail on a disarmed harness never injects (and never counts).
  EXPECT_FALSE(faults::shouldFail(FaultSite::SolverCharge));
}

TEST(FaultInjection, SiteNamesRoundTrip) {
  for (unsigned I = 0; I != NumFaultSites; ++I) {
    FaultSite Site = static_cast<FaultSite>(I);
    auto Back = faultSiteByName(faultSiteName(Site));
    ASSERT_TRUE(Back.has_value()) << faultSiteName(Site);
    EXPECT_EQ(*Back, Site);
  }
  EXPECT_FALSE(faultSiteByName("no-such-site").has_value());
}

TEST(FaultInjection, DeterministicReplay) {
  FaultScope Scope;
  const unsigned N = 2000;
  std::vector<bool> First, Second;
  for (int Round = 0; Round != 2; ++Round) {
    faults::configure(singleSite(FaultSite::SolverCharge, 7, 42));
    std::vector<bool> &Out = Round == 0 ? First : Second;
    for (unsigned I = 0; I != N; ++I)
      Out.push_back(faults::shouldFail(FaultSite::SolverCharge));
  }
  EXPECT_EQ(First, Second);
  // The rate is honored approximately (pure function of seed+index).
  size_t Injected = 0;
  for (bool B : First)
    Injected += B;
  EXPECT_GT(Injected, N / 20u);
  EXPECT_LT(Injected, N / 2u);
}

TEST(FaultInjection, SeedsChangeThePattern) {
  FaultScope Scope;
  auto Pattern = [](uint64_t Seed) {
    faults::configure(singleSite(FaultSite::GrowerRestart, 3, Seed));
    std::vector<bool> Out;
    for (unsigned I = 0; I != 500; ++I)
      Out.push_back(faults::shouldFail(FaultSite::GrowerRestart));
    return Out;
  };
  EXPECT_NE(Pattern(1), Pattern(2));
}

TEST(FaultInjection, MaxFaultsCapsInjections) {
  FaultScope Scope;
  faults::configure(singleSite(FaultSite::KbWrite, 1, 9, /*MaxFaults=*/3));
  unsigned Injected = 0;
  for (unsigned I = 0; I != 100; ++I)
    Injected += faults::shouldFail(FaultSite::KbWrite);
  EXPECT_EQ(Injected, 3u);
  EXPECT_EQ(faults::injected(FaultSite::KbWrite), 3u);
  EXPECT_EQ(faults::hits(FaultSite::KbWrite), 100u);
}

TEST(FaultInjection, SitesAreIndependent) {
  FaultScope Scope;
  faults::configure(singleSite(FaultSite::KbRead, 1, 5));
  EXPECT_TRUE(faults::shouldFail(FaultSite::KbRead));
  // Other sites stay quiet at rate 0.
  EXPECT_FALSE(faults::shouldFail(FaultSite::VerifierObligation));
  EXPECT_FALSE(faults::shouldFail(FaultSite::ServiceAccept));
}

TEST(FaultInjection, ParseSpecRoundTrips) {
  auto C = faults::parseSpec("seed=17,solver-charge@1000,kb-write@1x2");
  ASSERT_TRUE(C.ok()) << C.error().str();
  EXPECT_EQ(C->Seed, 17u);
  EXPECT_EQ(C->Sites[static_cast<unsigned>(FaultSite::SolverCharge)].OneIn,
            1000u);
  EXPECT_EQ(C->Sites[static_cast<unsigned>(FaultSite::KbWrite)].OneIn, 1u);
  EXPECT_EQ(C->Sites[static_cast<unsigned>(FaultSite::KbWrite)].MaxFaults,
            2u);
  EXPECT_TRUE(C->anyEnabled());
}

TEST(FaultInjection, ParseSpecRejectsGarbage) {
  EXPECT_FALSE(faults::parseSpec("bogus-site@3").ok());
  EXPECT_FALSE(faults::parseSpec("solver-charge@").ok());
  EXPECT_FALSE(faults::parseSpec("solver-charge@x").ok());
  EXPECT_FALSE(faults::parseSpec("seed=").ok());
}

TEST(FaultInjection, RetiredPoolSiteIsAParseError) {
  // A spec naming a retired site must be rejected, not silently ignored.
  auto C = faults::parseSpec(std::string("pool") + "-task@1");
  ASSERT_FALSE(C.ok());
  EXPECT_EQ(C.error().code(), ErrorCode::ParseError);
}

TEST(FaultInjection, ResetDisarms) {
  FaultScope Scope;
  faults::configure(singleSite(FaultSite::SolverCharge, 1, 1));
  EXPECT_TRUE(faults::armed());
  faults::reset();
  EXPECT_FALSE(faults::armed());
  EXPECT_EQ(faults::hits(FaultSite::SolverCharge), 0u);
}

TEST(FaultInjection, ThreadSafeHitClaiming) {
  FaultScope Scope;
  faults::configure(singleSite(FaultSite::SolverCharge, 2, 3));
  constexpr unsigned PerThread = 5000;
  constexpr unsigned Threads = 4;
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T != Threads; ++T)
    Workers.emplace_back([] {
      for (unsigned I = 0; I != PerThread; ++I)
        faults::shouldFail(FaultSite::SolverCharge);
    });
  for (std::thread &W : Workers)
    W.join();
  // Every hit was claimed exactly once.
  EXPECT_EQ(faults::hits(FaultSite::SolverCharge), PerThread * Threads);
}

TEST(FaultInjection, MixIsStableForSameSalt) {
  FaultScope Scope;
  faults::configure(singleSite(FaultSite::KbRead, 1, 77));
  EXPECT_EQ(faults::mix(123), faults::mix(123));
  EXPECT_NE(faults::mix(123), faults::mix(124));
}
