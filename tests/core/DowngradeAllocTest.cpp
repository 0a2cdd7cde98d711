//===- tests/core/DowngradeAllocTest.cpp - Heap allocations per downgrade -===//
//
// Pins how often a Fig. 6 downgrade touches the heap. The binary replaces
// the global operator new/delete with counting versions, so it is built on
// its own: no other test should run under them.
//
// The workload is one round of the fig6-monitor benchmark at seed 1
// (perfbench/src/Fig6Monitor.cpp): the §6.2 advertising module at k = 10,
// policy `size > 100`, and 1,000 attacker instances that each downgrade
// through one tracker in a shuffled restaurant order until refused.
//
//===----------------------------------------------------------------------===//

#include "benchlib/Advertising.h"
#include "core/AnosySession.h"
#include "support/Rng.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <numeric>
#include <unordered_set>

#include <gtest/gtest.h>

namespace {
std::atomic<uint64_t> Allocations{0};

void *countedAlloc(std::size_t Size) {
  Allocations.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size != 0 ? Size : 1))
    return P;
  throw std::bad_alloc();
}
} // namespace

void *operator new(std::size_t Size) { return countedAlloc(Size); }
void *operator new[](std::size_t Size) { return countedAlloc(Size); }
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }

using namespace anosy;

namespace {

struct Instance {
  Point Secret;
  std::vector<unsigned> Order;
};

/// The benchmark's instance draw: distinct secrets, each with its own
/// shuffled restaurant order, all from one seed.
std::vector<Instance> makeInstances(uint64_t Seed, const AdvertisingConfig &C,
                                    unsigned Count) {
  Rng R(Seed);
  std::unordered_set<int64_t> Used;
  const int64_t Width = C.SpaceHi - C.SpaceLo + 1;
  std::vector<Instance> Out;
  while (Out.size() != Count) {
    Point P{R.range(C.SpaceLo, C.SpaceHi), R.range(C.SpaceLo, C.SpaceHi)};
    if (!Used.insert((P[0] - C.SpaceLo) * Width + (P[1] - C.SpaceLo)).second)
      continue;
    Instance I;
    I.Secret = std::move(P);
    I.Order.resize(C.NumRestaurants);
    std::iota(I.Order.begin(), I.Order.end(), 0u);
    for (size_t K = I.Order.size(); K > 1; --K)
      std::swap(I.Order[K - 1], I.Order[static_cast<size_t>(R.range(
                                    0, static_cast<int64_t>(K) - 1))]);
    Out.push_back(std::move(I));
  }
  return Out;
}

} // namespace

TEST(DowngradeAlloc, Fig6MonitorRound) {
  AdvertisingConfig C;
  C.PowersetSize = 10;
  C.PolicyMinSize = 100;
  const KnowledgePolicy<PowerBox> Policy =
      minSizePolicy<PowerBox>(C.PolicyMinSize);
  SessionOptions O;
  O.PowersetSize = C.PowersetSize;
  Module M = buildAdvertisingModule(C);
  auto S = AnosySession<PowerBox>::create(M, Policy, O);
  ASSERT_TRUE(S.ok()) << S.error().str();
  ASSERT_FALSE(S->degradation().degraded()) << S->degradation().str();

  KnowledgeTracker<PowerBox> T(M.schema(), Policy, O.MaxKnowledgeBoxes);
  for (const QueryDef &Q : M.queries())
    T.registerQuery(*S->tracker().queryInfo(Q.Name));

  uint64_t Admitted = 0, Refused = 0, AdmittedAllocs = 0, RefusedAllocs = 0;
  for (const Instance &I : makeInstances(/*Seed=*/1, C, 1000))
    for (unsigned Step : I.Order) {
      const std::string &Name = M.queries()[Step].Name;
      const uint64_t Before = Allocations.load(std::memory_order_relaxed);
      Result<bool> Answer = T.downgrade(I.Secret, Name);
      const uint64_t Made =
          Allocations.load(std::memory_order_relaxed) - Before;
      if (!Answer) {
        ASSERT_EQ(Answer.error().code(), ErrorCode::PolicyViolation)
            << Answer.error().str();
        ++Refused;
        RefusedAllocs += Made;
        break;
      }
      ++Admitted;
      AdmittedAllocs += Made;
    }

  // fig6-monitor's admitted_per_round at seed 1.
  EXPECT_EQ(Admitted, 5863u);
  const double PerDowngrade =
      static_cast<double>(AdmittedAllocs + RefusedAllocs) /
      static_cast<double>(Admitted + Refused);
  std::printf("allocations per downgrade: %.2f (admitted %.2f, refused "
              "%.2f)\n",
              PerDowngrade,
              static_cast<double>(AdmittedAllocs) /
                  static_cast<double>(Admitted),
              static_cast<double>(RefusedAllocs) /
                  static_cast<double>(std::max<uint64_t>(Refused, 1)));
  EXPECT_LE(PerDowngrade, 3.0);
}

TEST(DowngradeAlloc, TwoFieldBoxesAllocateNothing) {
  const Box A({{0, 400}, {17, 230}}), Probe({{5, 9}, {0, 20}});
  const uint64_t Before = Allocations.load(std::memory_order_relaxed);
  Box B = A;
  Box Met = B.intersect(Probe);
  auto [L, R] = Met.splitAt(0);
  B = L;
  Met = std::move(R);
  const uint64_t Made = Allocations.load(std::memory_order_relaxed) - Before;
  EXPECT_EQ(Made, 0u);
  EXPECT_EQ(B, Box({{5, 7}, {17, 20}}));
  EXPECT_EQ(Met, Box({{8, 9}, {17, 20}}));
}
