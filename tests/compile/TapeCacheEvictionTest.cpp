//===- tests/compile/TapeCacheEvictionTest.cpp - Tape cache behavior ------===//
//
// The process-wide tape cache's second-chance eviction and racing-compile
// convergence. The regression pinned here: the cache used to clear
// wholesale at capacity, so a hot query shape streamed alongside >Cap
// cold one-shot shapes was recompiled on every wrap; and two threads
// compiling the same shape concurrently both inserted, inflating the size
// and double-counting compile metrics.
//
//===----------------------------------------------------------------------===//

#include "compile/CompiledEval.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

using namespace anosy;

namespace {

/// A distinct-by-constant cold shape: $0 + (k + 1) <= $1. The constant is
/// never 0 (the factory would fold `$0 + 0` away), so every shape keeps
/// five nodes, meets MinCompileTreeSize and compiles.
ExprRef coldShape(int64_t K) {
  return cmp(CmpOp::LE, add(fieldRef(0), intConst(K + 1)), fieldRef(1));
}

/// The hot shape, structurally stable across calls.
ExprRef hotShape() {
  return andOf(cmp(CmpOp::LE, fieldRef(0), intConst(17)),
               cmp(CmpOp::GE, fieldRef(1), intConst(3)));
}

} // namespace

TEST(TapeCacheEviction, HotShapeSurvivesColdOverflow) {
  tapeCacheClearForTest();

  TapeRef Hot = getOrCompileTape(hotShape());
  ASSERT_NE(Hot, nullptr);

  // Stream far more than one capacity's worth of cold one-shot shapes,
  // re-touching the hot shape between batches so its referenced bit is
  // set whenever a sweep runs. Two full wraps of the old clear-everything
  // policy — under it the hot tape could not survive.
  for (int Batch = 0; Batch != 8; ++Batch) {
    for (int I = 0; I != 100; ++I)
      ASSERT_NE(getOrCompileTape(coldShape(Batch * 100 + I)), nullptr);
    TapeRef Again = getOrCompileTape(hotShape());
    ASSERT_NE(Again, nullptr);
    EXPECT_EQ(Again.get(), Hot.get())
        << "hot shape was evicted (and recompiled) by cold traffic";
  }
  EXPECT_TRUE(tapeCacheContainsForTest(hotShape()));
  tapeCacheClearForTest();
}

TEST(TapeCacheEviction, SweepDropsUnreferencedColdShapes) {
  tapeCacheClearForTest();

  // Fill past capacity with one-shot shapes. After the overflow sweep the
  // size must have dropped (the cache is bounded), and the early never
  // re-touched shapes are the ones that paid for it.
  for (int I = 0; I != 400; ++I)
    ASSERT_NE(getOrCompileTape(coldShape(I)), nullptr);
  EXPECT_LE(tapeCacheSizeForTest(), 256u);
  EXPECT_GT(tapeCacheSizeForTest(), 0u);
  tapeCacheClearForTest();
}

TEST(TapeCacheEviction, RacingCompilesConvergeOnOneTape) {
  tapeCacheClearForTest();

  // N threads race structurally-equal (but distinct-node) expressions
  // through the cache. All must get the same tape, and the cache must
  // hold exactly one entry — the re-probe under the insert lock drops
  // the losing duplicate compiles.
  constexpr unsigned N = 8;
  std::vector<TapeRef> Got(N);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != N; ++T)
    Threads.emplace_back([&Got, T] {
      for (int I = 0; I != 50; ++I)
        Got[T] = getOrCompileTape(hotShape());
    });
  for (std::thread &T : Threads)
    T.join();
  for (unsigned T = 1; T != N; ++T)
    EXPECT_EQ(Got[T].get(), Got[0].get());
  EXPECT_EQ(tapeCacheSizeForTest(), 1u);
  tapeCacheClearForTest();
}
