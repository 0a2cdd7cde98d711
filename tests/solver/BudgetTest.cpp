//===- tests/solver/BudgetTest.cpp - Budget caps, deadlines, chaining -----===//

#include "solver/Decide.h"

#include "expr/Parser.h"
#include "solver/Predicate.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

using namespace anosy;

TEST(SolverBudget, NodeCapRejectsChargeReachingLimit) {
  SolverBudget B(3);
  EXPECT_TRUE(B.charge());  // 1
  EXPECT_TRUE(B.charge());  // 2
  EXPECT_FALSE(B.charge()); // 3 == MaxNodes: rejected by contract
  EXPECT_FALSE(B.charge());
  EXPECT_TRUE(B.exhausted());
  EXPECT_EQ(B.used(), 3u);
}

TEST(SolverBudget, ExpiredDeadlineRejectsFirstCharge) {
  // A deadline of "now" is already past by the first charge: the Cur == 0
  // special case checks the clock immediately, so an expired budget is
  // deterministic — no work happens at all, regardless of granularity.
  SolverBudget B;
  B.setDeadlineAfterMs(0);
  EXPECT_FALSE(B.charge());
  EXPECT_TRUE(B.expired());
  EXPECT_TRUE(B.exhausted());
  // Latched: still refused later.
  EXPECT_FALSE(B.charge());
}

TEST(SolverBudget, FutureDeadlineDoesNotTripEarly) {
  SolverBudget B;
  B.setDeadlineAfterMs(60'000);
  for (int I = 0; I != 1000; ++I)
    EXPECT_TRUE(B.charge());
  EXPECT_FALSE(B.expired());
}

TEST(SolverBudget, ParentChainingChargesBoth) {
  SolverBudget Parent(1000);
  SolverBudget Child(1000);
  Child.Parent = &Parent;
  EXPECT_TRUE(Child.charge(10));
  EXPECT_EQ(Parent.used(), 10u);
  EXPECT_EQ(Child.used(), 10u);
}

TEST(SolverBudget, ExhaustedParentStopsChild) {
  SolverBudget Parent(5);
  SolverBudget Child(1'000'000);
  Child.Parent = &Parent;
  EXPECT_TRUE(Child.charge(4));
  EXPECT_FALSE(Child.charge(4)); // parent saturates
  EXPECT_TRUE(Child.exhausted());
  // The child's own counter has headroom; exhaustion is inherited.
  EXPECT_LT(Child.used(), Child.MaxNodes);
}

TEST(SolverBudget, ExpiredParentDeadlinePropagates) {
  SolverBudget Parent;
  Parent.setDeadlineAfterMs(0);
  SolverBudget Child;
  Child.Parent = &Parent;
  EXPECT_FALSE(Child.charge());
  EXPECT_TRUE(Child.expired());
  EXPECT_TRUE(Child.exhausted());
}

TEST(SolverBudget, DeciderHonorsExpiredDeadline) {
  // A decider launched with an already-expired deadline must return
  // Exhausted without claiming a verdict.
  Schema S("S", {{"x", 0, 1'000'000}, {"y", 0, 1'000'000}});
  auto Q = parseQueryExpr(S, "x + y <= 900000");
  ASSERT_TRUE(Q.ok());
  SolverBudget B;
  B.setDeadlineAfterMs(0);
  ForallResult R = checkForall(*exprPredicate(Q.value()), Box::top(S), B);
  EXPECT_TRUE(R.Exhausted);
}

TEST(SolverBudget, DeciderUnaffectedByGenerousDeadline) {
  // Deadlines disabled or far away: answers match the no-deadline run.
  Schema S("S", {{"x", 0, 400}, {"y", 0, 400}});
  auto Q = parseQueryExpr(S, "x + y <= 800");
  ASSERT_TRUE(Q.ok());
  SolverBudget NoDeadline;
  ForallResult R1 =
      checkForall(*exprPredicate(Q.value()), Box::top(S), NoDeadline);
  SolverBudget WithDeadline;
  WithDeadline.setDeadlineAfterMs(60'000);
  ForallResult R2 =
      checkForall(*exprPredicate(Q.value()), Box::top(S), WithDeadline);
  EXPECT_EQ(R1.Holds, R2.Holds);
  EXPECT_EQ(R1.Exhausted, R2.Exhausted);
  EXPECT_EQ(NoDeadline.used(), WithDeadline.used());
}

TEST(SolverBudget, ConcurrentChargesSaturateAtLimit) {
  // Charging stays thread-safe (the anosyd watchdog reaches budgets from
  // its own thread). Under concurrent charges exactly MaxNodes - 1
  // succeed, and the counter saturates at the cap instead of running past
  // it.
  SolverBudget Budget(1000);
  std::atomic<uint64_t> Succeeded{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T != 4; ++T)
    Threads.emplace_back([&] {
      while (Budget.charge())
        Succeeded.fetch_add(1);
      EXPECT_TRUE(Budget.exhausted());
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Succeeded.load(), Budget.MaxNodes - 1);
  EXPECT_EQ(Budget.used(), Budget.MaxNodes);
  EXPECT_TRUE(Budget.exhausted());
  EXPECT_FALSE(Budget.charge());
  EXPECT_EQ(Budget.used(), Budget.MaxNodes); // saturated, no further adds
}

TEST(SolverBudget, ChargeIsOverflowSafe) {
  // A counter close to UINT64_MAX must saturate, not wrap back below
  // MaxNodes (wrapping NodesUsed would turn an exhausted budget back into
  // "not exhausted").
  SolverBudget Budget(UINT64_MAX);
  Budget.NodesUsed.store(UINT64_MAX - 5);
  EXPECT_FALSE(Budget.charge(10)); // would overflow; clamps to UINT64_MAX
  EXPECT_EQ(Budget.used(), UINT64_MAX);
  EXPECT_TRUE(Budget.exhausted());
  EXPECT_FALSE(Budget.charge(10));
  EXPECT_EQ(Budget.used(), UINT64_MAX);

  SolverBudget Small(100);
  Small.NodesUsed.store(100);
  EXPECT_FALSE(Small.charge(UINT64_MAX)); // exhausted: nothing is added
  EXPECT_EQ(Small.used(), 100u);
}
