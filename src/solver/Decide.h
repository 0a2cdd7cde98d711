//===- solver/Decide.h - Branch-and-bound decision procedures ---*- C++ -*-===//
//
// Part of anosy-cpp (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The decision-procedure core replacing the paper's Z3 back end: complete
/// ∀/∃ deciders for Predicates over bounded integer boxes. Both work by
/// branch and bound — three-valued abstract evaluation prunes, Unknown
/// boxes split along their widest dimension, unit boxes evaluate
/// concretely. Over bounded domains this always terminates with an exact
/// answer (the query fragment of §5.1 plus bounded secrets makes the
/// theory decidable, which is the same reason the paper's Z3 encoding is
/// decidable).
///
/// Every entry point takes a shared Budget so long pipelines (synthesis,
/// verification) can bound total work; exhausting the budget is reported
/// explicitly, never converted into a wrong answer. Searches are serial:
/// without a wall-clock deadline, the same call charges the same nodes
/// every run.
///
//===----------------------------------------------------------------------===//

#ifndef ANOSY_SOLVER_DECIDE_H
#define ANOSY_SOLVER_DECIDE_H

#include "solver/Predicate.h"
#include "support/FaultInjection.h"

#include <chrono>
#include <cstdint>
#include <optional>

namespace anosy {

/// Work budget shared across solver calls: split-node counts unified with
/// an optional monotonic wall-clock deadline and an optional *parent*
/// budget (the per-session cumulative cap of DESIGN.md §6). A budget is
/// created and charged on one thread — the one running the searches it
/// bounds — so its fields are plain; the counter still saturates instead
/// of wrapping, so an exhausted budget can never flip back to "not
/// exhausted".
///
/// While a deadline is armed, every charge reads the steady clock; with
/// none, no charge does. A node's cost grows with the query, so no fixed
/// interval of nodes between two reads would bound the overrun. With no
/// deadline set the behavior (and hence every synthesized artifact) is
/// exactly the deterministic node-count contract; with a deadline,
/// *which* node trips it is timing-dependent, but the only possible
/// outcome is the sound "Exhausted" verdict that callers already treat as
/// "don't know" (never a wrong answer).
struct SolverBudget {
  using Clock = std::chrono::steady_clock;

  uint64_t MaxNodes = 200'000'000;
  uint64_t NodesUsed = 0;
  /// Session-wide budget also charged by every charge() here; exhausting
  /// the parent exhausts this budget. Borrowed, never owned.
  SolverBudget *Parent = nullptr;
  /// Monotonic deadline; only consulted when HasDeadline.
  Clock::time_point Deadline{};
  bool HasDeadline = false;
  /// Latched when the deadline expires or a solver-charge fault is
  /// injected; charge() then refuses everything, like a spent budget.
  bool Expired = false;
  /// Latched only by the deadline check — never by fault injection — so
  /// callers can tell "out of time" from "out of nodes" when mapping
  /// degradations to reason codes.
  bool DeadlineHit = false;

  SolverBudget() = default;
  explicit SolverBudget(uint64_t Max) : MaxNodes(Max) {}
  SolverBudget(const SolverBudget &) = delete;
  SolverBudget &operator=(const SolverBudget &) = delete;

  /// Arms the wall-clock deadline \p Ms milliseconds from now.
  void setDeadlineAfterMs(uint64_t Ms) {
    Deadline = Clock::now() + std::chrono::milliseconds(Ms);
    HasDeadline = true;
  }

  uint64_t used() const { return NodesUsed; }
  bool expired() const {
    return Expired || (Parent != nullptr && Parent->expired());
  }
  /// True iff the expiry came from a wall-clock deadline (here or in a
  /// parent), not from node exhaustion or an injected fault.
  bool deadlineExpired() const {
    return DeadlineHit || (Parent != nullptr && Parent->deadlineExpired());
  }
  bool exhausted() const {
    return NodesUsed >= MaxNodes || Expired ||
           (Parent != nullptr && Parent->exhausted());
  }

  /// Charges \p N nodes; returns false once the budget is exhausted (node
  /// cap reached, deadline expired, parent exhausted, or an injected
  /// solver-charge fault). The charge that reaches MaxNodes is itself
  /// rejected, and nothing is added once the limit has been reached.
  bool charge(uint64_t N = 1) {
    if (Parent != nullptr && !Parent->charge(N))
      return false;
    if (Expired)
      return false;
    if (faults::armed() && faults::shouldFail(FaultSite::SolverCharge)) {
      Expired = true;
      return false;
    }
    if (NodesUsed >= MaxNodes)
      return false;
    NodesUsed = NodesUsed > UINT64_MAX - N ? UINT64_MAX : NodesUsed + N;
    if (HasDeadline && Clock::now() >= Deadline) {
      DeadlineHit = true;
      Expired = true;
      return false;
    }
    return NodesUsed < MaxNodes;
  }
};

/// Outcome of a ∀-check.
struct ForallResult {
  /// True when every point of the box satisfies the predicate. Meaningless
  /// when Exhausted.
  bool Holds = false;
  /// A falsifying point when !Holds.
  std::optional<Point> CounterExample;
  /// Budget ran out before a decision; treat as "don't know".
  bool Exhausted = false;
};

/// Decides ∀x ∈ B. P(x). \p B may be empty (vacuously true).
ForallResult checkForall(const Predicate &P, const Box &B,
                         SolverBudget &Budget);

/// Outcome of an ∃-search.
struct ExistsResult {
  /// A satisfying point if one exists.
  std::optional<Point> Witness;
  bool Exhausted = false;
};

/// Decides ∃x ∈ B. P(x) and produces a witness. \p B may be empty.
ExistsResult findWitness(const Predicate &P, const Box &B,
                         SolverBudget &Budget);

/// Like findWitness but explores subboxes in an order derived from
/// \p SeedSalt, yielding diverse witnesses across calls — the restart
/// mechanism of the box grower. The order is a pure function of the
/// subbox's position in the split tree and the salt.
ExistsResult findWitnessDiverse(const Predicate &P, const Box &B,
                                uint64_t SeedSalt, SolverBudget &Budget);

} // namespace anosy

#endif // ANOSY_SOLVER_DECIDE_H
